"""Theorem verification over corpora, with per-graph diagnosis.

For each graph the hypotheses of the selected theorem are checked one by
one; graphs failing any hypothesis count as vacuous (counted, never
hidden). The conclusion comes from structure.theorem_case, the engine the
colorings run on. A violation is a hypothesis-satisfying graph whose conclusion
fails, reported with enough detail to replay from its graph6 string.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .coloring import _color_member
from .families import _base_by_name, generate
from .graphs import Graph, GraphError, StructuralContradiction, max_clique_size, write_graph6
from .patterns import THEOREM_CLASS, THEOREMS, class_membership
from .structure import find_clique_cutset, theorem_case

@dataclass
class VerificationRun:
    """Aggregate result of checking one theorem over a corpus."""

    theorem: str
    corpus: str
    total: int = 0
    members: int = 0
    checked: int = 0
    verified: int = 0
    violated: int = 0
    vacuous: int = 0
    violations: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


def check_theorem(g: Graph, theorem: str) -> dict:
    """Diagnose one graph against one theorem; returns a status dict."""
    if theorem not in THEOREMS:
        raise GraphError(f"unknown theorem {theorem!r}")
    cls = THEOREM_CLASS[theorem]
    diag: dict = {"theorem": theorem, "class": cls}
    cert = class_membership(g, cls)
    diag["member"] = cert.free
    if not cert.free:
        diag["witness"] = cert.witness.to_json()
        return _vacuous(diag, f"not a {cls} member")
    if g.n == 0:
        return _vacuous(diag, "empty graph")
    if theorem.startswith("C"):
        return _check_coloring_bound(g, theorem, diag)
    return _check_structure_theorem(g, theorem, diag)


def _vacuous(diag: dict, reason: str) -> dict:
    diag["status"] = "vacuous"
    diag["reason"] = reason
    return diag


def _check_structure_theorem(g: Graph, theorem: str, diag: dict) -> dict:
    if not g.is_connected():
        return _vacuous(diag, "disconnected")
    omega = max_clique_size(g)
    delta = g.min_degree()
    diag["omega"] = omega
    diag["delta"] = delta

    if theorem == "T2" and delta < omega + 1:
        return _vacuous(diag, f"delta {delta} < omega+1 = {omega + 1}")

    split = find_clique_cutset(g)
    if split is not None:
        _vacuous(diag, "has a clique cutset")
        diag["cutset"] = sorted(split.cutset)
        return diag

    case = theorem_case(g, g.full_mask(), THEOREM_CLASS[theorem], omega)
    if theorem == "T1":
        if case.kind == "petersen":
            return _vacuous(diag, "exceptional graph Petersen")
        ok = case.kind == "eliminate"
        diag["conclusion"] = f"delta {delta} <= max(2, omega-1) = {max(2, omega - 1)}"
    elif theorem == "T2":
        diag["ell"] = case.peel.ell
        name = "Petersen" if case.kind in ("petersen", "peeled-petersen") else None
        diag["remainder"] = name
        ok = name is not None
        diag["conclusion"] = f"peel remainder is {name or 'neither Petersen nor F'}"
    else:  # T3
        if case.kind == "petersen-blowup":
            return _vacuous(diag, "clique blowup of the Petersen graph")
        ok = case.kind == "eliminate"
        diag["conclusion"] = f"bisimplicial vertex {case.vertex}" if ok else "no bisimplicial vertex"
    diag["status"] = "verified" if ok else "violated"
    return diag


def _check_coloring_bound(g: Graph, theorem: str, diag: dict) -> dict:
    try:
        # check_theorem has already established membership
        cert = _color_member(g, THEOREM_CLASS[theorem])
    except StructuralContradiction as exc:
        diag["status"] = "violated"
        diag["reason"] = f"structural contradiction: {exc.detail}"
        diag["contradiction_graph6"] = exc.graph6
        return diag
    except GraphError as exc:
        diag["status"] = "violated"
        diag["reason"] = f"invalid certificate: {exc}"
        return diag
    diag["status"] = "verified"
    diag["colors_used"] = cert.colors_used
    diag["claimed_bound"] = cert.claimed_bound
    return diag


def verify_corpus(graphs, theorem: str, corpus: str = "") -> VerificationRun:
    """Run one theorem over an iterable of graphs, aggregating outcomes."""
    run = VerificationRun(theorem=theorem, corpus=corpus)
    for g in graphs:
        diag = check_theorem(g, theorem)
        run.total += 1
        if diag.get("member"):
            run.members += 1
        if diag["status"] == "vacuous":
            run.vacuous += 1
        else:
            run.checked += 1
            if diag["status"] == "verified":
                run.verified += 1
            else:
                run.violated += 1
                run.violations.append({"graph6": write_graph6(g), "diagnosis": diag})
    return run


def standard_blowup_corpus(base_name: str, max_total: int) -> list[tuple[str, Graph]]:
    """Deterministic blowup instances of a named base: uniform sizes, single
    and double +1 bumps, and single +2 bumps, capped at max_total vertices."""
    base = _base_by_name(base_name)
    n = base.n
    vectors: list[tuple[int, ...]] = []
    t = 1
    while n * t <= max_total:
        vectors.append((t,) * n)
        t += 1
    if n + 1 <= max_total:
        for i in range(n):
            vectors.append(tuple(2 if j == i else 1 for j in range(n)))
    if n + 2 <= max_total:
        for i in range(n):
            for j in range(i + 1, n):
                vectors.append(tuple(2 if k in (i, j) else 1 for k in range(n)))
        for i in range(n):
            vectors.append(tuple(3 if j == i else 1 for j in range(n)))
    out = []
    for vec in vectors:
        label = f"blowup({base_name},{','.join(map(str, vec))})"
        out.append((label, generate("blowup", base=base, sizes=vec)))
    return out

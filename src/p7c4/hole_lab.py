"""Neighborhood-type partition around a fixed 7-hole, plus the mechanical
property battery over it.

Two partition modes exist because the diamond-flavored and gem-flavored
analyses type the same neighborhoods differently:

  diamond mode:  X_i = {x : N(x) cap A = {a_i, a_{i+3}}}
                 Y_i = {x : N(x) cap A = {a_i, a_{i+3}, a_{i+4}}}
  gem mode:      X_i as above
                 Y_i = {x : N(x) cap A = {a_i, a_{i+1}, a_{i+2}}}
                 Z_i = {x : N(x) cap A = {a_i, a_{i+3}, a_{i+4}}}

Indices are 0-based here (set i corresponds to hole position i) and all
arithmetic is modulo 7. Every property is evaluated as a direct finite
predicate; a failing property carries a concrete counterexample tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, _bits, _mask
from .patterns import _search_induced_cycles

MODES = ("diamond", "gem")

DIAMOND_PROPERTIES = ("NA-1", "NA-2", "NA-3", "NA-4", "NA-5", "NA-6")
GEM_PROPERTIES = tuple(f"M{i}" for i in range(1, 15))


@dataclass(frozen=True)
class SevenHolePartition:
    """The hole A plus the typed partition of N(A); R is everything else.

    unclassified collects N(A) vertices matching no type; it is empty exactly
    when the coverage property (NA-1 / M1) holds.
    """

    hole: tuple[int, ...]
    mode: str
    X: tuple[frozenset[int], ...]
    Y: tuple[frozenset[int], ...]
    Z: tuple[frozenset[int], ...]
    R: frozenset[int]
    unclassified: frozenset[int]

    def to_json(self) -> dict:
        return {
            "hole": list(self.hole),
            "mode": self.mode,
            "X": [sorted(s) for s in self.X],
            "Y": [sorted(s) for s in self.Y],
            "Z": [sorted(s) for s in self.Z],
            "R": sorted(self.R),
            "unclassified": sorted(self.unclassified),
        }


@dataclass(frozen=True)
class PropertyReport:
    """Verdict for one property; counterexample present iff it fails."""

    property_id: str
    holds: bool
    counterexample: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "property": self.property_id,
            "holds": self.holds,
            "counterexample": list(self.counterexample) if self.counterexample else None,
        }


def _check_hole(g: Graph, hole: tuple[int, ...]) -> None:
    if len(hole) != 7 or len(set(hole)) != 7:
        raise GraphError("hole must list seven distinct vertices")
    if any(v < 0 or v >= g.n for v in hole):
        raise GraphError("hole vertex out of range")
    for i in range(7):
        for j in range(i + 1, 7):
            want = (j - i) % 7 in (1, 6)
            if g.has_edge(hole[i], hole[j]) != want:
                raise GraphError("vertices do not induce a 7-hole in cycle order")


def partition_around_hole(g: Graph, hole: tuple[int, ...], mode: str) -> SevenHolePartition:
    """Classify every vertex into A, an X_i/Y_i/Z_i, R, or unclassified."""
    if mode not in MODES:
        raise GraphError(f"unknown mode {mode!r}")
    _check_hole(g, hole)
    amask = _mask(hole)
    templates: dict[frozenset[int], tuple[str, int]] = {}
    for i in range(7):
        x_t = frozenset({hole[i], hole[(i + 3) % 7]})
        templates[x_t] = ("X", i)
        spread = frozenset({hole[i], hole[(i + 3) % 7], hole[(i + 4) % 7]})
        if mode == "diamond":
            templates[spread] = ("Y", i)
        else:
            templates[spread] = ("Z", i)
            consec = frozenset({hole[i], hole[(i + 1) % 7], hole[(i + 2) % 7]})
            templates[consec] = ("Y", i)
    X = [set() for _ in range(7)]
    Y = [set() for _ in range(7)]
    Z = [set() for _ in range(7)]
    rest = []
    unclassified = []
    for v in range(g.n):
        if amask >> v & 1:
            continue
        inter = g.adj[v] & amask
        if not inter:
            rest.append(v)
            continue
        got = templates.get(frozenset(_bits(inter)))
        if got is None:
            unclassified.append(v)
        else:
            kind, i = got
            {"X": X, "Y": Y, "Z": Z}[kind][i].add(v)
    return SevenHolePartition(
        hole=tuple(hole),
        mode=mode,
        X=tuple(frozenset(s) for s in X),
        Y=tuple(frozenset(s) for s in Y),
        Z=tuple(frozenset(s) for s in Z),
        R=frozenset(rest),
        unclassified=frozenset(unclassified),
    )


def _first_pair(g: Graph, left: frozenset[int], right: frozenset[int], adjacent: bool):
    """Smallest cross pair that is (non)adjacent, or None."""
    for u in sorted(left):
        for v in sorted(right):
            if u != v and g.has_edge(u, v) == adjacent:
                return (u, v)
    return None


def _union(sets, idxs) -> frozenset[int]:
    out = set()
    for i in idxs:
        out |= sets[i % 7]
    return frozenset(out)


def _dichotomy(sets_a, sets_b, offsets) -> tuple[int, ...] | None:
    """First (u, v) with u in sets_a[i] and v in sets_b[i+off], if both nonempty."""
    for i in range(7):
        if not sets_a[i]:
            continue
        other = _union(sets_b, [i + off for off in offsets])
        if other:
            return (min(sets_a[i]), min(other))
    return None


# Properties about pairs u in S_i, v in T_{i+o}: (S, T, offsets o, the
# adjacency of u and v that violates the property). None marks a dichotomy:
# S_i and the union of the T_{i+o} must not both be inhabited.
_PAIR_RULES = {
    "NA-4": ("X", "X", (2, 5), None),
    "NA-5": ("Y", "Y", (3, 4), None),
    "NA-6": ("X", "Y", (0, 1, 2, 3), None),
    "M3": ("Y", "Y", (1, 6), False),
    "M4": ("Y", "Y", (2, 3, 4, 5), True),
    "M5": ("X", "X", (2, 5), None),
    "M6": ("X", "X", (1, 3, 4, 6), True),
    "M7": ("X", "Y", (2, 6), False),
    "M8": ("X", "Y", (0, 1, 3, 4, 5), True),
    "M9": ("Z", "Z", (3, 4), None),
    "M10": ("Z", "Z", (1, 2, 5, 6), True),
    "M11": ("Z", "X", (0, 4, 6), None),
    "M12": ("Z", "X", (1, 2, 3, 5), True),
    "M13": ("Z", "Y", (2, 3, 6), False),
    "M14": ("Z", "Y", (0, 1, 4, 5), True),
}


def _pair_report(g: Graph, part: SevenHolePartition, pid: str) -> PropertyReport:
    kind_a, kind_b, offsets, adjacent = _PAIR_RULES[pid]
    sets_a, sets_b = getattr(part, kind_a), getattr(part, kind_b)
    if adjacent is None:
        ce = _dichotomy(sets_a, sets_b, offsets)
    else:
        for i in range(7):
            ce = _first_pair(g, sets_a[i], _union(sets_b, [i + o for o in offsets]), adjacent)
            if ce:
                break
    return PropertyReport(pid, ce is None, ce)


def check_diamond_properties(g: Graph, part: SevenHolePartition) -> list[PropertyReport]:
    """Evaluate NA-1..NA-6 on a diamond-mode partition."""
    if part.mode != "diamond":
        raise GraphError("diamond property battery needs a diamond-mode partition")
    X, Y = part.X, part.Y
    reports = []

    # NA-1: N(A) is covered by the X_i and Y_i
    bad = min(part.unclassified) if part.unclassified else None
    reports.append(PropertyReport("NA-1", bad is None, (bad,) if bad is not None else None))

    # NA-2: each X_i and Y_i has at most one element
    ce = None
    for i in range(7):
        for s in (X[i], Y[i]):
            if len(s) > 1:
                a, b = sorted(s)[:2]
                ce = (a, b)
                break
        if ce:
            break
    reports.append(PropertyReport("NA-2", ce is None, ce))

    # NA-3: N(A) is a stable set
    na = frozenset().union(*X, *Y, part.unclassified)
    ce = _first_pair(g, na, na, adjacent=True)
    reports.append(PropertyReport("NA-3", ce is None, ce))

    # NA-4..NA-6: the dichotomies of _PAIR_RULES
    reports += [_pair_report(g, part, pid) for pid in DIAMOND_PROPERTIES[3:]]
    return reports


def check_gem_properties(g: Graph, part: SevenHolePartition) -> list[PropertyReport]:
    """Evaluate M1..M14 on a gem-mode partition."""
    if part.mode != "gem":
        raise GraphError("gem property battery needs a gem-mode partition")
    X, Y, Z = part.X, part.Y, part.Z
    reports = []

    # M1: coverage of N(A)
    bad = min(part.unclassified) if part.unclassified else None
    reports.append(PropertyReport("M1", bad is None, (bad,) if bad is not None else None))

    # M2: X_i cup Z_i and Y_i are cliques
    ce = None
    for i in range(7):
        xz = X[i] | Z[i]
        ce = _first_pair(g, xz, xz, adjacent=False) or _first_pair(g, Y[i], Y[i], adjacent=False)
        if ce:
            break
    reports.append(PropertyReport("M2", ce is None, ce))

    # M3..M14: the complete, anticomplete and dichotomy rules of _PAIR_RULES
    reports += [_pair_report(g, part, pid) for pid in GEM_PROPERTIES[2:]]
    return reports


def recheck_counterexample(g: Graph, part: SevenHolePartition, report: PropertyReport) -> bool:
    """Confirm that a failing report's tuple really violates its property."""
    if report.holds or report.counterexample is None:
        return False
    pid = report.property_id
    ce = report.counterexample

    def locate(v):
        for kind, sets in (("X", part.X), ("Y", part.Y), ("Z", part.Z)):
            for i in range(7):
                if v in sets[i]:
                    return kind, i
        return None

    if pid in ("NA-1", "M1"):
        return ce[0] in part.unclassified
    if pid == "NA-2":
        u, v = ce
        pu, pv = locate(u), locate(v)
        return pu is not None and pu == pv
    if pid == "NA-3":
        u, v = ce
        na = set().union(*part.X, *part.Y, part.unclassified)
        return u in na and v in na and g.has_edge(u, v)
    if pid == "M2":
        u, v = ce
        pu, pv = locate(u), locate(v)
        if pu is None or pv is None or pu[1] != pv[1]:
            return False
        same_clique = (pu[0] in "XZ" and pv[0] in "XZ") or (pu[0] == pv[0] == "Y")
        return same_clique and not g.has_edge(u, v)

    if pid not in _PAIR_RULES:
        return False
    kind_a, kind_b, offsets, adjacent = _PAIR_RULES[pid]
    u, v = ce
    pu, pv = locate(u), locate(v)
    if pu is None or pv is None or pu[0] != kind_a or pv[0] != kind_b:
        return False
    if (pv[1] - pu[1]) % 7 not in tuple(o % 7 for o in offsets):
        return False
    if adjacent is None:
        return True  # dichotomy: both sets inhabited is already the violation
    return g.has_edge(u, v) == adjacent


def all_seven_holes(g: Graph) -> list[tuple[int, ...]]:
    """Every induced 7-cycle, one lex-least cycle-order tuple per vertex set."""
    holes: list[tuple[int, ...]] = []

    def keep(hole: tuple[int, ...]) -> bool:
        holes.append(hole)
        return False

    # every vertex stays a candidate: twins of a hole's vertices make other holes
    _search_induced_cycles(g, 7, keep, g.full_mask())
    return holes

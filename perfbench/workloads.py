"""Inputs, timed parts and output checks of the three benchmark workloads.

Each workload is a closed loop: one caller sends the next op only after the
previous one has returned. A pass of a workload is a fixed amount of work
whose inputs come from the seed alone, so every pass of a run repeats the
same ops, and a faster program finishes a pass sooner instead of doing more
work in it. Every library call goes through a module attribute
(`patterns.class_membership`, not a bound name), so the tracer's wrappers
see it.

A workload has three functions:
  build(seed) -> inputs                  the set-up, untimed
  run(inputs, ops, in_process) -> out    the timed part; one `ops` record per op
  check(inputs, out, ops) -> (correct, sha256, notes)   untimed, untraced;
                                         marks ops whose output fails a check
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from random import Random

from p7c4 import cli, coloring, enumerate as enum, families, graphs, patterns, structure, verify
from speed import Speedometer

CLASSES = ("diamond", "kite", "gem")


class Ops:
    """Start, end and outcome of every op of a pass, plus a graph6 repro of
    each failure. Between ops it takes the reference samples that give the
    machine's pace."""

    def __init__(self, tracer=None, in_children: bool = False) -> None:
        self.tracer = tracer
        self.meter = Speedometer(in_children)
        self.intervals: list[tuple[float, float]] = []
        self.failed: list[bool] = []
        self.failures: list[dict] = []

    def begin(self, op_id: int) -> float:
        self.meter.maybe_sample()
        if self.tracer is not None:
            self.tracer.op_id = op_id
        return time.perf_counter()

    def ok(self, started: float) -> None:
        self.intervals.append((started, time.perf_counter()))
        self.failed.append(False)

    def fail(self, started: float, repro: str, error: str) -> None:
        self.intervals.append((started, time.perf_counter()))
        self.failed.append(True)
        self.failures.append({"op": len(self.intervals) - 1, "input": repro, "error": error})

    def mark_failed(self, op: int, repro: str, error: str) -> None:
        """An op that returned but whose output failed its check."""
        if not self.failed[op]:
            self.failed[op] = True
            self.failures.append({"op": op, "input": repro, "error": error})


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


def _rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# exhaustive: the paper's theorem check over every class member on n <= 8

MAX_N = 8
THEOREMS = (("T1", "diamond"), ("T2", "kite"), ("T3", "gem"),
            ("C1", "diamond"), ("C2", "kite"), ("C3", "gem"))
# (P7, C4)-free graphs and class members on 1..8 vertices
PINNED_COUNTS = {"p7c4-free": 3122, "diamond": 685, "kite": 1393, "gem": 1736}
# total, members, checked, verified, violated, vacuous
PINNED_TALLIES = {
    "T1": (685, 685, 19, 19, 0, 666),
    "T2": (1393, 1393, 0, 0, 0, 1393),
    "T3": (1736, 1736, 43, 43, 0, 1693),
    "C1": (685, 685, 685, 685, 0, 0),
    "C2": (1393, 1393, 1393, 1393, 0, 0),
    "C3": (1736, 1736, 1736, 1736, 0, 0),
}


def exhaustive_build(seed: int):
    return None  # the input is exhaustive, so the seed has nothing to choose


def exhaustive_run(_inputs, ops: Ops, in_process: bool):
    free = [g for n in range(1, MAX_N + 1) for g in enum.p7c4_free_graphs(n)]
    corpora = {
        cls: [g for n in range(1, MAX_N + 1) for g in enum.class_members(cls, n)]
        for cls in CLASSES
    }
    runs = {th: _verify_each(corpora[cls], th, ops) for th, cls in THEOREMS}
    return free, corpora, runs


def _verify_each(corpus, theorem: str, ops: Ops) -> dict:
    """verify_corpus with one op per check_theorem call.

    The corpus reaches verify_corpus through a generator that timestamps each
    hand-over, so the library runs unmodified. If one graph raises, that op
    fails with its graph6 and a new corpus run resumes after it; the tallies
    then lack the graphs before the crash, so the pinned-tally check fails too.
    """
    tallies = dict(total=0, members=0, checked=0, verified=0, violated=0, vacuous=0, violations=[])
    first = 0
    while first < len(corpus):
        at = [first, 0.0]

        def timed(start):
            for i in range(start, len(corpus)):
                at[0] = i
                at[1] = ops.begin(len(ops.intervals))
                yield corpus[i]
                ops.ok(at[1])

        try:
            run = verify.verify_corpus(timed(first), theorem).to_json()
        except Exception as exc:  # the op boundary: record and go on
            ops.fail(at[1], graphs.write_graph6(corpus[at[0]]), _error(exc))
            first = at[0] + 1
            continue
        for key in tallies:
            tallies[key] += run[key]
        break
    return tallies


def exhaustive_check(_inputs, out, _ops: Ops):
    free, corpora, runs = out
    notes = []
    counts = {"p7c4-free": len(free), **{cls: len(corpora[cls]) for cls in CLASSES}}
    if counts != PINNED_COUNTS:
        notes.append(f"corpus counts {counts} != pinned {PINNED_COUNTS}")
    for th, run in runs.items():
        got = tuple(run[k] for k in ("total", "members", "checked", "verified", "violated", "vacuous"))
        if got != PINNED_TALLIES[th] or run["violations"]:
            notes.append(f"{th} tallies {got} != pinned {PINNED_TALLIES[th]}")
    chunks = [" ".join(graphs.write_graph6(g) for g in free)]
    chunks += [" ".join(graphs.write_graph6(g) for g in corpora[cls]) for cls in CLASSES]
    chunks += [json.dumps(runs[th], sort_keys=True) for th, _ in THEOREMS]
    return not notes, _sha(chunks), notes


# ---------------------------------------------------------------------------
# large_members: big class members built by construction

# Dense size ladders, so that op_p50_ms and op_tail_ms fall among many ops
# of similar cost and no single op decides them.
C7_TOTALS = (14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 30)
PETERSEN_TOTALS = (20, 21, 22, 23, 24, 25, 26, 27, 28, 30, 32)
KITE_CLIQUES = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22)  # l of K_l + Petersen, give or take 1
SPIDER_LEGS = (8, 12, 16, 20, 25, 30, 37, 44, 50, 255)  # 255 legs: n = 511, the vertex cap
WINDMILL_BLADES = (8, 12, 16, 20, 25, 30, 37, 44, 50)
BOUNDS = {"diamond": lambda w: max(3, w), "kite": lambda w: w + 1, "gem": lambda w: 2 * w - 1}


def spider(legs: int):
    """A centre 0 with `legs` paths of two edges: 0 - 2i+1 - 2i+2."""
    edges = [e for i in range(legs) for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2))]
    return graphs.Graph(1 + 2 * legs, edges)


def windmill(blades: int):
    """`blades` triangles sharing the centre 0."""
    edges = [e for i in range(blades) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))]
    return graphs.Graph(1 + 2 * blades, edges)


def _sizes(rng: Random, total: int, parts: int, least: int) -> list[int]:
    """Class sizes summing to total, each at least `least`: as even as
    possible, then `parts` random moves of one vertex between classes.
    Near-even sizes keep omega, and so the cost, close across seeds."""
    sizes = [total // parts + (i < total % parts) for i in range(parts)]
    rng.shuffle(sizes)
    for _ in range(parts):
        a, b = rng.randrange(parts), rng.randrange(parts)
        if sizes[a] > least:
            sizes[a] -= 1
            sizes[b] += 1
    return sizes


def _members(rng: Random, c7_totals, petersen_totals, kite_cliques, legs, blades):
    """(label, graph, classes it belongs to) for constructed class members.

    Clique blowups with every class of size >= 2 contain a diamond and a
    kite, so they are gem-class only; K_l + Petersen is kite-class only;
    spiders and windmills lie in all three classes.
    """
    c7 = graphs.cycle_graph(7)
    pet = families.petersen()
    items = []
    for total in c7_totals:
        sizes = _sizes(rng, total, 7, 2)
        items.append((f"blowup(C7,{sizes})", graphs.clique_blowup(c7, sizes), ("gem",)))
    for total in petersen_totals:
        sizes = _sizes(rng, total, 10, 2)
        items.append((f"blowup(Petersen,{sizes})", graphs.clique_blowup(pet, sizes), ("gem",)))
    for centre in kite_cliques:
        ell = centre + rng.randint(-1, 1)
        items.append((f"K{ell}+Petersen", graphs.join_with_clique(pet, ell), ("kite",)))
    items += [(f"spider({k})", spider(k), CLASSES) for k in legs]
    items += [(f"windmill({k})", windmill(k), CLASSES) for k in blades]
    return items


def large_build(seed: int):
    """(label, graph, class whose colourer runs), in a seeded order."""
    rng = _rng("large_members", seed)
    items = [(label, g, rng.choice(member_of)) for label, g, member_of in
             _members(rng, C7_TOTALS, PETERSEN_TOTALS, KITE_CLIQUES, SPIDER_LEGS, WINDMILL_BLADES)]
    rng.shuffle(items)
    return items


def large_run(items, ops: Ops, in_process: bool):
    out = []
    for i, (label, g, cls) in enumerate(items):
        started = ops.begin(i)
        try:
            member = patterns.class_membership(g, cls)
            tree = structure.decompose_into_atoms(g)
            cert = getattr(coloring, f"color_{cls}_class")(g)
        except Exception as exc:  # the op boundary: record and go on
            ops.fail(started, graphs.write_graph6(g), _error(exc))
            out.append(None)
            continue
        ops.ok(started)
        out.append((member, tree, cert))
    return out


def large_check(items, out, ops: Ops):
    notes = []
    chunks = []
    for i, ((label, g, cls), got) in enumerate(zip(items, out)):
        if got is None:
            chunks.append(f"{label} failed")
            continue
        member, tree, cert = got
        try:
            if not member.free:
                raise graphs.GraphError(f"constructed {cls}-class member reported with {member.witness}")
            splits = _validate_tree(g, tree)
            coloring.validate_certificate(g, cert)
            bound = BOUNDS[cls](graphs.max_clique_size(g))
            if cert.claimed_bound != bound:
                raise graphs.GraphError(f"claimed bound {cert.claimed_bound} != {bound}")
        except graphs.GraphError as exc:
            ops.mark_failed(i, graphs.write_graph6(g), f"check: {exc}")
            notes.append(f"{label}: {exc}")
            continue
        chunks.append(json.dumps([label, member.to_json(), splits, cert.to_json()], sort_keys=True))
    return not notes, _sha(chunks), notes


def _validate_tree(g, tree) -> list:
    """validate_split on every split of an atom tree, walked without recursion
    (trees of deep inputs are deeper than Python's recursion limit).
    Returns the tree in preorder as plain lists, for the output hash."""
    flat = []
    stack = [tree]
    covered = set()
    while stack:
        node = stack.pop()
        if node.atom is not None:
            flat.append(sorted(node.atom))
            covered |= node.atom
            continue
        split = node.split
        block = sorted(split.cutset | split.side_a | split.side_b)
        local = {v: i for i, v in enumerate(block)}
        structure.validate_split(graphs.induced_subgraph(g, block), structure.CliqueCutsetSplit(
            cutset=frozenset(local[v] for v in split.cutset),
            side_a=frozenset(local[v] for v in split.side_a),
            side_b=frozenset(local[v] for v in split.side_b),
        ))
        flat.append([sorted(split.cutset), sorted(split.side_a), sorted(split.side_b)])
        stack.append(node.right)
        stack.append(node.left)
    if covered != set(range(g.n)):
        raise graphs.GraphError("atoms do not cover the vertex set")
    return flat


# ---------------------------------------------------------------------------
# cli_batch: sequential `python -m p7c4.cli` invocations on graph6 chunks

CHUNKS = 6
CHUNK_GRAPHS = 60
GNP_N = (8, 14)
GNP_P = 0.25  # about 10% of connected G(n, 0.25), n = 8..14, are class members
RANDOM_COMMANDS = (
    ("classify", "--class", "diamond"),
    ("classify", "--class", "kite"),
    ("classify", "--class", "gem"),
    ("oracle-check",),
    ("analyze-hole", "--mode", "gem", "--all-holes"),
    ("decompose",),
)
# `color` aborts the whole batch on one non-member, so it gets constructed members
COLOR_MEMBERS = dict(c7_totals=(14, 16, 18, 21), petersen_totals=(20, 22, 25),
                     kite_cliques=(2, 5, 8),
                     legs=(3, 5, 8, 12, 20), blades=(2, 4, 6, 10, 15))


def _gnp(rng: Random, n: int, p: float):
    while True:
        g = graphs.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if g.is_connected():
            return g


def cli_build(seed: int):
    rng = _rng("cli_batch", seed)
    calls = []
    for _ in range(CHUNKS):
        lines = [graphs.write_graph6(_gnp(rng, rng.randint(*GNP_N), GNP_P)) for _ in range(CHUNK_GRAPHS)]
        calls += [(list(argv), lines) for argv in RANDOM_COMMANDS]
    members = _members(rng, **COLOR_MEMBERS)
    for cls in CLASSES:
        lines = [graphs.write_graph6(g) for _, g, member_of in members if cls in member_of]
        calls.append((["color", "--class", cls], lines))
    return calls


def cli_run(calls, ops: Ops, in_process: bool):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = []
    for i, (argv, lines) in enumerate(calls):
        text = "\n".join(lines) + "\n"
        started = ops.begin(i)
        if in_process:
            code, stdout = _cli_in_process(argv, text)
        else:
            # no timeout (run.py's deadline kills the process group): with
            # one, waiting for the exit polls with growing sleeps
            proc = subprocess.run([sys.executable, "-m", "p7c4.cli", *argv, "--corpus", "-"],
                                  input=text, capture_output=True, text=True, env=env)
            code, stdout = proc.returncode, proc.stdout
        if code == 0:
            ops.ok(started)
        else:
            ops.fail(started, lines[0], f"exit {code}: {' '.join(argv)}")
        out.append((code, stdout))
    return out


def _cli_in_process(argv, text):
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.cli_main([*argv, "--corpus", "-"])
    except Exception as exc:  # the op boundary: an escaped exception is a failed op
        code = f"exception {_error(exc)}"
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


def cli_check(calls, out, ops: Ops):
    notes = []
    chunks = []
    for i, ((argv, lines), (code, stdout)) in enumerate(zip(calls, out)):
        chunks.append(f"{' '.join(argv)} exit {code}\n{stdout}")
        if code != 0:
            continue
        got = stdout.splitlines()
        try:
            if len(got) != len(lines):
                raise ValueError(f"{len(got)} JSON lines for {len(lines)} inputs")
            for line, sent in zip(got, lines):
                obj = json.loads(line)
                if obj.get("input") != sent or obj.get("command") != argv[0]:
                    raise ValueError(f"output line for {obj.get('input')!r}, expected {sent!r}")
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            ops.mark_failed(i, lines[0], f"check: {exc}")
            notes.append(f"{' '.join(argv)}: {exc}")
    return not notes, _sha(chunks), notes


WORKLOADS = {
    "exhaustive": (exhaustive_build, exhaustive_run, exhaustive_check),
    "large_members": (large_build, large_run, large_check),
    "cli_batch": (cli_build, cli_run, cli_check),
}

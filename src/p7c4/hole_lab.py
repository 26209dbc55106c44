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
arithmetic is modulo 7. Coverage (NA-1, M1: every vertex of N(A) has a
type) fails on the least unclassified vertex, and NA-3 (N(A) is stable) on
the least adjacent pair in N(A). Every other property is a tuple of rows
(S, T, offsets, adjacency) in _PAIR_RULES. A row is violated by u in S_i
and v in T_{i+o}, o in offsets, u != v, whose adjacency equals the row's;
adjacency None makes every such pair a violation, so S_i and the T_{i+o}
must not both be inhabited. S and T name a family or a union of families
("XZ" is X_i cup Z_i). The counterexample is the first violating pair,
ordered by i, then by row, then by u and v ascending. The re-check matches
a reported pair against the same rows.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, GraphError, _mask
from .patterns import _search_induced_cycles

MODES = ("diamond", "gem")

DIAMOND_PROPERTIES = ("NA-1", "NA-2", "NA-3", "NA-4", "NA-5", "NA-6")
GEM_PROPERTIES = tuple(f"M{i}" for i in range(1, 15))
_PROPERTIES = {"diamond": DIAMOND_PROPERTIES, "gem": GEM_PROPERTIES}


class SevenHolePartition(NamedTuple):
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


class PropertyReport(NamedTuple):
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
    bit = [1 << a for a in hole]
    X, Y, Z = ([set() for _ in range(7)] for _ in range(3))
    rest, unclassified = set(), set()
    # the hole vertices a vertex sees, as a mask, name the set it joins
    targets = {0: rest}
    for i in range(7):
        x = bit[i] | bit[(i + 3) % 7]
        targets[x] = X[i]
        targets[x | bit[(i + 4) % 7]] = (Y if mode == "diamond" else Z)[i]
        if mode == "gem":
            targets[bit[i] | bit[(i + 1) % 7] | bit[(i + 2) % 7]] = Y[i]
    for v in range(g.n):
        if not amask >> v & 1:
            targets.get(g.adj[v] & amask, unclassified).add(v)
    return SevenHolePartition(
        hole=tuple(hole),
        mode=mode,
        X=tuple(frozenset(s) for s in X),
        Y=tuple(frozenset(s) for s in Y),
        Z=tuple(frozenset(s) for s in Z),
        R=frozenset(rest),
        unclassified=frozenset(unclassified),
    )


_PAIR_RULES = {
    "NA-2": (("X", "X", (0,), None), ("Y", "Y", (0,), None)),
    "NA-4": (("X", "X", (2, 5), None),),
    "NA-5": (("Y", "Y", (3, 4), None),),
    "NA-6": (("X", "Y", (0, 1, 2, 3), None),),
    "M2": (("XZ", "XZ", (0,), False), ("Y", "Y", (0,), False)),
    "M3": (("Y", "Y", (1, 6), False),),
    "M4": (("Y", "Y", (2, 3, 4, 5), True),),
    "M5": (("X", "X", (2, 5), None),),
    "M6": (("X", "X", (1, 3, 4, 6), True),),
    "M7": (("X", "Y", (2, 6), False),),
    "M8": (("X", "Y", (0, 1, 3, 4, 5), True),),
    "M9": (("Z", "Z", (3, 4), None),),
    "M10": (("Z", "Z", (1, 2, 5, 6), True),),
    "M11": (("Z", "X", (0, 4, 6), None),),
    "M12": (("Z", "X", (1, 2, 3, 5), True),),
    "M13": (("Z", "Y", (2, 3, 6), False),),
    "M14": (("Z", "Y", (0, 1, 4, 5), True),),
}


def _first_pair(g: Graph, left, right, adjacent: bool | None):
    """Smallest (u, v) in left x right, u != v, of the given adjacency (None: any)."""
    right = sorted(right)
    for u in sorted(left):
        for v in right:
            if u != v and (adjacent is None or g.has_edge(u, v) == adjacent):
                return (u, v)
    return None


def _family(part: SevenHolePartition, kinds: str) -> tuple[frozenset[int], ...]:
    if len(kinds) == 1:
        return getattr(part, kinds)
    return tuple(frozenset().union(*s) for s in zip(*(getattr(part, k) for k in kinds)))


def _rule_violation(g: Graph, part: SevenHolePartition, rows) -> tuple[int, int] | None:
    """First violating pair, by i, then row, then (u, v) ascending."""
    rows = [(_family(part, s), _family(part, t), offsets, adj) for s, t, offsets, adj in rows]
    for i in range(7):
        for left, right, offsets, adjacent in rows:
            if left[i]:
                others = frozenset().union(*[right[(i + o) % 7] for o in offsets])
                ce = _first_pair(g, left[i], others, adjacent)
                if ce:
                    return ce
    return None


def _battery(g: Graph, part: SevenHolePartition, mode: str) -> list[PropertyReport]:
    """Coverage, then NA-3 or the pair rules, in the order of the mode's properties."""
    if part.mode != mode:
        raise GraphError(f"{mode} property battery needs a {mode}-mode partition")
    ids = _PROPERTIES[mode]
    bad = min(part.unclassified, default=None)
    reports = [PropertyReport(ids[0], bad is None, None if bad is None else (bad,))]
    for pid in ids[1:]:
        if pid == "NA-3":  # N(A) is a stable set
            na = frozenset().union(*part.X, *part.Y, *part.Z, part.unclassified)
            ce = _first_pair(g, na, na, adjacent=True)
        else:
            ce = _rule_violation(g, part, _PAIR_RULES[pid])
        reports.append(PropertyReport(pid, ce is None, ce))
    return reports


def check_diamond_properties(g: Graph, part: SevenHolePartition) -> list[PropertyReport]:
    """Evaluate NA-1..NA-6 on a diamond-mode partition."""
    return _battery(g, part, "diamond")


def check_gem_properties(g: Graph, part: SevenHolePartition) -> list[PropertyReport]:
    """Evaluate M1..M14 on a gem-mode partition."""
    return _battery(g, part, "gem")


def _locate(part: SevenHolePartition, v: int) -> tuple[str, int] | None:
    for kind in "XYZ":
        for i, s in enumerate(getattr(part, kind)):
            if v in s:
                return kind, i
    return None


def recheck_counterexample(g: Graph, part: SevenHolePartition, report: PropertyReport) -> bool:
    """Confirm that a failing report's tuple really violates its property,
    one of the properties of the partition's mode."""
    pid, ce = report.property_id, report.counterexample
    if report.holds or ce is None or pid not in _PROPERTIES[part.mode]:
        return False
    if pid in ("NA-1", "M1"):
        return len(ce) == 1 and ce[0] in part.unclassified
    if len(ce) != 2 or ce[0] == ce[1]:
        return False
    u, v = ce
    if pid == "NA-3":
        na = frozenset().union(*part.X, *part.Y, *part.Z, part.unclassified)
        return u in na and v in na and g.has_edge(u, v)
    pu, pv = _locate(part, u), _locate(part, v)
    if pu is None or pv is None:
        return False
    return any(
        pu[0] in s and pv[0] in t and (pv[1] - pu[1]) % 7 in offsets
        and (adjacent is None or g.has_edge(u, v) == adjacent)
        for s, t, offsets, adjacent in _PAIR_RULES[pid]
    )


def all_seven_holes(g: Graph) -> list[tuple[int, ...]]:
    """Every induced 7-cycle, one lex-least cycle-order tuple per vertex set."""
    holes: list[tuple[int, ...]] = []

    def keep(hole: tuple[int, ...]) -> bool:
        holes.append(hole)
        return False

    # every vertex stays a candidate: twins of a hole's vertices make other holes
    _search_induced_cycles(g, 7, keep, g.full_mask())
    return holes

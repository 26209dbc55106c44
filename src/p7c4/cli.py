"""Batch front door: classify, color, decompose, analyze holes, verify
theorems, generate named families, and cross-check against the exact
oracles. One JSON object per input graph on stdout.

Exit status: 0 on success, 1 if a verification found a violation, 2 on
usage errors or malformed input, 3 on an internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import (
    DEFAULT_ORACLE_LIMIT,
    Graph,
    GraphError,
    StructuralContradiction,
    graph_stats,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .patterns import THEOREMS, class_membership, find_hole

# Each subcommand imports the other modules it runs inside its handler, so
# that `classify` loads only `graphs` and `patterns`. The parser lists the
# names families.generate accepts without loading the family code.
FAMILY_NAMES = ("Petersen", "F", "G1", "G2", "G3", "G4", "G5", "G6", "blowup", "C", "P", "K")


def _colorer(cls: str):
    from . import coloring

    return getattr(coloring, f"color_{cls}_class")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="p7c4", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--corpus", help="input file ('-' for stdin): graph6 lines, or one edge "
                       "list ('n m' header plus pairs) when it starts with a digit")
        p.add_argument("--family", help="named family: " + ", ".join(FAMILY_NAMES))
        p.add_argument("--param", action="append", default=[], metavar="K=V",
                       help="family parameter, repeatable (e.g. --param t=2 --param sizes=2,2)")
        p.add_argument("--json", action="store_true", help="pretty-print JSON output")

    p = sub.add_parser("classify", help="class membership with witness")
    p.add_argument("--class", dest="cls", required=True, choices=("diamond", "kite", "gem"))
    add_io(p)

    p = sub.add_parser("color", help="certified coloring for a class member")
    p.add_argument("--class", dest="cls", required=True, choices=("diamond", "kite", "gem"))
    add_io(p)

    p = sub.add_parser("decompose", help="clique-cutset atom decomposition")
    add_io(p)

    p = sub.add_parser("analyze-hole", help="7-hole neighborhood partition and property battery")
    p.add_argument("--mode", required=True, choices=("diamond", "gem"))
    p.add_argument("--all-holes", action="store_true", help="analyze every 7-hole, not just the first")
    add_io(p)

    p = sub.add_parser("verify", help="theorem verification over a corpus")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--exhaustive", type=int, metavar="N",
                   help="all connected graphs with at most N vertices")
    p.add_argument("--blowups", metavar="BASE:TOTAL",
                   help="standard blowup corpus of a named base, e.g. Petersen:20")
    p.add_argument("--sample", type=int, metavar="K",
                   help="randomly subsample the corpus to K graphs (needs --seed for non-default runs)")
    p.add_argument("--seed", type=int, default=0, help="seed for --sample (default 0)")
    add_io(p)

    p = sub.add_parser("generate", help="emit a named family instance as graph6")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", default=[], metavar="K=V")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle-check", help="exact omega/chi/delta, optionally vs a class coloring")
    p.add_argument("--class", dest="cls", choices=("diamond", "kite", "gem"))
    p.add_argument("--limit", type=int, default=DEFAULT_ORACLE_LIMIT, help="chi oracle vertex limit")
    add_io(p)

    return top


def _family(args) -> Graph:
    from .families import generate

    return generate(args.family, **_params(args.param))


def _params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise GraphError(f"--param needs K=V, got {pair!r}")
        k, v = pair.split("=", 1)
        out[k] = v
    return out


def _read_corpus(args) -> list[Graph]:
    """Input graphs from --family, --corpus or piped stdin; [] when none is given.

    Text whose first non-blank character is a digit is one edge list;
    graph6 bytes are all >= chr(63), so any other text is graph6 lines.
    """
    if args.family:
        return [_family(args)]
    if args.corpus and args.corpus != "-":
        with open(args.corpus) as f:
            text = f.read()
    elif args.corpus or not sys.stdin.isatty():
        text = sys.stdin.read()
    else:
        return []
    if text.lstrip()[:1].isdigit():
        return [parse_edge_list(text)]
    graphs = [parse_graph6(line) for line in text.splitlines() if line.strip()]
    if not graphs:
        raise GraphError("corpus is empty")
    return graphs


def _emit(obj: dict, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None, sort_keys=False))


def _per_graph(args, fn) -> int:
    graphs = _read_corpus(args)
    if not graphs:
        raise GraphError("no input: give --corpus, --family, or pipe graph6 lines on stdin")
    for g in graphs:
        result = fn(g)
        _emit({"input": write_graph6(g), "command": args.command, "result": result},
              args.json)
    return 0


def _analyze(g: Graph, mode: str, all_holes: bool) -> dict:
    from .hole_lab import all_seven_holes, check_diamond_properties, check_gem_properties, partition_around_hole

    checker = check_diamond_properties if mode == "diamond" else check_gem_properties
    if all_holes:
        holes = all_seven_holes(g)
    else:
        w = find_hole(g, 7)
        holes = [w.vertices] if w else []
    reports = []
    for hole in holes:
        part = partition_around_hole(g, hole, mode)
        reports.append({
            "partition": part.to_json(),
            "properties": [r.to_json() for r in checker(g, part)],
        })
    return {"mode": mode, "holes": len(reports), "analyses": reports}


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "classify":
            return _per_graph(args, lambda g: class_membership(g, args.cls).to_json())
        if args.command == "color":
            def run(g):
                cert = _colorer(args.cls)(g)
                out = cert.to_json()
                out["bound"] = out.pop("claimed_bound")
                return out
            return _per_graph(args, run)
        if args.command == "decompose":
            from .structure import decompose_into_atoms

            return _per_graph(args, lambda g: decompose_into_atoms(g).to_json())
        if args.command == "analyze-hole":
            return _per_graph(args, lambda g: _analyze(g, args.mode, args.all_holes))
        if args.command == "generate":
            g = _family(args)
            _emit({"input": None, "command": "generate",
                   "result": {"family": args.family, "n": g.n, "m": g.edge_count(),
                              "graph6": write_graph6(g)}}, args.json)
            return 0
        if args.command == "oracle-check":
            def run(g):
                stats = graph_stats(g, args.limit)  # chi is None past the limit
                out = {"omega": stats.omega, "chi": stats.chi, "delta": stats.delta,
                       "connected": stats.connected}
                if args.cls:
                    cert = _colorer(args.cls)(g)
                    out["colors_used"] = cert.colors_used
                    out["bound"] = cert.claimed_bound
                    if stats.chi is not None:
                        out["oracle_chi_le_colors"] = stats.chi <= cert.colors_used
                return out
            return _per_graph(args, run)
        if args.command == "verify":
            return _verify(args)
        raise GraphError(f"unknown command {args.command!r}")
    except StructuralContradiction as exc:
        _emit({"error": "structural-contradiction", "detail": str(exc),
               "graph6": exc.graph6}, getattr(args, "json", False))
        return 1
    except (GraphError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a bug, never a verdict, so it must not exit 1
        print(json.dumps({"error": "internal", "type": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 3


def _verify(args) -> int:
    import random

    from .enumerate import connected_graphs
    from .families import _base_by_name
    from .verify import standard_blowup_corpus, verify_corpus

    base, _, total = (args.blowups or "").partition(":")
    total = int(total or 20)
    for need, value in (("--sample needs K", args.sample), ("--exhaustive needs N", args.exhaustive),
                        ("--blowups needs TOTAL", total)):
        if value is not None and value < 1:
            raise GraphError(f"{need} >= 1")
    graphs: list[Graph] = []
    desc = []
    if args.exhaustive:
        graphs.extend(g for n in range(1, args.exhaustive + 1) for g in connected_graphs(n))
        desc.append(f"exhaustive connected n<={args.exhaustive}")
    if args.blowups:
        blown = standard_blowup_corpus(base, total)
        if not blown:
            raise GraphError(f"--blowups needs TOTAL >= {_base_by_name(base).n}, the vertex count of {base}")
        graphs.extend(blown)
        desc.append(f"blowups {args.blowups}")
    if args.family or args.corpus or not (args.exhaustive or args.blowups):
        graphs.extend(_read_corpus(args))
        desc.append(args.family or args.corpus or "stdin")
    if not graphs:
        raise GraphError("no corpus: give --exhaustive, --blowups, --corpus, or --family")
    if args.sample and args.sample < len(graphs):
        graphs = random.Random(args.seed).sample(graphs, args.sample)
        desc.append(f"sample {args.sample} seed {args.seed}")
    run = verify_corpus(graphs, args.theorem, corpus="; ".join(desc))
    _emit({"input": None, "command": "verify", "result": run.to_json()}, args.json)
    return 1 if run.violated else 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

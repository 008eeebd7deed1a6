"""Command-line interface.

Graphs travel as graph6, one per line; reports are JSON. Exit codes:
0 = success and all assertions hold, 1 = usage or input-format error,
2 = a structural assertion failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys

from .canon import automorphism_group, isomorphism
from .construction import (
    BridgeSpec,
    StructureError,
    bridge_graph,
    goedgebeur_configuration,
    goedgebeur_graph,
)
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    _g6_bytes_for_n,
    gp,
    graph6_decode,
    graph6_encode,
    heawood,
    k33,
    pappus,
)
from .groups import GroupError
from .incidence import (
    Configuration,
    ConfigurationError,
    dual,
    fano,
    is_self_dual,
    levi_graph,
    moebius_kantor,
)
from .survey import aut_structure, graph_properties, refutation_check, run_survey, survey_json
from .twofactors import pseudo_2fi


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_graphs(path: str | None) -> list[Graph]:
    # A chunk ends at \n, and splitlines also ends a line at a lone \r. A line
    # with a byte above 127 goes in as text, so graph6_decode names its offset.
    with sys.stdin.buffer if path in (None, "-") else open(path, "rb") as fh:
        graphs = [graph6_decode(line if line.isascii() else line.decode("latin-1"))
                  for chunk in fh for line in chunk.splitlines() if line.strip()]
    if not graphs:
        raise Graph6Error("no graph6 input lines found", 0)
    return graphs


def _emit_graph(g: Graph, labels: bool):
    print(graph6_encode(g).decode("ascii"))
    if labels:
        table = [g.labels.get(v) for v in range(g.n)] if g.labels else []
        print(json.dumps(table))


def _gen_gp(n: str, k: str) -> Graph:
    for arg in (n, k):
        if not re.fullmatch(r"[+-]?[0-9]+", arg):
            raise ValueError(f"gen gp takes two integers, got {arg!r}")
    n, k = int(n), int(k)
    try:
        _g6_bytes_for_n(2 * n)  # refuse a graph graph6 cannot write before building it
        return gp(n, k)
    except GraphError as exc:  # out-of-range parameters are bad input
        raise ValueError(str(exc)) from exc


# gen target -> (constructor, what its two arguments are; None if it takes none)
_GENERATORS = {
    "goedgebeur": (goedgebeur_graph, None),
    "heawood": (heawood, None),
    "pappus": (pappus, None),
    "k33": (k33, None),
    "gp": (_gen_gp, "two integers, e.g. gen gp 8 3"),
    "bridge": (
        lambda a, b: bridge_graph(BridgeSpec.from_strings(a, b)),
        "two one-line permutations, e.g. gen bridge 2301 0123",
    ),
}


def _cmd_gen(args) -> int:
    make, needs = _GENERATORS[args.what]
    if len(args.rest) != (0 if needs is None else 2):
        raise ValueError(f"gen {args.what} takes {needs or 'no arguments'}")
    _emit_graph(make(*args.rest), args.labels)
    return 0


def _cmd_props(args) -> int:
    for g in _read_graphs(args.file):
        print(json.dumps({**graph_properties(g), "aut_order": automorphism_group(g).order}))
    return 0


def _cmd_p2fi(args) -> int:
    for g in _read_graphs(args.file):
        report = pseudo_2fi(g)
        print(json.dumps({
            "schema": 2,
            "matching_count": report.matching_count,
            "histogram": [list(bucket) for bucket in report.histogram],
            "status": report.status,
        }))
    return 0


def _cmd_aut(args) -> int:
    graphs = _read_graphs(args.file) if args.file else [goedgebeur_graph()]
    for g in graphs:
        if args.structure:
            print(json.dumps(aut_structure(g)))
        else:
            print(json.dumps({"aut_order": automorphism_group(g).order}))
    return 0


def _cmd_iso(args) -> int:
    if args.file1 == args.file2 == "-":
        raise ValueError("iso reads stdin for one graph only, not for both: '-' given twice")
    pair = []
    for path in (args.file1, args.file2):
        graphs = _read_graphs(path)
        if len(graphs) != 1:
            raise ValueError(f"iso compares one graph per file; {path} holds {len(graphs)}")
        pair.append(graphs[0])
    phi = isomorphism(*pair)
    print(json.dumps({
        "isomorphic": phi is not None,
        "mapping": list(phi) if phi is not None else None,
    }))
    return 0 if phi is not None else 2


_CONFIGS = {
    "fano": fano,
    "mk": moebius_kantor,
    "goedgebeur": goedgebeur_configuration,
}


def _config_json(c: Configuration) -> str:
    return json.dumps({
        "points": c.n_points,
        "lines": [sorted(line) for line in c.lines],
    })


def _cmd_config(args) -> int:
    if args.labels and not args.levi:
        args.parser.error("--labels needs --levi")
    c = _CONFIGS[args.name]()
    if args.levi:
        _emit_graph(levi_graph(c), args.labels)
    elif args.dual:
        print(_config_json(dual(c)))
    elif args.self_dual:
        print(json.dumps({"self_dual": is_self_dual(c)}))
    else:
        print(_config_json(c))
    return 0


def _cmd_survey(args) -> int:
    # open the output first so a bad path fails before the census runs
    with (open(args.json_path, "w", encoding="ascii") if args.json_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(survey_json(run_survey(p2fi=args.p2fi)))
    return 0


def _cmd_refute(args) -> int:
    print(json.dumps(refutation_check(), indent=2))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="levibridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph or a bridge join")
    p.add_argument("what", choices=list(_GENERATORS))
    p.add_argument("rest", nargs="*")
    p.add_argument("--labels", action="store_true",
                   help="also print the vertex label table as JSON")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("props", help="report basic graph properties")
    p.add_argument("file", nargs="?", help="graph6 file (default stdin)")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("p2fi", help="2-factor cycle-count parity report")
    p.add_argument("file", nargs="?", help="graph6 file (default stdin)")
    p.set_defaults(func=_cmd_p2fi)

    p = sub.add_parser("aut", help="automorphism group order and structure")
    p.add_argument("file", nargs="?", help="graph6 file (default: the identified graph)")
    p.add_argument("--structure", action="store_true",
                   help="full distinguished-edge group analysis")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("iso", help="isomorphism test between two graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("config", help="point-line configurations")
    p.add_argument("name", choices=sorted(_CONFIGS))
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--dual", action="store_true")
    mode.add_argument("--self-dual", dest="self_dual", action="store_true")
    mode.add_argument("--levi", action="store_true",
                      help="emit the Levi graph as graph6")
    p.add_argument("--labels", action="store_true",
                   help="with --levi, also print the vertex label table as JSON")
    p.set_defaults(func=_cmd_config, parser=p)

    p = sub.add_parser("survey", help="census of all 576 bridge joins")
    p.add_argument("--p2fi", action="store_true",
                   help="also compute parity status per class")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the JSON report to PATH instead of stdout")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("refute", help="verify the parity-conjecture refutation")
    p.set_defaults(func=_cmd_refute)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Graph6Error, OSError) as exc:
        print(f"levibridge: input error: {exc}", file=sys.stderr)
        return 1
    except (StructureError, GraphError, GroupError, ConfigurationError) as exc:
        print(f"levibridge: structural failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"levibridge: error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        what = "memory (MemoryError)" if isinstance(exc, MemoryError) else "the recursive search"
        print(f"levibridge: error: input too large for {what}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

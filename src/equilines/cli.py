"""Command-line front end.

Graph-producing subcommands print a JSON report that carries the graph6
string (or, with --g6, the bare graph6 line for piping); graph-consuming
subcommands read graph6 or the JSON form from --input or standard input.
Exact numbers are printed as strings so nothing passes through floats.

reproduce-table reruns the battery of pinned results (`equilines.battery`)
and exits 0 only if every row passes.

Exit status: 0 on success, 1 on bad input or a failing check, 2 on a usage
error, 3 when an internal invariant fails (a RuntimeError).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import constructions, extensibility, groups, spectra
from .graphs import (SeidelGraph, from_graph6, graph_from_json, graph_to_json,
                     is_switching_equivalent, localize, to_graph6)

GRAPH_WRITERS = ("construct", "localize", "extend")
GRAPH_READERS = ("localize", "extend", "switch-equiv", "extensible", "group",
                 "spectrum", "chi", "lines")


def _read_graph_text(text: str) -> SeidelGraph:
    s = text.strip()
    if not s:
        raise ValueError("empty graph input")
    if s.startswith("{"):
        return graph_from_json(json.loads(s))
    if len(s.splitlines()) > 1:
        raise ValueError("expected one graph6 line, got several")
    return from_graph6(s)


def _load_graph(args) -> SeidelGraph:
    if args.input:
        with open(args.input) as fh:
            return _read_graph_text(fh.read())
    return _read_graph_text(sys.stdin.read())


def _emit_graph(g: SeidelGraph, args, command: str, started: float):
    if args.g6:
        print(to_graph6(g))
        return
    _emit_report(command, {"graph6": to_graph6(g), "graph": graph_to_json(g)},
                 started, input_g6=None)


def _emit_report(command: str, result: dict, started: float, input_g6=None):
    report = {"command": command, "input": input_g6, "result": result,
              "elapsed_ms": round(1000 * (time.monotonic() - started), 3)}
    print(json.dumps(report, indent=2))


def _cmd_construct(args):
    started = time.monotonic()
    g = constructions.construct(args.name)
    _emit_graph(g, args, f"construct {args.name}", started)
    return 0


def _cmd_localize(args):
    started = time.monotonic()
    g = _load_graph(args)
    _emit_graph(localize(g, args.vertex), args, f"localize --vertex {args.vertex}",
                started)
    return 0


def _cmd_extend(args):
    started = time.monotonic()
    g = _load_graph(args)
    _emit_graph(extensibility.extend(g), args, "extend", started)
    return 0


def _cmd_switch_equiv(args):
    started = time.monotonic()
    if args.input and args.other:
        with open(args.input) as fh:
            g1 = _read_graph_text(fh.read())
        with open(args.other) as fh:
            g2 = _read_graph_text(fh.read())
    else:
        lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError("expected two graphs, one per line, on stdin")
        g1, g2 = _read_graph_text(lines[0]), _read_graph_text(lines[1])
    nu = is_switching_equivalent(g1, g2)
    _emit_report("switch-equiv",
                 {"equivalent": nu is not None,
                  "witness": list(nu) if nu else None},
                 started, input_g6=f"{to_graph6(g1)} {to_graph6(g2)}")
    return 0


def _cmd_extensible(args):
    started = time.monotonic()
    g = _load_graph(args)
    p = extensibility.extensible_params(g)
    srg = extensibility.srg_params(g)
    result = {"extensible": p is not None,
              "t": p.t if p else None, "s": p.s if p else None,
              "sbar": p.sbar if p else None, "n": p.n if p else None,
              "srg": list(srg) if srg else None}
    _emit_report("extensible", result, started, input_g6=to_graph6(g))
    return 0


def _cmd_group(args):
    started = time.monotonic()
    g = _load_graph(args)
    grp = groups.two_graph_group(g) if args.two_graph else groups.automorphism_group(g)
    _emit_report("group" + (" --two-graph" if args.two_graph else ""),
                 grp.to_json_dict(), started, input_g6=to_graph6(g))
    return 0


def _cmd_spectrum(args):
    started = time.monotonic()
    g = _load_graph(args)
    spec = spectra.spectrum(g)
    result = spec.to_json_dict()
    result["char_poly"] = [str(c) for c in spectra.char_poly(g)]
    _emit_report("spectrum", result, started, input_g6=to_graph6(g))
    return 0


def _cmd_chi(args):
    started = time.monotonic()
    g = _load_graph(args)
    _emit_report("chi", {"chi": [str(c) for c in spectra.chi_polynomial(g)],
                         "order": "constant term first"},
                 started, input_g6=to_graph6(g))
    return 0


def _cmd_lines(args):
    started = time.monotonic()
    g = _load_graph(args)
    ls = spectra.embed_lines(g, args.eigenvalue)
    _emit_report("lines", ls.to_json_dict(), started, input_g6=to_graph6(g))
    return 0


def _cmd_paley_verify(args):
    started = time.monotonic()
    report = constructions.paley_verify(args.q)
    report.pop("orbit_report", None)
    _emit_report(f"paley-verify {args.q}", report, started)
    return 0 if all(v for k, v in report.items() if k != "q") else 1


def _cmd_reproduce_table(args):
    from . import battery   # here, so that no other subcommand loads the table
    rows = battery.ROWS + (battery.UNIQUENESS_ROWS if args.uniqueness else [])
    results = [battery.run_row(row) for row in rows]
    for result in results:
        print(battery.report_line(*result))
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} rows passed")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equilines",
        description="switching classes, two-graph groups and equiangular lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("construct", _cmd_construct, help="build a named graph")
    p.add_argument("name",
                   help="pentagon | triangle | t1:<s> | paley:<q> | paley-proj:<q>")
    p = add("localize", _cmd_localize, help="switch so a vertex is isolated")
    p.add_argument("--vertex", type=int, required=True)
    add("extend", _cmd_extend, help="adjoin an isolated vertex to an extensible graph")
    p = add("switch-equiv", _cmd_switch_equiv,
            help="decide switching equivalence of two graphs")
    p.add_argument("--other", help="file with the second graph")
    add("extensible", _cmd_extensible, help="report (t, s, sbar) parameters")
    p = add("group", _cmd_group, help="automorphism or switching-class group")
    p.add_argument("--two-graph", action="store_true",
                   help="compute the switching-class group instead of Aut")
    add("spectrum", _cmd_spectrum, help="exact eigenvalues with multiplicities")
    add("chi", _cmd_chi, help="det(S(1,c)) coefficients, constant term first")
    p = add("lines", _cmd_lines, help="synthesize an equiangular line system")
    p.add_argument("--eigenvalue", required=True,
                   help='rational "a/b" or "1+sqrt(q)" / "1-sqrt(q)"')
    p = add("paley-verify", _cmd_paley_verify,
            help="residue and projective-line identities for one q")
    p.add_argument("q", type=int)
    p = add("reproduce-table", _cmd_reproduce_table,
            help="rerun every pinned result and print pass/fail rows")
    p.add_argument("--uniqueness", action="store_true",
                   help="also run the small exhaustive uniqueness searches")
    for name in GRAPH_READERS:
        sub.choices[name].add_argument("--input", help="read the graph from this file")
    for name in GRAPH_WRITERS:
        sub.choices[name].add_argument("--g6", action="store_true",
                                       help="print bare graph6 instead of a JSON report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:     # an internal invariant failed
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands cover generation (gen), checking (verify, conditions, twins,
cwcheck), construction (pattern), and optimization (solve, scan).  Exit
codes are part of the interface: 0 success or valid, 1 checked and found
invalid, 2 infeasible (twins exist), 64 usage or input error.  The checking
and solving commands build one documented JSON object; --json prints it and
plain text, the default, is rendered from it.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from .cycleprism import CodePair, check_conditions, pattern_code, prism_cycle_length
from .graphs import (
    Graph,
    GraphFormatError,
    MAX_ORDER,
    PrismIndexing,
    closed_twins,
    complementary_prism,
    cycle,
    format_graph,
    numeral,
    parse_graph,
    random_graph,
)
from .idcode import hitting_instance, is_identifying_code, vertex_label
from .layout import check_doubling, random_layout_tree
from .solver import STRATEGIES, SolverOptions, ic_table, format_hitting_instance, solve_min_idcode

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _require_prism_order(what: str, n: int) -> None:
    """Refuse the prism of C_n when its order 2n is above MAX_ORDER, before anything is built."""
    if 2 * n > MAX_ORDER:
        raise GraphFormatError(f"{what} {n} has prism order {2 * n}, above the limit of {MAX_ORDER}")


def _prism_indexing(g: Graph) -> Optional[PrismIndexing]:
    """Recognize complementary prisms of cycles, for friendly vertex labels."""
    n = prism_cycle_length(g)
    return None if n is None else PrismIndexing(n)


def _print(args, payload, text: Callable[[Any], Iterable[str]]) -> None:
    """Print payload as one JSON line under --json, else the lines text(payload) renders."""
    if args.json:
        print(json.dumps(payload))
    else:
        print("\n".join(text(payload)))


def _words(value, sep: str) -> str:
    """A payload value as text: a list joined by sep, anything else by str."""
    return sep.join(map(str, value)) if isinstance(value, list) else str(value)


def _parse_code_file(text: str, g: Graph, indexing: Optional[PrismIndexing]) -> list[int]:
    """Code file: two 0/1 rows of length order/2 (prism CodePair), else whitespace vertex tokens."""
    with contextlib.suppress(ValueError):  # from_strings refuses all but two 0/1 rows of equal length
        pair = CodePair.from_strings(text)
        if 2 * pair.n == g.order:
            return list(pair.vertices())
    out = []
    for token in text.split():
        if token.isdecimal():
            v = numeral(token, g.order)
            if v is None:  # leading zeros, as in a 0/1 row of the wrong length, or non-ASCII digits
                raise GraphFormatError(f"bad vertex token {token!r}")
            if not 0 < v <= g.order:
                raise GraphFormatError(f"vertex {token} outside 1..{g.order}")
            out.append(v - 1)
        elif indexing is not None:
            out.append(indexing.parse_label(token))
        else:
            raise GraphFormatError(f"bad vertex token {token!r}")
    return out


# ------------------------------------------------------------------ commands

def cmd_gen(args) -> int:
    order = args.n if args.kind == "cycle" else 2 * args.n
    if order > MAX_ORDER:
        raise GraphFormatError(f"gen {args.kind} {args.n} has order {order}, above the limit of {MAX_ORDER}")
    if args.kind == "cycle":
        text = format_graph(cycle(args.n))
    else:
        n = args.n
        g = complementary_prism(cycle(n))
        legend = (
            f"complementary prism of the cycle on {n} vertices",
            f"vertices 1..{n}: cycle side, labeled v1..v{n}",
            f"vertices {n + 1}..{2 * n}: complement side, labeled vbar1..vbar{n}",
            f"vertex {n}+i is the matched partner of vertex i",
        )
        text = format_graph(g, legend)
    if args.output and args.output != "-":
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    if args.graph == args.code == "-":  # the code would read the stdin the graph emptied
        raise GraphFormatError("verify reads at most one of the graph and the code from stdin")
    g = parse_graph(_read(args.graph))
    indexing = _prism_indexing(g)
    code = _parse_code_file(_read(args.code), g, indexing)
    report = is_identifying_code(g, args.d, code)
    _print(args, report.payload(indexing), lambda p: [
        f"valid: {len(set(code))} vertices identify the graph at radius {args.d}" if p["valid"]
        else f"invalid: {p['failure']['kind']} at {_words(p['failure']['vertices'], ', ')}"
    ])
    return 0 if report.valid else 1


def cmd_pattern(args) -> int:
    _require_prism_order("pattern", args.n)
    code = pattern_code(args.n)
    sys.stdout.write(code.to_strings())
    if args.box:
        sys.stdout.write(_box_art(code))
    return 0


def _box_art(code: CodePair) -> str:
    sep = "+" + "--+" * code.n + "\n"
    row = lambda bits: "|" + "|".join("##" if bits >> a & 1 else "  " for a in range(code.n)) + "|\n"
    return sep + row(code.x) + sep + row(code.xbar) + sep


def cmd_conditions(args) -> int:
    _require_prism_order("conditions", args.n)
    code = CodePair.from_strings(_read(args.code))
    if code.n != args.n:
        raise GraphFormatError(f"code rows have length {code.n}, expected {args.n}")
    report = check_conditions(code)
    _print(args, report.payload(), lambda p: [
        *(f"violated {v['family']} at {_words(v['indices'], ',')}" for v in p["violations"]),
        f"violations {len(p['violations'])}",
        *(f"{key} {_words(p[key], ',') or '-'}" for key in ("bad_indices", "blind_bar")),
    ])
    return 0 if report.ok else 1


def cmd_solve(args) -> int:
    if args.export_instance == "-":
        raise GraphFormatError("solve prints its result on stdout, so --export-instance needs a file name, not -")
    g = parse_graph(_read(args.graph))
    opts = SolverOptions(strategy=args.strategy, size_cap=args.cap)  # a bad --cap exits before the export
    if args.export_instance:
        Path(args.export_instance).write_text(format_hitting_instance(hitting_instance(g, args.d)))
    res = solve_min_idcode(g, args.d, opts)
    # the text form is every field but the wall clock, in payload order
    _print(args, res.payload(_prism_indexing(g)), lambda p: [f"{k} {_words(v, ' ')}" for k, v in p.items() if k != "ms"])
    return 2 if res.status == "infeasible" else 0


def cmd_twins(args) -> int:
    g = parse_graph(_read(args.graph))
    pairs = closed_twins(g, args.d)
    indexing = _prism_indexing(g)
    payload = {"twins": [[vertex_label(u, indexing), vertex_label(v, indexing)] for u, v in pairs]}
    _print(args, payload, lambda p: [*(f"twin {u} {v}" for u, v in p["twins"]), f"count {len(p['twins'])}"])
    return 2 if pairs else 0


def cmd_cwcheck(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    rng = random.Random(args.seed)
    top = numeral(args.target, MAX_ORDER)  # a numeral is an order bound, anything else a graph file
    fixed = None if top is not None else parse_graph(_read(args.target))
    if fixed is None and not 0 < top <= MAX_ORDER:
        raise GraphFormatError(f"order bound must be between 1 and {MAX_ORDER}")
    trials = []
    for trial in range(args.trials):
        g = fixed if fixed is not None else random_graph(rng.randint(1, top), rng)
        c = check_doubling(g, random_layout_tree(g.order, rng))
        trials.append({"trial": trial, "order": g.order, "base": c.base_max, "prism": c.prism_max, "ok": c.ok})
    ok = all(t["ok"] for t in trials)
    _print(args, {"trials": trials, "ok": ok}, lambda p: [
        *(" ".join(f"{k} {v}" for k, v in t.items() if k != "ok") + (" ok" if t["ok"] else " VIOLATION") for t in p["trials"]),
        f"checked {len(p['trials'])} violations {sum(not t['ok'] for t in p['trials'])}",
    ])
    return 0 if ok else 1


def cmd_scan(args) -> int:
    if args.start < 3 or args.stop < args.start:
        raise GraphFormatError("need 3 <= start <= stop")
    _require_prism_order("scan stop", args.stop)
    # the text form puts the bounds before the code and leaves out empty cells
    _print(args, ic_table(range(args.start, args.stop + 1)), lambda p: ["  ".join(
        f"{k} {_words(row[k], ',')}" for k in ("n", "status", "size", "lower", "upper", "pattern", "code")
        if row[k] is not None
    ) for row in p])
    return 0


# -------------------------------------------------------------------- parser

def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="print the result as one JSON object")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prismcode", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="write a cycle or its complementary prism in graph text format")
    p.add_argument("kind", choices=("cycle", "prism"))
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", help="write to a file instead of stdout (- is stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a code file against a graph file")
    p.add_argument("graph")
    p.add_argument("code")
    p.add_argument("-d", type=int, default=1, help="identification radius (default 1)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pattern", help="print the periodic code of size n - 2*floor(n/9)")
    p.add_argument("n", type=int)
    p.add_argument("--box", action="store_true", help="append an ASCII box rendering")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("conditions", help="evaluate the position conditions on a two-row code")
    p.add_argument("n", type=int)
    p.add_argument("code")
    _add_json_flag(p)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("solve", help="exact minimum identifying code of a graph file")
    p.add_argument("graph")
    p.add_argument("-d", type=int, default=1)
    p.add_argument("--strategy", choices=STRATEGIES, default="bnb")
    p.add_argument("--cap", type=int, default=None, help="certify optimum or prove it exceeds this size")
    p.add_argument("--export-instance", metavar="FILE", help="also write the hitting-set instance (not to -)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("twins", help="list pairs with identical distance-d balls")
    p.add_argument("graph")
    p.add_argument("-d", type=int, default=1)
    _add_json_flag(p)
    p.set_defaults(func=cmd_twins)

    p = sub.add_parser("cwcheck", help="randomized class-count doubling checks")
    p.add_argument("target", help="max random order (int) or a graph file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_json_flag(p)
    p.set_defaults(func=cmd_cwcheck)

    p = sub.add_parser("scan", help="bounds and exact optimum at radius 1 for a range of cycle prisms")
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    _add_json_flag(p)
    p.set_defaults(func=cmd_scan)

    return parser


# Building the parser costs milliseconds, parsing one command line tens of
# microseconds, so main builds it once per process.  parse_args keeps no
# state between calls.
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

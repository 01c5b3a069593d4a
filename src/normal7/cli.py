"""Command line: color one graph, search exact values, sweep a census file,
or run the exhaustive certificates.

Exit codes: 0 success, 2 bad input, 3 inconclusive within budget, 4 internal
failure.  A census exits 2 if a line is not graph6 or not a simple cubic
graph, 3 if an exact run ran out of budget and 4 if any other line fails; the
highest code wins, and each failed line is also named on stderr.  Graphs are
read as graph6 (one line, no spaces) or as an edge list ("n m" header, then
one "u v" pair per line), from a file or from stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

from normal7.certify import CLAIMS, run_claim
from normal7.coloring_solver import exact_chi_n, is_normal, require_loopless_subcubic
from normal7.cuts_reductions import find_bridges
from normal7.graph_core import (
    Graph6Error,
    PseudoGraph,
    VerificationError,
    parse_edge_list,
    parse_graph6,
    verify_or_raise,
    write_dot,
    write_graph6,
)
from normal7.normal7_pipeline import CertificateStep, normal7_coloring

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_VERIFY = 4


class InputError(Exception):
    """The provided graph text cannot be used."""


def _read_text(path: str, per_line: bool = False) -> str:
    """The whole input as text; a file with a non-ASCII byte is refused whole.

    With per_line (a census) a file is decoded as UTF-8, like stdin text, an
    undecodable byte replaced by U+FFFD, so a non-ASCII line fails alone:
    its record names the offset that parse_graph6 rejects.
    """
    try:
        if path == "-":
            return sys.stdin.read()
        if per_line:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                return fh.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def parse_graph_text(text: str) -> PseudoGraph:
    """Accept either one graph6 line or an edge list with an "n m" header."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty input")
    if len(lines) == 1 and " " not in lines[0]:
        try:
            return parse_graph6(lines[0])
        except Graph6Error as exc:
            raise InputError(f"bad graph6 line: {exc}") from exc
    try:
        return parse_edge_list("\n".join(lines))
    except ValueError as exc:
        raise InputError(f"bad edge list: {exc}") from exc


def _require_simple_cubic(g: PseudoGraph) -> None:
    for v in g.vertices():
        if g.degree(v) != 3:
            raise InputError(
                f"input graph is not cubic: vertex {v} has degree {g.degree(v)}"
            )
    if not g.is_simple():
        raise InputError("input graph has a loop or parallel edges")


def _certificate_json(trace: List[CertificateStep]) -> List[Dict[str, object]]:
    return [
        {
            "case": step.tag.value,
            "fingerprint": step.fingerprint,
            "permutation": list(step.permutation),
        }
        for step in trace
    ]


def cmd_color(args: argparse.Namespace) -> int:
    try:
        g = parse_graph_text(_read_text(args.input))
        _require_simple_cubic(g)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    fmt = "dot" if args.dot else args.format
    if fmt == "g6":
        print(write_graph6(g))
        return EXIT_OK

    trace: List[CertificateStep] = []
    try:
        coloring = normal7_coloring(g, trace)
    except Exception as exc:
        # every simple cubic graph has a normal 7-coloring, so once the input
        # checks pass any failure is the program's own
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"certificate": _certificate_json(trace)}), file=sys.stderr)
        return EXIT_VERIFY

    if fmt == "dot":
        print(write_dot(g, coloring))
        return EXIT_OK

    ok, _ = is_normal(coloring)
    doc = {
        "n": g.num_vertices,
        "m": g.num_edges,
        "palette": coloring.k,
        "colors": {str(e): c for e, c in sorted(coloring.colors.items())},
        "colors_used": len(set(coloring.colors.values())),
        "statuses": {str(e): coloring.status_label(e) for e in g.edge_ids()},
        "verified": ok,
        "certificate": _certificate_json(trace),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    try:
        g = parse_graph_text(_read_text(args.input))
        require_loopless_subcubic(g)
    except (InputError, ValueError) as exc:  # the ValueError is the solver's precondition
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        res = exact_chi_n(g, args.max_k, args.budget)
        verify_or_raise(
            res.chi is None or res.witness is not None, "the solver reported chi_n without a witness"
        )
    except VerificationError as exc:  # the solver's witness failed its check
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    doc: Dict[str, object] = {
        "n": g.num_vertices,
        "m": g.num_edges,
        "max_k": args.max_k,
        "nodes": res.nodes_explored,
    }
    if res.timed_out:
        doc["chi_n"] = None
        doc["inconclusive"] = True
        print(json.dumps(doc, indent=2))
        return EXIT_INCONCLUSIVE
    doc["chi_n"] = res.chi
    if res.chi is None:
        doc["exceeds"] = args.max_k
    else:
        doc["witness"] = {str(e): c for e, c in sorted(res.witness.colors.items())}
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def census_line(line: str, exact_up_to: int, budget: Optional[int]) -> Dict[str, object]:
    """One census record; any per-graph failure is reported, never raised.

    A record holds graph6, n, bridges, colors_used, verified, exact_chi,
    solver_nodes and elapsed_ms, in that order, and inconclusive when an
    exact run ran out of budget; a failed line holds graph6, error and
    elapsed_ms.
    """
    start = time.perf_counter()
    try:
        g = parse_graph6(line)
        _require_simple_cubic(g)
        # normal7_coloring returns a coloring only once is_normal has passed
        # it (the pipeline's _verified_normal); a failed check raises and
        # becomes an error record, so the record is verified
        coloring = normal7_coloring(g)
        colors_used = len(set(coloring.colors.values()))
        exact_chi: Optional[int] = None
        solver_nodes = 0
        inconclusive = False
        if exact_up_to and g.num_vertices <= exact_up_to:
            # the verified coloring proves chi'_N <= colors_used, so only the
            # smaller palettes are searched, and it is the witness once they
            # are all refuted
            res = exact_chi_n(g, colors_used - 1, budget)
            exact_chi = res.chi
            if exact_chi is None and not res.timed_out:
                exact_chi = colors_used
            solver_nodes = res.nodes_explored
            inconclusive = res.timed_out
        out: Dict[str, object] = {
            "graph6": line,
            "n": g.num_vertices,
            "bridges": len(find_bridges(g)),
            "colors_used": colors_used,
            "verified": True,
            "exact_chi": exact_chi,
            "solver_nodes": solver_nodes,
            "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }
        if inconclusive:
            out["inconclusive"] = True  # the key normal7 exact uses
        return out
    except Exception as exc:  # isolate the line, keep the sweep going
        return {
            "graph6": line,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }


def _census_records(
    lines: List[str], jobs: int, exact_up_to: int, budget: Optional[int]
) -> Iterator[Dict[str, object]]:
    work = partial(census_line, exact_up_to=exact_up_to, budget=budget)
    # the pool starts every worker up front, so start no more than can be used
    workers = min(jobs, len(lines), os.cpu_count() or 1)
    if workers <= 1:
        for line in lines:
            yield work(line)
        return
    # imported here: the pool's modules (multiprocessing among them) load
    # only for a run that starts one
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map yields in input order, so output order is stable at any job count
        yield from pool.map(work, lines, chunksize=8)


def _nearest_rank(ascending: List[float], percent: int) -> Optional[float]:
    """The percentile (1 to 100) of an ascending list by nearest rank; None
    when empty."""
    if not ascending:
        return None
    return ascending[(percent * len(ascending) + 99) // 100 - 1]


def cmd_census(args: argparse.Namespace) -> int:
    try:
        text = _read_text(args.input, per_line=True)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]

    colors_hist: Dict[str, int] = {}
    exact_hist: Dict[str, int] = {}
    failures = 0
    inconclusive = 0
    solver_nodes = 0
    elapsed: List[float] = []
    rc = EXIT_OK
    for rec in _census_records(lines, args.jobs, args.exact_up_to, args.budget):
        print(json.dumps(rec, sort_keys=True))
        elapsed.append(rec["elapsed_ms"])
        if "error" in rec:
            failures += 1
            bad_line = rec["error"].startswith(
                (f"{Graph6Error.__name__}:", f"{InputError.__name__}:")
            )
            rc = max(rc, EXIT_INPUT if bad_line else EXIT_VERIFY)
            kind = "error" if bad_line else "internal failure"
            print(f"{kind}: {rec['graph6']}: {rec['error']}", file=sys.stderr)
            continue
        if rec.get("inconclusive"):
            inconclusive += 1
            rc = max(rc, EXIT_INCONCLUSIVE)
        solver_nodes += rec["solver_nodes"]
        used = str(rec["colors_used"])
        colors_hist[used] = colors_hist.get(used, 0) + 1
        if rec["exact_chi"] is not None:
            key = str(rec["exact_chi"])
            exact_hist[key] = exact_hist.get(key, 0) + 1
    elapsed.sort()
    summary = {
        "summary": True,
        "graphs": len(lines),
        "failures": failures,
        "inconclusive": inconclusive,
        "colors_used_histogram": colors_hist,
        "exact_chi_histogram": exact_hist,
        "solver_nodes": solver_nodes,
        "elapsed_ms_p50": _nearest_rank(elapsed, 50),
        "elapsed_ms_p95": _nearest_rank(elapsed, 95),
        "elapsed_ms_max": _nearest_rank(elapsed, 100),
    }
    print(json.dumps(summary, sort_keys=True))
    return rc


def cmd_certify(args: argparse.Namespace) -> int:
    claims = sorted(CLAIMS) if args.all else list(args.claims)
    if not claims:
        print("error: name at least one claim or pass --all", file=sys.stderr)
        return EXIT_INPUT
    unknown = [c for c in claims if c not in CLAIMS]
    if unknown:
        print(
            f"error: unknown claims {unknown}; known: {sorted(CLAIMS)}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    rc = EXIT_OK
    for claim in claims:
        cert = run_claim(claim)
        print(cert.to_record())
        if cert.verdict == "inconclusive":
            rc = max(rc, EXIT_INCONCLUSIVE)
        elif cert.verdict == "fails":
            rc = EXIT_VERIFY
    return rc


def _int_at_least(least: int) -> Callable[[str], int]:
    """An argparse type: an int no smaller than least, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normal7",
        description="normal edge colorings of cubic graphs with at most seven colors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    color = sub.add_parser(
        "color", help="color one simple cubic graph and emit a replay certificate"
    )
    color.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    color.add_argument(
        "--format", choices=("json", "dot", "g6"), default="json",
        help="output format (g6 just echoes the parsed graph)",
    )
    color.add_argument("--dot", action="store_true", help="shorthand for --format dot")
    color.set_defaults(func=cmd_color)

    exact = sub.add_parser(
        "exact", help="exact minimum palette size by exhaustive search"
    )
    exact.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    exact.add_argument("--max-k", type=_int_at_least(0), default=7, help="largest palette to try")
    exact.add_argument(
        "--budget", type=_int_at_least(0), default=None,
        help="search node budget per palette size",
    )
    exact.set_defaults(func=cmd_exact)

    census = sub.add_parser(
        "census", help="run the pipeline over a file of graph6 lines"
    )
    census.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    census.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes")
    census.add_argument(
        "--exact-up-to", type=_int_at_least(0), default=0,
        help="also compute the exact value for graphs with at most this many vertices",
    )
    census.add_argument(
        "--budget", type=_int_at_least(0), default=None,
        help="search node budget of each exact run, per palette size",
    )
    census.set_defaults(func=cmd_census)

    certify = sub.add_parser("certify", help="run exhaustive certificates")
    certify.add_argument("claims", nargs="*", metavar="CLAIM", help=f"one of {sorted(CLAIMS)}")
    certify.add_argument("--all", action="store_true", help="run every claim")
    certify.set_defaults(func=cmd_certify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

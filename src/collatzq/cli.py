"""Command-line front end binding the library into runnable experiments.

Exit codes: 0 success; 1 when a run surfaces a property-violation finding
(a counterexample word, a nonterminating theta orbit, verify failures); 2 on
usage errors, including a phi orbit whose exact stopping time exceeds
--max-steps, and on a file that cannot be read or written; 3 on an internal
fault, with its traceback.  A reader that closes stdout early ends the run
quietly with 0.
Logs and findings commentary go to stderr; structured output
(CSV/JSONL/JSON) goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
import traceback
from fractions import Fraction
from typing import IO

from ._version import VERSION
from . import dynamics, reports, spectral
from .census import (
    DEFAULT_SEARCH_BUDGET,
    census_sampled,
    density_sweep,
    search_counterexamples,
)
from .core import Mat2, rational_fixed_points, FixedPointKind, unlimited_int_digits
from .errors import CollatzqError, SizeLimitError
from .verify import SUITES
from .words import (
    DEFAULT_GENERATORS,
    GeneratorPair,
    enumerate_lambda,
    format_word_compact,
    word_eval,
)


# longest word `factor` prints, in letters
MAX_FACTOR_LETTERS = 10_000_000


def _parse_value(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("starting value must be >= 0")
    return value


def _int_at_least(lo: int):
    """An argparse type: an int that is at least ``lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _parse_matrix(text: str) -> Mat2:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("matrix must be a,b,c,d")
    try:
        return Mat2(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad matrix {text!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like A..B")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"range must have 1 <= A <= B, got {text!r}")
    return lo, hi


def _parse_generators(text: str) -> GeneratorPair:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("generators must be a,u,v,b")
    try:
        return GeneratorPair(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad generators {text!r}") from exc


def _out(path: str | None) -> contextlib.AbstractContextManager[IO[str]]:
    """The --out file opened for writing, or stdout left open."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatzq",
        description="Exact rational Collatz-like dynamics and matrix-word censuses",
    )
    parser.add_argument("--version", action="version", version=f"collatzq {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="iterate one starting value to 0")
    p.add_argument("--value", type=_parse_value, required=True, metavar="P/Q")
    p.add_argument("--map", choices=(dynamics.THETA, dynamics.PHI), default=dynamics.THETA)
    p.add_argument("--max-steps", type=_int_at_least(0), default=dynamics.DEFAULT_STEP_CAP)
    p.add_argument("--emit", choices=("points", "word", "json"), default="points")

    p = sub.add_parser("sweep", help="theta-orbit termination sweep up to a height")
    p.add_argument("--height", type=_int_at_least(2), required=True)
    p.add_argument("--max-steps", type=_int_at_least(1), default=dynamics.DEFAULT_STEP_CAP)
    p.add_argument("--out", metavar="CSV")

    p = sub.add_parser("enumerate", help="list the (k, M) word box")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--emit", choices=("tuples", "matrices"), default="tuples")

    p = sub.add_parser("density", help="integer-eigenvalue census over a range of M")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--m-range", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--threads", type=_int_at_least(1), default=os.cpu_count() or 1)
    p.add_argument("--prefilter", choices=("on", "off"), default="on")
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--sample", type=_int_at_least(1), metavar="N",
                   help="sampled mode, N draws per M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("search", help="hunt words with integer eigenvalues")
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--exp-max", type=_int_at_least(1), required=True)
    p.add_argument("--generators", type=_parse_generators, default=DEFAULT_GENERATORS,
                   metavar="a,u,v,b")
    p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--out", metavar="JSONL")

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--k", type=_int_at_least(1))
    p.add_argument("--samples", type=_int_at_least(1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=_int_at_least(1), help="box bound for the freeness suite")

    p = sub.add_parser("nk", help="exponent-threshold certificate for a block count")
    p.add_argument("--k", type=_int_at_least(1), required=True)

    p = sub.add_parser("fixed-point", help="rational fixed points of a,b,c,d")
    p.add_argument("--matrix", type=_parse_matrix, required=True, metavar="a,b,c,d")

    p = sub.add_parser("factor", help="F/G word of a nonnegative SL2 matrix")
    p.add_argument("--matrix", type=_parse_matrix, required=True, metavar="a,b,c,d")

    return parser


def _cmd_orbit(args) -> int:
    p, q = args.value.numerator, args.value.denominator
    if args.map == dynamics.PHI:
        runs = dynamics.phi_runs(p, q)
        # phi provably terminates: a cap below its stopping time is a usage
        # error, never a finding
        stopping_time = sum(runs)
        if stopping_time > args.max_steps:
            print(
                f"error: the phi orbit of {reports.frac_str(args.value)} reaches 0 in "
                f"exactly {stopping_time} steps, above --max-steps {args.max_steps}",
                file=sys.stderr,
            )
            return 2
    if args.emit == "word":
        if args.map == dynamics.PHI:
            replay, letters = dynamics.replay_runs_pq, "FG"
        else:
            runs = dynamics.theta_runs(p, q, args.max_steps)
            if runs is None:
                print("orbit did not terminate; no word", file=sys.stderr)
                return 1
            replay, letters = dynamics.replay_theta_runs_pq, "RS"
        if replay(runs) != (p, q):
            raise AssertionError(f"word replay failed for {args.value}")  # pragma: no cover
        print(reports.word_str(runs, letters))
        return 0
    rec = dynamics.orbit(args.value, args.map, args.max_steps)
    if args.emit == "points":
        for x in rec.points:
            print(reports.frac_str(x))
    else:
        payload = {
            "map": rec.map_name,
            "start": reports.frac_str(rec.points[0]),
            "points": [reports.frac_str(x) for x in rec.points],
            "branches": list(rec.branches),
            "terminated": rec.terminated,
            "stopping_time": rec.stopping_time,
        }
        print(json.dumps(payload))
    if not rec.terminated:
        print(f"no termination within {args.max_steps} steps", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    invocation = reports.canonical_invocation(
        "sweep", [("--height", args.height), ("--max-steps", args.max_steps)]
    )
    report, columns = dynamics.theta_sweep_full(args.height, args.max_steps)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            reports.write_sweep_csv(columns, fh, invocation)
    payload = reports.sweep_report_json(report)
    payload["version"] = VERSION
    payload["invocation"] = invocation
    print(json.dumps(payload))
    if not report.all_terminated:
        print(
            f"CANDIDATE COUNTEREXAMPLE: {len(report.nonterminated)} starts did not "
            f"reach 0 within {args.max_steps} steps",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_enumerate(args) -> int:
    invocation = reports.canonical_invocation(
        "enumerate", [("--k", args.k), ("--m", args.m), ("--emit", args.emit)]
    )
    for line in reports.header_lines(invocation):
        print(line)
    for w in enumerate_lambda(args.k, args.m):
        if args.emit == "tuples":
            print(format_word_compact(w))
        else:
            print(",".join(str(e) for e in word_eval(w).entries()))
    return 0


def _cmd_density(args) -> int:
    prefilter = args.prefilter == "on"
    flags: list[tuple[str, object]] = [
        ("--k", args.k),
        ("--m-range", f"{args.m_range[0]}..{args.m_range[1]}"),
        ("--prefilter", args.prefilter),
    ]
    if args.sample is not None:
        flags += [("--sample", args.sample), ("--seed", args.seed)]
    invocation = reports.canonical_invocation("density", flags)

    if args.sample is not None:
        rows = [
            census_sampled(args.k, m, args.sample, args.seed, prefilter)
            for m in range(args.m_range[0], args.m_range[1] + 1)
        ]
    else:
        rows = density_sweep(
            args.k,
            args.m_range,
            prefilter,
            workers=args.threads,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
        )
    with _out(args.out) as fh:
        reports.write_density_csv(rows, fh, invocation)

    # exhaustive rows are nested boxes, so a member of level L recurs in
    # every row from M = L up; each is reported once
    exceptional = list(dict.fromkeys(m for row in rows if row.k >= 2 for m in row.omega_members))
    if exceptional:
        print(
            f"COUNTEREXAMPLE CANDIDATES: {len(exceptional)} words at k={args.k} "
            "have integer eigenvalues",
            file=sys.stderr,
        )
        for m in exceptional:
            print(json.dumps(reports.member_json(m), sort_keys=True), file=sys.stderr)
        if args.out:
            with open(args.out + ".members.jsonl", "w", encoding="utf-8") as f:
                reports.write_members_jsonl(exceptional, f, invocation)
        return 1
    for row in rows:
        if row.density_bound is not None:
            print(
                f"M={row.M} density={reports.frac_str(row.density)} "
                f"bound={reports.frac_str(row.density_bound)}",
                file=sys.stderr,
            )
    return 0


def _cmd_search(args) -> int:
    g = args.generators
    invocation = reports.canonical_invocation(
        "search",
        [
            ("--k", args.k),
            ("--exp-max", args.exp_max),
            ("--generators", f"{g.a},{g.u},{g.v},{g.b}"),
            ("--budget", args.budget),
        ],
    )
    result = search_counterexamples(args.k, args.exp_max, g, args.budget)
    with _out(args.out) as fh:
        reports.write_members_jsonl(result.members, fh, invocation)
    if not result.complete:
        print(f"budget exhausted after {result.words_tested} words; partial results",
              file=sys.stderr)
    print(
        f"tested {result.words_tested} words, found {len(result.members)} with "
        "integer eigenvalues",
        file=sys.stderr,
    )
    if result.members and g == DEFAULT_GENERATORS:
        print("COUNTEREXAMPLE: non-pure-power word over the default generators "
              "has integer eigenvalues", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    # a suite takes the given flags its signature names and ignores the rest
    named = inspect.signature(suite).parameters
    given = {"k": args.k, "samples": args.samples, "seed": args.seed, "M": args.m}
    report = suite(**{n: v for n, v in given.items() if v is not None and n in named})
    report["version"] = VERSION
    print(json.dumps(report, sort_keys=True))
    return 1 if report["failures"] else 0


def _cmd_nk(args) -> int:
    cert = spectral.compute_nk(args.k)
    # the reduced pair, denominator > 1 for every n >= 1: no gcd, no Fraction
    num, den = spectral.nk_product_value(cert.k, cert.n)
    payload = {
        "k": cert.k,
        "n": cert.n,
        "product_value": f"{num}/{den}",
        "product_threshold": cert.product_threshold,
        "det_floor": cert.det_floor,
        "det_threshold": cert.det_threshold,
        "margin_ok": cert.margin_ok,
    }
    print(json.dumps(payload))
    return 0


def _cmd_fixed_point(args) -> int:
    result = rational_fixed_points(args.matrix)
    if result.kind is FixedPointKind.NONE:
        print("no-fixed-point")
    elif result.kind is FixedPointKind.ALL:
        print("all-points-fixed")
    else:
        for x in result.points:
            print(reports.frac_str(x))
    return 0


def _cmd_factor(args) -> int:
    runs = dynamics.sl2_factor(args.matrix)
    letters = sum(runs)
    if letters > MAX_FACTOR_LETTERS:
        raise SizeLimitError(
            f"{args.matrix} factors into {letters} letters, over the limit {MAX_FACTOR_LETTERS}"
        )
    print(reports.word_str(runs, "FG"))
    return 0


_HANDLERS = {
    "orbit": _cmd_orbit,
    "sweep": _cmd_sweep,
    "enumerate": _cmd_enumerate,
    "density": _cmd_density,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "nk": _cmd_nk,
    "fixed-point": _cmd_fixed_point,
    "factor": _cmd_factor,
}


# exact values are parsed and printed in full, past Python's 4,300 digits
# (det_floor of `nk` passes it from k = 72)
@unlimited_int_digits()
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a sampled census has no cursor to save or resume
    if args.command == "density" and args.sample is not None and (args.checkpoint or args.resume):
        parser.error("argument --checkpoint/--resume: not allowed with argument --sample")
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`... | head`): end quietly, and send the
        # interpreter's final flush of the unwritten rest to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (CollatzqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a fault in the program is neither a finding (1) nor bad input (2)
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

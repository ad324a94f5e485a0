"""Stable text outputs: CSV/JSONL writers with reproducibility headers.

Every tabular output starts with comment lines recording the tool version
and a canonicalized invocation.  Runtime-only flags (--threads, --out,
--checkpoint, --resume) are excluded from the recorded invocation so that
they can never change output bytes.  Rationals are printed as p/q, never
as decimals.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, Iterable

from ._version import VERSION
from .census import DensityRow, OmegaMember, _member_to_json
from .dynamics import SweepReport

# sweep CSV rows formatted per write, from one slice of each column: as fast
# as one join over every row, while the text held at once stays near 20 kB
SWEEP_CSV_CHUNK_ROWS = 1024


def frac_str(x: Fraction) -> str:
    """p/q form; whole values print without the /1."""
    return str(Fraction(x))


def word_str(runs: list[int], letters: str) -> str:
    """A run list as text: even runs repeat letters[0], odd runs letters[1]."""
    return "".join(letters[i & 1] * n for i, n in enumerate(runs))


def header_lines(invocation: str) -> list[str]:
    return [f"# collatzq {VERSION}", f"# invocation: {invocation}"]


def canonical_invocation(subcommand: str, pairs: list[tuple[str, object]]) -> str:
    """Reconstructed command line covering exactly the content-affecting flags."""
    return " ".join([subcommand] + [f"{flag} {value}" for flag, value in pairs])


def write_density_csv(rows: Iterable[DensityRow], fh: IO[str], invocation: str) -> None:
    """Pinned schema: k,M,lambda_count,omega_count,density_num,density_den,mode."""
    rows = list(rows)
    modes = {row.mode == "exhaustive" for row in rows}
    if len(modes) > 1:
        raise ValueError("sampled and exhaustive rows must not share a file")
    for line in header_lines(invocation):
        fh.write(line + "\n")
    fh.write("k,M,lambda_count,omega_count,density_num,density_den,mode\n")
    for row in rows:
        fh.write(
            f"{row.k},{row.M},{row.lambda_count},{row.omega_count},"
            f"{row.density.numerator},{row.density.denominator},{row.mode}\n"
        )


def write_members_jsonl(
    members: Iterable[OmegaMember], fh: IO[str], invocation: str
) -> None:
    """One JSON object per member: {"k","betas","alphas","matrix","lambda","mu"}."""
    for line in header_lines(invocation):
        fh.write(line + "\n")
    for m in members:
        fh.write(json.dumps(_member_to_json(m), sort_keys=True) + "\n")


def read_members_jsonl(fh: IO[str]) -> list[dict]:
    return [json.loads(line) for line in fh if line.strip() and not line.startswith("#")]


def write_sweep_csv(rows: tuple, fh: IO[str], invocation: str) -> None:
    """Per-start rows p,q,stopping_time,terminated (stopping_time -1 when capped).

    rows is `theta_sweep_full`'s column tuple (ps, qs, stopping_times,
    terminated) of equal-length numpy arrays; each chunk of rows is formatted
    straight from slices of the columns.
    """
    for line in header_lines(invocation):
        fh.write(line + "\n")
    fh.write("p,q,stopping_time,terminated\n")
    n = SWEEP_CSV_CHUNK_ROWS
    for i in range(0, len(rows[0]), n):
        fh.write("".join([
            f"{p},{q},{st},{('false', 'true')[term]}\n"
            for p, q, st, term in zip(*(c[i:i + n].tolist() for c in rows))
        ]))


def sweep_report_json(report: SweepReport) -> dict:
    return {
        "height_bound": report.height_bound,
        "step_cap": report.step_cap,
        "total_tested": report.total_tested,
        "all_terminated": report.all_terminated,
        "max_stopping_time": report.max_stopping_time,
        "argmax": frac_str(report.argmax),
        "nonterminated": [frac_str(x) for x in report.nonterminated],
    }


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

import numpy as np

from ._version import VERSION
from .census import DensityRow
from .core import unlimited_int_digits
from .dynamics import SweepReport
from .sieve import OmegaMember

# sweep CSV rows rendered per write, from one slice of each column.  16,384
# measured fastest for the 304,192 rows of H = 1000 (best of 5, 2 vCPUs:
# 1,024 rows 0.10 s, 4,096 0.063 s, 16,384 0.052 s, 65,536 0.054 s), and the
# text held at once stays near 300 kB
SWEEP_CSV_CHUNK_ROWS = 16384


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


def member_json(m: OmegaMember) -> dict:
    return {
        "k": m.word.k,
        "betas": list(m.word.betas),
        "alphas": list(m.word.alphas),
        "matrix": list(m.matrix.entries()),
        "lambda": m.eigen.lam,
        "mu": m.eigen.mu,
    }


@unlimited_int_digits()
def write_members_jsonl(
    members: Iterable[OmegaMember], fh: IO[str], invocation: str
) -> None:
    """One JSON object per member: {"k","betas","alphas","matrix","lambda","mu"}."""
    for line in header_lines(invocation):
        fh.write(line + "\n")
    for m in members:
        fh.write(json.dumps(member_json(m), sort_keys=True) + "\n")


@unlimited_int_digits()
def read_members_jsonl(fh: IO[str]) -> list[dict]:
    return [json.loads(line) for line in fh if line.strip() and not line.startswith("#")]


def write_sweep_csv(rows: tuple, fh: IO[str], invocation: str) -> None:
    """Per-start rows p,q,stopping_time,terminated (stopping_time -1 when capped).

    rows is `theta_sweep_full`'s column tuple (ps, qs, stopping_times) of
    equal-length int64 numpy arrays, with p, q >= 0 and each stopping time -1
    or >= 0; a row is terminated exactly when its stopping time is not -1.
    Each chunk of rows is rendered from slices of the columns as one ASCII
    buffer, with no per-row Python: see `_sweep_csv_text`.
    """
    for line in header_lines(invocation):
        fh.write(line + "\n")
    fh.write("p,q,stopping_time,terminated\n")
    n = SWEEP_CSV_CHUNK_ROWS
    for i in range(0, len(rows[0]), n):
        fh.write(_sweep_csv_text(*(c[i:i + n] for c in rows)))


def _sweep_csv_text(ps, qs, stopping_times) -> str:
    """The CSV lines of a nonempty chunk of sweep columns, as `str`.

    Each field's digit count comes from a table of powers of 10, and a
    cumsum of the row lengths places every row in one uint8 buffer.  Rows
    are then filled right to left from their ends: the true/false tail (false
    on a -1 stopping time), then per field a comma and its digits.
    """
    neg = stopping_times < 0
    fields = (ps, qs, np.where(neg, 1, stopping_times))
    pow10 = 10 ** np.arange(1, 19, dtype=np.int64)
    digits = [np.searchsorted(pow10, v, side="right") + 1 for v in fields]
    digits[2] += neg  # the 1 of a -1 is written with a leading 0, then its '-'
    tail = np.where(neg, 6, 5)
    end = np.cumsum(digits[0] + digits[1] + digits[2] + tail + 3)
    buf = np.empty(int(end[-1]), dtype=np.uint8)
    end -= tail
    for text in (b"true\n", b"false\n"):
        at = end[tail == len(text)]
        for j, byte in enumerate(text):
            buf[at + j] = byte
    for v, d in reversed(list(zip(fields, digits))):
        end -= 1
        buf[end] = ord(",")
        _put_digits(buf, v, d, end)
        end -= d
    # end is now each row's start; a -1 stopping time's '-' follows the second comma
    buf[(end + digits[0] + digits[1] + 2)[neg]] = ord("-")
    return buf.tobytes().decode("ascii")


def _put_digits(buf, v, d, end) -> None:
    """Write the d decimal digits of each v >= 0 into buf[end - d:end].

    Digits are taken one position at a time by // and % on uint32, about 5
    times faster than on int64; a value of more than 9 digits is split into
    its high part, written first, and a zero-padded low 9-digit limb.
    """
    big = d > 9
    if big.any():
        hi, lo = np.divmod(v[big], 10**9)
        _put_digits(buf, hi, d[big] - 9, end[big] - 9)
        v = np.where(big, 0, v)
        v[big] = lo
        d = np.where(big, 9, d)
    v = v.astype(np.uint32)
    j = 1
    while v.size:
        buf[end - j] = 48 + v % 10
        v //= 10
        live = d > j
        j += 1
        if not live.all():
            v, d, end = v[live], d[live], end[live]


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


"""Stable text outputs: CSV/JSONL writers with reproducibility headers.

Every tabular output starts with comment lines recording the tool version
and a canonicalized invocation.  Runtime-only flags (--threads, --out,
--checkpoint, --resume) are excluded from the recorded invocation so that
they can never change output bytes.  Rationals are printed as p/q, never
as decimals.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import IO, Iterable

import numpy as np

from ._version import VERSION
from .census import DensityRow
from .core import unlimited_int_digits
from .dynamics import SweepReport
from .sieve import OmegaMember

# sweep CSV rows rendered per write, from one slice of each column.  For the
# 304,192 rows of H = 1000 (best of 5, two runs, 2 vCPUs), 16,384 rows took
# 15.5-15.7 ms, 8,192-65,536 were within noise of it (15.2-19.1 ms), 4,096
# took 17-19 ms and 1,024 25-26 ms; a chunk's text and buffers, 1.7 MB at
# 16,384 rows (tracemalloc peak), grow with it
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

    Digit counts come from a table below 10^4 and from a searchsorted of
    the powers of 10 above it, and a cumsum of the row lengths places every
    row in one uint8 buffer.  The digits go in four at a time, right to
    left from a field's end: one divmod by 10^4 per group, whose 4 ASCII
    bytes, zero-padded, are read from a table (`_ascii_groups`) and stored
    by one write through an unaligned little-endian uint32 view of the
    buffer, a word at every byte offset.  A short leading group puts its
    zeros on the bytes in front of its field, which a later write covers:
    the fields go in last to first, then the commas and the true/false
    tails (false on a -1 stopping time) last, and the first row's zeros
    land on a 4-byte pad in front of the buffer.
    """
    neg = stopping_times < 0
    fields = (ps, qs, np.abs(stopping_times))  # -1 is written as 1, then its '-'
    digits = [_digit_counts(v) for v in fields]
    digits[2] += neg  # with a leading 0, for the '-'
    tail = 5 + neg  # true\n or false\n
    end = np.cumsum(digits[0] + digits[1] + digits[2] + tail + 3)
    end += 4
    buf = np.empty(int(end[-1]), dtype=np.uint8)
    words = np.ndarray((buf.size - 3,), dtype="<u4", buffer=buf, strides=(1,))
    commas = [end - tail - 1]  # each field's end, and the comma after it
    for d in digits[:0:-1]:
        commas.append(commas[-1] - d - 1)
    groups = _ascii_groups()[0]
    for v, at in zip(reversed(fields), commas):
        while True:
            high = v // 10_000
            words[at - 4] = groups.take(v - high * 10_000)
            more = np.flatnonzero(high)
            if not more.size:
                break
            v, at = high.take(more), at.take(more) - 4
    for at in commas:
        buf[at] = ord(",")
    words[end - 5] = _LE_TRUE
    buf[end - 1] = ord("\n")
    i = np.flatnonzero(neg)
    if i.size:
        words[end.take(i) - 5] = _LE_ALSE
        buf[end.take(i) - 6] = ord("f")
        buf[commas[0].take(i) - 2] = ord("-")
    return buf[4:].tobytes().decode("ascii")


# "true" and "alse" as little-endian uint32 words
_LE_TRUE = 0x65757274
_LE_ALSE = 0x65736C61


@functools.cache
def _ascii_groups():
    """The CSV writer's tables, built on first use: (groups, digits, pow10).

    groups[g] is the 4 ASCII digits of g < 10^4, zero-padded, as a
    little-endian uint32 word, and digits[g] is g's digit count (1 at 0).
    pow10 is 10^1 .. 10^18.
    """
    g = np.arange(10_000)
    text = np.stack([48 + g // 10**k % 10 for k in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    pow10 = 10 ** np.arange(1, 19, dtype=np.int64)
    digits = (np.searchsorted(pow10, g, side="right") + 1).astype(np.int8)
    return text.view("<u4").ravel(), digits, pow10


def _digit_counts(v):
    """The decimal digit count of each v >= 0: a table's below 10^4, a
    searchsorted in the powers of 10 from there."""
    _, digits, pow10 = _ascii_groups()
    d = digits.take(v, mode="clip")
    far = np.flatnonzero(v >= 10_000)
    if far.size:
        d[far] = np.searchsorted(pow10, v.take(far), side="right") + 1
    return d


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


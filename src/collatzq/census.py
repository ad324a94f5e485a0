"""Integer-eigenvalue censuses over exponent boxes, and counterexample search.

A census enumerates the (k, M) word box, decides every word by the sieve
and the exact eigenvalue test of its survivors, and reports exact counts,
the exact density, and the complete member list.  The leaf skips the
words of R and S that the paper's theorem excludes (all exponents above
n(k)) in every census, resume and sampled run; the prefilter setting is
only recorded, in the invocation and the checkpoint's parameters.

Work is addressed by word ranges [start, stop) of the box's lexicographic
order, in sieve chunks.  Census ranges, sampled draws and search boxes all
go through the leaf pipeline of ``sieve``, which builds each confirmed
hit's ``OmegaMember``.  A search cuts its budget at a word.

A ``density_sweep`` is one census of its largest box, since every smaller
box is the words of that box with no exponent above its M; each row is
read off the members, and ``census`` is the sweep of one row.  Chunks are
dispatched to a process pool in contiguous runs and merged in word order,
so the worker count changes neither output bytes nor the checkpoint
saves; the pool never has more workers than cores or chunks left.  The
checkpoint, saved after every merged chunk, holds one cursor (words
tested, members so far as words) into the census, and the final save adds
the finished rows as counts.  Resuming from any word reproduces the
uninterrupted result bit for bit: the leaf re-proves and builds every
stored member, and refuses the file unless each is a member before the cursor.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import integer_eigenvalues  # noqa: F401  (traced here by perfbench/spans.py)
from .errors import BudgetExceededError, CorruptCheckpointError, SizeLimitError
from .sieve import (
    MAX_SAMPLED_M,
    OmegaMember,
    chunk_words,
    confirm_words,
    sample_hits,
    sieve_words,
)
from .spectral import compute_nk
from .spectral import prefilter_excludes  # noqa: F401  (traced here by perfbench/spans.py)
from .words import (
    DEFAULT_GENERATORS,
    GeneratorPair,
    _exponent_ranges,
    enumerate_lambda_block,  # noqa: F401  (traced here by perfbench/spans.py)
    lambda_count,
    r_power,
    s_power,
    word_eval,  # noqa: F401  (traced here by perfbench/spans.py)
)

DEFAULT_CENSUS_BUDGET = 10**8
DEFAULT_SEARCH_BUDGET = 10**6


@dataclass(frozen=True)
class DensityRow:
    """One (k, M) row: its members, and for a sampled row the draw.

    The counts, the density and the mode follow from these fields.
    """

    k: int
    M: int
    omega_members: tuple[OmegaMember, ...]
    sample_size: int | None = None  # None for an exhaustive row
    seed: int | None = None
    density_bound: Fraction | None = None  # 1 - (M-n)^2k / ((M+1)^2 M^(2k-2))

    @property
    def lambda_count(self) -> int:
        """Words in the (k, M) box, sampled or not."""
        return lambda_count(self.k, self.M)

    @property
    def omega_count(self) -> int:
        return len(self.omega_members)

    @property
    def density(self) -> Fraction:
        """Members per word of the box, or per draw of a sampled row."""
        return Fraction(self.omega_count, self.sample_size or self.lambda_count)

    @property
    def mode(self) -> str:
        if self.sample_size is None:
            return "exhaustive"
        return f"sampled(size={self.sample_size};seed={self.seed})"


def _census_words(k: int, M: int, start: int, stop: int):
    """(words tested, members) of each sieve chunk of census words [start, stop)."""
    return sieve_words(r_power, s_power, _exponent_ranges(k, M), start, stop)


def _census_run(task: tuple[int, int, int, int]):
    """Consecutive chunks in one pool task, so dispatch costs are paid per run."""
    return list(_census_words(*task))


def _runs(start: int, stop: int, chunk: int, workers: int) -> list[tuple[int, int]]:
    """[start, stop) cut at multiples of ``chunk`` into runs of whole chunks,
    two per worker: few enough that dispatch stays cheap next to the sieve's
    work, enough to even out chunk costs."""
    first = start - start % chunk
    size = max(1, -(-(stop - first) // chunk // (2 * workers))) * chunk
    edges = [start, *range(first + size, stop, size), stop]
    return list(zip(edges, edges[1:]))


def census(k: int, M: int, use_prefilter: bool = True, *, workers: int = 1) -> DensityRow:
    """Exhaustive census of the (k, M) box: the one-row ``density_sweep``."""
    return density_sweep(k, (M, M), use_prefilter, workers=workers)[0]


def census_sampled(
    k: int, M: int, sample_size: int, seed: int, use_prefilter: bool = True
) -> DensityRow:
    """Seeded uniform draw over the exponent box, for sizes beyond budget.

    Sampled rows are labeled as such and must never be mixed with exhaustive
    rows in one file; ``omega_count`` counts hits among the samples.
    ``use_prefilter`` is only recorded, and a k past ``MAX_NK_K`` is
    refused either way, as by the exhaustive census.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if M > MAX_SAMPLED_M:
        raise SizeLimitError(
            f"sampled M={M} is over {MAX_SAMPLED_M}: exponents are drawn as int64"
        )
    compute_nk(k)
    members = tuple(sample_hits(random.Random(seed), k, M, sample_size))
    return DensityRow(k, M, members, sample_size, seed)


def theorem_density_bound(k: int, M: int, n: int) -> Fraction | None:
    """Upper bound 1 - (M-n)^(2k) / ((M+1)^2 M^(2k-2)) on the density, for M > n."""
    if M <= n:
        return None
    return 1 - Fraction((M - n) ** (2 * k), lambda_count(k, M))


def density_sweep(
    k: int, m_range: tuple[int, int], use_prefilter: bool = True, *, workers: int = 1,
    checkpoint_path: str | None = None, resume: bool = False,
) -> list[DensityRow]:
    """One row per M in ascending order, with the proof's bound attached.

    The boxes are nested: box (k, M) is the words of box (k, m_hi) whose
    exponents are all at most M, in the same order.  So one census of the
    m_hi box serves every row, and row M keeps the members of level (largest
    exponent) at most M.  With ``checkpoint_path`` the sweep saves its
    cursor into that census after every sieve chunk, and the finished rows
    at the end; ``resume`` continues from such a file and produces
    bit-identical rows to an uninterrupted run.  ``use_prefilter`` is only
    recorded, in the checkpoint's parameters, and a resume may change it.
    """
    m_lo, m_hi = m_range
    if m_lo < 1 or m_hi < m_lo:
        raise ValueError(f"bad M range {m_range}")
    cert = compute_nk(k)
    params = {"k": k, "m_lo": m_lo, "m_hi": m_hi, "prefilter": use_prefilter}
    box = lambda_count(k, m_hi)

    tested, members = 0, []
    if resume:
        if not checkpoint_path:
            raise CorruptCheckpointError("resume requested without a checkpoint file")
        state = load_checkpoint(checkpoint_path)
        if {**state["params"], "prefilter": use_prefilter} != params:
            raise CorruptCheckpointError(
                f"checkpoint parameters {state['params']} do not match {params}"
            )
        tested = state["tested"]
        members = _resumed_members(state["members"], _exponent_ranges(k, m_hi), tested)
    if box > DEFAULT_CENSUS_BUDGET:
        raise BudgetExceededError(
            f"|box(k={k}, M={m_hi})| = {box} exceeds budget {DEFAULT_CENSUS_BUDGET}"
        )

    def step(results) -> None:
        """Merge sieve chunks in word order, saving the cursor after each."""
        nonlocal tested
        for chunk_tested, chunk_members in results:
            tested += chunk_tested
            members.extend(chunk_members)
            if checkpoint_path:
                # while the census runs the file holds only its cursor
                save_checkpoint(checkpoint_path, params=params, tested=tested, members=members)

    chunk = chunk_words(_exponent_ranges(k, m_hi))
    # a fork pool starts every worker at its first task, so it gets no more
    # workers than chunks left to sieve or cores to run them
    workers = min(workers, os.cpu_count() or 1, -(-box // chunk) - tested // chunk)
    if workers > 1:
        # imported here, so that `import collatzq` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(k, m_hi, start, stop) for start, stop in _runs(tested, box, chunk, workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for results in pool.map(_census_run, tasks):
                step(results)
    else:
        step(_census_words(k, m_hi, tested, box))
    if tested != box:
        raise AssertionError(f"enumerated {tested} words, closed form says {box}")

    # row M marks the members of level <= M, as the rows before it did, and
    # selects the marked ones in box order with one C-level compress
    levels = [max(m.word.betas + m.word.alphas) for m in members]
    unmarked = sorted(range(len(members)), key=levels.__getitem__, reverse=True)
    marked = bytearray(len(members))
    rows = []
    for M in range(m_lo, m_hi + 1):
        while unmarked and levels[unmarked[-1]] <= M:
            marked[unmarked.pop()] = 1
        rows.append(DensityRow(k, M, tuple(itertools.compress(members, marked)),
                               density_bound=theorem_density_bound(k, M, cert.n)))
    if checkpoint_path:
        save_checkpoint(checkpoint_path, params=params, tested=box, members=members, rows=rows)
    return rows


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    members: tuple[OmegaMember, ...]
    words_tested: int
    complete: bool


def search_counterexamples(
    k: int,
    exp_max: int,
    generators: GeneratorPair = DEFAULT_GENERATORS,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> SearchResult:
    """Exact eigenvalue test over all canonical words with block count <= k.

    Words follow the generalized convention B^b1 A^a1 ... B^bk A^ak (for the
    default pair B = S and A = R).  Pure powers are excluded; for the default
    generators any member refutes the only-pure-powers conjecture.  Budget
    exhaustion returns partial results with complete=False.

    Each box of j-block words goes through the census's sieve, cut where
    the budget runs out.  Only one-block words can be pure powers (interior
    exponents are >= 1), so the one-block box has no zero exponent.
    """
    g = generators
    members: list[OmegaMember] = []
    tested = 0
    for j in range(1, k + 1):
        ranges = [range(1, exp_max + 1)] * 2 if j == 1 else _exponent_ranges(j, exp_max)
        total = math.prod(map(len, ranges))
        stop = min(total, budget - tested)
        for words, found in sieve_words(g.b_power, g.a_power, ranges, 0, stop):
            tested += words
            members.extend(found)
        if stop < total:
            return SearchResult(tuple(members), tested, False)
    return SearchResult(tuple(members), tested, True)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 4

# the payload's keys and the JSON types of their values (a bool is no int)
_PAYLOAD_TYPES = {"version": (int,), "params": (dict,), "rows": (list,),
                  "active_m": (int, type(None)), "tested": (int,), "members": (list,)}


def _row_to_json(row: DensityRow) -> dict:
    return {
        "k": row.k,
        "M": row.M,
        "lambda_count": row.lambda_count,
        "omega_count": row.omega_count,
        "density_num": row.density.numerator,
        "density_den": row.density.denominator,
        "mode": row.mode,
        "sample_size": row.sample_size,
        "seed": row.seed,
        "bound_num": None if row.density_bound is None else row.density_bound.numerator,
        "bound_den": None if row.density_bound is None else row.density_bound.denominator,
    }


def _resumed_members(words: list, ranges: list[range], tested: int) -> list[OmegaMember]:
    """The members a checkpoint lists as words, re-proved and built by the
    sieve's leaf; refused unless they are members of the box, in its order,
    and the cursor ``tested`` passes the last of them and stays in the box."""
    # checked before any table lookup, where a negative exponent indexes from the end
    for w in words:
        if type(w) is not list or len(w) != len(ranges) or not all(
                type(e) is int and e in r for e, r in zip(w, ranges)):
            raise CorruptCheckpointError(f"checkpoint member {w!r} is not a word of the box")
    if any(a >= b for a, b in zip(words, words[1:])):
        raise CorruptCheckpointError("checkpoint members are not in increasing box order")
    last = -1  # the last member's index in box order
    if words:
        last = 0
        for e, r in zip(words[-1], ranges):
            last = last * len(r) + e - r.start
    box = math.prod(map(len, ranges))
    if not last < tested <= box:
        raise CorruptCheckpointError(
            f"checkpoint cursor ({tested} words) does not pass its last member, "
            f"word {last}, or does not fit the {box} words of the box"
        )
    members = list(confirm_words(ranges, words))
    if len(members) != len(words):
        raise CorruptCheckpointError("checkpoint lists a word that is not a member")
    return members


def save_checkpoint(
    path: str, *, params: dict, tested: int, members: list[OmegaMember],
    rows: Sequence[DensityRow] = (),
) -> None:
    """Save the census cursor (words tested, members so far as exponent
    lists) and, at the end, the finished rows, which count the members but do
    not repeat them; ``active_m`` is the box still being censused, None once
    rows are saved.  The file is a header line, the version and the sha256
    of the second line, then the payload's canonical JSON on that line."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "params": params,
        "rows": [_row_to_json(r) for r in rows],
        "active_m": None if rows else params["m_hi"],
        "tested": tested,
        "members": [m.word.exponents() for m in members],
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    header = {"sha256": hashlib.sha256(body).hexdigest(), "version": CHECKPOINT_VERSION}
    # a complete temp file replaces the old one, so a crash mid-write leaves
    # the previous checkpoint intact
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n" + body + b"\n")
            # on disk before it replaces the old file, so a power loss
            # cannot leave a renamed but empty checkpoint
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> dict:
    """The payload of a checkpoint file, once its version, its digest and
    the keys and JSON types of the payload check out."""
    try:
        with open(path, "rb") as fh:
            header, body = json.loads(fh.readline()), fh.readline().removesuffix(b"\n")
        if type(header) is not dict or header.get("version") != CHECKPOINT_VERSION:
            raise CorruptCheckpointError(f"unsupported checkpoint version in {path}")
        if header.get("sha256") != hashlib.sha256(body).hexdigest():
            raise CorruptCheckpointError(f"checkpoint {path} failed its content hash")
        # a ValueError here is malformed JSON or an integer past the digit limit
        payload = json.loads(body)
    except (OSError, ValueError) as exc:
        raise CorruptCheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if type(payload) is not dict or payload.keys() != _PAYLOAD_TYPES.keys() or not all(
            type(payload[key]) in types for key, types in _PAYLOAD_TYPES.items()
    ) or payload["version"] != CHECKPOINT_VERSION:
        raise CorruptCheckpointError(f"checkpoint {path} does not hold a census cursor's fields")
    return payload

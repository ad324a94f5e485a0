"""Census engine: exact counts, prefilter transparency, checkpoints, search."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import collatzq.census as census_mod
import collatzq.sieve as sieve_mod
from collatzq.census import (
    _census_words,
    census,
    census_sampled,
    density_sweep,
    load_checkpoint,
    save_checkpoint,
    search_counterexamples,
    theorem_density_bound,
)
from collatzq.cli import main
from collatzq.core import Mat2, integer_eigenvalues, mat_pow, unlimited_int_digits
from collatzq.errors import BudgetExceededError, CorruptCheckpointError
from collatzq.reports import (
    member_json,
    read_members_jsonl,
    write_density_csv,
    write_members_jsonl,
)
from collatzq.sieve import OmegaMember
from collatzq.words import (
    GeneratorPair,
    Word,
    _exponent_ranges,
    lambda_count,
    word_eval,
    word_eval_general,
)


class TestCensus:
    def test_k2_m4_empty(self):
        for prefilter in (True, False):
            row = census(2, 4, prefilter)
            assert row.omega_count == 0
            assert row.density == 0
            assert row.lambda_count == 400
            assert row.mode == "exhaustive"

    def test_k1_m4_pure_powers(self):
        row = census(1, 4)
        assert row.omega_count == 9 == 2 * 4 + 1
        assert row.density == Fraction(9, 25)
        words = {m.word.exponents() for m in row.omega_members}
        expected = {(b, 0) for b in range(5)} | {(0, a) for a in range(5)}
        assert words == expected

    @pytest.mark.parametrize("M", range(1, 7))
    def test_k1_density_closed_form(self, M):
        row = census(1, M)
        assert row.omega_count == 2 * M + 1
        assert row.density == Fraction(2 * M + 1, (M + 1) ** 2)

    def test_member_witnesses_verified(self):
        for m in census(1, 5).omega_members:
            assert m.eigen.lam + m.eigen.mu == m.matrix.trace()
            assert m.eigen.lam * m.eigen.mu == m.matrix.det()

    @pytest.mark.parametrize("k,M", [(1, 4), (2, 3), (2, 4), (3, 3), (3, 4)])
    def test_prefilter_transparency(self, k, M):
        assert census(k, M, True) == census(k, M, False)

    def test_worker_count_invisible(self):
        base = census(2, 3, workers=1)
        assert census(2, 3, workers=2) == base
        assert census(2, 3, workers=5) == base

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(census_mod, "DEFAULT_CENSUS_BUDGET", 1000)
        with pytest.raises(BudgetExceededError):
            census(3, 10)
        with pytest.raises(BudgetExceededError):
            density_sweep(3, (1, 10))

    def test_lambda_count_always_closed_form(self):
        for k, M in [(1, 3), (2, 2), (3, 2)]:
            assert census(k, M).lambda_count == lambda_count(k, M)


class TestSampled:
    def test_deterministic_per_seed(self):
        a = census_sampled(2, 30, 500, seed=9)
        b = census_sampled(2, 30, 500, seed=9)
        assert a == b
        assert a.mode == "sampled(size=500;seed=9)"
        assert a.sample_size == 500 and a.seed == 9

    def test_density_is_hit_ratio(self):
        row = census_sampled(1, 3, 200, seed=1)
        assert row.density == Fraction(row.omega_count, 200)

    def test_mixed_mode_file_rejected(self):
        exhaustive = census(1, 2)
        sampled = census_sampled(1, 2, 10, seed=0)
        with pytest.raises(ValueError):
            write_density_csv([exhaustive, sampled], io.StringIO(), "density ...")


class TestDensitySweep:
    def test_rows_ascend_and_bound_attached(self):
        rows = density_sweep(2, (1, 6))
        assert [r.M for r in rows] == list(range(1, 7))
        assert all(r.omega_count == 0 for r in rows)
        for r in rows:
            if r.M > 3:  # n(2) = 3
                assert r.density_bound == 1 - Fraction((r.M - 3) ** 4, r.lambda_count)
            else:
                assert r.density_bound is None

    def test_k1_strictly_decreasing(self):
        rows = density_sweep(1, (1, 8))
        densities = [r.density for r in rows]
        assert densities == [Fraction(2 * M + 1, (M + 1) ** 2) for M in range(1, 9)]
        assert all(a > b for a, b in zip(densities, densities[1:]))

    def test_bound_example(self):
        assert theorem_density_bound(2, 10, 3) == 1 - Fraction(2401, 12100)
        assert theorem_density_bound(2, 3, 3) is None

    def test_one_certificate_per_sweep_and_per_census(self, monkeypatch):
        calls = []
        real = census_mod.compute_nk

        def counting(k):
            calls.append(k)
            return real(k)

        monkeypatch.setattr(census_mod, "compute_nk", counting)
        density_sweep(2, (1, 14))
        assert calls == [2]
        calls.clear()
        density_sweep(1, (1, 9), use_prefilter=False, workers=2)
        assert calls == [1]  # the bound needs n(k) without the prefilter too
        calls.clear()
        census(3, 4)
        assert calls == [3]


class TestPoolSize:
    @pytest.fixture
    def sizes(self, monkeypatch):
        """The size of every pool a census asks for; the fake pool runs its
        tasks in this process, so no size is ever started."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return sizes

    def test_pool_never_outnumbers_the_chunks_left(self, sizes, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        base = census(1, 200)  # 3 chunks of 16,281 words
        assert census(1, 200, workers=1000) == base
        assert sizes == [3]
        assert census(2, 3, workers=1000) == census(2, 3)  # one chunk: no pool
        assert sizes == [3]
        # a cursor in the last chunk leaves one chunk: no pool
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            params={"k": 1, "m_lo": 200, "m_hi": 200, "prefilter": True},
            tested=40000,
            members=[m for _, found in _census_words(1, 200, 0, 40000) for m in found],
        )
        resumed = density_sweep(1, (200, 200), workers=1000, checkpoint_path=path, resume=True)
        assert resumed == [base]
        assert sizes == [3]

    def test_import_loads_no_pool(self):
        # the pool's modules load only when a census starts one
        code = (
            "import sys, collatzq; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_pool_never_outnumbers_the_cores(self, sizes, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert density_sweep(3, (5, 6), workers=1000) == density_sweep(3, (5, 6))
        assert sizes == [2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        census(3, 6, workers=1000)
        assert sizes == [2]  # an unknown core count runs in this process


class Crash(RuntimeError):
    """A kill injected into a checkpoint save."""


@pytest.fixture
def kill_save(monkeypatch):
    """``kill_save(n, at)`` kills the n-th checkpoint save from then on (none
    for n = None) and returns the (active_m, tested) of every save begun,
    read from its temp file as it is synced.  At "write" the temp file is
    torn to half its bytes; at "replace" it is whole and synced, but has not
    replaced the checkpoint yet."""
    real_fsync, real_replace = os.fsync, os.replace

    def arm(n=None, at="write"):
        saves = []

        def fsync(fd):
            size = os.fstat(fd).st_size
            state = json.loads(os.pread(fd, size, 0).split(b"\n")[1])
            saves.append((state["active_m"], state["tested"]))
            if len(saves) == n and at == "write":
                os.ftruncate(fd, size // 2)
                raise Crash
            real_fsync(fd)

        def replace(src, dst):
            if len(saves) == n and at == "replace":
                raise Crash
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return saves

    return arm


def write_checkpoint(path, payload, version=None):
    """A file of the checkpoint format with a valid digest, for any payload:
    version 4's header and canonical JSON line, or with ``version`` < 4 the
    single line of versions 1 to 3, whose sha256 sat inside the payload."""
    with unlimited_int_digits():  # for a planted integer past the limit
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode()).hexdigest()
    if version is None:
        header = json.dumps({"sha256": digest, "version": 4}, sort_keys=True)
        text = f"{header}\n{body}\n"
    else:
        text = json.dumps({**payload, "sha256": digest}) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def cursor(k, m_hi, tested, members, **changes):
    """A mid-census payload of the (k, 1..m_hi) sweep, with ``changes``."""
    payload = {"version": 4, "params": {"k": k, "m_lo": 1, "m_hi": m_hi, "prefilter": True},
               "rows": [], "active_m": m_hi, "tested": tested, "members": members}
    payload.update(changes)
    return payload


def without(payload, key):
    return {name: value for name, value in payload.items() if name != key}


# checkpoints with valid digests that a resume refuses: (payload, message)
REFUSED_CHECKPOINTS = {
    # (1,1,1,1) is no k = 2 member; at the parent its stored "matrix" was
    # trusted, and the run exited 1 with a counterexample
    "fake k=2 member": (cursor(2, 2, 36, [[1, 1, 1, 1]]), "not a member"),
    "negative exponent": (cursor(1, 3, 16, [[-1, 0]]), "not a word of the box"),
    "exponent above m_hi": (cursor(1, 3, 16, [[0, 4]]), "not a word of the box"),
    "too few exponents": (cursor(1, 3, 16, [[0]]), "not a word of the box"),
    "bool exponent": (cursor(1, 3, 16, [[0, True]]), "not a word of the box"),
    "unsorted members": (cursor(1, 3, 16, [[0, 1], [0, 0]]), "box order"),
    "duplicate member": (cursor(1, 3, 16, [[0, 0], [0, 0]]), "box order"),
    "member at the cursor": (cursor(1, 3, 1, [[0, 0], [0, 1]]), "cursor"),
    "member past the cursor": (cursor(1, 3, 1, [[1, 0]]), "cursor"),
    "non-member": (cursor(1, 3, 16, [[1, 1]]), "not a member"),
    # all exponents above n(1) = 2: the prefilter proves it is no member
    "member the prefilter excludes": (cursor(1, 3, 16, [[3, 3]]), "not a member"),
    "missing members": (without(cursor(1, 3, 16, []), "members"), "fields"),
    "extra key": (cursor(1, 3, 16, [], sha256="0"), "fields"),
    "members not a list": (cursor(1, 3, 16, {}), "fields"),
    "rows not a list": (cursor(1, 3, 16, [], rows=None), "fields"),
    "payload version 3": (cursor(1, 3, 16, [], version=3), "fields"),
    # past the digit limit the library cannot parse it; the CLI, which lifts
    # the limit, finds it past the box
    "cursor past the digit limit": (cursor(1, 3, 10**5000, []), "cannot read|cursor"),
}


def run_density(path, k, m_hi):
    """(exit code, stdout, stderr) of the `density` CLI resumed from ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["density", "--k", str(k), "--m-range", f"1..{m_hi}", "--threads", "1",
                     "--checkpoint", str(path), "--resume"])
    return code, out.getvalue(), err.getvalue()


class TestCheckpoints:
    def test_interrupt_and_resume_identical(self, tmp_path, monkeypatch, kill_save):
        # a crash at the final save leaves the complete cursor, and resuming
        # from it reads the rows off its members without sieving a word
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(2, (1, 4))
        saves = kill_save(2, "replace")
        with pytest.raises(Crash):
            density_sweep(2, (1, 4), checkpoint_path=path)
        assert saves == [(4, 400), (None, 400)]  # the box's one chunk, then the rows
        state = load_checkpoint(path)
        assert (state["active_m"], state["tested"], state["rows"]) == (4, lambda_count(2, 4), [])

        def no_sieve(left, right, ranges, start, stop):
            assert start == stop, "resume sieved a word"
            return iter(())

        monkeypatch.setattr(census_mod, "sieve_words", no_sieve)
        resumed = density_sweep(2, (1, 4), checkpoint_path=path, resume=True)
        assert resumed == fresh
        # and from the finished file as well
        assert density_sweep(2, (1, 4), checkpoint_path=path, resume=True) == fresh

    def test_mid_census_cursor_resume(self, tmp_path, monkeypatch):
        # hand-build checkpoints whose census is part done, and resume them
        # under chunk sizes whose boundaries do and do not meet the cursor
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(1, (6, 6))
        for cut in (0, 1, 20, 21, 35, 48, 49):
            members = [m for _, found in _census_words(1, 6, 0, cut) for m in found]
            save_checkpoint(
                path,
                params={"k": 1, "m_lo": 6, "m_hi": 6, "prefilter": True},
                tested=cut,
                members=members,
            )
            for chunk in (1, 7, 9, 16384):
                monkeypatch.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", chunk)
                resumed = density_sweep(1, (6, 6), checkpoint_path=path, resume=True)
                assert resumed == fresh, (cut, chunk)

    def test_immediate_save_then_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            params={"k": 1, "m_lo": 1, "m_hi": 3, "prefilter": True},
            tested=0,
            members=[],
        )
        resumed = density_sweep(1, (1, 3), checkpoint_path=path, resume=True)
        assert resumed == density_sweep(1, (1, 3))

    def test_parameter_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        density_sweep(1, (1, 2), checkpoint_path=path)
        with pytest.raises(CorruptCheckpointError):
            density_sweep(1, (1, 3), checkpoint_path=path, resume=True)
        with pytest.raises(CorruptCheckpointError):
            density_sweep(2, (1, 2), checkpoint_path=path, resume=True)

    def test_resume_may_change_the_prefilter_setting(self, tmp_path, monkeypatch, kill_save):
        # the setting changes no work: a --prefilter off census cut at a save
        # resumes under --prefilter on to the bytes of a fresh --prefilter on run
        ck, resumed, fresh = (str(tmp_path / name) for name in ("ck.json", "r.csv", "f.csv"))
        monkeypatch.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", 5)
        kill_save(3)
        with pytest.raises(Crash):
            density_sweep(1, (1, 5), False, checkpoint_path=ck)
        monkeypatch.undo()
        state = load_checkpoint(ck)
        assert (state["tested"], state["params"]["prefilter"]) == (10, False)

        args = ["density", "--k", "1", "--m-range", "1..5", "--threads", "1", "--prefilter", "on"]
        assert main(args + ["--checkpoint", ck, "--resume", "--out", resumed]) == 0
        assert main(args + ["--out", fresh]) == 0
        assert Path(resumed).read_bytes() == Path(fresh).read_bytes()
        assert load_checkpoint(ck)["params"]["prefilter"] is True
        # every other parameter must still match
        with pytest.raises(CorruptCheckpointError):
            density_sweep(1, (2, 5), checkpoint_path=ck, resume=True)

    def test_hash_tamper_detected(self, tmp_path):
        path = tmp_path / "ck.json"
        density_sweep(1, (1, 2), checkpoint_path=str(path))
        header, body = path.read_text().splitlines()
        path.write_text(header + "\n" + body.replace('"tested":9', '"tested":999') + "\n")
        with pytest.raises(CorruptCheckpointError, match="hash"):
            load_checkpoint(str(path))

    def test_file_is_a_header_and_one_canonical_line(self, tmp_path):
        path = tmp_path / "ck.json"
        rows = density_sweep(1, (1, 3), checkpoint_path=str(path))
        header, body = path.read_bytes().decode().splitlines()
        payload = json.loads(body)
        assert body == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert json.loads(header) == {
            "sha256": hashlib.sha256(body.encode()).hexdigest(), "version": 4}
        assert payload["members"] == [list(m.word.exponents()) for m in rows[-1].omega_members]

    def test_version_1_file_refused(self, tmp_path):
        # version 1 counted its cursor in (beta_1, alpha_1) blocks
        path = tmp_path / "ck.json"
        payload = {"version": 1, "params": {}, "rows": [], "active_m": None,
                   "cursor": 0, "tested": 0, "members": []}
        write_checkpoint(path, payload, version=1)
        with pytest.raises(CorruptCheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_version_2_file_refused(self, tmp_path):
        # version 2 held finished rows and a cursor into the census of the
        # next M; its cursor means something else in the one census of m_hi
        path = tmp_path / "ck.json"
        fresh = density_sweep(1, (1, 3))
        payload = {"version": 2, "params": {"k": 1, "m_lo": 1, "m_hi": 3, "prefilter": True},
                   "rows": [census_mod._row_to_json(fresh[0])], "active_m": 2,
                   "tested": 9, "members": [member_json(m) for m in fresh[1].omega_members]}
        write_checkpoint(path, payload, version=2)
        with pytest.raises(CorruptCheckpointError, match="version"):
            density_sweep(1, (1, 3), checkpoint_path=str(path), resume=True)

    def test_version_3_file_refused(self, tmp_path):
        # version 3 stored each member with its matrix and eigenvalues
        path = tmp_path / "ck.json"
        fresh = density_sweep(1, (1, 3))
        payload = {"version": 3, "params": {"k": 1, "m_lo": 1, "m_hi": 3, "prefilter": True},
                   "rows": [], "active_m": 3, "tested": 16,
                   "members": [member_json(m) for m in fresh[-1].omega_members]}
        write_checkpoint(path, payload, version=3)
        with pytest.raises(CorruptCheckpointError, match="version"):
            density_sweep(1, (1, 3), checkpoint_path=str(path), resume=True)
        code, out, err = run_density(path, 1, 3)
        assert (code, out) == (2, "") and "version" in err

    @pytest.mark.parametrize("payload, message", REFUSED_CHECKPOINTS.values(),
                             ids=REFUSED_CHECKPOINTS.keys())
    def test_refused_checkpoint_exits_2(self, tmp_path, payload, message):
        # every member of a resumed census is re-proved, so a file can claim
        # no finding; each refusal is a usage error, never exit 1 or 3
        path = tmp_path / "ck.json"
        write_checkpoint(path, payload)
        k, m_hi = payload["params"]["k"], payload["params"]["m_hi"]
        with pytest.raises(CorruptCheckpointError, match=message):
            density_sweep(k, (1, m_hi), checkpoint_path=str(path), resume=True)
        code, out, err = run_density(path, k, m_hi)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_crash_mid_write_keeps_previous_checkpoint(self, tmp_path, kill_save):
        # the sweep is one census of the M = 8 box, 24 sieve chunks of
        # 13,824 words; kill its eighth save, torn or synced
        fresh = density_sweep(3, (1, 8))
        for at in ("write", "replace"):
            path = tmp_path / at / "ck.json"
            path.parent.mkdir()
            saves = kill_save(8, at)
            with pytest.raises(Crash):
                density_sweep(3, (1, 8), checkpoint_path=str(path))
            state = load_checkpoint(str(path))  # the last complete save, intact
            assert (state["active_m"], state["tested"]) == saves[-2] == (8, 7 * 13824)
            assert [p.name for p in path.parent.iterdir()] == ["ck.json"]  # no temp file left
            resumed = density_sweep(3, (1, 8), checkpoint_path=str(path), resume=True)
            assert resumed == fresh

    def test_resume_with_members_and_bounded_rows(self, tmp_path, monkeypatch, kill_save):
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(1, (1, 6))
        # chunks of six words of the M = 6 box; the fourth save (24 words) dies
        monkeypatch.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", 6)
        kill_save(4)
        with pytest.raises(Crash):
            density_sweep(1, (1, 6), checkpoint_path=path)
        monkeypatch.undo()

        state = load_checkpoint(path)
        assert (state["active_m"], state["tested"], state["rows"]) == (6, 18, [])
        assert state["members"]  # k = 1 has hits in every box
        resumed = density_sweep(1, (1, 6), checkpoint_path=path, resume=True)
        assert resumed == fresh
        rows = load_checkpoint(path)["rows"]
        # bounds from M = 3 > n(1) = 2 on
        assert [r["bound_num"] is not None for r in rows] == [M > 2 for M in range(1, 7)]
        assert [r["omega_count"] for r in rows] == [2 * M + 1 for M in range(1, 7)]

    def test_resume_after_a_crash_at_any_save(self, tmp_path, monkeypatch, kill_save):
        # chunks of at most five words: several saves inside the census
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(1, (1, 5))
        monkeypatch.setattr(sieve_mod, "SIEVE_CHUNK_WORDS", 5)
        saves = kill_save()
        density_sweep(1, (1, 5), checkpoint_path=path)
        # the 36 words of the M = 5 box in chunks of five, then the rows
        assert saves == [(5, t) for t in (5, 10, 15, 20, 25, 30, 35, 36)] + [(None, 36)]
        for at in ("write", "replace"):
            for done in range(1, len(saves)):
                kill_save(done + 1, at)
                with pytest.raises(Crash):
                    density_sweep(1, (1, 5), checkpoint_path=path)
                state = load_checkpoint(path)
                assert (state["active_m"], state["tested"]) == saves[done - 1], (at, done)
                assert density_sweep(1, (1, 5), checkpoint_path=path, resume=True) == fresh

    def test_one_save_per_chunk_and_a_final_save(self, tmp_path, monkeypatch):
        saved = []
        real_save = census_mod.save_checkpoint

        def counting(path, **state):
            saved.append(len(state.get("rows", ())))
            real_save(path, **state)

        monkeypatch.setattr(census_mod, "save_checkpoint", counting)
        density_sweep(2, (1, 14), checkpoint_path=str(tmp_path / "ck.json"))
        chunks = -(-lambda_count(2, 14) // sieve_mod.chunk_words(_exponent_ranges(2, 14)))
        assert saved == [0] * chunks + [14]  # the rows, M = 1..14, at the end
        assert len(saved) == 4

    def test_final_file_holds_every_row(self, tmp_path):
        path = str(tmp_path / "ck.json")
        rows = density_sweep(1, (3, 7), checkpoint_path=path)
        state = load_checkpoint(path)
        assert state["active_m"] is None
        assert [r["M"] for r in state["rows"]] == list(range(3, 8))
        assert state["rows"] == [census_mod._row_to_json(r) for r in rows]
        assert state["tested"] == lambda_count(1, 7)
        assert state["members"] == [list(m.word.exponents()) for m in rows[-1].omega_members]

    def test_final_file_holds_each_member_once(self, tmp_path):
        # the rows of M = 1..40 nest, so their 40 * 41 + 40 member slots are
        # 81 members; the file holds only the cursor's list of them
        path = str(tmp_path / "ck.json")
        rows = density_sweep(1, (1, 40), checkpoint_path=path)
        state = load_checkpoint(path)
        assert len(state["members"]) == rows[-1].omega_count == 81
        assert all("members" not in r for r in state["rows"])
        assert [r["omega_count"] for r in state["rows"]] == [row.omega_count for row in rows]
        assert density_sweep(1, (1, 40), checkpoint_path=path, resume=True) == rows

    def test_members_past_the_digit_limit_save_and_resume(self, tmp_path, low_digit_limit):
        # R^1400 has the entry 3^1400, of 668 digits: a cursor just past its
        # word (1400, 0) of the (1, 1400) box holds every member of the box
        M = 1400
        words = [Word((0,), (a,)) for a in range(M + 1)] + [
            Word((b,), (0,)) for b in range(1, M + 1)
        ]
        members = [OmegaMember(w, word_eval(w), integer_eigenvalues(word_eval(w)))
                   for w in words]
        assert members[-1].matrix.a > 10**low_digit_limit
        path = str(tmp_path / "ck.json")
        params = {"k": 1, "m_lo": M, "m_hi": M, "prefilter": True}
        save_checkpoint(path, params=params, tested=M * (M + 1) + 1, members=members)
        [row] = density_sweep(1, (M, M), checkpoint_path=path, resume=True)
        assert row.omega_members == tuple(members)
        state = load_checkpoint(path)
        assert (state["tested"], len(state["members"])) == (lambda_count(1, M), 2 * M + 1)

    def test_over_budget_box_refused_before_the_first_save(self, tmp_path, monkeypatch):
        # the boxes of M = 1..3 fit a budget of 200 words, the 400 of M = 4 do not
        path = tmp_path / "ck.json"
        monkeypatch.setattr(census_mod, "DEFAULT_CENSUS_BUDGET", 200)
        with pytest.raises(BudgetExceededError):
            density_sweep(2, (1, 4), checkpoint_path=str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "tested,members",
        [(-1, 0), (5, 0), (2, 3), (2.0, 0), (True, 0), ("2", 0), (None, 0)],
    )
    def test_cursor_must_fit_the_census(self, tmp_path, tested, members):
        # the (1, 1) box has 4 words, 3 of them hits
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            params={"k": 1, "m_lo": 1, "m_hi": 1, "prefilter": True},
            tested=tested,
            members=list(census(1, 1).omega_members)[:members],
        )
        with pytest.raises(CorruptCheckpointError, match="cursor"):
            density_sweep(1, (1, 1), checkpoint_path=path, resume=True)

    def test_cursor_at_the_end_of_a_later_census_resumes(self, tmp_path):
        # the cursor counts words of the M = 3 box: its 16 words and 7 hits
        # pass the 4 words of the first row's box
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(1, (1, 3))
        save_checkpoint(
            path,
            params={"k": 1, "m_lo": 1, "m_hi": 3, "prefilter": True},
            tested=16,
            members=list(fresh[-1].omega_members),
        )
        assert density_sweep(1, (1, 3), checkpoint_path=path, resume=True) == fresh

    def test_save_is_synced_before_it_replaces(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        density_sweep(2, (1, 3), checkpoint_path=str(tmp_path / "ck.json"))
        assert events == ["fsync", "replace"] * 2  # the box's one chunk, then the rows

    def test_pool_checkpoints_every_block_in_order(self, tmp_path, monkeypatch):
        # (3, 6) has 7 chunks of 9,072 words, so two workers get runs of
        # several chunks; (1, 200) has 3 chunks, with hits
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on any host
        real_save = census_mod.save_checkpoint
        for k, m_range, chunks in ((3, (5, 6), [9072 * i for i in range(1, 8)]),
                                   (1, (199, 200), [16281, 32562, 40401])):
            states = {}
            for workers in (1, 2):
                seen = states[workers] = []

                def recording(path, seen=seen, **state):
                    rows = len(state.get("rows", ()))
                    seen.append((rows, state["tested"], list(state["members"])))
                    real_save(path, **state)

                monkeypatch.setattr(census_mod, "save_checkpoint", recording)
                path = tmp_path / f"w{workers}.json"
                rows = density_sweep(k, m_range, workers=workers, checkpoint_path=str(path))
                assert rows == density_sweep(k, m_range)
            assert states[2] == states[1]
            assert [t for _, t, _ in states[1]] == chunks + [chunks[-1]]
            assert (tmp_path / "w2.json").read_bytes() == (tmp_path / "w1.json").read_bytes()


class TestSearch:
    def test_tables_follow_the_budget_not_the_box(self):
        # past a chunk each call tabulates only its own words' exponents;
        # tables of every exponent up to 10^6 would hold 80 MB
        tracemalloc.start()
        try:
            result = search_counterexamples(1, 10**6, budget=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.words_tested, result.complete) == (10, False)
        assert peak < 4 * 2**20

    def test_defaults_empty_k2(self):
        result = search_counterexamples(2, 6)
        assert result.members == ()
        assert result.complete
        # union over j <= 2: (49 - 13) + 49*36 pure-power-free words
        assert result.words_tested == 36 + 49 * 36

    def test_defaults_empty_k3_small(self):
        result = search_counterexamples(3, 3)
        assert result.members == ()
        assert result.complete

    def test_budget_partial(self):
        result = search_counterexamples(2, 6, budget=100)
        assert not result.complete
        assert result.words_tested == 100

    def test_general_pair_against_bruteforce(self):
        pair = GeneratorPair(2, 1, 1, 2)
        result = search_counterexamples(1, 4, pair)
        A = Mat2(pair.a, pair.u, 0, 1)
        B = Mat2(1, 0, pair.v, pair.b)
        expected = set()
        for beta in range(5):
            for alpha in range(5):
                if beta == 0 or alpha == 0:
                    continue
                m = mat_pow(B, beta) * mat_pow(A, alpha)
                if integer_eigenvalues(m) is not None:
                    expected.add(((beta,), (alpha,)))
        got = {(m.word.betas, m.word.alphas) for m in result.members}
        assert got == expected
        assert expected  # this pair does produce small-exponent members

    def test_members_carry_exact_witnesses(self):
        pair = GeneratorPair(2, 1, 1, 2)
        result = search_counterexamples(1, 4, pair)
        for m in result.members:
            assert m.matrix == word_eval_general(m.word, pair)
            assert integer_eigenvalues(m.matrix) == m.eigen


class TestWriters:
    def test_density_csv_schema(self):
        rows = density_sweep(1, (1, 2))
        buf = io.StringIO()
        write_density_csv(rows, buf, "density --k 1 --m-range 1..2 --prefilter on")
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# collatzq ")
        assert lines[1].startswith("# invocation: density")
        assert lines[2] == "k,M,lambda_count,omega_count,density_num,density_den,mode"
        assert lines[3] == "1,1,4,3,3,4,exhaustive"
        assert lines[4] == "1,2,9,5,5,9,exhaustive"

    def test_members_jsonl_round_trip(self):
        members = census(1, 3).omega_members
        buf = io.StringIO()
        write_members_jsonl(members, buf, "density --k 1 --m-range 3..3 --prefilter on")
        buf.seek(0)
        parsed = read_members_jsonl(buf)
        assert parsed == [member_json(m) for m in members]
        keys = {"k", "betas", "alphas", "matrix", "lambda", "mu"}
        assert all(set(p) == keys for p in parsed)

    def test_member_json_shape(self):
        member = census(1, 2).omega_members[-1]
        d = member_json(member)
        assert d["matrix"] == list(member.matrix.entries())
        assert isinstance(d["betas"], list) and isinstance(d["alphas"], list)


def test_census_membership_matches_direct_scan():
    row = census(2, 4)
    omega = {m.word for m in row.omega_members}
    from collatzq.words import enumerate_lambda, word_eval

    for w in enumerate_lambda(2, 4):
        has = integer_eigenvalues(word_eval(w)) is not None
        assert (w in omega) == has

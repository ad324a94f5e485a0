"""Census engine: exact counts, prefilter transparency, checkpoints, search."""

import io
import json
from fractions import Fraction

import pytest

from collatzq import (
    GeneratorPair,
    Mat2,
    census,
    census_sampled,
    density_sweep,
    integer_eigenvalues,
    lambda_count,
    load_checkpoint,
    mat_pow,
    save_checkpoint,
    search_counterexamples,
    theorem_density_bound,
    word_eval_general,
)
from collatzq.census import _member_to_json
from collatzq.errors import BudgetExceededError, CorruptCheckpointError
from collatzq.reports import read_members_jsonl, write_density_csv, write_members_jsonl


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

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            census(3, 10, budget=1000)

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


class TestCheckpoints:
    def test_interrupt_and_resume_identical(self, tmp_path):
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(2, (1, 4))

        class Stop(RuntimeError):
            pass

        def bomb(row):
            if row.M == 2:
                raise Stop

        with pytest.raises(Stop):
            density_sweep(2, (1, 4), checkpoint_path=path, on_row=bomb)
        resumed = density_sweep(2, (1, 4), checkpoint_path=path, resume=True)
        assert resumed == fresh

    def test_mid_census_cursor_resume(self, tmp_path):
        # hand-build a checkpoint whose active census is half done
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(2, (3, 3))
        from collatzq.census import _census_blocks
        from collatzq.spectral import compute_nk
        from collatzq.words import lambda_prefixes

        cert = compute_nk(2)
        blocks = lambda_prefixes(2, 3)
        cut = len(blocks) // 2
        tested = 0
        members = []
        for b1, a1 in blocks[:cut]:
            t, ms = next(_census_blocks(2, 3, [(b1, a1)], cert))
            tested += t
            members.extend(ms)
        save_checkpoint(
            path,
            params={"k": 2, "m_lo": 3, "m_hi": 3, "prefilter": True},
            rows=[],
            active_m=3,
            cursor=cut,
            tested=tested,
            members=members,
        )
        resumed = density_sweep(2, (3, 3), checkpoint_path=path, resume=True)
        assert resumed == fresh

    def test_immediate_save_then_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            params={"k": 1, "m_lo": 1, "m_hi": 3, "prefilter": True},
            rows=[],
            active_m=None,
            cursor=0,
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

    def test_hash_tamper_detected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        density_sweep(1, (1, 2), checkpoint_path=path)
        payload = json.loads(open(path).read())
        payload["tested"] = 999
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_crash_mid_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(2, (1, 4))
        real_dump = json.dump
        saves = []

        class Crash(RuntimeError):
            pass

        def dump_then_crash(obj, fh, *args, **kwargs):
            saves.append(obj["cursor"])
            if len(saves) == 30:  # inside the M=4 census
                fh.write(json.dumps(obj)[:100])  # a torn, partial file
                raise Crash
            real_dump(obj, fh, *args, **kwargs)

        monkeypatch.setattr(json, "dump", dump_then_crash)
        with pytest.raises(Crash):
            density_sweep(2, (1, 4), checkpoint_path=path)
        monkeypatch.setattr(json, "dump", real_dump)

        state = load_checkpoint(path)  # the last complete save, intact
        assert state["active_m"] == 4 and state["cursor"] == saves[-2]
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]  # no temp file left
        resumed = density_sweep(2, (1, 4), checkpoint_path=path, resume=True)
        assert resumed == fresh

    def test_resume_with_members_and_bounded_rows(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.json")
        fresh = density_sweep(1, (1, 6))
        real_dump = json.dump

        class Crash(RuntimeError):
            pass

        def dump_or_crash(obj, fh, *args, **kwargs):
            if obj["active_m"] == 5 and obj["cursor"] == 20:
                raise Crash
            real_dump(obj, fh, *args, **kwargs)

        monkeypatch.setattr(json, "dump", dump_or_crash)
        with pytest.raises(Crash):
            density_sweep(1, (1, 6), checkpoint_path=path)
        monkeypatch.setattr(json, "dump", real_dump)

        state = load_checkpoint(path)
        assert state["active_m"] == 5 and state["cursor"] == 19
        assert state["members"]  # k = 1 has hits in every box
        assert state["rows"][-1]["bound_num"] is not None  # M = 4 > n(1) = 2
        seen = []
        resumed = density_sweep(1, (1, 6), checkpoint_path=path, resume=True, on_row=seen.append)
        assert resumed == fresh
        assert seen == fresh

    def test_active_census_must_follow_rows(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            params={"k": 1, "m_lo": 1, "m_hi": 3, "prefilter": True},
            rows=[],
            active_m=2,  # the census after no rows is M = 1
            cursor=0,
            tested=0,
            members=[],
        )
        with pytest.raises(CorruptCheckpointError):
            density_sweep(1, (1, 3), checkpoint_path=path, resume=True)

    def test_pool_checkpoints_every_block_in_order(self, tmp_path):
        serial_path, pooled_path = tmp_path / "serial.json", tmp_path / "pooled.json"
        serial = density_sweep(2, (1, 5), checkpoint_path=str(serial_path))
        pooled = density_sweep(2, (1, 5), workers=2, checkpoint_path=str(pooled_path))
        assert pooled == serial
        assert pooled_path.read_bytes() == serial_path.read_bytes()

        calls = {1: [], 2: []}
        for workers, seen in calls.items():
            census(2, 5, workers=workers, progress=lambda d, t, m, seen=seen: seen.append((d, t)))
        assert calls[2] == calls[1]
        assert [d for d, _ in calls[2]] == list(range(1, 31))


class TestSearch:
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
        result = search_counterexamples(1, 4, GeneratorPair(2, 1, 1, 2))
        for m in result.members:
            assert m.matrix == word_eval_general(m.word, result.generators)
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
        assert parsed == [_member_to_json(m) for m in members]
        keys = {"k", "betas", "alphas", "matrix", "lambda", "mu"}
        assert all(set(p) == keys for p in parsed)

    def test_member_json_shape(self):
        member = census(1, 2).omega_members[-1]
        d = _member_to_json(member)
        assert d["matrix"] == list(member.matrix.entries())
        assert isinstance(d["betas"], list) and isinstance(d["alphas"], list)


def test_census_membership_matches_direct_scan():
    row = census(2, 4)
    omega = {m.word for m in row.omega_members}
    from collatzq.words import enumerate_lambda, word_eval

    for w in enumerate_lambda(2, 4):
        has = integer_eigenvalues(word_eval(w)) is not None
        assert (w in omega) == has

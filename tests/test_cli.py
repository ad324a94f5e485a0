"""CLI surface: flags, output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import collatzq.cli as cli_mod
from collatzq import kernels, reports, spectral
from collatzq._version import VERSION
from collatzq.census import DensityRow, SearchResult, search_counterexamples
from collatzq.core import EigenPair, Mat2, unlimited_int_digits
from collatzq.cli import MAX_FACTOR_LETTERS, main
from collatzq.dynamics import MAX_SWEEP_HEIGHT, PHI, THETA, orbit_pq, theta_sweep_full
from collatzq.reports import member_json
from collatzq.sieve import OmegaMember
from collatzq.spectral import compute_nk
from collatzq.words import GeneratorPair, Word
from test_dynamics import subtractive_factor, word_matrix
from test_theta_props import stepwise_sweep

PROPS = settings(max_examples=60, derandomize=True, deadline=None, database=None)

# decimal digit-count boundaries of the sweep CSV fields, up to int64's largest
# (the writer takes the digits in groups of 4, by divmod by 10**4)
DIGIT_EDGES = [0, 9, 10, 99, 100, 9999, 10**4, 10**8 - 1, 10**8, 10**9 - 1, 10**9,
               10**16 - 1, 10**16, 10**18 - 1, 10**18, 2**63 - 1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_main(*argv):
    """(exit code, stdout, stderr) of one in-process run, without fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def reduced_values(draw):
    """p/q text of a reduced rational 0 <= p/q, 0 included."""
    p, q = draw(st.integers(0, 300)), draw(st.integers(1, 300))
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


class TestOrbit:
    def test_points(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--value", "2", "--map", "theta")
        assert code == 0
        assert out.splitlines() == ["2", "1/3", "1", "0"]

    def test_word(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--value", "3/5", "--map", "phi",
                               "--emit", "word")
        assert code == 0
        assert out.strip() == "GFGF"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--value", "5", "--emit", "json")
        payload = json.loads(out)
        assert payload["stopping_time"] == 7
        assert payload["points"][0] == "5" and payload["points"][-1] == "0"
        assert payload["branches"] == ["R", "R", "S", "S", "S", "R", "R"]

    def test_cap_exhaustion_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "orbit", "--value", "5", "--max-steps", "2")
        assert code == 1
        assert "no termination" in err

    def test_phi_cap_below_stopping_time_exit_2(self, capsys):
        # phi provably terminates, so a short cap is a usage error, not a finding
        code, out, err = run_cli(capsys, "orbit", "--value", "20000", "--map", "phi")
        assert code == 2 and out == ""
        assert "exactly 20000 steps" in err and "--max-steps 10000" in err
        code, _, err = run_cli(capsys, "orbit", "--value", "3/5", "--map", "phi",
                               "--max-steps", "3")
        assert code == 2 and "exactly 4 steps" in err
        code, out, _ = run_cli(capsys, "orbit", "--value", "3/5", "--map", "phi",
                               "--max-steps", "4")
        assert code == 0 and out.splitlines() == ["3/5", "3/2", "1/2", "1", "0"]

    @pytest.mark.parametrize("map_name", [THETA, PHI])
    @pytest.mark.parametrize("emit", ["points", "word", "json"])
    @pytest.mark.parametrize("value", ["0", "5"])
    def test_negative_cap_is_a_usage_error(self, map_name, emit, value):
        code, out, err = run_main("orbit", "--value", value, "--map", map_name,
                                  "--max-steps", "-1", "--emit", emit)
        assert code == 2 and out == ""
        assert "--max-steps: must be >= 0, got -1" in err

    @PROPS
    @given(st.sampled_from([THETA, PHI]), reduced_values(),
           st.one_of(st.integers(0, 50), st.just(10_000)))
    @example(THETA, "5", 2)  # theta over its cap: a finding, and no word
    @example(PHI, "300", 50)  # phi over its cap: a usage error
    @example(THETA, "0", 0)
    def test_word_and_json_branches_match_stepwise_orbit(self, map_name, value, cap):
        p, q = map(int, value.split("/")) if "/" in value else (int(value), 1)
        steps, term, branches = orbit_pq(p, q, map_name, cap)
        word = run_main("orbit", "--value", value, "--map", map_name,
                        "--max-steps", str(cap), "--emit", "word")
        js = run_main("orbit", "--value", value, "--map", map_name,
                      "--max-steps", str(cap), "--emit", "json")
        if term:
            assert word == (0, branches + "\n", "")
            assert js[0] == 0 and js[2] == ""
            assert "".join(json.loads(js[1])["branches"]) == branches
        elif map_name == PHI:
            for code, out, err in (word, js):
                assert code == 2 and out == "" and "above --max-steps" in err
        else:
            assert word == (1, "", "orbit did not terminate; no word\n")
            assert js[0] == 1 and "no termination" in js[2]
            assert "".join(json.loads(js[1])["branches"]) == branches

    def test_reader_closing_early_exits_quietly(self):
        # the output is far larger than a pipe buffer, so the writer meets EPIPE
        proc = subprocess.Popen(
            [sys.executable, "-m", "collatzq", "orbit", "--map", "phi",
             "--value", "50000", "--max-steps", "50000", "--emit", "points"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline() == "50000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""


class TestSweep:
    def test_summary_json(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--height", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_terminated"] is True
        assert payload["total_tested"] == 278
        assert payload["invocation"].startswith("sweep --height 30")

    def test_csv_rows(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--height", "5", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[2] == "p,q,stopping_time,terminated"
        assert lines[3] == "0,1,0,true"
        assert lines[4] == "1,1,1,true"
        assert len(lines) == 3 + 10  # reduced fractions up to height 5

    @pytest.mark.parametrize("chunk", [1, 7, 1024])
    def test_csv_bytes_do_not_depend_on_chunk_size(self, monkeypatch, chunk):
        # capped rows (-1, false) and done rows, across several chunks; the
        # low guard 30 sends 205 rows through the big-int redo, 118 of them
        # done and 87 capped
        monkeypatch.setattr(reports, "SWEEP_CSV_CHUNK_ROWS", chunk)
        for guard, cap in ((kernels.INT64_GUARD, 3), (30, 20)):
            with mock.patch.object(kernels, "INT64_GUARD", guard):
                _, columns = theta_sweep_full(40, cap)
                flags = kernels.theta_sweep(columns[0], columns[1], cap)[1]
            redone = (columns[2][flags == kernels.FLAG_OVERFLOW] >= 0).tolist()
            assert set(redone) == ({False, True} if guard == 30 else set())
            fh = io.StringIO()
            reports.write_sweep_csv(columns, fh, f"sweep --height 40 --max-steps {cap}")
            body = fh.getvalue().splitlines()[3:]
            _, oracle_rows = stepwise_sweep(40, cap)
            assert body == [
                f"{p},{q},{st},{str(term).lower()}" for p, q, st, term in oracle_rows
            ]
            assert {line[-5:] for line in body} == {",true", "false"}

    @PROPS
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**63 - 1) | st.sampled_from(DIGIT_EDGES),
                st.integers(0, 2**63 - 1) | st.sampled_from(DIGIT_EDGES),
                st.just(-1) | st.integers(0, 2**63 - 1) | st.sampled_from(DIGIT_EDGES),
            ),
            max_size=40,
        ),
        st.sampled_from([1, 7, reports.SWEEP_CSV_CHUNK_ROWS]),
    )
    @example(rows=[], chunk=1)
    def test_csv_rows_match_fstrings_on_generated_columns(self, rows, chunk):
        columns = tuple(np.array([row[i] for row in rows], dtype=np.int64) for i in range(3))
        fh = io.StringIO()
        with mock.patch.object(reports, "SWEEP_CSV_CHUNK_ROWS", chunk):
            reports.write_sweep_csv(columns, fh, "sweep --height 2")
        header, body = fh.getvalue().split("p,q,stopping_time,terminated\n")
        assert header == "# collatzq {}\n# invocation: sweep --height 2\n".format(VERSION)
        assert body == "".join(f"{p},{q},{t},{str(t >= 0).lower()}\n" for p, q, t in rows)

    def test_csv_and_summary_bytes_at_height_2000(self, capsys, tmp_path):
        # 1,216,588 rows, every start terminated, the longest 130 steps at
        # 193/1598; both digests pin the bytes
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--height", "2000", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["total_tested"], payload["max_stopping_time"], payload["argmax"]) == (
            1_216_588, 130, "193/1598")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "fe8379f4eed10bb9890b3cb677e62cf0ff46690a8f7f5f0f66950a085beef5e9")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6ea21dc02063d3fcc31405fc144fb6b20b337bd5053fb3b2e65e22384dd17113")

    def test_a_height_over_the_limit_is_refused_at_once(self):
        # refused before the start sieve allocates its triangle (9.31 GiB)
        start = time.perf_counter()
        code, out, err = run_main("sweep", "--height", "100000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: height 100000 is over the sweep height limit {MAX_SWEEP_HEIGHT}\n"

    def test_candidate_counterexample_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--height", "40", "--max-steps", "3")
        assert code == 1
        assert "COUNTEREXAMPLE" in err
        assert json.loads(out)["all_terminated"] is False


class TestEnumerate:
    def test_tuples(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "1", "--m", "1")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body == ["0,0", "0,1", "1,0", "1,1"]

    def test_matrices(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "1", "--m", "1",
                               "--emit", "matrices")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "1,0,0,1"
        assert body[-1] == "4,2,1,2"


class TestDensity:
    def test_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--k", "2", "--m-range", "1..4",
                               "--threads", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "k,M,lambda_count,omega_count,density_num,density_den,mode"
        assert lines[3:] == [
            "2,1,4,0,0,1,exhaustive",
            "2,2,36,0,0,1,exhaustive",
            "2,3,144,0,0,1,exhaustive",
            "2,4,400,0,0,1,exhaustive",
        ]

    def test_prefilter_off_identical_content(self, capsys):
        _, on_out, _ = run_cli(capsys, "density", "--k", "2", "--m-range", "1..3",
                               "--threads", "1")
        _, off_out, _ = run_cli(capsys, "density", "--k", "2", "--m-range", "1..3",
                                "--threads", "1", "--prefilter", "off")
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
        assert strip(on_out) == strip(off_out)

    def test_sampled_mode(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--k", "2", "--m-range", "5..5",
                               "--sample", "50", "--seed", "3")
        assert code == 0
        assert out.splitlines()[-1].endswith("sampled(size=50;seed=3)")

    def test_sampled_rows_with_members_are_pinned(self, capsys):
        # each row draws in three batches, and M = 31 is a power-of-two edge
        code, out, _ = run_cli(capsys, "density", "--k", "1", "--m-range", "30..32",
                               "--sample", "20000", "--seed", "12345")
        assert code == 0
        assert out == (
            HEADER + "density --k 1 --m-range 30..32 --prefilter on --sample 20000 --seed 12345\n"
            + DENSITY_COLUMNS
            + "1,30,961,1290,129,2000,sampled(size=20000;seed=12345)\n"
            + "1,31,1024,1217,1217,20000,sampled(size=20000;seed=12345)\n"
            + "1,32,1089,1184,37,625,sampled(size=20000;seed=12345)\n"
        )

    @pytest.mark.parametrize("M,code", [(2**63 - 1, 2), (2**63 - 2, 0)])
    def test_sampled_m_past_int64_exponents_is_refused(self, M, code):
        # exponents are drawn as int64: the range 0..2^63 - 1 has no size
        got, out, err = run_main("density", "--k", "1", "--m-range", f"{M}..{M}",
                                 "--sample", "3", "--seed", "3")
        assert got == code
        assert "Traceback" not in err
        if code == 2:
            assert err == (
                f"error: sampled M={M} is over {2**63 - 2}: exponents are drawn as int64\n"
            )
            assert out == ""
        else:
            assert out.splitlines()[-1] == f"1,{M},{(M + 1) ** 2},0,0,1,sampled(size=3;seed=3)"

    def test_candidate_reported_once_across_nested_rows(self, monkeypatch, capsys, tmp_path):
        # a fake member of level 1 sits in each nested row M = 1..3
        member = OmegaMember(Word((1, 1), (1, 0)), Mat2(1, 0, 0, 1), EigenPair(1, 1))
        rows = [DensityRow(2, M, (member,)) for M in (1, 2, 3)]
        monkeypatch.setattr(cli_mod, "density_sweep", lambda *args, **kwargs: rows)
        out = tmp_path / "density.csv"
        code, _, err = run_cli(capsys, "density", "--k", "2", "--m-range", "1..3",
                               "--out", str(out))
        assert code == 1
        assert "COUNTEREXAMPLE CANDIDATES: 1 words at k=2" in err
        assert err.count('"betas"') == 1
        with open(f"{out}.members.jsonl", encoding="utf-8") as fh:
            assert reports.read_members_jsonl(fh) == [
                {"k": 2, "betas": [1, 1], "alphas": [1, 0], "matrix": [1, 0, 0, 1],
                 "lambda": 1, "mu": 1}
            ]

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--k", "2", "--m-range", "oops"])
        assert exc.value.code == 2


class TestSearch:
    def test_default_empty(self, capsys):
        code, out, err = run_cli(capsys, "search", "--k", "1", "--exp-max", "5")
        assert code == 0
        assert "found 0" in err
        assert [l for l in out.splitlines() if not l.startswith("#")] == []

    def test_general_pair_members(self, capsys):
        code, out, err = run_cli(capsys, "search", "--k", "1", "--exp-max", "4",
                                 "--generators", "2,1,1,2")
        assert code == 0  # informational for non-default generators
        members = [json.loads(l) for l in out.splitlines() if not l.startswith("#")]
        assert members
        assert {"k", "betas", "alphas", "matrix", "lambda", "mu"} == set(members[0])

    @pytest.mark.parametrize("extra,code", [((), 1), (("--generators", "5,1,1,3"), 0)])
    def test_a_member_is_a_finding_only_over_the_default_generators(
            self, monkeypatch, capsys, extra, code):
        # no small default-pair word has integer eigenvalues, so a fake
        # search returns a member of the pair (2,1,1,2)
        found = search_counterexamples(1, 4, GeneratorPair(2, 1, 1, 2)).members[:1]
        monkeypatch.setattr(cli_mod, "search_counterexamples",
                            lambda *args: SearchResult(found, 1, True))
        got, out, err = run_cli(capsys, "search", "--k", "1", "--exp-max", "1", *extra)
        assert got == code
        assert "found 1 with integer eigenvalues" in err
        assert ("COUNTEREXAMPLE" in err) == (code == 1)
        members = [json.loads(l) for l in out.splitlines() if not l.startswith("#")]
        assert members == [member_json(found[0])]


class TestVerify:
    @pytest.mark.parametrize("suite,extra", [
        ("trace", ["--k", "3", "--samples", "60"]),
        ("entries", ["--k", "2", "--samples", "60"]),
        ("bounds", ["--k", "3", "--samples", "60"]),
        ("freeness", ["--k", "2", "--m", "3"]),
        ("prefilter", ["--k", "2", "--samples", "100"]),
        ("fixedpoint", ["--samples", "100"]),
    ])
    def test_suites_pass(self, capsys, suite, extra):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", "7", *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert payload["property"] == suite
        assert payload["first_failure_witness"] is None
        assert payload["samples"] > 0


class TestSmallCommands:
    def test_nk(self, capsys):
        code, out, _ = run_cli(capsys, "nk", "--k", "2")
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["product_value"] == "1679616/485809"
        assert payload["margin_ok"] is True

    def test_nk_prints_certificates_past_the_digit_limit(self):
        # det_floor = 6^(100 * 107) has 8,327 digits, past Python's default
        # limit of 4,300 on int-to-str conversion; main lifts it while it
        # runs, and so must the reader
        code, out, err = run_main("nk", "--k", "100")
        with unlimited_int_digits():
            payload = json.loads(out)
        cert = compute_nk(100)
        assert (code, err) == (0, "")
        assert payload["n"] == cert.n == 106
        assert payload["det_floor"] == cert.det_floor == 6 ** (100 * 107)

    def test_integers_past_the_digit_limit_in_and_out(self, low_digit_limit, tmp_path):
        # with the limit at 640 digits: the members of B A^a over the pair
        # (2, 1, 1, 2) reach 3^2200, of 1,050 digits
        out = tmp_path / "hits.jsonl"
        code, _, err = run_main("search", "--k", "1", "--exp-max", "2200", "--budget", "2200",
                                "--generators", "2,1,1,2", "--out", str(out))
        assert (code, err.splitlines()[-1]) == (
            0, "tested 2200 words, found 2200 with integer eigenvalues")
        result = search_counterexamples(1, 2200, GeneratorPair(2, 1, 1, 2), 2200)
        assert max(result.members[-1].matrix.entries()) > 10**low_digit_limit
        with open(out, encoding="utf-8") as fh:
            assert reports.read_members_jsonl(fh) == list(map(member_json, result.members))
        # a start of 701 digits parses and prints
        start = "1/1" + "0" * 700
        code, out, _ = run_main("orbit", "--value", start, "--max-steps", "1")
        assert (code, out.splitlines()[0]) == (1, start)

    @pytest.mark.parametrize("k, digest", [
        (72, "ff07ec34734fc75b583fe33967d37a62e8f565865bf3fa050e40548da50273f0"),
        (400, "d3b2fa02a3ad58591c6f55648c09f3e6f120b09bc395d2a1774f03084dcd44f8"),
    ])
    def test_nk_output_bytes_are_pinned(self, k, digest):
        # sha256 of the stdout of `nk --k K` as printed through Fraction and
        # frac_str; the reduced pair must print the same bytes
        code, out, err = run_main("nk", "--k", str(k))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["nk"], ["density", "--m-range", "1..1"], ["verify", "--suite", "prefilter"],
        # a sampled census skips the draws n(k) excludes, whatever --prefilter says
        ["density", "--m-range", "2..2", "--sample", "5", "--prefilter", "off"]])
    def test_k_over_the_certificate_limit_exit_2(self, argv):
        # refused before the certificate's big-int tests, which grow steeply with k
        k = spectral.MAX_NK_K + 1
        assert run_main(*argv, "--k", str(k)) == (
            2, "", f"error: k={k} is over the limit {spectral.MAX_NK_K} for the n(k) certificate\n")

    def test_bounds_suite_over_the_fast_trace_limit_exit_2(self):
        # refused before the fast trace's tables of 2^k entries are built
        assert run_main("verify", "--suite", "bounds", "--k", "25", "--samples", "1") == (
            2, "", "error: k=25 exceeds fast-trace limit 20\n")

    def test_bounds_suite_just_over_the_fast_trace_limit_exit_2(self):
        # k = 21 would build two tables of 2^21 big ints per sample, twice
        # k = 20's; it is refused up front
        assert run_main("verify", "--suite", "bounds", "--k", "21", "--samples", "1") == (
            2, "", "error: k=21 exceeds fast-trace limit 20\n")

    def test_fixed_point(self, capsys):
        assert run_cli(capsys, "fixed-point", "--matrix", "3,1,0,1")[1].strip() == "-1/2"
        assert run_cli(capsys, "fixed-point", "--matrix", "1,1,0,1")[1].strip() == "no-fixed-point"
        assert run_cli(capsys, "fixed-point", "--matrix", "2,0,0,2")[1].strip() == "all-points-fixed"

    def test_fixed_point_degenerate_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "fixed-point", "--matrix", "1,2,0,0")
        assert code == 2 and "error" in err

    def test_factor(self, capsys):
        assert run_cli(capsys, "factor", "--matrix", "1,2,1,3")[1].strip() == "GFF"
        assert run_cli(capsys, "factor", "--matrix", "1,0,0,1")[1].strip() == ""

    def test_factor_not_factorable_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "--matrix", "2,1,1,2")
        assert code == 2

    def test_factor_word_over_limit_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "factor", "--matrix", "1,1000000000000,0,1")
        assert code == 2 and out == "" and "1000000000000 letters" in err

    def test_factor_limit_counts_the_g_tail(self):
        tail = run_main("factor", "--matrix", f"1,0,{MAX_FACTOR_LETTERS + 1},1")
        assert tail == (2, "", f"error: {Mat2(1, 0, MAX_FACTOR_LETTERS + 1, 1)} factors "
                        f"into {MAX_FACTOR_LETTERS + 1} letters, over the limit "
                        f"{MAX_FACTOR_LETTERS}\n")
        code, out, _ = run_main("factor", "--matrix", f"1,{MAX_FACTOR_LETTERS},0,1")
        assert code == 0 and out == "F" * MAX_FACTOR_LETTERS + "\n"

    def test_factor_matches_subtractive_oracle(self):
        rng = random.Random(47)
        for _ in range(150):
            word = "".join(rng.choice("FG") * rng.randint(1, 60)
                           for _ in range(rng.randint(0, 8)))
            m = word_matrix(word)
            code, out, err = run_main("factor", "--matrix", ",".join(map(str, m.entries())))
            assert (code, out, err) == (0, subtractive_factor(m) + "\n", "")
            assert out == word + "\n"


HEADER = "# collatzq 0.1.0\n# invocation: "
DENSITY_COLUMNS = "k,M,lambda_count,omega_count,density_num,density_den,mode\n"
class TestFaults:
    @pytest.mark.parametrize("argv", [
        "density --k 1 --m-range 1..2 --out {absent}/d.csv",
        "density --k 1 --m-range 1..2 --checkpoint {absent}/ck.json",
        "sweep --height 10 --out {absent}/s.csv",
        "search --k 1 --exp-max 3 --out {absent}/s.jsonl",
    ])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, argv):
        # exit 1 would claim a finding
        code, out, err = run_main(*argv.format(absent=tmp_path / "absent").split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_internal_fault_exits_3_with_its_traceback(self, monkeypatch):
        def broken(args):
            raise ValueError("a fault in the program")

        monkeypatch.setitem(cli_mod._HANDLERS, "nk", broken)
        code, out, err = run_main("nk", "--k", "1")
        assert (code, out) == (3, "")
        assert "Traceback" in err and "ValueError: a fault in the program" in err



# (argv, exit code, stdout): out-of-range numbers are refused by the parser
# (exit 2, nothing on stdout); the values at each bound still run
PARSER_CASES = [
    ("verify --suite trace --k 0", 2, ""),
    ("verify --suite trace --samples -1", 2, ""),
    ("verify --suite trace --samples 0", 2, ""),
    ("verify --suite freeness --m 0", 2, ""),
    ("search --k 1 --exp-max 3 --budget -1", 2, ""),
    ("search --k 0 --exp-max 3", 2, ""),
    ("search --k 1 --exp-max 0", 2, ""),
    ("enumerate --k 0 --m 2", 2, ""),
    ("enumerate --k 1 --m 0", 2, ""),
    ("density --k 2 --m-range 1..3 --threads -5", 2, ""),
    ("density --k 2 --m-range 1..3 --threads 0", 2, ""),
    ("density --k 0 --m-range 1..3", 2, ""),
    ("density --k 2 --m-range 0..3", 2, ""),
    ("density --k 2 --m-range 3..2", 2, ""),
    ("density --k 2 --m-range 1..2 --sample 0", 2, ""),
    ("sweep --height 1", 2, ""),
    ("sweep --height 5 --max-steps 0", 2, ""),
    ("orbit --value 5 --max-steps -1", 2, ""),
    ("nk --k 0", 2, ""),
    # a sampled census has no cursor: --checkpoint and --resume are refused
    ("density --k 2 --m-range 1..3 --sample 5 --checkpoint refused.json", 2, ""),
    ("density --k 2 --m-range 1..3 --sample 5 --resume", 2, ""),
    ("density --k 2 --m-range 1..3 --sample 5 --checkpoint refused.json --resume", 2, ""),
    ("verify --suite trace --k 1 --samples 1", 0,
     '{"exp_max": 5, "failures": 0, "first_failure_witness": null, "k": 1, '
     '"property": "trace", "samples": 1, "seed": 0, "version": "0.1.0"}\n'),
    ("verify --suite freeness --k 1 --m 1", 0,
     '{"M": 1, "failures": 0, "first_failure_witness": null, "k": 1, '
     '"property": "freeness", "samples": 4, "version": "0.1.0"}\n'),
    ("search --k 1 --exp-max 1 --budget 0", 0,
     HEADER + "search --k 1 --exp-max 1 --generators 3,1,1,2 --budget 0\n"),
    ("enumerate --k 1 --m 1", 0,
     HEADER + "enumerate --k 1 --m 1 --emit tuples\n0,0\n0,1\n1,0\n1,1\n"),
    ("density --k 1 --m-range 1..1 --threads 1", 0,
     HEADER + "density --k 1 --m-range 1..1 --prefilter on\n" + DENSITY_COLUMNS
     + "1,1,4,3,3,4,exhaustive\n"),
    ("density --k 2 --m-range 1..2 --sample 1", 0,
     HEADER + "density --k 2 --m-range 1..2 --prefilter on --sample 1 --seed 0\n"
     + DENSITY_COLUMNS + "2,1,4,0,0,1,sampled(size=1;seed=0)\n"
     + "2,2,36,0,0,1,sampled(size=1;seed=0)\n"),
    ("sweep --height 2 --max-steps 1", 0,
     '{"height_bound": 2, "step_cap": 1, "total_tested": 2, "all_terminated": true, '
     '"max_stopping_time": 1, "argmax": "1", "nonterminated": [], "version": "0.1.0", '
     '"invocation": "sweep --height 2 --max-steps 1"}\n'),
    ("orbit --value 5 --max-steps 0", 1, "5\n"),
    ("nk --k 1", 0,
     '{"k": 1, "n": 2, "product_value": "12/7", "product_threshold": 1, '
     '"det_floor": 216, "det_threshold": 36, "margin_ok": true}\n'),
]


@pytest.mark.parametrize("argv,code,out", PARSER_CASES)
def test_numeric_flags_checked_by_the_parser(argv, code, out):
    got_code, got_out, err = run_main(*argv.split())
    assert (got_code, got_out) == (code, out)
    if code == 2:
        assert "error: argument --" in err


@pytest.mark.parametrize("argv,message", [
    ("orbit --value abc", "argument --value: cannot parse rational 'abc'"),
    ("orbit --value 1/0", "argument --value: cannot parse rational '1/0'"),
    ("orbit --value -1", "argument --value: starting value must be >= 0"),
    ("sweep --height x", "argument --height: invalid int value: 'x'"),
    ("fixed-point --matrix 1,2,3", "argument --matrix: matrix must be a,b,c,d"),
    ("factor --matrix 1,2,3,x", "argument --matrix: bad matrix '1,2,3,x'"),
    ("density --k 2 --m-range 1..x", "argument --m-range: bad range '1..x'"),
    ("search --k 1 --exp-max 1 --generators 1,2,3",
     "argument --generators: generators must be a,u,v,b"),
    # a diagonal entry below 2 is refused by GeneratorPair itself
    ("search --k 1 --exp-max 1 --generators 1,1,1,2",
     "argument --generators: bad generators '1,1,1,2'"),
])
def test_unparsable_flag_values_are_refused_with_the_parsers_message(argv, message):
    code, out, err = run_main(*argv.split())
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"error: {message}")


class TestDeterminism:
    def test_density_bytes_across_threads(self, tmp_path):
        outs = []
        for threads in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "collatzq", "density", "--k", "2",
                 "--m-range", "1..4", "--threads", threads],
                capture_output=True, text=True, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_density_csv_and_checkpoint_bytes_threads_1_and_2(self, capsys, tmp_path):
        files = []
        for threads in ("1", "2"):
            csv, state = tmp_path / f"t{threads}.csv", tmp_path / f"t{threads}.json"
            code, _, _ = run_cli(capsys, "density", "--k", "2", "--m-range", "1..7",
                                 "--threads", threads, "--out", str(csv),
                                 "--checkpoint", str(state))
            assert code == 0
            files.append((csv.read_bytes(), state.read_bytes()))
        assert files[0] == files[1]

    def test_same_seed_same_bytes(self, capsys):
        a = run_cli(capsys, "verify", "--suite", "trace", "--k", "3",
                    "--samples", "40", "--seed", "11")
        b = run_cli(capsys, "verify", "--suite", "trace", "--k", "3",
                    "--samples", "40", "--seed", "11")
        assert a == b

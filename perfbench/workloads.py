"""The benchmark's workloads: timed operations and their exact output checks.

Each workload is a list of operations that one client issues one after
another (closed loop).  An operation's check compares its output with the
pinned reference in ``reference.json``; the timed region holds only the
call.  Library functions are looked up on their modules at call time, so
the tracer's wrappers see every call.

Why these workloads:

- census-deep: ``census(4, 4)`` has 8-exponent words and n(4) > M, so the
  prefilter skips nothing and leaf evaluation is nearly all of the time.
  One worker and no checkpoint: it shows changes to word evaluation, prefix
  sharing and residue filtering, and bypasses pool and checkpoint changes.
- density-cli: the ``density`` subcommand's ``main`` on a long census, k=2
  and M=1..14, plus a seeded sampled census.  Short words, so the prefilter
  skips about a quarter of them.  It shows census, prefilter, report and CLI
  changes.  The traced run adds a checkpoint rewritten after every block,
  and a second untraced run with two pool workers gives parallel efficiency.
  A fresh interpreter's start-up is setup_s.
- orbits: theta and phi sweeps, the sweep CSV, and word recovery.  It shows
  kernel and orbit changes and bypasses every census layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

@dataclass
class Context:
    work: Path  # scratch files of the run
    seed: int


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    work: int = 0  # units of work, for the throughput ``metric``
    metric: str | None = None
    prepare: Callable[[], None] = field(default=lambda: None)


def _lib(name: str):
    return importlib.import_module(f"collatzq.{name}")


def _data_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def census_deep(ref: dict, ctx: Context, **_) -> list[Op]:
    c = ref["census_deep"]

    def run():
        return _lib("census").census(c["k"], c["M"], use_prefilter=True, workers=1)

    def check(row) -> bool:
        return (
            row.lambda_count == c["lambda_count"]
            and row.omega_count == c["omega_count"]
            and row.mode == "exhaustive"
        )

    return [Op("census", run, check, c["lambda_count"], "census.words_per_s")]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of the CLI's ``main``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = _lib("cli").main(argv)
    return code, out.getvalue()


def lambda_count(k: int, M: int) -> int:
    """Closed form of the box size, kept here so the check is independent."""
    return (M + 1) ** 2 * M ** (2 * k - 2)


def density_cli(ref: dict, ctx: Context, *, threads: int, checkpoint: bool) -> list[Op]:
    d = ref["density"]
    k, m_lo, m_hi = d["k"], d["m_lo"], d["m_hi"]
    state_file = ctx.work / "density.checkpoint.json"
    out = ctx.work / "density.csv"
    argv = [
        "density", "--k", str(k), "--m-range", f"{m_lo}..{m_hi}",
        "--threads", str(threads), "--out", str(out),
    ]
    if checkpoint:
        argv += ["--checkpoint", str(state_file)]

    def prepare() -> None:
        state_file.unlink(missing_ok=True)
        out.unlink(missing_ok=True)

    def check(result) -> bool:
        code, _ = result
        if code != 0 or _data_rows(out.read_text(encoding="utf-8")) != d["rows"]:
            return False
        if not checkpoint:
            return True
        state = _lib("census").load_checkpoint(str(state_file))
        params = {"k": k, "m_lo": m_lo, "m_hi": m_hi, "prefilter": True}
        return (
            state["params"] == params
            and state["active_m"] is None
            and [row["M"] for row in state["rows"]] == list(range(m_lo, m_hi + 1))
        )

    s = d["sample"]
    sample_argv = [
        "density", "--k", str(s["k"]), "--m-range", f"{s['M']}..{s['M']}",
        "--sample", str(s["size"]), f"--seed={ctx.seed}",
    ]
    sample_rows = [
        d["rows"][0],
        f"{s['k']},{s['M']},{lambda_count(s['k'], s['M'])},0,0,1,"
        f"sampled(size={s['size']};seed={ctx.seed})",
    ]

    def check_sample(result) -> bool:
        code, stdout = result
        return code == 0 and _data_rows(stdout) == sample_rows

    words = sum(lambda_count(k, M) for M in range(m_lo, m_hi + 1))
    return [
        Op("density", lambda: _run_cli(argv), check,
           words, "census.words_per_s", prepare),
        Op("sampled", lambda: _run_cli(sample_argv), check_sample,
           s["size"], "sampled.draws_per_s"),
    ]


def orbits(ref: dict, ctx: Context, **_) -> list[Op]:
    t, p = ref["theta"], ref["phi"]
    csv_path = ctx.work / "sweep.csv"
    rows: list = []

    def theta():
        report, sweep_rows = _lib("dynamics").theta_sweep_full(t["height"])
        rows[:] = [sweep_rows]
        return report

    def check_theta(report) -> bool:
        return (
            report.total_tested == t["starts"]
            and report.max_stopping_time == t["max_stopping_time"]
            and str(report.argmax) == t["argmax"]
            and report.all_terminated
        )

    def write_csv():
        with open(csv_path, "w", encoding="utf-8") as fh:
            _lib("reports").write_sweep_csv(rows.pop(), fh, f"sweep --height {t['height']}")

    def check_csv(_) -> bool:
        body = "".join(line + "\n" for line in _data_rows(csv_path.read_text(encoding="utf-8")))
        return hashlib.sha256(body.encode()).hexdigest() == t["csv_sha256"]

    def phi():
        return _lib("dynamics").phi_monotonicity_sweep(p["height"])

    def check_phi(report) -> bool:
        return (
            report.total_tested == p["starts"]
            and report.max_stopping_time == p["max_stopping_time"]
            and str(report.argmax) == p["argmax"]
            and report.all_monotone
            and not report.violations
        )

    ops = [
        Op("theta_sweep", theta, check_theta, t["starts"], "theta_sweep.starts_per_s"),
        Op("sweep_csv", write_csv, check_csv),
        Op("phi_sweep", phi, check_phi, p["starts"], "phi_sweep.starts_per_s"),
    ]
    for r in ref["recovery"]:

        def recover(r=r):
            return _lib("dynamics").verify_word_recovery(r["height"], r["map"])

        def check_recovery(result, r=r) -> bool:
            checked, failures = result
            return checked == r["orbits"] and not failures

        ops.append(Op(f"recover_{r['map']}", recover, check_recovery,
                      r["orbits"], "recovery.orbits_per_s"))
    return ops


@dataclass(frozen=True)
class Workload:
    """Operations plus the variants each measurement uses.

    ``plain`` is the end-to-end run.  ``traced`` runs in this process so the
    tracer sees every layer; it is timed once untraced, which also gives the
    stage throughputs, and once traced.  ``parallel`` is ``traced`` with more
    workers: the time of ``parallel_op`` in the two gives parallel efficiency.
    """

    build: Callable[..., list[Op]]
    plain: dict = field(default_factory=dict)
    traced: dict = field(default_factory=dict)
    parallel: dict | None = None
    parallel_op: str | None = None


# density-cli's end-to-end run has one worker and no checkpoint.  Pool
# workers and checkpoint writes depend on this host's process and file-system
# speed, which the host-speed probe cannot follow: with them its wall time
# scattered by up to a third between runs.  The traced run measures both.
WORKLOADS = {
    "census-deep": Workload(census_deep),
    "density-cli": Workload(
        density_cli,
        plain={"threads": 1, "checkpoint": False},
        traced={"threads": 1, "checkpoint": True},
        parallel={"threads": 2, "checkpoint": True},
        parallel_op="density",
    ),
    "orbits": Workload(orbits),
}

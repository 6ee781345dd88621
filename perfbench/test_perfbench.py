"""Tests of the benchmark itself: smoke runs and checkers that catch bad output.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from cflab import mc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_reports_every_metric(name, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    argv = [sys.executable, "perfbench/run.py", "--workload", "events", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def first_output(name, tmp_path):
    """(step, output) of round 0 of the smoke-size workload."""
    step = workloads.build(name, 3, "smoke", tmp_path).round()
    outputs = [(s, s.run()) for s in step]
    for s, out in outputs:
        assert s.check(out) == [], s.name
    return outputs


def rewrite_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


def test_dichotomy_checker_catches_corruption(tmp_path):
    [(step, (code, stdout, out)), _] = first_output("mc", tmp_path)

    def f_above_e(rows):
        rows[1][1], rows[1][2] = "1", "0.5"

    rewrite_csv(out / "dichotomy.csv", f_above_e)
    assert step.check((code, stdout, out))
    assert step.check((1, stdout, out)) == ["exit code 1"]


def test_engine_scalar_checker_catches_mismatch(monkeypatch):
    cfg = mc.config_from_text(workloads.config_text("dichotomy", 3, 300, 3, 9))
    assert workloads.engine_matches_scalar(cfg) == []
    real = mc.hitting_times
    monkeypatch.setattr(mc, "hitting_times", lambda c: tuple(t + 1 for t in real(c)))
    assert workloads.engine_matches_scalar(cfg)


def test_trimmed_checkers_catch_corruption(tmp_path, monkeypatch):
    [_, (step, (code, stdout, out))] = first_output("mc", tmp_path)

    def swap_quantiles(rows):
        rows[1][3], rows[1][4] = rows[1][4], rows[1][3]

    rewrite_csv(out / "trimmed.csv", swap_quantiles)
    assert step.check((code, stdout, out))

    cfg = mc.config_from_text(workloads.config_text("trimmed", 2, 2_000, 3, 9))
    real = mc.run_trimmed
    monkeypatch.setattr(
        mc, "run_trimmed", lambda c: [dict(r, mean_norm=r["mean_norm"] * 1.001) for r in real(c)]
    )
    assert workloads.trimmed_matches_exact(cfg)


def test_events_checker_catches_corruption(tmp_path):
    [(step, (code, path)), _] = first_output("events", tmp_path)

    def shift_tau_e(rows):
        rows[1][2] = str(int(rows[1][2]) + 1) if rows[1][2] else "1"

    rewrite_csv(path, shift_tau_e)
    assert step.check((code, path))


def test_analytic_checkers_catch_corruption(tmp_path):
    outputs = dict((s.name, (s, out)) for s, out in first_output("analytic", tmp_path))
    step, (code, path) = outputs["series_S1"]

    def nudge_value(rows):
        rows[1][1] = repr(float(rows[1][1]) * (1 + 1e-6))

    rewrite_csv(path, nudge_value)
    assert step.check((code, path))

    step, (code, dim) = outputs["dim_F3"]
    assert step.check((code, dict(dim, lo=dim["s"] + 1e-3)))
    step, (code, stdout, s) = outputs["pressure_gap"]
    assert step.check((code, stdout, s + 0.01))
    head, row = stdout.splitlines()
    assert step.check((code, f"{head}\r\n{row.rsplit(',', 1)[0]},0.5\r\n", s))
    step, (s1, s2, s) = outputs["s_m"]
    assert step.check((s1, s2, s2 + 0.01))


def test_failed_checks_are_counted():
    ok = workloads.Step("ok", lambda: None, lambda out: [])
    bad = workloads.Step("bad", lambda: None, lambda out: ["wrong"])
    raises = workloads.Step("raises", lambda: None, lambda out: 1 / 0)
    records = [(ok, 0.1, None, None, 0.01), (bad, 0.1, None, None, 0.01),
               (raises, 0.1, None, None, 0.01), (ok, 0.1, None, "Traceback: boom", 0.01)]
    assert run.check_all(records) == (4, 3)


def test_inputs_depend_only_on_seed(tmp_path):
    def config(seed, sub):
        workloads.build("mc", seed, "smoke", tmp_path / sub).round()
        return (tmp_path / sub / "dichotomy.cfg").read_text()

    assert config(4, "a") == config(4, "b") != config(5, "c")

import io
import json
import os
import sys

import jsonschema
import pytest

from cflab import blocks, cf, cli, mc
from cflab.errors import DomainError
from cflab.growth import GrowthFunction
from test_pressure import _python


def run_cli(capsys, *argv):
    """cli.main in this process: exit code (--help and --version exit by SystemExit), stdout, stderr."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = os.path.join(os.path.dirname(cli.__file__), "schemas", f"{name}.schema.json")
    with open(path) as fh:
        return json.load(fh)


class TestExpand:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--num", "2", "--den", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload == [2, 2]
        jsonschema.validate(payload, load_schema("expand"))

    def test_convergent_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--num", "113", "--den", "355", "--convergents", "-"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0]) == [3, 7, 16]
        assert lines[1].strip() == "p,q"
        assert lines[-1].strip() == "113,355"

    def test_csv_file_mode_follows_umask(self, tmp_path, capsys):
        path = tmp_path / "conv.csv"
        code, _, _ = run_cli(capsys, "expand", "--num", "2", "--den", "5", "--convergents", str(path))
        umask = os.umask(0)
        os.umask(umask)
        assert code == 0 and path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["conv.csv"]

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--num", "5", "--den", "3")
        assert code == 1 and "domain" in err


class TestPhi:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--family", "powerlog", "--params", "1,2")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("phi"))
        assert payload["B"] == 1.0
        assert payload["classifications"]["MAIN3"] == "Divergent"

    def test_infinite_B_serialized(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--family", "doubleexp", "--params", "2,3")
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("phi"))
        assert payload["B"] == "inf" and payload["b"] == 3.0


# (set, B) -> s printed by `cflab dim --set <set> --phi-family exp --phi-params <B>`
ROOTS_NEAR_HALF = {
    ("E1", "1500"): 0.512002563477, ("E1", "2000"): 0.510458374023, ("E1", "1e4"): 0.504818725586,
    ("E3", "1e12"): 0.504415893555, ("E1", "1e8"): 0.500051879883,
}


class TestDim:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--set", "F3", "--phi-family", "doubleexp",
            "--phi-params", "2,3", "--tol", "1e-4",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("dim"))
        assert payload["s"] == 0.25 and payload["branch"] == "B=inf"

    def test_finite_B(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--set", "F3", "--phi-family", "exp",
            "--phi-params", "2", "--tol", "1e-4",
        )
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("dim"))
        assert 0.5 < payload["s"] < 1.0
        assert payload["branch"] == "B_finite" and payload["hi"] - payload["lo"] <= 2e-4

    @pytest.mark.parametrize("set_id, base", list(ROOTS_NEAR_HALF))
    def test_root_near_one_half_is_answered(self, capsys, set_id, base):
        # for finite B > 1 the root lies in (1/2, 1), here within 0.02 of 1/2
        code, out, err = run_cli(capsys, "dim", "--set", set_id, "--phi-family", "exp",
                                 "--phi-params", base)
        payload, s = json.loads(out), ROOTS_NEAR_HALF[set_id, base]
        assert code == 0 and err == "" and payload["s"] == s
        assert 0.5 < payload["lo"] <= s <= payload["hi"] < 0.52

    def test_root_above_the_refusal_keeps_its_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--set", "E1", "--phi-family", "exp",
                               "--phi-params", "1000")
        assert code == 0
        assert out == (
            '{\n  "set": "E1",\n  "s": 0.514553833008,\n  "lo": 0.514520263672,\n'
            '  "hi": 0.514587402344,\n  "branch": "B_finite"\n}\n'
        )


class TestSeries:
    def test_single_M(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--id", "S3", "--params", "ell=1", "--M", "10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "M,value,error_bound,predicted,ratio"
        cells = lines[1].split(",")
        assert float(cells[1]) == pytest.approx(7381 / 2520, rel=1e-12)

    def test_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--id", "S1", "--params", "ell=2",
            "--M-grid", "100:10000:3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_resource_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--id", "S1", "--params", "ell=4", "--M", "1e9"
        )
        assert code == 2 and "resource" in err

    @pytest.mark.parametrize("argv", [
        "--id S1 --params ell=2 --M 1",
        "--id S2 --params r=1,j=2 --M 1",
        "--id S3 --params ell=1 --M 1",
        "--id S5 --params ell=2,s=0.5 --M 1",
        "--id S6 --params t=1.5 --M 1",
        "--id S6 --params t=100 --M 1e6",  # M^(1-t) underflows
        "--id S6 --params t=1e300 --M 10",
        "--id S5 --params ell=200,s=0.5 --M 10",  # log(M)^199 / 199! overflows
        "--id S2 --params r=1,j=300 --M 100",  # log(M)^598 overflows
    ])
    def test_zero_predicted_shape_exits_domain(self, argv):
        # log M = 0 at M = 1, an underflow or an overflow leaves no ratio to report
        done = _python("-m", "cflab.cli", "series", *argv.split())
        assert done.returncode == 1 and done.stderr.startswith("error[domain]")
        assert "Traceback" not in done.stderr and done.stdout == ""


class TestEventsAndPressure:
    def test_events_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "events", "--ell", "1", "--phi-family", "powerlog",
            "--phi-params", "0,0", "--horizon", "50", "--seed", "1",
            "--samples", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "sample_id,tau_F,tau_E,j,k,overlap"
        assert len(lines) == 4

    def test_pressure_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "pressure", "--s", "0.8,1.0", "--alphabet", "100"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "s,N,pressure"
        p08 = float(lines[1].split(",")[2])
        p10 = float(lines[2].split(",")[2])
        assert p08 > p10

    def test_pressure_is_infinite_at_one_half_and_below(self, capsys):
        code, out, _ = run_cli(capsys, "pressure", "--s", "0.45,0.5")
        assert code == 0
        assert [line.strip() for line in out.splitlines()] == ["s,N,pressure", "0.45,1000,inf", "0.5,1000,inf"]
        code, out, _ = run_cli(capsys, "pressure", "--s", "0.45", "--no-tail")  # the 1000-branch operator
        assert code == 0 and out.splitlines()[1].strip() == "0.45,1000,2.33690468517"


EVENTS_HEADER = ["sample_id", "tau_F", "tau_E", "j", "k", "overlap"]


def scalar_events_csv(ell, family, params, horizon, seed, samples):
    """The events CSV from one scalar word per sample and the blocks detectors."""
    phi = GrowthFunction.from_spec(family, params)
    rows = []
    for sid in range(samples):
        word = cf.take(cf.lebesgue_quotients(mc.sample_rng(seed, sid)), horizon + ell - 1)
        hit_f = blocks.first_F_event(word, ell, phi, horizon)
        hit_e = blocks.first_E_event(word, ell, phi, horizon)
        tau_e = hit_e if hit_e is not None else ""
        if hit_f is not None:
            n, rec = hit_f
            rows.append([sid, n, tau_e, rec.j, rec.k, rec.overlap])
        else:
            rows.append([sid, "", tau_e, "", "", ""])
    buf = io.StringIO()
    mc.write_csv(buf, EVENTS_HEADER, rows)
    return buf.getvalue()


def events_argv(ell, family, params, horizon, seed, samples):
    return ["events", "--ell", str(ell), "--phi-family", family, "--phi-params", params,
            "--horizon", str(horizon), "--seed", str(seed), "--samples", str(samples)]


class TestEventsOnTheEngine:
    """`events` streams depth blocks; its CSV is the scalar path's, byte for byte."""

    @pytest.mark.parametrize("depth", [7, None])  # 7: records cross depth blocks
    @pytest.mark.parametrize("ell", [1, 2, 3, 40, 60])  # 40, 60: products pass 2^53
    def test_csv_matches_scalar_reference(self, capsys, monkeypatch, depth, ell):
        if depth:
            monkeypatch.setattr(mc, "_DEPTH_BLOCK", depth)
        for family, params in (("powerlog", "1,2"), ("exp", "2"), ("powerlog", "0,0")):
            for seed in (3, 17, 2024):
                args = (ell, family, params, 120, seed, 6)
                code, out, err = run_cli(capsys, *events_argv(*args))
                assert (code, err) == (0, ""), args
                assert out == scalar_events_csv(*args), args

    def test_clamped_powerlog_with_overflowing_power(self, capsys):
        # 2^1100 overflows where phi(2) = max(2^1100 log(2)^3000, 2) = 2: level 2 can be E
        args = (1, "powerlog", "1100,3000", 5, 1, 20)
        code, out, err = run_cli(capsys, *events_argv(*args))
        assert (code, err) == (0, "")
        assert out == scalar_events_csv(*args)
        assert ",,2," in out  # a sample with no F level whose E level is 2

    def test_table_shorter_than_horizon_as_scalar_path(self, capsys):
        # the scalar path compares phi past the table only when a product >= 2 meets it there
        outcomes = set()
        for params, horizon in (("2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2", 40), ("2,3,4", 10),
                                ("3,5,8,13,21,34", 12)):
            for seed in range(6):
                args = (1, "table", params, horizon, seed, 3)
                code, out, err = run_cli(capsys, *events_argv(*args))
                try:
                    want = (0, scalar_events_csv(*args), "")
                except DomainError as exc:
                    want = (1, "", f"error[domain]: {exc}\n")
                assert (code, out, err) == want, args
                outcomes.add(code)
        assert outcomes == {0, 1}

    @pytest.mark.parametrize("extra", [["--samples", "0"], ["--samples", "-2"],
                                       ["--samples", "0", "--horizon", "0", "--ell", "0"],
                                       ["--samples", "0", "--horizon", "1000000000"]])
    def test_no_samples_prints_the_header_only(self, capsys, extra):
        argv = events_argv(1, "powerlog", "1,2", 10, 0, 1) + extra
        assert run_cli(capsys, *argv) == (0, ",".join(EVENTS_HEADER) + "\r\n", "")

    @pytest.mark.parametrize("horizon, ell, message", [
        (0, 1, "horizon must be >= 1"), (-3, 2, "horizon must be >= 1"),
        (10, 0, "ell must be >= 1"), (0, 0, "horizon must be >= 1"),
    ])
    def test_bad_horizon_or_ell_exits_domain(self, capsys, horizon, ell, message):
        code, out, err = run_cli(capsys, *events_argv(ell, "powerlog", "1,2", horizon, 0, 2))
        assert (code, out, err) == (1, "", f"error[domain]: {message}\n")

    def test_word_budget_bound_is_kept(self, capsys, monkeypatch):
        monkeypatch.setattr(cf, "_TAKE_BUDGET", 36 * 50)  # 50 terms: horizon + ell - 1 <= 50
        for horizon, ell, code in ((50, 1, 0), (49, 2, 0), (51, 1, 2), (50, 2, 2), (0, 52, 2)):
            got, out, err = run_cli(capsys, *events_argv(ell, "powerlog", "1,2", horizon, 0, 2))
            assert got == code, (horizon, ell)
            assert (err == "") == (code == 0) and (out == "") == (code == 2)


class TestExperimentCli:
    def test_run_and_report(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "kind = khinchin\nell = 1\nhorizon = 1000\nsamples = 20\n"
            "seed = 11\ncheckpoints = 100,1000\n"
        )
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "experiment", "run", "--config", str(config), "--out", str(out_dir)
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("experiment"))
        assert (out_dir / "khinchin.csv").exists()
        code, out, _ = run_cli(capsys, "experiment", "report", "--dir", str(out_dir))
        assert code == 0
        assert "khinchin.csv" in out

    def test_env_threads_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CFLAB_THREADS", "2")
        config = tmp_path / "exp.cfg"
        config.write_text(
            "kind = trimmed\nell = 1\nhorizon = 500\nsamples = 8\nseed = 3\n"
            "checkpoints = 500\n"
        )
        code, out, _ = run_cli(
            capsys, "experiment", "run", "--config", str(config),
            "--out", str(tmp_path / "o2"),
        )
        assert code == 0

    def test_env_threads_not_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CFLAB_THREADS", "abc")
        code, _, _ = run_cli(capsys, "phi", "--family", "powerlog", "--params", "1,2")
        assert code == 0  # only experiment run reads the variable
        config = tmp_path / "exp.cfg"
        config.write_text("kind = khinchin\nhorizon = 100\nsamples = 2\n")
        code, _, err = run_cli(
            capsys, "experiment", "run", "--config", str(config), "--out", str(tmp_path / "o")
        )
        assert code == 1 and "CFLAB_THREADS" in err

    def test_coin_key_is_unknown(self, tmp_path):
        # iid coin events are a test oracle, not an experiment the config format can ask for
        config = tmp_path / "coins.cfg"
        config.write_text("kind = chung_erdos\nhorizon = 50\nsamples = 10\nsynthetic_p = 0.3\n")
        done = _python("-m", "cflab.cli", "experiment", "run", "--config", str(config),
                       "--out", str(tmp_path / "out"))
        assert done.returncode == 1 and "unknown config key 'synthetic_p'" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""
        assert not (tmp_path / "out").exists()


# a table phi needs a value: refused where the table is built, before the horizon is cut to it
EMPTY_TABLE = [
    ["events", "--ell", "1", "--phi-family", "table", "--phi-params", ",", "--horizon", "5",
     "--samples", "2"],
    ["phi", "--family", "table", "--params", ","],
]

BAD_INPUTS = [
    ["phi", "--family", "exp", "--params", "1,2"],
    ["phi", "--family", "powerlog", "--params", "x"],
    ["phi", "--family", "exp", "--params", "nan"],
    ["dim", "--set", "F3", "--phi-family", "exp", "--phi-params", "2,3"],
    ["series", "--id", "S1", "--M", "100"],
    ["series", "--id", "S2", "--M", "100"],
    ["series", "--id", "E0101", "--params", "j=1,r=2", "--M", "100"],
    ["series", "--id", "E0102", "--params", "j=3", "--M", "100"],
    ["series", "--id", "S1", "--params", "ell=2.5", "--M", "100"],
    ["series", "--id", "S1", "--params", "ell", "--M", "100"],
    ["series", "--id", "S1", "--params", "ell=2", "--M-grid", "100:x:3"],
    ["series", "--id", "S1", "--params", "ell=2", "--M", "nan"],
    ["series", "--id", "S1", "--params", "ell=2", "--M", "inf"],
    ["series", "--id", "S3", "--params", "ell=2", "--M", "inf"],
    ["series", "--id", "S1", "--params", "ell=2", "--M-grid", "100:inf:3"],
    ["series", "--id", "S1", "--params", "ell=2", "--M-grid", "nan:100:3"],
    ["series", "--id", "S1", "--params", "ell=2", "--M", "100", "--out", "no_such_dir/s.csv"],
    ["events", "--ell", "1", "--phi-family", "powerlog", "--phi-params", "1,2",
     "--horizon", "10", "--out", "no_such_dir/e.csv"],
    ["pressure", "--s", "0.7", "--alphabet", "10", "--out", "no_such_dir/p.csv"],
    ["pressure", "--s", "abc"],
    ["pressure", "--s", "0.7,nan", "--alphabet", "10"],
    ["pressure", "--s", "inf", "--alphabet", "10"],
    ["pressure", "--s", "0.7", "--grid-points", "1"],
    ["pressure", "--s", "0.7,0.8", "--alphabet", "0"],
    ["pressure", "--s", "0.7,0.8", "--alphabet", "-3"],
    ["experiment", "run", "--config", "missing.cfg", "--out", "missing_out"],
    ["experiment", "run", "--config", "dichotomy_d3.cfg", "--out", "out"],
    ["experiment", "run", "--config", "chung_erdos_d2.cfg", "--out", "out"],
    ["experiment", "report", "--dir", "missing"],
    ["series", "--id", "S1", "--params", "ell=2,ell=3", "--M", "100"],
    ["experiment", "report", "--dir", "manifest_cut"],
    ["experiment", "report", "--dir", "manifest_list"],
    ["experiment", "report", "--dir", "manifest_empty"],
    ["experiment", "run", "--config", "latin1.cfg", "--out", "out"],
    ["experiment", "report", "--dir", "latin1_csv"],
    ["experiment", "run", "--config", "dichotomy.cfg", "--out", "dichotomy.cfg/out"],
    ["experiment", "run", "--config", "dichotomy.cfg", "--out", "dichotomy.cfg"],
    *EMPTY_TABLE,
]

# files the cases above read; event kinds use consecutive blocks, so d != 1 is refused
BAD_CONFIGS = {
    "dichotomy_d3.cfg": "kind = dichotomy\nd = 3\nphi_family = powerlog\nphi_params = 1,2\n",
    "chung_erdos_d2.cfg": "kind = chung_erdos\nd = 2\nphi_family = powerlog\nphi_params = 1,0\n",
    "dichotomy.cfg": "kind = dichotomy\nphi_family = powerlog\nphi_params = 1,2\nhorizon = 20\nsamples = 2\n",
    "latin1.cfg": b"kind = dichotomy\n# caf\xe9\n",
    "manifest_cut/manifest.json": "{",
    "manifest_list/manifest.json": "[1]",
    "manifest_empty/manifest.json": "{}",
    "latin1_csv/manifest.json": json.dumps(
        {"config_hash": "0" * 64, "tool_version": "0", "seed": 0, "output_files": ["x.csv"]}),
    "latin1_csv/x.csv": b"a,b\n\xff,1\n",
}


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exits_domain(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, content in BAD_CONFIGS.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(content.encode() if isinstance(content, str) else content)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err.startswith("error[domain]") and out == ""


@pytest.mark.parametrize("line, key, value", [
    ("ell = abc", "ell", "abc"), ("ell = 2.5", "ell", "2.5"),
    ("checkpoints = 10,x", "checkpoints", "10,x"), ("seed =", "seed", ""),
])
def test_non_integer_config_value_names_the_key(capsys, tmp_path, line, key, value):
    config = tmp_path / "bad.cfg"
    config.write_text(f"kind = khinchin\nhorizon = 100\n{line}\n")
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(config),
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == f"error[domain]: config key {key!r} takes integers, got {value!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    # log(10)^1000 passes float range: run_trimmed's normaliser would raise OverflowError
    ("kind = trimmed\nell = 1000\nhorizon = 10\nsamples = 2\n",
     "normaliser n log^ell n is not a positive finite float at n = 10, ell = 1000"),
    # 2 log(2)^3000 underflows to 0: the ratio would divide by zero
    ("kind = khinchin\nell = 3000\nhorizon = 10\ncheckpoints = 2,10\n",
     "normaliser n log^ell n is not a positive finite float at n = 2, ell = 3000"),
    ("kind = khinchin\nsamples = 10\nsamples = 20\n", "repeated config key 'samples'"),
], ids=["overflow", "underflow", "repeated-key"])
def test_config_refused_before_output(capsys, tmp_path, text, message):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(config),
                             "--out", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", f"error[domain]: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_block_products_past_float64_exit_domain(capsys, tmp_path, monkeypatch, threads):
    """Products of 1000 quotients are inf: refused with exit 1, from a worker of a real pool too.

    600 samples make two chunks, so threads = 2 runs them in a pool of 2 processes.
    """
    pools = []
    pool = mc.ProcessPoolExecutor
    monkeypatch.setattr(mc, "ProcessPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or pool(max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = tmp_path / "big.cfg"
    config.write_text("kind = trimmed\nell = 1000\nhorizon = 5\nsamples = 600\nseed = 1\n")
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(config),
                             "--out", str(tmp_path / "out"), "--threads", str(threads))
    assert (code, out) == (1, "")
    assert err == "error[domain]: block products at ell = 1000 pass float64 by level 5\n"
    assert pools == ([2] if threads == 2 else [])
    assert not (tmp_path / "out").exists()


def test_experiment_row_past_chunk_budget_exits_resource(tmp_path):
    """One row's (ell - 1) column tail, 8e7 bytes at ell = 10^7, is past the chunk budget.

    It is refused before the --out directory is made, and before any block
    is drawn: the child may map only 1 GiB.
    """
    config = tmp_path / "huge.cfg"
    config.write_text("kind = dichotomy\nell = 10000000\nhorizon = 10\nsamples = 1\n"
                      "phi_family = powerlog\nphi_params = 1,2\n")
    done = _python("-m", "cflab.cli", "experiment", "run", "--config", str(config),
                   "--out", str(tmp_path / "out"), address_space=2**30)
    assert done.returncode == 2 and done.stderr.startswith("error[resource]"), done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["khinchin", "dichotomy", "events"])
def test_astronomical_samples_exit_resource(tmp_path, kind):
    """10^13 samples' results pass the budget: refused before the chunk list is built.

    The child may map only 1 GiB, so a refusal that came late ends in MemoryError.
    """
    config, out = tmp_path / "huge.cfg", tmp_path / "out"
    argv = ["experiment", "run", "--config", str(config), "--out", str(out)]
    if kind == "khinchin":
        config.write_text("kind = khinchin\nsamples = 10000000000000\n")
    elif kind == "dichotomy":
        config.write_text("kind = dichotomy\nsamples = 10000000000000\nphi_family = powerlog\nphi_params = 1,2\n")
    else:
        argv = ["events", "--ell", "1", "--phi-family", "powerlog", "--phi-params", "1,2", "--horizon", "10",
                "--samples", "10000000000000"]
    done = _python("-m", "cflab.cli", *argv, address_space=2**30)
    assert done.returncode == 2 and done.stderr.startswith("error[resource]: 10000000000000 samples need")
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", EMPTY_TABLE, ids=lambda argv: argv[0])
def test_empty_table_is_refused_where_built(capsys, argv):
    assert run_cli(capsys, *argv) == (1, "", "error[domain]: table needs at least one value\n")


HUGE_INPUTS = [
    ["series", "--id", "S1", "--params", "ell=2", "--M-grid", "100:1000:1000000000"],
    ["events", "--ell", "1", "--phi-family", "doubleexp", "--phi-params", "10,10",
     "--horizon", "1000000000"],
]


@pytest.mark.parametrize("argv", HUGE_INPUTS, ids=lambda argv: argv[0])
def test_huge_input_exits_resource_before_allocating(argv):
    # the child may map only 1 GiB, so an input refused late ends in MemoryError
    done = _python("-m", "cflab.cli", *argv, address_space=2**30)
    assert done.returncode == 2 and done.stderr.startswith("error[resource]"), done.stderr
    assert done.stdout == ""


class TestErrorsAndHelp:
    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--num", "1", "--den", "2", "--bogus")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dim", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--set", "--phi-family", "--phi-params", "--tol"):
            assert flag in out


HELP_ARGV = [[], ["expand"], ["phi"], ["events"], ["series"], ["pressure"], ["dim"],
             ["experiment"], ["experiment", "run"], ["experiment", "report"]]
# stdout of `cflab ... --help` at COLUMNS=80, from fresh interpreters before the parser was
# built once per process; argparse words its help differently on other Python versions
HELP_FILE = os.path.join(os.path.dirname(__file__), "help", "py3.11.txt")


class TestParserReuse:
    """main() parses every argv with one parser; nothing carries over from one call to the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_namespace_holds_only_its_own_command(self):
        parser = cli.build_parser()
        events = parser.parse_args(["events", "--ell", "1", "--phi-family", "exp",
                                    "--phi-params", "2", "--horizon", "9", "--seed", "3"])
        dim = parser.parse_args(["dim", "--set", "F3", "--phi-family", "exp", "--phi-params", "2"])
        assert (events.horizon, events.seed, events.fn) == (9, 3, cli.cmd_events)
        assert not hasattr(dim, "horizon") and not hasattr(dim, "seed")
        assert dim.fn is cli.cmd_dim and dim.tol == 1e-4

    def test_calls_in_one_process_match_fresh_interpreters(self, capsys):
        calls = [
            ["events", "--ell", "1", "--phi-family", "powerlog", "--phi-params", "1,2",
             "--horizon", "60", "--seed", "9", "--samples", "5", "--bogus"],
            ["--version"],
            ["events", "--ell", "1", "--phi-family", "powerlog", "--phi-params", "1,2",
             "--horizon", "60", "--seed", "4", "--samples", "3"],
        ]
        here = [(code, out.encode(), err.encode()) for code, out, err in
                (run_cli(capsys, *argv) for argv in calls)]
        fresh = [_python("-m", "cflab.cli", *argv, text=False) for argv in calls]
        assert here == [(d.returncode, d.stdout, d.stderr) for d in fresh]
        assert [code for code, _, _ in here] == [1, 0, 0]
        assert here[0][2].startswith(b"error[domain]: ")

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help text recorded on Python 3.11")
    def test_help_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        got = []
        for argv in HELP_ARGV:
            code, out, err = run_cli(capsys, *argv, "--help")
            assert code == 0 and err == ""
            got.append(f"=== cflab {' '.join([*argv, '--help'])}\n{out}")
        with open(HELP_FILE, encoding="utf-8", newline="") as fh:
            assert "".join(got) == fh.read()

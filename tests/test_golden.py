"""Golden CLI outputs: every case's bytes must match tests/golden/<case>.golden.

A case runs one or more `cflab` command lines in a fresh working directory
and records, in order, each command's exit code and stdout, then the bytes
of the files the commands wrote (experiment manifests carry timestamps and
are left out). No case runs an integer-base exponential phi through the
Monte Carlo engine, whose thresholds are exact powers for such bases.

Regenerate the files, only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from cflab import cli

GOLDEN_DIR = Path(__file__).with_name("golden")

TABLE = ",".join(f"{2.0 * 1.05 ** n:.6g}" for n in range(120))
GRID = "100:5000:4"


def _experiment(kind, lines):
    config = f"{kind}.cfg"
    text = f"kind = {kind}\n" + "".join(f"{line}\n" for line in lines)
    return {
        "config": (config, text),
        "runs": [
            ["experiment", "run", "--config", config, "--out", "out", "--threads", "1"],
            ["experiment", "report", "--dir", "out"],
        ],
        "files": [f"out/{kind}.csv", "out/config.txt"],
    }


def _series(series_id, params):
    extra = ["--params", params] if params else []
    return {"runs": [["series", "--id", series_id, *extra, "--M-grid", GRID]]}


CASES = {
    "expand_stdout": {"runs": [["expand", "--num", "113", "--den", "355", "--convergents", "-"]]},
    "expand_file": {
        "runs": [["expand", "--num", "972", "--den", "1393", "--convergents", "conv.csv"]],
        "files": ["conv.csv"],
    },
    "phi_powerlog": {"runs": [["phi", "--family", "powerlog", "--params", "1,2"]]},
    "phi_exp": {"runs": [["phi", "--family", "exp", "--params", "2"]]},
    "phi_exp_real": {"runs": [["phi", "--family", "exp", "--params", "1.5"]]},
    "phi_doubleexp": {"runs": [["phi", "--family", "doubleexp", "--params", "2,3"]]},
    "phi_table": {"runs": [["phi", "--family", "table", "--params", TABLE]]},
    **{
        f"events_ell{ell}": {
            "runs": [["events", "--ell", str(ell), "--phi-family", "powerlog",
                      "--phi-params", "1,2", "--horizon", "300", "--seed", "4",
                      "--samples", "12"]],
        }
        for ell in (1, 2, 3)
    },
    "events_file": {
        "runs": [["events", "--ell", "2", "--phi-family", "powerlog", "--phi-params", "1,1",
                  "--horizon", "200", "--seed", "9", "--samples", "8", "--out", "ev.csv"]],
        "files": ["ev.csv"],
    },
    "series_S1": _series("S1", "ell=2"),
    "series_S2": _series("S2", "r=2,j=1"),
    "series_S3": _series("S3", "ell=2"),
    "series_S4": _series("S4", "ell=2"),
    "series_S5": _series("S5", "ell=2,s=0.5"),
    "series_S6": _series("S6", "t=1.5"),
    "series_S7": _series("S7", "t=2"),
    "series_E0101": _series("E0101", "j=2"),
    "series_E0102": _series("E0102", ""),
    "series_single_M_file": {
        "runs": [["series", "--id", "S1", "--params", "ell=3", "--M", "777", "--out", "s.csv"]],
        "files": ["s.csv"],
    },
    "pressure": {"runs": [["pressure", "--s", "0.6,0.8,1.0", "--alphabet", "200"]]},
    "pressure_no_tail": {
        "runs": [["pressure", "--s", "0.7", "--alphabet", "100", "--grid-points", "32",
                  "--no-tail", "--out", "p.csv"]],
        "files": ["p.csv"],
    },
    "dim_F3_exp2": {
        "runs": [["dim", "--set", "F3", "--phi-family", "exp", "--phi-params", "2"]],
    },
    "dim_E2_doubleexp": {
        "runs": [["dim", "--set", "E2", "--phi-family", "doubleexp", "--phi-params", "2,3"]],
    },
    "experiment_dichotomy": _experiment("dichotomy", [
        "ell = 2", "phi_family = powerlog", "phi_params = 1,2", "horizon = 500",
        "samples = 30", "seed = 5", "checkpoints = 50,500",
    ]),
    "experiment_trimmed": _experiment("trimmed", [
        "ell = 2", "horizon = 2000", "samples = 8", "seed = 6", "checkpoints = 100,2000",
    ]),
    "experiment_khinchin": _experiment("khinchin", [
        "ell = 1", "horizon = 2000", "samples = 10", "seed = 7", "checkpoints = 100,2000",
    ]),
    "experiment_chung_erdos": _experiment("chung_erdos", [
        "ell = 1", "phi_family = powerlog", "phi_params = 1,0", "horizon = 30",
        "samples = 200", "seed = 8",
    ]),
}


def render(case: dict, workdir: Path) -> bytes:
    """The bytes a case produces when run with `workdir` as working directory."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        if "config" in case:
            name, text = case["config"]
            Path(name).write_text(text, encoding="utf-8")
        out = io.BytesIO()
        for argv in case["runs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            out.write(f"=== {argv[0]} exit {code}\n".encode())
            out.write(buf.getvalue().encode("utf-8"))
        for name in case.get("files", []):
            out.write(f"=== file {name}\n".encode())
            out.write(Path(name).read_bytes())
        return out.getvalue()
    finally:
        os.chdir(here)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    want = (GOLDEN_DIR / f"{name}.golden").read_bytes()
    assert render(CASES[name], tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN_DIR / f"{name}.golden").write_bytes(render(case, Path(tmp)))
        print(name, file=sys.stderr)

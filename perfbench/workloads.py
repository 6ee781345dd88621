"""The four cflab benchmark workloads: inputs from a seed, timed steps, checks.

A workload runs in rounds; a round is a list of steps, and each step is one
call into a public cflab entry point (mostly ``cflab.cli.main(argv)``). Every
round of a run repeats the same inputs, which depend only on the seed, so a
seed always gives the same inputs and the same amount of work. Each step
carries a check that runs after the timed phase and returns the problems it
found (an empty list means the output is right).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cflab import blocks, cf, cli, growth, mc, pressure, series

SIZES = {
    "full": {
        "mc": {
            "dichotomy": {"samples": 256, "horizon": 10_000},
            "trimmed": {"samples": 16, "horizon": 20_000},
        },
        "events": {"samples": 100, "horizon": 250, "calls": 16},
        "analytic": {"grid": (100, 50_000, 9), "alphabet": 10_000},
    },
    "smoke": {
        "mc": {
            "dichotomy": {"samples": 8, "horizon": 2_000},
            "trimmed": {"samples": 4, "horizon": 5_000},
        },
        "events": {"samples": 4, "horizon": 500, "calls": 2},
        "analytic": {"grid": (100, 3_000, 3), "alphabet": 2_000},
    },
}

CHECK_SAMPLES = 3  # samples re-derived on the scalar path, once per run
TRIM_CHECK_HORIZON = 50_000  # the exact ledger is quadratic, so check a prefix
SMALL_M = 1_000  # grid points at or below this are enumerated directly
PHI = growth.GrowthFunction.power_log(1, 2)
ZETA2 = math.pi**2 / 6.0


@dataclass
class Step:
    name: str
    run: Callable[[], Any]  # timed
    check: Callable[[Any], list]  # untimed; returns the problems found


@dataclass
class Workload:
    work_per_round: int  # quotients drawn, or analytic results produced
    work_unit: str
    round: Callable[[], list]  # fresh steps over the run's inputs


def run_cli(argv) -> tuple[int, str]:
    """cflab.cli.main in process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def checkpoints(horizon: int) -> tuple[int, ...]:
    return tuple(sorted({max(2, horizon // 100), max(2, horizon // 10), horizon}))


def config_text(kind, ell, horizon, samples, seed) -> str:
    lines = [
        f"kind = {kind}",
        f"ell = {ell}",
        f"horizon = {horizon}",
        f"samples = {samples}",
        f"seed = {seed}",
        "checkpoints = " + ",".join(str(c) for c in checkpoints(horizon)),
        "threads = 1",
    ]
    if kind == "dichotomy":
        lines += ["phi_family = powerlog", "phi_params = 1,2"]
    return "\n".join(lines) + "\n"


def build(name: str, seed: int, size: str, workdir) -> Workload:
    """The workload `name` at `size`, writing its inputs and outputs under workdir."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    make = {"mc": _mc, "events": _events, "analytic": _analytic}[name]
    return make(seed, workdir, **SIZES[size][name])


def _outputs(workdir: Path):
    """Fresh output paths, so a repeated round never overwrites one awaiting its check."""
    count = 0

    def fresh(stem: str) -> Path:
        nonlocal count
        count += 1
        return workdir / f"{stem}-{count}"

    return fresh


# ---------------------------------------------------------------------------
# mc: experiment run, dichotomy and trimmed


def _mc(seed, workdir, dichotomy, trimmed) -> Workload:
    """A round runs a wide shallow dichotomy batch, then a narrow deep trimmed one."""
    parts = [
        _experiment("dichotomy", 3, seed, workdir, check_deep=engine_matches_scalar, **dichotomy),
        _experiment("trimmed", 2, seed, workdir, check_deep=trimmed_matches_exact, **trimmed),
    ]
    return Workload(
        sum(p.work_per_round for p in parts), "quotients",
        lambda: [step for p in parts for step in p.round()],
    )


def _experiment(kind, ell, seed, workdir, samples, horizon, check_deep) -> Workload:
    fresh = _outputs(workdir)
    text = config_text(kind, ell, horizon, samples, seed)
    path = workdir / f"{kind}.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = mc.config_from_text(text)
    deep = []  # the slower cross-check runs once per run: every round has these inputs

    def round_() -> list:
        out = fresh(kind)
        argv = ["experiment", "run", "--config", path, "--out", out, "--threads", 1]

        def run():
            code, stdout = run_cli(argv)
            return code, stdout, out

        def check(result):
            if not deep:
                deep.append(check_deep(cfg))
            return check_experiment(cfg, *result) + deep[0]

        return [Step(kind, run, check)]

    return Workload(samples * (horizon + ell - 1), "quotients", round_)


EXPERIMENT_HEADERS = {
    "dichotomy": ["n", "fraction_hit_F", "fraction_hit_E"],
    "trimmed": ["n", "mean_norm", "median_norm", "q10", "q90"],
}


def check_experiment(cfg, code, stdout, out_dir) -> list:
    """Exit code, manifest hash and the shape and invariants of the result CSV."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    if json.loads(stdout).get("config_hash") != mc.config_hash(cfg):
        problems.append("config_hash differs from the config's hash")
    rows = read_csv(Path(out_dir) / f"{cfg.kind}.csv")
    if rows[0] != EXPERIMENT_HEADERS[cfg.kind]:
        return problems + [f"header {rows[0]}"]
    ns = [int(r[0]) for r in rows[1:]]
    if ns != list(cfg.checkpoints):
        problems.append(f"checkpoints {ns} != {list(cfg.checkpoints)}")
    vals = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    if not np.all(np.isfinite(vals)):
        return problems + ["non-finite value"]
    if cfg.kind == "dichotomy":
        f, e = vals[:, 0], vals[:, 1]
        if not (np.all(f >= 0) and np.all(f <= e) and np.all(e <= 1)):
            problems.append("fractions violate 0 <= F <= E <= 1")  # tau_E <= tau_F
        if np.any(np.diff(f) < 0) or np.any(np.diff(e) < 0):
            problems.append("fractions decrease with n")
    else:
        _, median, q10, q90 = vals.T
        if not (np.all(q10 >= 0) and np.all(q10 <= median) and np.all(median <= q90)):
            problems.append("quantiles violate 0 <= q10 <= median <= q90")
    return problems


def engine_matches_scalar(cfg, k: int = CHECK_SAMPLES) -> list:
    """Engine hitting times equal the blocks detectors on the scalar stream."""
    tf, te = mc.hitting_times(replace(cfg, samples=k))
    problems = []
    for sid in range(k):
        stream = cf.lebesgue_quotients(mc.sample_rng(cfg.seed, sid))
        word = cf.take(stream, cfg.horizon + cfg.ell - 1)
        f = blocks.first_F_event(word, cfg.ell, cfg.phi, cfg.horizon)
        e = blocks.first_E_event(word, cfg.ell, cfg.phi, cfg.horizon)
        want = (f[0] if f else cfg.horizon + 1, e if e is not None else cfg.horizon + 1)
        got = (int(tf[sid]), int(te[sid]))
        if got != want:
            problems.append(f"sample {sid}: engine (tau_F, tau_E) {got} != scalar {want}")
    return problems


def trimmed_matches_exact(cfg, k: int = CHECK_SAMPLES, horizon: int = TRIM_CHECK_HORIZON) -> list:
    """Engine S - M statistics agree with the exact integer trajectories.

    Checked on the first k samples over a prefix of the horizon; the
    tolerance is float rounding of the running sum S, not of S - M.
    """
    horizon = min(horizon, cfg.horizon)
    cps = tuple(c for c in cfg.checkpoints if c <= horizon) or (horizon,)
    rows = mc.run_trimmed(replace(cfg, samples=k, horizon=horizon, checkpoints=cps))
    trimmed = {n: [] for n in cps}
    top = {n: 0 for n in cps}
    for sid in range(k):
        stream = cf.lebesgue_quotients(mc.sample_rng(cfg.seed, sid))
        for row in blocks.trimmed_sum_trajectory(stream, cfg.ell, horizon):
            if row.n in trimmed:
                trimmed[row.n].append(row.total - row.max_block)
                top[row.n] = max(top[row.n], row.total)
    problems = []
    for row in rows:
        n = row["n"]
        norm = n * math.log(n) ** cfg.ell
        exact = np.array([float(v) for v in trimmed[n]]) / norm
        tol = 1e-9 * top[n] / norm + 1e-12
        want = {
            "mean_norm": np.mean(exact),
            "median_norm": np.median(exact),
            "q10": np.quantile(exact, 0.1),
            "q90": np.quantile(exact, 0.9),
        }
        for key, value in want.items():
            if abs(row[key] - value) > tol:
                problems.append(f"n={n} {key}: engine {row[key]!r} != exact {value!r}")
    return problems


# ---------------------------------------------------------------------------
# events: scalar stream plus blocks ledger detectors


def _events(seed, workdir, samples, horizon, calls) -> Workload:
    """`calls` CLI calls per round, each over its own `samples` streams.

    Splitting the round keeps each timed call short while the round as a
    whole averages over calls * samples streams.
    """
    ell = 1  # with ell >= 2 the clamp phi >= 2 puts most F events at n = 2
    fresh = _outputs(workdir)
    engine = {}  # call -> mc.hitting_times of its inputs, the same in every round

    def call(c: int) -> Step:
        s = seed * 1_000 + c
        out = fresh("events")
        argv = ["events", "--ell", ell, "--phi-family", "powerlog", "--phi-params", "1,2",
                "--horizon", horizon, "--seed", s, "--samples", samples, "--out", out]
        cfg = mc.ExperimentConfig(
            kind="dichotomy", ell=ell, phi=PHI, horizon=horizon, samples=samples, seed=s
        )

        def check(result):
            code, path = result
            if code != 0:
                return [f"exit code {code}"]
            if c not in engine:
                engine[c] = mc.hitting_times(cfg)
            return check_events(read_csv(path), cfg, *engine[c])

        return Step(f"events_{c}", lambda: (run_cli(argv)[0], out), check)

    return Workload(
        calls * samples * (horizon + ell - 1), "quotients", lambda: [call(c) for c in range(calls)]
    )


def check_events(rows, cfg, tf, te) -> list:
    """CSV hitting times equal the engine's (tf, te) = mc.hitting_times(cfg)."""
    if rows[0] != ["sample_id", "tau_F", "tau_E", "j", "k", "overlap"]:
        return [f"header {rows[0]}"]
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(cfg.samples)):
        return ["sample ids are not 0..samples-1"]
    none = cfg.horizon + 1
    problems = []
    for sid, tau_f, tau_e, j, k, overlap in body:
        got = (int(tau_f) if tau_f else none, int(tau_e) if tau_e else none)
        want = (int(tf[int(sid)]), int(te[int(sid)]))
        if got != want:
            problems.append(f"sample {sid}: CSV (tau_F, tau_E) {got} != engine {want}")
        if tau_f and not (
            int(k) == int(tau_f) and 1 <= int(j) < int(k)
            and int(overlap) == max(0, int(j) + cfg.ell - int(k))
        ):
            problems.append(f"sample {sid}: record (j, k, overlap) inconsistent with tau_F")
    return problems


# ---------------------------------------------------------------------------
# analytic: series scans, the F3 dimension and its cross-checks


def _analytic(seed, workdir, grid, alphabet) -> Workload:
    """Deterministic: `seed` is unused.

    A round scans S1 and E0102, solves dim F3 for phi = 2^n, evaluates the
    pressure on a larger alphabet just above that root (the c06 escalation
    gap), and runs the s_m upper oracles (the c06 bracket).
    """
    fresh = _outputs(workdir)
    grid_arg = ":".join(str(g) for g in grid)

    def scan(series_id, extra) -> Step:
        out = fresh(series_id)
        argv = ["series", "--id", series_id, *extra, "--M-grid", grid_arg, "--out", out]

        def check(result):
            code, path = result
            if code != 0:
                return [f"exit code {code}"]
            return check_scan(read_csv(path), series_id, grid)

        return Step(f"series_{series_id}", lambda: (run_cli(argv)[0], out), check)

    def round_() -> list:
        dim = {}  # the root, read by the steps after dim_F3

        def solve():
            code, stdout = run_cli(["dim", "--set", "F3", "--phi-family", "exp",
                                    "--phi-params", "2", "--tol", "1e-4"])
            dim.update(json.loads(stdout) if code == 0 else {})
            return code, dict(dim)

        def gap():
            s = dim["s"]
            argv = ["pressure", "--s", f"{s + GAP:.12g}", "--alphabet", alphabet]
            code, stdout = run_cli(argv)
            return code, stdout, s

        def oracles():
            return pressure.s_m_oracle(2.0, 1), pressure.s_m_oracle(2.0, 2), dim["s"]

        return [
            scan("S1", ["--params", "ell=2"]),
            scan("E0102", []),
            Step("dim_F3", solve, check_dim),
            Step("pressure_gap", gap, lambda r: check_gap(*r, alphabet=alphabet)),
            Step("s_m", oracles, lambda r: check_bracket(*r)),
        ]

    return Workload(2 * grid[2] + 4, "results", round_)


GAP = 2e-4  # c06: roots on successive alphabets agree within 2e-4


def box_head(cap: int) -> float:
    """sum over a1 * a2 <= cap of (a1 a2)^-2, by direct enumeration."""
    return sum(
        1.0 / (a1 * a2) ** 2 for a1 in range(1, cap + 1) for a2 in range(1, cap // a1 + 1)
    )


def direct_S1(M: float) -> float:
    """S1 at ell = 2: sum over a1 a2 >= M of (a1 a2)^-2."""
    return ZETA2**2 - box_head(math.ceil(M) - 1)


def direct_E0102(M: float) -> float:
    """Sum over (a1 a2) b >= M and b (c1 c2) >= M of (a1 a2 b c1 c2)^-2, grouped on b."""
    cut = math.ceil(M)
    total = ZETA2**4 * (ZETA2 - sum(1.0 / b**2 for b in range(1, cut)))
    for b in range(1, cut):
        need = -(-cut // b)  # a1 a2 >= ceil(cut / b)
        total += (ZETA2**2 - box_head(need - 1)) ** 2 / b**2
    return total


DIRECT = {"S1": direct_S1, "E0102": direct_E0102}


def check_scan(rows, series_id, grid) -> list:
    """Scan CSV on the requested grid; small-M values equal direct enumeration."""
    if rows[0] != ["M", "value", "error_bound", "predicted", "ratio"]:
        return [f"header {rows[0]}"]
    body = [[float(x) for x in r] for r in rows[1:]]
    want_m = series.geometric_grid(*grid)
    if len(body) != len(want_m):
        return [f"{len(body)} rows for {len(want_m)} grid points"]
    problems = []
    for (m, value, err, predicted, ratio), gm in zip(body, want_m):
        if not math.isclose(m, gm, rel_tol=1e-11):
            problems.append(f"M {m} != grid point {gm}")
        if not (value > 0 and err >= 0 and math.isclose(ratio, value / predicted, rel_tol=1e-9)):
            problems.append(f"M={m}: value/ratio inconsistent")
        if gm <= SMALL_M:
            direct = DIRECT[series_id](gm)
            if abs(value - direct) > err + 1e-9 * abs(direct):
                problems.append(f"{series_id} at M={gm}: {value!r} != direct {direct!r}")
    return problems


def check_dim(result) -> list:
    code, out = result
    if code != 0:
        return [f"exit code {code}"]
    if out.get("set") != "F3" or out.get("branch") != "B_finite":
        return [f"unexpected set/branch in {out}"]
    problems = []
    if not out["lo"] <= out["s"] <= out["hi"] or out["hi"] - out["lo"] > 1e-4:
        problems.append(f"bracket [{out['lo']}, {out['hi']}] does not pin s = {out['s']}")
    if not 0.5 <= out["s"] <= 1.0:
        problems.append(f"dimension {out['s']} outside [1/2, 1]")
    return problems


def g3(s: float) -> float:
    return (3 * s**3 - 5 * s**2 + 4 * s - 1) / (s**2 - s + 1)


def check_gap(code, stdout, s, alphabet) -> list:
    """The larger alphabet's root lies below s + GAP: P - g3 log 2 < 0 there.

    P(s) - g3(s) log B decreases in s, and P grows with the alphabet (the
    c05 monotonicity), so the root on the larger alphabet lies in
    [s - tol, s + GAP) exactly when the gap is negative at s + GAP: the c06
    condition |root(N) - root(N')| < GAP.
    """
    if code != 0:
        return [f"exit code {code}"]
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["s", "N", "pressure"] or len(rows) != 2 or int(rows[1][1]) != alphabet:
        return [f"unexpected pressure table {rows}"]
    at, _, p = (float(x) for x in rows[1])
    if not math.isclose(at, s + GAP, rel_tol=1e-11):
        return [f"pressure evaluated at {at}, not at {s} + {GAP}"]
    if not p - g3(at) * math.log(2.0) < 0.0:
        return [f"N={alphabet} root is not below {s} + {GAP}"]
    return []


def check_bracket(s1, s2, s) -> list:
    """The c06 bracket: s_1 >= s_2 >= dim - 1e-3."""
    return [] if s1 >= s2 >= s - 1e-3 else [f"s1={s1} >= s2={s2} >= {s} - 1e-3 fails"]

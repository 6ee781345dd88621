"""Single-binary CLI: expand, phi, events, series, pressure, dim, experiment.

All numeric output is printed at 12 significant digits. Exit codes: 0 on
success, 1 on domain errors (including bad flags), 2 on resource errors.

`events` streams depth blocks through the Monte Carlo engine
(mc.event_records), like `experiment`; it keeps the word budget of cf.take,
which it used to call, for compatibility, so the same inputs exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import __version__
from .errors import DomainError, ResourceLimitError
from . import cf, growth, mc, pressure, series


def _fmt(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    return x


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; bad usage is a domain error
        raise DomainError(message)


def _add_phi_flags(p):
    p.add_argument("--phi-family", required=True, choices=growth.FAMILIES)
    p.add_argument("--phi-params", required=True, help="comma-separated family parameters")


def _emit_csv(header, rows, out=None):
    if out:
        try:
            mc.write_atomic(out, lambda fh: mc.write_csv(fh, header, rows))
        except OSError as exc:
            raise DomainError(f"cannot write {out}: {exc.strerror}") from None
    else:
        mc.write_csv(sys.stdout, header, rows)


def cmd_expand(args) -> int:
    quotients = cf.expand_rational(args.num, args.den, args.max_terms)
    print(json.dumps(quotients))
    if args.convergents:
        rows = [(c.p, c.q) for c in cf.convergents(quotients, len(quotients))] if quotients else []
        _emit_csv(["p", "q"], rows, args.convergents if args.convergents != "-" else None)
    return 0


def cmd_phi(args) -> int:
    phi = growth.GrowthFunction.from_spec(args.family, args.params)
    gc = phi.growth_constants()
    out = {
        "family": phi.family,
        "params": list(phi.params) if phi.family != "table" else len(phi.values),
        "log_B": _fmt(gc.log_B),
        "log_b": _fmt(gc.log_b),
        "B": _fmt(gc.B),
        "b": _fmt(gc.b),
        "classifications": {
            "HWX1": growth.classify_series(phi, "HWX", 1),
            "HWX2": growth.classify_series(phi, "HWX", 2),
            "HWX3": growth.classify_series(phi, "HWX", 3),
            "TTW": growth.classify_series(phi, "TTW"),
            "TZ": growth.classify_series(phi, "TZ"),
            "MAIN3": growth.classify_series(phi, "MAIN3"),
        },
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_events(args) -> int:
    phi = growth.GrowthFunction.from_spec(args.phi_family, args.phi_params)
    rows = []
    if args.samples > 0:
        cf.check_word_budget(args.horizon + args.ell - 1)  # cf.take's bound, kept for compatibility
        cfg = mc.ExperimentConfig(kind="dichotomy", ell=args.ell, phi=phi, horizon=args.horizon,
                                  samples=args.samples, seed=args.seed)
        if phi.family == growth.TABLE and len(phi.values) < args.horizon:
            tau_f, tau_e, first_j = _events_within_table(cfg)
        else:
            tau_f, tau_e, first_j = mc.event_records(cfg)
        none = cfg.horizon + 1
        for sid, (n, e, j) in enumerate(zip(tau_f.tolist(), tau_e.tolist(), first_j.tolist())):
            e = e if e != none else ""
            if n != none:
                rows.append([sid, n, e, j, n, max(0, j + args.ell - n)])
            else:
                rows.append([sid, "", e, "", "", ""])
    _emit_csv(["sample_id", "tau_F", "tau_E", "j", "k", "overlap"], rows, args.out)
    return 0


def _events_within_table(cfg):
    """mc.event_records for a table phi shorter than the horizon.

    As on the scalar path, phi past the table is an error once a product >= 2
    must be compared with it: by a sample without an F level in the table that
    has two blocks >= 2 (F compares the second largest), or else by one without
    an E level in the table whose one block >= 2 lies past it. The phi = 2
    events over the whole horizon tell both; a sample that meets neither has
    no event past the table.
    """
    table = len(cfg.phi.values)
    tau_f, tau_e, first_j = mc.event_records(dataclasses.replace(cfg, horizon=table, checkpoints=()))
    open_f, open_e = tau_f > table, tau_e > table
    if open_f.any():
        two_f, two_e = mc.hitting_times(dataclasses.replace(cfg, phi=growth.GrowthFunction.power_log(0, 0)))
        late_e = open_e & (two_e > table) & (two_e <= cfg.horizon)
        if (open_f & ((two_f <= cfg.horizon) | late_e)).any():
            cfg.phi.phi_array(cfg.horizon)  # raises DomainError: the table ends before the horizon
    tau_f[open_f] = tau_e[open_e] = cfg.horizon + 1
    return tau_f, tau_e, first_j


def _parse_params(text: str) -> dict:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise DomainError(f"bad --params item {item!r}, expected key=number") from None
    return out


def cmd_series(args) -> int:
    params = _parse_params(args.params) if args.params else {}
    if args.M is not None:
        grid = [args.M]
    elif args.M_grid:
        try:
            lo, hi, pts = args.M_grid.split(":")
            lo, hi, pts = float(lo), float(hi), int(pts)
        except ValueError:
            raise DomainError(f"bad --M-grid {args.M_grid!r}, expected lo:hi:points") from None
        grid = series.geometric_grid(lo, hi, pts)
    else:
        raise DomainError("provide --M or --M-grid lo:hi:points")
    scan = series.asymptotic_ratio_scan(args.id, params, grid)
    rows = [[r.M, r.value, r.abs_error_bound, r.predicted, r.ratio] for r in scan.rows]
    _emit_csv(["M", "value", "error_bound", "predicted", "ratio"], rows, args.out)
    return 0


def cmd_pressure(args) -> int:
    params = pressure.PressureSolverParams(
        grid_points=args.grid_points, tail_correction=not args.no_tail
    )
    try:
        svals = [float(x) for x in args.s.split(",")]
    except ValueError:
        raise DomainError(f"bad --s {args.s!r}, expected comma-separated numbers") from None
    table = [[s, args.alphabet, pressure.transfer_pressure(s, args.alphabet, params)] for s in svals]
    _emit_csv(["s", "N", "pressure"], table, args.out)
    return 0


def cmd_dim(args) -> int:
    phi = growth.GrowthFunction.from_spec(args.phi_family, args.phi_params)
    params = pressure.PressureSolverParams(bisect_tol=args.tol)
    res = pressure.hausdorff_dim(args.set, phi, params)
    out = {
        "set": args.set,
        "s": _fmt(res.s),
        "lo": _fmt(res.bracket[0]),
        "hi": _fmt(res.bracket[1]),
        "branch": res.branch,
    }
    print(json.dumps(out, indent=2))
    return 0


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None


def cmd_experiment(args) -> int:
    if args.action == "run":
        config = mc.config_from_text(_read_text(args.config))
        threads = args.threads
        if threads is None:
            env = os.environ.get("CFLAB_THREADS", "0")
            try:
                threads = int(env) or None
            except ValueError:
                raise DomainError(f"CFLAB_THREADS must be an integer, got {env!r}") from None
        if threads is not None:
            config = dataclasses.replace(config, threads=threads)
        manifest = mc.run_experiment(config, args.out)
        print(json.dumps({"config_hash": manifest.config_hash, "out": args.out}, indent=2))
        return 0
    # report
    manifest = json.loads(_read_text(os.path.join(args.dir, "manifest.json")))
    print(f"run {manifest['config_hash'][:12]}  tool {manifest['tool_version']}  seed {manifest['seed']}")
    for name in manifest["output_files"]:
        content = _read_text(os.path.join(args.dir, name)).strip().splitlines()
        print(f"-- {name}")
        widths = None
        for line in content:
            cells = line.split(",")
            if widths is None:
                widths = [max(12, len(c) + 2) for c in cells]
            print("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process and shared by every main() call.

    Reuse carries nothing over between calls: parse_args returns a fresh Namespace
    each time, the subcommands' defaults never change, and help and errors are
    formatted when printed. Callers must not modify the parser.
    """
    parser = _Parser(prog="cflab", description=__doc__.split("\n\n`events`")[0])
    parser.add_argument("--version", action="version", version=f"cflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="continued fraction of a rational in [0,1)")
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--den", type=int, required=True)
    p.add_argument("--max-terms", type=int, default=64)
    p.add_argument("--convergents", help="write convergent table CSV to PATH ('-' for stdout)")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("phi", help="growth constants and series classification")
    p.add_argument("--family", required=True, choices=growth.FAMILIES)
    p.add_argument("--params", required=True, help="comma-separated family parameters")
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("events", help="hitting times of the two-block and one-block events")
    p.add_argument("--ell", type=int, required=True)
    _add_phi_flags(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_events)

    p = sub.add_parser("series", help="evaluate a registered series on M or an M grid")
    p.add_argument("--id", required=True, choices=series.SERIES_IDS)
    p.add_argument("--params", default="", help="e.g. ell=2 or r=2,j=1 or t=1.5")
    p.add_argument("--M", type=float)
    p.add_argument("--M-grid", dest="M_grid", help="lo:hi:points geometric grid")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("pressure", help="raw transfer-operator pressure values")
    p.add_argument("--s", required=True, help="comma-separated s values")
    p.add_argument("--alphabet", type=int, default=1000,
                   help="N, read with --no-tail or below s = 0.505; else every branch counts")
    p.add_argument("--grid-points", type=int, default=64)
    p.add_argument("--no-tail", action="store_true", help="literal truncated operator")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pressure)

    p = sub.add_parser("dim", help="Hausdorff dimension of E_l/F_l for a growth function")
    p.add_argument("--set", required=True, choices=sorted(pressure.SET_POTENTIALS))
    _add_phi_flags(p)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("experiment", help="run or report a Monte Carlo experiment")
    act = p.add_subparsers(dest="action", required=True)
    run = act.add_parser("run")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--threads", type=int, help="worker processes (default: CFLAB_THREADS)")
    rep = act.add_parser("report")
    rep.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error[resource]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

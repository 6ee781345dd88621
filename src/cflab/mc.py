"""Seeded, reproducible Monte Carlo experiments at desk scale.

Sampling is exact Lebesgue via the conditional quotient law; every sample
owns a Philox stream keyed by (seed, sample_id), so trajectories are
independent of chunking and thread scheduling and results are byte-identical
for identical (config, seed, version). Samples are reduced in sample order.

Comparisons "block product >= phi(n)" run in value space: block products are
exact in float64 below 2^53, thresholds are the float values of phi (correctly
rounded where phi is exact, so ties count), and the rare giant-product entries
are re-resolved exactly by GrowthFunction.meets_threshold.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .errors import DomainError
from .growth import GrowthFunction

PRNG_NAME = "philox4x64 keyed by (seed, sample_id)"
GIANT = 2.0**53  # float64 stops being exact on integers here
KHINCHIN_EPS = (0.1, 0.25)
_DEPTH_BLOCK = 16_384
_CHUNK_BUDGET = 80_000_000  # bytes of quotient matrix per worker chunk

KINDS = ("dichotomy", "trimmed", "khinchin", "chung_erdos")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    ell: int = 1
    d: int = 1
    phi: Optional[GrowthFunction] = None
    horizon: int = 1000
    samples: int = 100
    seed: int = 0
    checkpoints: tuple[int, ...] = ()
    threads: int = 1
    synthetic_p: Optional[float] = None  # chung_erdos test hook: iid coin events

    def validated(self) -> "ExperimentConfig":
        if self.kind not in KINDS:
            raise DomainError(f"unknown experiment kind {self.kind!r}")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.ell < 1 or self.d < 1 or self.horizon < 1 or self.threads < 1:
            raise DomainError("ell, d, horizon, threads must be >= 1")
        cps = self.checkpoints or (self.horizon,)
        cps = tuple(sorted(set(int(c) for c in cps)))
        if cps[0] < 1 or cps[-1] > self.horizon:
            raise DomainError("checkpoints must lie in [1, horizon]")
        if self.kind in ("trimmed", "khinchin") and cps[0] < 2:
            raise DomainError("trimmed/khinchin checkpoints must be >= 2")
        if self.kind in ("dichotomy",) and self.phi is None:
            raise DomainError("dichotomy experiments need a growth function")
        if self.kind == "chung_erdos" and self.phi is None and self.synthetic_p is None:
            raise DomainError("chung_erdos needs a growth function or synthetic_p")
        return replace(self, checkpoints=cps)


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    tool_version: str
    seed: int
    prng: str
    started_at: str
    finished_at: str
    output_files: tuple[str, ...]


# ---------------------------------------------------------------------------
# sampling engine


def sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(sample_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class QuotientSampler:
    """Streaming quotient matrix: one Philox stream per sample, drawn in blocks.

    Uniform draws are consumed contiguously per sample in fixed-size depth
    blocks, so a sample's row never depends on chunk boundaries or on how
    many columns a caller requests at a time.
    """

    def __init__(self, seed: int, sample_ids: Sequence[int]):
        self._rngs = [sample_rng(seed, sid) for sid in sample_ids]
        self.count = len(self._rngs)
        self._r = np.zeros(self.count)

    def next_block(self, depth: int) -> np.ndarray:
        """Next `depth` quotient columns, shape (samples, depth), float64."""
        out = np.empty((self.count, depth))
        block = np.empty((depth, self.count))
        for i, rng in enumerate(self._rngs):
            block[:, i] = rng.random(depth)
        r = self._r
        scratch = np.empty(self.count)
        for t in range(depth):
            u = block[t]
            np.multiply(1.0 + r, u, out=scratch)
            scratch /= 1.0 - u
            a = np.ceil(scratch)
            np.maximum(a, 1.0, out=a)  # u = 0 (prob 2^-53) lands on a = 1
            out[:, t] = a
            r = 1.0 / (a + r)
        self._r = r
        return out


def sample_quotient_block(
    seed: int, sample_ids: Sequence[int], length: int
) -> np.ndarray:
    """Quotient rows (float64 integers) for the given samples."""
    sampler = QuotientSampler(seed, sample_ids)
    parts = []
    pos = 0
    while pos < length:
        depth = min(_DEPTH_BLOCK, length - pos)
        parts.append(sampler.next_block(depth))
        pos += depth
    return np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]


def _block_prods(qa: np.ndarray, ell: int, d: int, n_starts: int) -> np.ndarray:
    """Products of progression blocks a_j a_{j+d} .. a_{j+(ell-1)d}, j <= n_starts."""
    prod = qa[:, :n_starts].copy()
    for t in range(1, ell):
        prod *= qa[:, t * d : t * d + n_starts]
    return prod


def _exact_row_products(row: np.ndarray, ell: int, i0: int) -> int:
    """Exact integer block product at 0-based start i0 of one quotient row."""
    out = 1
    for t in range(ell):
        out *= int(row[i0 + t])
    return out


def _qualify_counts(prod_row: np.ndarray, phi_arr: np.ndarray, qa_row, ell, phi) -> np.ndarray:
    """m[i] = number of levels n with phi(n) <= product at start i (prefix of n).

    phi_arr is non-decreasing so searchsorted gives the count; rows with
    products at or above 2^53 are re-resolved with exact integers.
    """
    m = np.searchsorted(phi_arr, prod_row, side="right")
    giants = np.nonzero(prod_row >= GIANT)[0]
    for i in giants:
        exact = _exact_row_products(qa_row, ell, int(i))
        lo, hi = 0, len(phi_arr)
        while lo < hi:  # largest prefix of levels with phi(level) <= exact
            mid = (lo + hi + 1) // 2
            if phi.meets_threshold(exact, mid):
                lo = mid
            else:
                hi = mid - 1
        m[i] = lo
    return m


def _event_masks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, F) masks over levels 1..N from qualification counts m.

    Block i qualifies at level n iff i <= n <= m[i]; E holds at level n when
    block n qualifies, and F when besides block n some earlier block still
    qualifies at level n (the prefix max of m reaches n).
    """
    idx = np.arange(1, len(m) + 1)
    e = m >= idx
    f = e.copy()
    f[0] = False
    f[1:] &= np.maximum.accumulate(m)[:-1] >= idx[1:]
    return e, f


def _first_hits(m: np.ndarray) -> tuple[int, int]:
    """(tau_F, tau_E) from qualification counts; N+1 encodes no event."""
    e, f = _event_masks(m)
    none = len(m) + 1
    tau_f = int(np.argmax(f)) + 1 if f.any() else none
    tau_e = int(np.argmax(e)) + 1 if e.any() else none
    return tau_f, tau_e


StreamFn = Callable[[int, int], np.ndarray]


def _qualification_counts(cfg, stream_fn: Optional[StreamFn], lo: int, hi: int):
    """Per sample of lo..hi-1, the counts m of its consecutive ell-blocks.

    Quotient rows come from the sampler, or from stream_fn when given.
    """
    N, ell = cfg.horizon, cfg.ell
    if stream_fn is None:
        qa = sample_quotient_block(cfg.seed, range(lo, hi), N + ell - 1)
    else:
        qa = np.vstack([stream_fn(sid, N + ell - 1) for sid in range(lo, hi)])
    phi_arr = cfg.phi.phi_array(N)
    prod = _block_prods(qa, ell, 1, N)
    for row in range(hi - lo):
        yield _qualify_counts(prod[row], phi_arr, qa[row], ell, cfg.phi)


def _chunk_ranges(samples: int, per_row_bytes: int) -> list[tuple[int, int]]:
    size = max(1, min(512, _CHUNK_BUDGET // max(per_row_bytes, 1)))
    return [(lo, min(lo + size, samples)) for lo in range(0, samples, size)]


def _run_chunks(config: ExperimentConfig, worker, ranges):
    """Map worker over sample ranges, inline or in a process pool, in order."""
    workers = min(config.threads, os.cpu_count() or 1, len(ranges))
    if workers <= 1:
        return [worker(r) for r in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, ranges))


# ---------------------------------------------------------------------------
# dichotomy


@dataclass(frozen=True)
class _DichotomyChunk:
    config: ExperimentConfig
    stream_fn: Optional[StreamFn] = None

    def __call__(self, rng_range: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = rng_range
        tf = np.empty(hi - lo, dtype=np.int64)
        te = np.empty(hi - lo, dtype=np.int64)
        for row, m in enumerate(_qualification_counts(self.config, self.stream_fn, lo, hi)):
            tf[row], te[row] = _first_hits(m)
        return tf, te


def _hitting_times(cfg: ExperimentConfig, stream_fn: Optional[StreamFn]):
    per_row = 8 * (cfg.horizon + cfg.ell)
    parts = _run_chunks(cfg, _DichotomyChunk(cfg, stream_fn), _chunk_ranges(cfg.samples, per_row))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def run_dichotomy(
    config: ExperimentConfig, stream_fn: Optional[StreamFn] = None
) -> list[dict]:
    """Per-checkpoint fractions of samples whose F/E hitting time is <= n."""
    cfg = config.validated()
    if cfg.kind != "dichotomy":
        raise DomainError("config.kind must be 'dichotomy'")
    tau_f, tau_e = _hitting_times(cfg, stream_fn)
    return [
        {
            "n": n,
            "fraction_hit_F": float(np.mean(tau_f <= n)),
            "fraction_hit_E": float(np.mean(tau_e <= n)),
        }
        for n in cfg.checkpoints
    ]


def hitting_times(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (tau_F, tau_E) arrays; horizon+1 encodes no event."""
    return _hitting_times(config.validated(), None)


# ---------------------------------------------------------------------------
# trimmed sums and the weak law


@dataclass(frozen=True)
class _TrajectoryChunk:
    """Streams depth blocks, keeping only running sums/maxima in memory.

    Only the (ell - 1) * d column tail of the previous block is retained so
    block products spanning a block boundary stay available.
    """

    config: ExperimentConfig
    stream_fn: Optional[StreamFn] = None

    def __call__(self, rng_range: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        lo, hi = rng_range
        N, ell, d = cfg.horizon, cfg.ell, cfg.d
        span = (ell - 1) * d
        length = N + span
        count = hi - lo
        sampler = None
        if self.stream_fn is None:
            sampler = QuotientSampler(cfg.seed, range(lo, hi))
        else:
            full = np.vstack([self.stream_fn(sid, length) for sid in range(lo, hi)])
        cps = list(cfg.checkpoints)
        sums_out = np.empty((len(cps), count))
        maxes_out = np.empty((len(cps), count))
        run_sum = np.zeros(count)
        run_max = np.zeros(count)
        tail = np.empty((count, 0))
        done = 0  # block starts committed so far
        next_cp = 0
        fed = 0
        while done < N:
            depth = min(_DEPTH_BLOCK, length - fed)
            if depth <= 0:
                raise DomainError("stream ended before the horizon")
            if sampler is not None:
                fresh = sampler.next_block(depth)
            else:
                fresh = full[:, fed : fed + depth]
            fed += depth
            qa = np.concatenate([tail, fresh], axis=1) if tail.shape[1] else fresh
            starts = min(qa.shape[1] - span, N - done)
            if starts > 0:
                prod = _block_prods(qa, ell, d, starts)
                cs = np.cumsum(prod, axis=1)
                cs += run_sum[:, None]
                mx = np.maximum.accumulate(prod, axis=1)
                np.maximum(mx, run_max[:, None], out=mx)
                while next_cp < len(cps) and cps[next_cp] <= done + starts:
                    col = cps[next_cp] - done - 1
                    sums_out[next_cp] = cs[:, col]
                    maxes_out[next_cp] = mx[:, col]
                    next_cp += 1
                run_sum = cs[:, starts - 1].copy()
                run_max = mx[:, starts - 1].copy()
                done += starts
            tail = qa[:, qa.shape[1] - span :] if span else np.empty((count, 0))
        return sums_out, maxes_out  # (checkpoints, chunk_samples)


def _gather_trajectories(cfg: ExperimentConfig, stream_fn) -> tuple[np.ndarray, np.ndarray]:
    per_row = 8 * _DEPTH_BLOCK * 6  # streaming: memory scales with the depth block
    parts = _run_chunks(cfg, _TrajectoryChunk(cfg, stream_fn), _chunk_ranges(cfg.samples, per_row))
    sums = np.concatenate([p[0] for p in parts], axis=1)
    maxes = np.concatenate([p[1] for p in parts], axis=1)
    return sums, maxes


def run_trimmed(
    config: ExperimentConfig, stream_fn: Optional[StreamFn] = None
) -> list[dict]:
    """Summary statistics of (S_{n,ell} - max block)/(n log^ell n) per checkpoint."""
    cfg = config.validated()
    if cfg.kind != "trimmed":
        raise DomainError("config.kind must be 'trimmed'")
    sums, maxes = _gather_trajectories(cfg, stream_fn)
    rows = []
    for i, n in enumerate(cfg.checkpoints):
        norm = (sums[i] - maxes[i]) / (n * math.log(n) ** cfg.ell)
        rows.append(
            {
                "n": n,
                "mean_norm": float(np.mean(norm)),
                "median_norm": float(np.median(norm)),
                "q10": float(np.quantile(norm, 0.1)),
                "q90": float(np.quantile(norm, 0.9)),
            }
        )
    return rows


def run_khinchin(
    config: ExperimentConfig, stream_fn: Optional[StreamFn] = None
) -> list[dict]:
    """Fractions of samples outside eps of the weak-law constant 1/(ell log 2)."""
    cfg = config.validated()
    if cfg.kind != "khinchin":
        raise DomainError("config.kind must be 'khinchin'")
    target = 1.0 / (cfg.ell * math.log(2.0))
    sums, _ = _gather_trajectories(cfg, stream_fn)
    rows = []
    for i, n in enumerate(cfg.checkpoints):
        ratio = sums[i] / (n * math.log(n) ** cfg.ell)
        row = {"n": n}
        for eps in KHINCHIN_EPS:
            row[f"outside_{eps}"] = float(np.mean(np.abs(ratio - target) >= eps))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Chung-Erdos


@dataclass(frozen=True)
class _ChungErdosChunk:
    config: ExperimentConfig
    stream_fn: Optional[StreamFn] = None

    def __call__(self, rng_range) -> tuple[int, np.ndarray, int]:
        cfg = self.config
        lo, hi = rng_range
        N = cfg.horizon
        if cfg.synthetic_p is not None:
            events = np.empty((hi - lo, N), dtype=bool)
            for i, sid in enumerate(range(lo, hi)):
                events[i] = sample_rng(cfg.seed, sid).random(N) < cfg.synthetic_p
        else:
            ms = _qualification_counts(cfg, self.stream_fn, lo, hi)
            events = np.array([_event_masks(m)[1] for m in ms])
        any_count = int(np.count_nonzero(events.any(axis=1)))
        per_sample = events.sum(axis=1)  # c_s; sum_{i,j} #(E_i and E_j) = sum_s c_s^2
        return any_count, events.sum(axis=0), int(per_sample @ per_sample)


@dataclass(frozen=True)
class ChungErdosResult:
    lhs: float
    rhs: float
    stderr: float
    holds: bool
    degenerate: bool


def chung_erdos_check(
    config: ExperimentConfig, stream_fn: Optional[StreamFn] = None
) -> ChungErdosResult:
    """Monte Carlo check of P(union E_n) >= (sum P(E_n))^2 / sum P(E_i and E_j).

    Events are E_n = A_n(phi): the block at n and some earlier block both
    beat phi(n). The denominator includes the i = j diagonal (finite form).
    With synthetic_p set, events are iid coins instead (closed-form oracle).
    """
    cfg = config.validated()
    if cfg.kind != "chung_erdos":
        raise DomainError("config.kind must be 'chung_erdos'")
    per_row = 8 * (cfg.horizon + cfg.ell) * 3
    parts = _run_chunks(cfg, _ChungErdosChunk(cfg, stream_fn), _chunk_ranges(cfg.samples, per_row))
    any_count = sum(p[0] for p in parts)
    counts = np.sum([p[1] for p in parts], axis=0)
    pair_total = sum(p[2] for p in parts)
    S = cfg.samples
    lhs = any_count / S
    sum_p = float(counts.sum()) / S
    sum_pairs = float(pair_total) / S
    degenerate = sum_pairs == 0.0
    rhs = 0.0 if degenerate else sum_p**2 / sum_pairs
    stderr = math.sqrt(max(lhs * (1.0 - lhs), 1e-300) / S)
    return ChungErdosResult(lhs, rhs, stderr, lhs >= rhs - 3.0 * stderr, degenerate)


# ---------------------------------------------------------------------------
# config files, hashing, persistence

_CONFIG_KEYS = (
    "kind",
    "ell",
    "d",
    "phi_family",
    "phi_params",
    "horizon",
    "samples",
    "seed",
    "checkpoints",
    "threads",
    "synthetic_p",
)


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical flat key = value form (sorted keys), the hashing input."""
    cfg = config.validated()
    fields: dict[str, str] = {
        "kind": cfg.kind,
        "ell": str(cfg.ell),
        "d": str(cfg.d),
        "horizon": str(cfg.horizon),
        "samples": str(cfg.samples),
        "seed": str(cfg.seed),
        "checkpoints": ",".join(str(c) for c in cfg.checkpoints),
        "threads": str(cfg.threads),
    }
    if cfg.phi is not None:
        fields["phi_family"] = cfg.phi.family
        params = cfg.phi.params if cfg.phi.family != "table" else cfg.phi.values
        fields["phi_params"] = ",".join(f"{p:.12g}" for p in params)
    if cfg.synthetic_p is not None:
        fields["synthetic_p"] = f"{cfg.synthetic_p:.12g}"
    return "".join(f"{k} = {fields[k]}\n" for k in sorted(fields))


def config_from_text(text: str) -> ExperimentConfig:
    pairs: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key {key!r}")
        pairs[key] = value.strip()
    if "kind" not in pairs:
        raise DomainError("config must set kind")
    phi = None
    if "phi_family" in pairs:
        phi = GrowthFunction.from_spec(pairs["phi_family"], pairs.get("phi_params", ""))
    checkpoints = tuple(
        int(x) for x in pairs.get("checkpoints", "").split(",") if x.strip()
    )
    return ExperimentConfig(
        kind=pairs["kind"],
        ell=int(pairs.get("ell", 1)),
        d=int(pairs.get("d", 1)),
        phi=phi,
        horizon=int(pairs.get("horizon", 1000)),
        samples=int(pairs.get("samples", 100)),
        seed=int(pairs.get("seed", 0)),
        checkpoints=checkpoints,
        threads=int(pairs.get("threads", 1)),
        synthetic_p=float(pairs["synthetic_p"]) if "synthetic_p" in pairs else None,
    ).validated()


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_text(config).encode("utf-8")).hexdigest()


def format_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(fh, header: Sequence[str], rows) -> None:
    """RFC-4180-style CSV with a fixed column order and CRLF line ends."""
    fh.write(",".join(header) + "\r\n")
    for row in rows:
        fh.write(",".join(format_cell(c) for c in row) + "\r\n")


def write_csv_atomic(path: str, header: Sequence[str], rows) -> None:
    """write_csv to a temp file beside path, then rename it over path.

    The temp file is opened like any new file, so it gets umask permissions.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(config: ExperimentConfig, out_dir: str) -> RunManifest:
    """Run the configured experiment and persist CSV results plus a manifest."""
    cfg = config.validated()
    os.makedirs(out_dir, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    run = {
        "dichotomy": run_dichotomy,
        "trimmed": run_trimmed,
        "khinchin": run_khinchin,
        "chung_erdos": lambda c: [asdict(chung_erdos_check(c))],
    }[cfg.kind]
    rows = run(cfg)  # dicts whose keys are the CSV columns in order
    header = list(rows[0])
    data = [list(r.values()) for r in rows]
    csv_name = f"{cfg.kind}.csv"
    write_csv_atomic(os.path.join(out_dir, csv_name), header, data)
    finished = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        tool_version=__version__,
        seed=cfg.seed,
        prng=PRNG_NAME,
        started_at=started,
        finished_at=finished,
        output_files=(csv_name,),
    )
    manifest_path = os.path.join(out_dir, "manifest.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(manifest.__dict__, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")
    os.replace(tmp, manifest_path)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))
    return manifest

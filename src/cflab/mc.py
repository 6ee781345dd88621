"""Seeded, reproducible Monte Carlo experiments at desk scale.

Sampling is exact Lebesgue via the conditional quotient law. Sample sid reads
the Philox stream keyed by (seed, sid), sample_rng(seed, sid); a sampler reads
all its samples' streams through one Philox whose state it resets per sample
(KeyedStreams). So trajectories are independent of chunking and thread
scheduling, and results are byte-identical for identical (config, seed,
version). Every kind is a reducer over one scan, _depth_blocks, which draws a
chunk of samples _DEPTH_BLOCK quotient columns at a time and carries only the
(ell - 1) * d column tail between blocks, so a chunk's memory does not grow
with the horizon, and only one depth block is alive at a time. Chunk results
are folded in sample order. The step d applies to trimmed/khinchin; event
kinds refuse d != 1. `cflab events` runs on the same scan (event_records):
the dichotomy reducer, which also records the two blocks j < k = tau_F of
each sample's first F level; j is the last E level before tau_F.

The sampler's recursion r <- 1/(a + r) is sequential in depth, but it
contracts at the Gauss map's Lyapunov rate pi^2/(6 log 2) per step. So each
depth block is cut into tiles of at most about _TILE columns, or into more,
down to _WARMUP columns, until samples x tiles reaches about _LANES. Every
tile but the first starts from r = 0 warmed up on the last _WARMUP uniforms
of the tile before, and all samples x tiles run as one wide recursion over
tile-major lanes, so each step reads one contiguous run. A tile is kept only
when its warmed-up start equals the true end of the tile before, and is
recomputed from that end otherwise: the rows are bitwise the column-at-a-time
ones.

Comparisons "block product >= phi(n)" run in value space, for a group of
about _MASK_CELLS rows x levels at once: thresholds are the float values of
phi on the depth block's levels (correctly rounded where phi is exact, so
ties count), and block products are exact in float64 below 2^53. Past it
float64 still decides, except within a band of phi (_doubtful) where
GrowthFunction.meets_threshold judges the exact integer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from functools import partial
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .errors import DomainError
from .growth import LOG_BAND, GrowthFunction

PRNG_NAME = "philox4x64 keyed by (seed, sample_id)"
GIANT = 2.0**53  # float64 stops being exact on integers here
KHINCHIN_EPS = (0.1, 0.25)
_DEPTH_BLOCK = 16_384  # quotient columns drawn per step of every experiment
_TILE = 256  # at most about this many columns per tile of the sampler's wide recursion
_LANES = 4096  # samples x tiles the recursion aims to run at once, where tiles of _WARMUP columns allow
_WARMUP = 32  # uniforms a tile's start warms up on; 2 of 381,120 tiles in perfbench's inputs recomputed
_TINY = np.nextafter(0.0, 1.0)  # smallest positive uniform: a = 1, as the law puts at u = 0
_MASK_CELLS = 16 * _DEPTH_BLOCK  # rows x levels whose E/F masks are built at once
_CHUNK_BUDGET = 128_000_000  # peak bytes of one worker chunk
_BYTES_PER_QUOTIENT = 25  # peak bytes per quotient of a depth block >= 256 columns, any kind: 24.5 measured

KINDS = ("dichotomy", "trimmed", "khinchin", "chung_erdos")


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's inputs, checked when built; checkpoints become sorted, unique, (horizon,) if none."""

    kind: str
    ell: int = 1
    d: int = 1
    phi: Optional[GrowthFunction] = None
    horizon: int = 1000
    samples: int = 100
    seed: int = 0
    checkpoints: tuple[int, ...] = ()
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown experiment kind {self.kind!r}")
        for name in ("samples", "horizon", "ell", "d", "threads"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        cps = tuple(sorted(set(int(c) for c in self.checkpoints or (self.horizon,))))
        if cps[0] < 1 or cps[-1] > self.horizon:
            raise DomainError("checkpoints must lie in [1, horizon]")
        if self.kind in ("trimmed", "khinchin") and cps[0] < 2:
            raise DomainError("trimmed/khinchin checkpoints must be >= 2")
        if self.kind in ("dichotomy", "chung_erdos") and self.d != 1:
            raise DomainError("d applies only to trimmed/khinchin; events use consecutive blocks")
        if self.kind in ("dichotomy", "chung_erdos") and self.phi is None:
            raise DomainError(f"{self.kind} experiments need a growth function")
        object.__setattr__(self, "checkpoints", cps)


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


class KeyedStreams:
    """The uniforms of sample_rng(seed, sid), for any sid, from one Philox.

    Building a keyed Philox costs about 20 us (numpy first gathers OS entropy
    the key then overrides); resetting the state of one costs a few. Philox
    bumps its counter before each block of 4 raws, so key (seed, sid), counter
    drawn // 4 and an empty buffer, then drawn % 4 raws skipped, stand where
    sample_rng(seed, sid) stands after `drawn` uniforms: Generator.random is
    (raw >> 11) 2^-53, one raw per uniform.
    """

    def __init__(self, seed: int):
        self._key = seed & (2**64 - 1)
        self._bitgen = np.random.Philox()
        self._gen = np.random.Generator(self._bitgen)

    def fill(self, sample_id: int, drawn: int, out: np.ndarray) -> None:
        """out <- the uniforms drawn, drawn + 1, .. of sample_id's stream."""
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": [drawn // 4, 0, 0, 0], "key": [self._key, sample_id]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        if drawn % 4:
            self._bitgen.random_raw(drawn % 4)
        self._gen.random(out=out)


def _advance(u, r, a, tmp, tmp2) -> None:
    """a = ceil((1 + r) u / (1 - u)) and r = 1 / (a + r), elementwise; a may alias u or tmp2.

    Needs u > 0: the law puts a = 1 at u = 0, which the smallest positive u
    also gives, so callers clamp u to _TINY.
    """
    np.subtract(1.0, u, out=tmp)
    np.add(r, 1.0, out=tmp2)
    np.multiply(tmp2, u, out=a)
    a /= tmp
    np.ceil(a, out=a)
    np.add(a, r, out=tmp)
    np.divide(1.0, tmp, out=r)


class QuotientSampler:
    """Streaming quotient matrix over the streams sample_rng(seed, sid), drawn in blocks.

    Uniform draws are consumed contiguously per sample in depth blocks, so a
    sample's row never depends on chunk boundaries or on how many columns a
    caller requests at a time. Every row has drawn the same number of
    uniforms, so one count resumes all of them through one KeyedStreams.
    """

    def __init__(self, seed: int, sample_ids: Sequence[int]):
        self._streams = KeyedStreams(seed)
        self._ids = list(sample_ids)
        self._drawn = 0  # uniforms each row has drawn
        self.count = len(self._ids)
        self._r = np.zeros(self.count)

    def next_block(self, depth: int) -> np.ndarray:
        """Next `depth` quotient columns, shape (samples, depth), float64.

        The rows are filled whole and clamped into the lanes in one pass; the
        shape sets the tiles (see the module docstring). Tile 0 starts from
        the carried r, tile k >= 1 from r = 0 warmed up on the last _WARMUP
        uniforms of tile k - 1.
        """
        count = self.count
        tiles = max(-(-depth // _TILE), min(-(-_LANES // count), depth // max(_WARMUP, 1)))
        width = -(-depth // tiles)  # columns of every tile; the last one may hold fewer
        tiles = -(-depth // width)  # so that the last tile is not empty
        last = depth - (tiles - 1) * width
        full = depth - last
        out = np.empty((count, depth))
        for row, sid in zip(out, self._ids):
            self._streams.fill(sid, self._drawn, row)
        # lanes[t, k, i] is column k * width + t of sample i: its uniform, then its quotient
        lanes = np.empty((width, tiles, count))
        np.maximum(out[:, :full].reshape(count, tiles - 1, width).T, _TINY, out=lanes[:, :-1])
        np.maximum(out[:, full:].T, _TINY, out=lanes[:last, -1])
        r = np.zeros((tiles, count))
        r[0] = self._r
        tmp, tmp2 = np.empty((2, tiles, count))
        for t in range(max(width - _WARMUP, 0), width if tiles > 1 else 0):
            _advance(lanes[t, :-1], r[1:], tmp2[:-1], tmp[:-1], tmp2[:-1])
        start = r[1:].copy()
        for t in range(width):
            k = tiles if t < last else tiles - 1  # the last tile has ended
            _advance(lanes[t, :k], r[:k], lanes[t, :k], tmp[:k], tmp2[:k])
        for k in range(1, tiles):  # r[k] is now tile k's end from its warmed-up start
            wrong = np.flatnonzero(start[k - 1] != r[k - 1])
            if wrong.size:
                rk = r[k - 1, wrong]
                for t, col in enumerate(range(k * width, min(k * width + width, depth))):
                    u = np.maximum(out[wrong, col], _TINY)
                    _advance(u, rk, u, np.empty_like(u), np.empty_like(u))
                    lanes[t, k, wrong] = u
                r[k, wrong] = rk
        out[:, :full].reshape(count, tiles - 1, width)[...] = lanes[:, :-1].T
        out[:, full:] = lanes[:last, -1].T
        self._r = r[-1].copy()
        self._drawn += depth
        return out


def sample_quotient_block(seed: int, sample_ids: Sequence[int], length: int) -> np.ndarray:
    """Quotient rows (float64 integers) for the given samples."""
    return QuotientSampler(seed, sample_ids).next_block(length)


StreamFn = Callable[[int, int], np.ndarray]


class _ForcedStream:
    """QuotientSampler's next_block over the rows stream_fn(sample_id, length), held whole."""

    def __init__(self, stream_fn: StreamFn, length: int, sample_ids: Sequence[int]):
        self._rows = np.vstack([stream_fn(sid, length) for sid in sample_ids])
        if self._rows.shape[1] < length:
            raise DomainError("stream ended before the horizon")
        self._fed = 0

    def next_block(self, depth: int) -> np.ndarray:
        self._fed += depth
        return self._rows[:, self._fed - depth : self._fed]


def _block_prods(qa: np.ndarray, ell: int, d: int, n_starts: int) -> np.ndarray:
    """Products of progression blocks a_j a_{j+d} .. a_{j+(ell-1)d}, j <= n_starts.

    A product past float64 is inf; the event path resolves it exactly, as any >= GIANT.
    """
    prod = qa[:, :n_starts].copy()
    with np.errstate(over="ignore"):
        for t in range(1, ell):
            prod *= qa[:, t * d : t * d + n_starts]
    return prod


def _depth_blocks(cfg: ExperimentConfig, source, count: int):
    """(start, prod, qa) per depth block of one chunk's rows, drawn from source.

    prod[:, j] is the product of the block at 0-based start start + j, over
    the columns j, j + d, .., j + (ell - 1) d of qa; the column tail carried
    into the next block keeps products spanning a boundary available. The
    tail is a copy, so once the caller drops prod and qa (and every view of
    them) before asking for the next block, only one depth block is alive.
    """
    N, ell, d = cfg.horizon, cfg.ell, cfg.d
    span = (ell - 1) * d
    tail = np.empty((count, 0))
    done = 0  # block starts yielded so far
    while done < N:
        qa = source.next_block(min(_DEPTH_BLOCK, N + span - done - tail.shape[1]))
        if tail.shape[1]:
            qa = np.concatenate([tail, qa], axis=1)
        tail = qa[:, max(qa.shape[1] - span, 0) :].copy()  # all of qa while it is shorter than span
        starts = min(qa.shape[1] - span, N - done)
        if starts > 0:
            yield done, _block_prods(qa, ell, d, starts), qa
            done += starts
        del qa


def _doubtful(x: np.ndarray, phi, band: float) -> np.ndarray:
    """Where x >= GIANT and x >= phi may not be meets_threshold's verdict on x's exact X.

    x rounds X, or is the largest of such floats: |x / X - 1| <= ell u, u = 2^-53,
    one rounding per multiplication; an inf x counts as DBL_MAX <= X (1 + ell u).
    Outside the band, |x - phi| > band (x + phi) puts x / phi above 1 + 2 band or
    below 1 - 2 band + 2 band^2. With band = LOG_BAND + (ell + 1) 2^-52, the
    (ell + 1) 2^-51 covers ell u and band^2, so X / phi lies beyond 1 +- 2 LOG_BAND
    and |log X - log phi| > 1.99 LOG_BAND. meets_threshold's gap log X - log_phi(n)
    is within 1e-12 of that for a finite phi (as meets_threshold itself assumes),
    so it decides by its log test, with the float's sign. An inf or NaN phi fails
    the ">" and is always doubtful.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        x = np.minimum(x, np.finfo(float).max)
        return (x >= GIANT) & ~(abs(x - phi) > band * (x + phi))


def _exact(qa: np.ndarray, row: int, j: int, ell: int) -> int:
    """The exact integer product of the block at column j of qa's row."""
    return math.prod(map(int, qa[row, j : j + ell].tolist()))


def _fold_events(out: np.ndarray, start: int, e: np.ndarray, f: np.ndarray) -> None:
    """Fold a window's (rows, levels) E/F masks into out's rows: first hits and F count."""
    for k, mask in enumerate((f, e)):
        first = mask.argmax(axis=1)
        hit = mask[np.arange(len(first)), first]
        np.minimum(out[k], np.where(hit, start + 1 + first, out[k]), out=out[k])
    out[2] += np.count_nonzero(f, axis=1)


def _events(cfg: ExperimentConfig, source, count: int) -> np.ndarray:
    """Per row: tau_F, tau_E (horizon + 1 encodes none), the number of F levels and j (0 for none).

    phi, evaluated on each depth block's levels only, is non-decreasing: block
    n qualifies at its level iff prod >= phi(n) (E), and besides it an earlier
    block does iff the largest earlier product, carried across blocks, does
    (F). float64 decides, but where a product or the running top is doubtful
    the exact integer does; a row whose top passes 2^53 carries its exact
    value, from the few blocks whose floats lie within the band of the top.

    At the first F level n the record is k = n, and j is the one earlier block
    that reaches phi(n): two would have made an earlier level F. That block is
    the last E level before n. It reaches phi(n) >= phi(j), so it is an E
    level, and an E level between j and n would have been an earlier F level.
    So j is read off the E mask, which is exact inside the band.
    """
    ell, phi, N = cfg.ell, cfg.phi, cfg.horizon
    band = LOG_BAND + (ell + 1) * 2.0**-52  # see _doubtful
    out = np.zeros((4, count), dtype=np.int64)
    out[:2] = N + 1
    top = np.zeros(count)  # largest earlier block product, rounded past GIANT
    exact_top = {}  # the exact integer top of rows whose top reached GIANT
    for start, prod, qa in _depth_blocks(cfg, source, count):
        width = prod.shape[1]
        phi_win = phi.phi_array(start + width, first=start + 1)
        levels = np.arange(start + 1, start + width + 1)
        group = max(1, _MASK_CELLS // width)
        for lo in range(0, count, group):
            rows = slice(lo, min(lo + group, count))
            p, t, o = prod[rows], top[rows], out[:, rows]
            raw = p.copy() if ((p.max(axis=1) >= GIANT) | (t >= GIANT)).any() else None
            seen = {}  # row -> (c, top_before(row, c)) of its last call; calls come in column order

            def top_before(i, c):
                """The exact top before column c of row i."""
                c0, best = seen.get(i, (0, exact_top.get(lo + i) or int(t[i])))
                near = np.flatnonzero(_doubtful(raw[i, c0:c], p[i, c - 1] if c else t[i], band))
                for j in (c0 + near).tolist():  # only blocks near the float top can hold it
                    best = max(best, _exact(qa, lo + i, j, ell))
                seen[i] = c, best
                return best

            e = p >= phi_win
            np.maximum.accumulate(p, axis=1, out=p)
            np.maximum(p, t[:, None], out=p)  # p[:, j] is now the top after block j
            f = np.empty_like(e)  # some earlier block reaches phi
            np.greater_equal(t, phi_win[0], out=f[:, 0])
            np.greater_equal(p[:, :-1], phi_win[1:], out=f[:, 1:])
            if raw is not None:
                for i, c in np.argwhere(_doubtful(raw, phi_win, band)).tolist():
                    e[i, c] = phi.meets_threshold(_exact(qa, lo + i, c, ell), start + 1 + c)
                before = np.concatenate((t[:, None], p[:, :-1]), axis=1)
                for i, c in np.argwhere(_doubtful(before, phi_win, band) & e).tolist():
                    f[i, c] = phi.meets_threshold(top_before(i, c), start + 1 + c)
                del before
            f &= e
            _fold_events(o, start, e, f)
            e &= levels < o[0][:, None]  # E levels before tau_F: the last one is j
            np.copyto(o[3], start + width - e[:, ::-1].argmax(axis=1), where=e.any(axis=1))
            if start + width < N:
                for i in np.flatnonzero(p[:, -1] >= GIANT).tolist():
                    exact_top[lo + i] = top_before(i, width)
            t[:] = p[:, -1]
        del prod, qa, p, raw  # the next depth block is drawn without this one
    out[3, out[0] > N] = 0  # no F level: the last E level is no j
    return out


def _sums_and_maxes(cfg: ExperimentConfig, source, count: int) -> np.ndarray:
    """Running block-product sum (out[0]) and maximum (out[1]) per checkpoint and row."""
    cps = cfg.checkpoints
    out = np.empty((2, len(cps), count))
    run_sum = np.zeros(count)
    run_max = np.zeros(count)
    next_cp = 0
    for start, prod, qa in _depth_blocks(cfg, source, count):
        mx = np.maximum.accumulate(prod, axis=1)
        np.maximum(mx, run_max[:, None], out=mx)
        cs = np.cumsum(prod, axis=1, out=prod)  # prod is a fresh copy; reuse its memory
        cs += run_sum[:, None]
        while next_cp < len(cps) and cps[next_cp] <= start + prod.shape[1]:
            col = cps[next_cp] - start - 1
            out[:, next_cp] = cs[:, col], mx[:, col]
            next_cp += 1
        run_sum = cs[:, -1].copy()
        run_max = mx[:, -1].copy()
        del prod, qa, mx, cs  # the next depth block is drawn without this one
    return out


def _chunk(cfg: ExperimentConfig, rows, reduce, rng_range: tuple[int, int]) -> np.ndarray:
    """One worker's share: reduce over the quotient source rows(sample_ids) of a range."""
    lo, hi = rng_range
    return reduce(cfg, rows(range(lo, hi)), hi - lo)


def _chunk_ranges(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    """Sample ranges of at most 512 whose depth blocks, with the tail carried past them, fit _CHUNK_BUDGET.

    _BYTES_PER_QUOTIENT holds from 256 columns deep; the 512-row cap keeps a shallower chunk under 1 MB.
    """
    span = (cfg.ell - 1) * cfg.d
    width = min(_DEPTH_BLOCK, cfg.horizon + span) + span
    size = max(1, min(512, _CHUNK_BUDGET // (_BYTES_PER_QUOTIENT * width)))
    return [(lo, min(lo + size, cfg.samples)) for lo in range(0, cfg.samples, size)]


def _run_chunks(config: ExperimentConfig, worker, ranges):
    """Map worker over sample ranges, inline or in a process pool, yielding in order."""
    workers = min(config.threads, os.cpu_count() or 1, len(ranges))
    if workers <= 1:
        yield from map(worker, ranges)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(worker, ranges)


def _gather(cfg: ExperimentConfig, stream_fn: Optional[StreamFn], reduce, shape, dtype):
    """reduce's results, samples on the last axis, folded in sample order as chunks return.

    The quotient rows come from the sampler, or from stream_fn when given.
    """
    rows = (partial(QuotientSampler, cfg.seed) if stream_fn is None
            else partial(_ForcedStream, stream_fn, cfg.horizon + (cfg.ell - 1) * cfg.d))
    out = np.empty(shape + (cfg.samples,), dtype=dtype)
    ranges = _chunk_ranges(cfg)
    for (lo, hi), part in zip(ranges, _run_chunks(cfg, partial(_chunk, cfg, rows, reduce), ranges)):
        out[..., lo:hi] = part
    return out


# ---------------------------------------------------------------------------
# dichotomy


def _event_table(cfg: ExperimentConfig, stream_fn: Optional[StreamFn] = None) -> np.ndarray:
    """_events' (4, samples) table: tau_F, tau_E, F count and j."""
    return _gather(cfg, stream_fn, _events, (4,), np.int64)


def run_dichotomy(
    config: ExperimentConfig, stream_fn: Optional[StreamFn] = None
) -> list[dict]:
    """Per-checkpoint fractions of samples whose F/E hitting time is <= n."""
    if config.kind != "dichotomy":
        raise DomainError("config.kind must be 'dichotomy'")
    tau_f, tau_e = _event_table(config, stream_fn)[:2]
    return [
        {
            "n": n,
            "fraction_hit_F": float(np.mean(tau_f <= n)),
            "fraction_hit_E": float(np.mean(tau_e <= n)),
        }
        for n in config.checkpoints
    ]


def hitting_times(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (tau_F, tau_E) arrays; horizon+1 encodes no event."""
    return tuple(_event_table(config)[:2])


def event_records(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (tau_F, tau_E, j) arrays; horizon+1 encodes no event.

    At the first F level n the two blocks are j < k = n; j is 0 where there
    is no F level.
    """
    events = _event_table(config)
    return events[0], events[1], events[3]


# ---------------------------------------------------------------------------
# trimmed sums and the weak law


def _gather_trajectories(cfg: ExperimentConfig, stream_fn) -> tuple[np.ndarray, np.ndarray]:
    """(sums, maxes) of the block products, shape (checkpoints, samples) each."""
    out = _gather(cfg, stream_fn, _sums_and_maxes, (2, len(cfg.checkpoints)), float)
    return out[0], out[1]


def run_trimmed(
    config: ExperimentConfig, stream_fn: Optional[StreamFn] = None
) -> list[dict]:
    """Summary statistics of (S_{n,ell} - max block)/(n log^ell n) per checkpoint."""
    if config.kind != "trimmed":
        raise DomainError("config.kind must be 'trimmed'")
    sums, maxes = _gather_trajectories(config, stream_fn)
    rows = []
    for i, n in enumerate(config.checkpoints):
        norm = (sums[i] - maxes[i]) / (n * math.log(n) ** config.ell)
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
    if config.kind != "khinchin":
        raise DomainError("config.kind must be 'khinchin'")
    target = 1.0 / (config.ell * math.log(2.0))
    sums, _ = _gather_trajectories(config, stream_fn)
    rows = []
    for i, n in enumerate(config.checkpoints):
        ratio = sums[i] / (n * math.log(n) ** config.ell)
        row = {"n": n}
        for eps in KHINCHIN_EPS:
            row[f"outside_{eps}"] = float(np.mean(np.abs(ratio - target) >= eps))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Chung-Erdos


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
    beat phi(n). The denominator includes the i = j diagonal (finite form):
    with c_s the number of events of sample s, sum_{i,j} #(E_i and E_j) =
    sum_s c_s^2.
    """
    if config.kind != "chung_erdos":
        raise DomainError("config.kind must be 'chung_erdos'")
    return _chung_erdos(_event_table(config, stream_fn)[2])


def _chung_erdos(c: np.ndarray) -> ChungErdosResult:
    """The check from c, each sample's number of events."""
    S = len(c)
    lhs = int(np.count_nonzero(c)) / S
    sum_p = float(c.sum()) / S
    sum_pairs = float(sum(x * x for x in c.tolist())) / S
    degenerate = sum_pairs == 0.0
    rhs = 0.0 if degenerate else sum_p**2 / sum_pairs
    stderr = math.sqrt(max(lhs * (1.0 - lhs), 1e-300) / S)
    return ChungErdosResult(lhs, rhs, stderr, lhs >= rhs - 3.0 * stderr, degenerate)


# ---------------------------------------------------------------------------
# config files, hashing, persistence

def config_to_text(config: ExperimentConfig) -> str:
    """Canonical flat key = value form (sorted keys), the hashing input; phi is phi_family and phi_params."""
    pairs: dict[str, str] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "checkpoints":
            pairs[f.name] = ",".join(str(c) for c in value)
        elif f.name != "phi":
            pairs[f.name] = str(value)
        elif value is not None:
            pairs["phi_family"] = value.family
            pairs["phi_params"] = ",".join(f"{p:.12g}" for p in value.params or value.values)
    return "".join(f"{k} = {pairs[k]}\n" for k in sorted(pairs))


def config_from_text(text: str) -> ExperimentConfig:
    """The config that config_to_text's form sets; a key left out keeps its dataclass default."""
    types = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "phi"}
    pairs: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in types and key not in ("phi_family", "phi_params"):
            raise DomainError(f"unknown config key {key!r}")
        pairs[key] = value.strip()
    if "kind" not in pairs:
        raise DomainError("config must set kind")
    args = {}
    if "phi_family" in pairs:
        args["phi"] = GrowthFunction.from_spec(pairs["phi_family"], pairs.get("phi_params", ""))
    try:
        for key, value in pairs.items():
            if key == "checkpoints":
                args[key] = tuple(int(x) for x in value.split(",") if x.strip())
            elif types.get(key) == "int":
                args[key] = int(value)
            elif key in types:
                args[key] = value
    except ValueError:
        raise DomainError(f"config key {key!r} takes integers, got {value!r}") from None
    return ExperimentConfig(**args)


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


def write_atomic(path: str, write: Callable[[TextIO], None]) -> None:
    """write(fh) into a temp file beside path, then rename it over path.

    The temp file is opened like any new file, so it gets umask permissions.
    Nothing translates newlines: the bytes are the same on every platform.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(config: ExperimentConfig, out_dir: str) -> RunManifest:
    """Run the configured experiment and persist CSV results plus a manifest."""
    os.makedirs(out_dir, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    run = {
        "dichotomy": run_dichotomy,
        "trimmed": run_trimmed,
        "khinchin": run_khinchin,
        "chung_erdos": lambda c: [asdict(chung_erdos_check(c))],
    }[config.kind]
    rows = run(config)  # dicts whose keys are the CSV columns in order
    header = list(rows[0])
    data = [list(r.values()) for r in rows]
    csv_name = f"{config.kind}.csv"
    write_atomic(os.path.join(out_dir, csv_name), lambda fh: write_csv(fh, header, data))
    finished = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(
        config_hash=config_hash(config),
        tool_version=__version__,
        seed=config.seed,
        prng=PRNG_NAME,
        started_at=started,
        finished_at=finished,
        output_files=(csv_name,),
    )
    manifest_text = json.dumps(manifest.__dict__, indent=2, sort_keys=True, default=list) + "\n"
    write_atomic(os.path.join(out_dir, "manifest.json"), lambda fh: fh.write(manifest_text))
    write_atomic(os.path.join(out_dir, "config.txt"), lambda fh: fh.write(config_to_text(config)))
    return manifest

"""Projective measurements and the distinguishability functional.

Distinguishability between two states under a measurement is half the L1
distance between the outcome probability vectors; for a two-outcome
measurement {P, 1-P} it reduces to |tr(a P) - tr(b P)|.

The time series tr(P rho_t) come from one kernel, grid_series, on evenly
spaced grids only, with two paths: a block-factorised GEMM form, and a
Gaussian-kernel non-uniform FFT for long grids over many levels.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np
import numpy.fft  # numpy 2 loads it on first use; load it with the package

from .states import EquilibriumState, QuantumState, complex_in, complex_out

__all__ = [
    "PROJECTOR_TOL",
    "SERIES_CHUNK_ENTRIES",
    "Projector",
    "Measurement",
    "two_outcome",
    "distinguishability",
    "expectation_series",
    "grid_series",
    "series_distinguishability",
    "save_measurement",
    "load_measurement",
]

# Snapshot-subspace projectors arrive from numerically delicate
# orthonormalization, so the shared acceptance tolerance is looser than the
# 1e-10 that exactly constructed projectors meet.
PROJECTOR_TOL = 1e-8
# Complex entries that one chunk of grid_series' phases may take (half
# of this), and, separately, the coefficient rows of one group of state
# columns (the other half). The phases need the budget to amortise their
# block factoring over many times.
SERIES_CHUNK_ENTRIES = 4_000_000
# Multiply-adds M N K below which this build's OpenBLAS keeps a GEMM on
# the calling thread: 2^16 for a complex GEMM (in 400 calls 63 x 32 x 32
# = 64,512 never woke the worker thread, 64 x 32 x 32 = 65,536 did) and
# 10^6 for a real one (976 x 32 x 32 = 999,424 stayed on one thread,
# 977 x 32 x 32 woke the worker). A threaded GEMM this small waits for the
# second thread, and on a busy host that wait reaches milliseconds.
_GEMM_ONE_THREAD_WORK = 2 ** 16
# Complex entries of the start-scaled coefficient rows that one GEMM of
# grid_series takes when one block of them reaches _GEMM_ONE_THREAD_WORK
# (the GEMM is threaded anyway): enough rows to amortise the call, few
# enough to stay in cache. A group still holds at least one block of rows.
_ROW_GROUP_ENTRIES = 2 ** 16
# A uniform grid takes grid_series' NUFFT path from 512 levels and 2^17
# levels x times on: below either the block path kept up or won in the
# crossover table of the README (few levels, or few times).
_NUFFT_MIN_LEVELS = 512
_NUFFT_MIN_WORK = 2 ** 17
# Half-width, in cells of the oversampled grid, of the NUFFT's Gaussian
# spreading kernel: 2 * 14 cells per level.
_NUFFT_HALF_WIDTH = 14
# A spreading block holds at most 128 levels whose first cells lie within
# 36 cells, and a row group of the NUFFT at most 16 rows: a block's real
# GEMM then takes at most (36 - 1 + 2 * 14) x 128 x (2 * 16) = 258k
# multiply-adds, under the 10^6 below which OpenBLAS keeps a real GEMM on
# one thread (see _GEMM_ONE_THREAD_WORK).
_SPREAD_BLOCK_CELLS = 36
_SPREAD_BLOCK_LEVELS = 128
_NUFFT_ROWS = 16


class Projector:
    """An orthogonal projector V V^dag, or 1 - V V^dag when ``is_complement``
    is set, stored as its d x r orthonormal column factor V."""

    __slots__ = ("factor", "is_complement", "dim", "rank")

    def __init__(self, factor, is_complement: bool = False):
        self.factor = factor
        self.is_complement = is_complement
        self.dim, k = factor.shape
        self.rank = self.dim - k if is_complement else k

    @classmethod
    def from_factor(cls, factor) -> "Projector":
        v = np.asarray(factor, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if not np.all(np.isfinite(v)):
            raise ValueError("factor has non-finite entries")
        gram = v.conj().T @ v
        resid = float(np.abs(gram - np.eye(v.shape[1])).max(initial=0.0))
        if resid > PROJECTOR_TOL:
            raise ValueError(f"factor columns not orthonormal: residual {resid:.3e}")
        return cls(v)

    def complement(self) -> "Projector":
        """1 - P over the same factor."""
        return Projector(self.factor, not self.is_complement)

    def expectation(self, state: QuantumState | EquilibriumState) -> float:
        """tr(P rho), the sum of the state's column traces over the factor; a
        complement's value is 1 - tr(V V^dag rho), using tr(rho) = 1."""
        value = float(state.column_traces(self.factor).sum())
        return 1.0 - value if self.is_complement else value


def _phases(energies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i E t) as a (d, n) complex array, bit for bit
    np.exp(-1j * np.outer(energies, times)): E t is written into the
    imaginary view, its cosine into the real view, then the sine is taken
    and negated in place, so no other d x n array is allocated."""
    out = np.empty((energies.size, times.size), dtype=complex)
    np.multiply(energies[:, None], times[None, :], out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _evenly_spaced(t: np.ndarray) -> bool:
    """Whether t is a 1-d array of finite, evenly spaced times (see
    grid_series). The drift takes one array of n floats, so a grid is
    checked before anything larger is formed."""
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        return False
    if t.size < 2:
        return True
    limit = 4.0 * np.spacing(np.abs(t).max())
    drift = np.arange(t.size, dtype=float)
    drift *= (t[-1] - t[0]) / (t.size - 1)
    drift += t[0]
    drift -= t
    return bool(np.abs(drift, out=drift).max() <= limit)


def _row_groups(blocks: int, rows: int, levels: int, m: int):
    """Ranges [b0, b1) of blocks whose start-scaled rows (rows per block,
    levels entries each) one GEMM against the (levels, m) offset phases
    takes: as many whole blocks as keep the GEMM under
    _GEMM_ONE_THREAD_WORK multiply-adds, so that it runs on the calling
    thread, or, when one block alone reaches that, at most
    _ROW_GROUP_ENTRIES entries of max(levels, m) per row. Never less than
    one block, nor a lone row while there are more (numpy hands a one-row
    product to GEMV, which rounds differently from GEMM, so the series
    would depend on the grouping): a one-row group holds two blocks at
    least and keeps room under the limit for a lone last block to join."""
    work = rows * levels * m
    if work < _GEMM_ONE_THREAD_WORK:
        step = (_GEMM_ONE_THREAD_WORK - 1) // work - (rows == 1)
    else:
        step = _ROW_GROUP_ENTRIES // (rows * max(levels, m))
    step = max(step, 2 if rows == 1 else 1)
    edges = [*range(0, blocks, step), blocks]
    if rows == 1 and len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]  # the lone last block joins the group before it
    return zip(edges[:-1], edges[1:])


def _coefficient_groups(v, columns: np.ndarray, level_starts: np.ndarray):
    """The coefficient rows c = conj(V)^T a of the state's columns a, summed
    within each level, one group of state columns at a time: (group columns
    x rank, levels) arrays of at most half the entry budget (one state
    column at least)."""
    d = columns.shape[1]
    # C-ordered operands keep every product below C-ordered, so the GEMMs run in BLAS
    vh = np.ascontiguousarray(v.conj().T)
    cols = max(SERIES_CHUNK_ENTRIES // 2 // (vh.shape[0] * d), 1)  # state columns per group
    for c0 in range(0, columns.shape[0], cols):
        yield np.add.reduceat((columns[c0:c0 + cols, None, :] * vh).reshape(-1, d),
                              level_starts, axis=1)


def _chunk_series(v, columns: np.ndarray, level_starts: np.ndarray,
                  offsets: np.ndarray, starts: np.ndarray, pieces) -> None:
    """Add tr(V V^dag rho_t) at the times of each piece of one chunk into
    the piece's output view, given the state's columns, the chunk's
    (levels, sum m) offset and (sum blocks, levels) start phases, and each
    piece's (offset columns, start rows, output) triple; the last block of
    a piece may run past its times. The coefficient rows of a group of
    state columns serve every piece."""
    levels = offsets.shape[0]
    for coef in _coefficient_groups(v, columns, level_starts):
        for offs, rows, out in pieces:
            # contiguous: a one-time piece's dot rounds a strided column otherwise
            phase, start = np.ascontiguousarray(offsets[:, offs]), starts[rows]
            blocks, m = start.shape[0], phase.shape[1]
            sums = np.zeros((blocks, m))
            for b0, b1 in _row_groups(blocks, coef.shape[0], levels, m):
                amp = (start[b0:b1, None, :] * coef).reshape(-1, levels) @ phase
                sq = amp.view(float)
                np.square(sq, out=sq)
                pairs = sq.reshape(b1 - b0, -1, 2 * m).sum(axis=1)  # re^2, im^2 interleaved
                sums[b0:b1] = pairs[:, ::2] + pairs[:, 1::2]
            out += sums.ravel()[:out.size]


def _plan_chunks(grids, levels: int):
    """The pieces of every grid, packed in order into chunks. A grid is cut
    into pieces of k^2 times, k offset and k start phases per level at most
    half the entry budget; each piece keeps its own block length m. A chunk
    takes pieces while their m + blocks phases per level stay within half
    the budget (one piece at least). Yields lists of (grid, first time,
    times, m)."""
    chunk = max(SERIES_CHUNK_ENTRIES // 2 // (2 * levels), 1) ** 2
    planned, used = [], 0
    for g, times in enumerate(grids):
        for first in range(0, times.size, chunk):
            t = times[first:first + chunk]
            m = math.isqrt(t.size - 1) + 1
            cost = (m + -(-t.size // m)) * levels  # m offsets and ceil(n / m) starts
            if planned and used + cost > SERIES_CHUNK_ENTRIES // 2:
                yield planned
                planned, used = [], 0
            planned.append((g, first, t, m))
            used += cost
    if planned:
        yield planned


def _fft_size(minimum: int) -> int:
    """The smallest multiple of 4 at or above ``minimum`` with no prime
    factor above 5: a length that pocketfft transforms at its best rate
    (2 * 3^7, say, takes half as long again per point)."""
    sizes = []
    p5 = 1
    while p5 < minimum:
        p35 = p5
        while p35 < minimum:
            size = 4 * p35
            while size < minimum:
                size *= 2
            sizes.append(size)
            p35 *= 3
        p5 *= 5
    return min(sizes, default=4)


class _NufftPlan(NamedTuple):
    """What the NUFFT path needs of one uniform grid t_j = t_0 + j dt of n
    times, shared by every factor: the size of the oversampled grid, the
    rows per FFT, the per-level phases that start-scale and centre the
    coefficient rows, the spreading blocks and the deconvolution of each
    time's power."""

    n: int
    size: int
    step: int
    phase: np.ndarray
    blocks: list
    scale: np.ndarray


def _nufft_size(levels: np.ndarray, times: np.ndarray) -> int:
    """The number M of cells of the oversampled circle when the evenly
    spaced grid takes the NUFFT path, else 0: it takes the block path when
    it has fewer than _NUFFT_MIN_LEVELS levels or _NUFFT_MIN_WORK levels x
    times, its times do not increase, or one row's M cells would take more
    than half the entry budget (or be fewer than one spreading block
    spans), or the levels span 2^52 cells or more, where a level's place
    within its cell is lost (and its cell index can overflow). The choice
    reads the levels and the times only."""
    n = times.size
    if n < 2 or levels.size < _NUFFT_MIN_LEVELS or levels.size * n < _NUFFT_MIN_WORK:
        return 0
    dt = (times[-1] - times[0]) / (n - 1)
    size = _fft_size(2 * n)
    fits = (dt > 0 and _SPREAD_BLOCK_CELLS + 2 * _NUFFT_HALF_WIDTH <= size
            and size <= SERIES_CHUNK_ENTRIES // 2
            and (levels[-1] - levels[0]) * dt * size / (2.0 * np.pi) < 2.0 ** 52)
    return size if fits else 0


def _nufft_plan(levels: np.ndarray, times: np.ndarray, size: int) -> _NufftPlan:
    """The NUFFT plan of a grid that takes the NUFFT path on ``size`` cells
    (see _nufft_size).

    With x_k = (E_k - E_c) dt about the spectrum's centre E_c and the modes
    centred on j' = j - n // 2, a coefficient row gives |amp_j|^2 =
    |sum_k c_k e^{-i E_k t_0} e^{-i (n//2) x_k} e^{-i j' x_k}|^2: the type-1
    transform of Greengard & Lee (SIAM Rev. 46 (2004) 443). Each level is
    spread onto the 2 * 14 nearest cells of an oversampled grid of
    M >= 2n cells with the Gaussian e^{-(x - x_m)^2 / (4 tau)}, tau =
    pi 14 / (n^2 s (s - 1/2)) for s = M / n; one FFT and a deconvolution
    by sqrt(pi / tau) e^{j'^2 tau} / M give amp_j. The levels are sorted,
    so the levels whose first cells lie within _SPREAD_BLOCK_CELLS of each
    other form a block, spread by one GEMM against its weights. As j'
    is an integer, e^{-i j' x} has period 2 pi in x: a cell lies on the
    circle of M cells, and a grid whose levels span more than 2 pi / dt
    (an under-sampled one) wraps round it, each block at most once."""
    n, width = times.size, 2 * _NUFFT_HALF_WIDTH
    t0 = times[0]
    dt = (times[-1] - t0) / (n - 1)
    x = (levels - 0.5 * (levels[0] + levels[-1])) * dt
    cells = x * (size / (2.0 * np.pi))
    first = np.floor(cells).astype(np.int64) - (_NUFFT_HALF_WIDTH - 1)
    s = size / n
    tau = np.pi * _NUFFT_HALF_WIDTH / (n * n * s * (s - 0.5))
    weights = (cells - first)[:, None] - np.arange(width)  # distances in cells
    np.square(weights, out=weights)
    weights *= -(2.0 * np.pi / size) ** 2 / (4.0 * tau)
    np.exp(weights, out=weights)  # (levels, 2 * 14)
    # blocks: runs of levels whose first cells lie within _SPREAD_BLOCK_CELLS
    # of each other, cut every _SPREAD_BLOCK_LEVELS levels
    k = np.arange(levels.size)
    cut = np.flatnonzero(np.diff((first - first[0]) // _SPREAD_BLOCK_CELLS)) + 1
    pos = k - np.repeat(np.concatenate(([0], cut)), np.diff([0, *cut, levels.size]))
    a = np.flatnonzero(pos % _SPREAD_BLOCK_LEVELS == 0)
    b = np.append(a[1:], levels.size)
    lo, count = first[a], b - a
    run = first[b - 1] - lo + width
    ends = np.cumsum(run * count)
    # each block's (levels, run) weights, C-ordered, one after another in
    # flat: a level's 2 * 14 weights are one contiguous stretch of its row
    owner = np.repeat(np.arange(a.size), count)
    start = ends - run * count
    flat = np.zeros(int(ends[-1]))
    stretches = np.lib.stride_tricks.sliding_window_view(flat, width, writeable=True)
    stretches[start[owner] + (k - a[owner]) * run[owner] + first - lo[owner]] = weights
    blocks = [(int(i), int(j), int(c) % size, flat[e - r * (j - i):e].reshape(j - i, r))
              for i, j, c, r, e in zip(a, b, lo, run, ends)]
    half = n // 2
    modes = np.arange(n) - half
    # rows per FFT: _NUFFT_ROWS, fewer if their oversampled grids would
    # take more than half the entry budget (one row at least)
    step = min(max(SERIES_CHUNK_ENTRIES // 2 // size, 1), _NUFFT_ROWS)
    return _NufftPlan(n, size, step, np.exp(-1j * (levels * t0 + half * x)), blocks,
                      (np.pi / tau) * np.exp(2.0 * tau * modes * modes) / (size * size))


def _nufft_series(plan: _NufftPlan, coef: np.ndarray, out: np.ndarray,
                  work: np.ndarray) -> None:
    """Add the series of a group of coefficient rows on a planned grid into
    out, plan.step rows at a time. The rows are start-scaled and centred
    and laid out as (levels, rows) complex, so each block's real GEMM
    against its weights gives re and im of every row side by side; they are
    added into the rows' (rows, cells) grids, held in the complex entries
    of work, which one FFT along the cells transforms in place."""
    size, half, n = plan.size, plan.n // 2, plan.n
    for r0 in range(0, coef.shape[0], plan.step):
        count = min(plan.step, coef.shape[0] - r0)
        rows = np.empty((coef.shape[1], count), dtype=complex)
        np.multiply(coef[r0:r0 + count].T, plan.phase[:, None], out=rows)
        rows = rows.view(float)
        grid = work[:count * size].reshape(count, size)
        grid.fill(0.0)
        for a, b, lo, wt in plan.blocks:
            spread = (wt.T @ rows[a:b]).view(complex).T  # (rows, cells of the block)
            wrap = min(size - lo, spread.shape[1])
            grid[:, lo:lo + wrap] += spread[:, :wrap]
            if wrap < spread.shape[1]:
                grid[:, :spread.shape[1] - wrap] += spread[:, wrap:]
        np.fft.fft(grid, axis=1, out=grid)
        for modes, times in ((grid[:, size - half:], slice(0, half)),
                             (grid[:, :n - half], slice(half, n))):
            sq = modes.view(float)
            np.square(sq, out=sq)
            pairs = sq.sum(axis=0)  # re^2, im^2 interleaved
            out[times] += (pairs[::2] + pairs[1::2]) * plan.scale[times]


def grid_series(projectors, state: QuantumState, grids) -> list:
    """tr(P rho_t) on each of a sequence of grids, each what
    expectation_series gives for that grid alone, bit for bit. A grid is a
    1-d array of finite times within 4 ulp of max|t| of t_0 + j dt, dt =
    (t_{n-1} - t_0) / (n - 1), as a linspace is (0 or 1 times pass); any
    other grid raises ValueError.

    With rho = A A^dag, tr(V V^dag rho_t) is the sum over the columns a of A
    and the rows c = conj(V)^T a of |sum_k c_k e^{-i E_k t}|^2; c is first
    summed within each level, so the phases are taken per level. Each grid
    takes one of two paths, chosen from its times and the levels alone (see
    _nufft_size): an increasing grid with at least _NUFFT_MIN_LEVELS
    levels and _NUFFT_MIN_WORK levels x times takes the NUFFT path; every
    other grid takes the block path, which also serves as the NUFFT's test
    oracle.

    Block path. Each grid is cut into pieces of k^2 times, and a piece of n
    times into blocks of m = ceil(sqrt(n)), where the phase at t_{bm+j}
    factors as e^{-iE t_{bm}} e^{-iE (t_j - t_0)}: about 2 sqrt(n)
    exponentials per level instead of n, and one GEMM of the start-scaled
    rows of a group of blocks against the (levels, m) offset phases. It is
    within 32 eps (1 + max|E| max|t|) of the direct sum. One planner serves
    any number of grids: the pieces of all grids are packed into chunks
    (see _plan_chunks), and a chunk takes the offset phases of all its
    pieces in one exponential call and their start phases in another. Each
    factor forms the coefficient rows of a group of state columns once per
    chunk, and every piece runs its own GEMMs on them, so the many short
    grids of a window sweep cost one pass, not one per grid.

    NUFFT path. A type-1 non-uniform FFT with a Gaussian kernel (see
    _nufft_plan) takes O(levels 28 + n log n) per coefficient row instead
    of O(levels n). Its bound is the block path's plus 1e-13 for the
    kernel (see the tests), and on the slow scenario's grids the two paths
    differ by about 3e-14. Each grid is planned once, and its spreading
    weights serve every factor.

    Two bounds keep memory flat. The phases of a chunk, the coefficient
    rows of a group of state columns, and the oversampled grids of a group
    of NUFFT rows each take at most SERIES_CHUNK_ENTRIES // 2 complex
    entries (one piece, one state column, one row at least). One GEMM
    takes the start-scaled rows of as many blocks as keep it under
    _GEMM_ONE_THREAD_WORK multiply-adds, or, when one block reaches that,
    at most _ROW_GROUP_ENTRIES entries (one block of rows at least; see
    _row_groups), so no d x d or d x nt array is formed. A GEMM
    holds whole blocks of one piece, so each time's squares are summed over
    the same rows in the same order however the blocks are grouped and the
    pieces packed: neither moves a bit of the result while BLAS rounds a
    GEMM row alike in any GEMM (it does single-threaded; a threaded split
    can differ). A NUFFT grid is evaluated on its own, whatever else the
    call holds.

    A stack shares the phases of every chunk. Each
    factor forms its own coefficient rows and GEMMs, as a call for it alone
    would, so a stack takes no more memory than its widest factor and each
    row is bit for bit the projector's own series; a factor that several
    projectors share (P and 1 - P) is evaluated once.

    A complement's series is 1 - the series of V V^dag; a rank-0 V V^dag
    has the series 0.
    """
    grids = [np.asarray(times, dtype=float) for times in grids]
    if not all(map(_evenly_spaced, grids)):
        raise ValueError("times must be a 1-d array of finite, evenly spaced values")
    single = isinstance(projectors, Projector)
    stack = (projectors,) if single else tuple(projectors)
    if any(p.dim != state.factor.shape[0] for p in stack):
        raise ValueError("projectors and state have mismatched dimensions")
    factors = {id(p.factor): p.factor for p in stack}
    values = {key: [np.zeros(t.size) for t in grids] for key in factors}
    spec = state.spectrum
    columns = np.ascontiguousarray(state.factor.T)
    sizes = [_nufft_size(spec.levels, t) for t in grids]
    for planned in _plan_chunks([t[:0] if size else t for t, size in zip(grids, sizes)],
                                spec.levels.size):
        o = np.cumsum([0, *(m for *_, m in planned)])
        r = np.cumsum([0, *(-(-t.size // m) for _, _, t, m in planned)])
        offsets = _phases(spec.levels, np.concatenate(
            [t[:m] - t[0] for _, _, t, m in planned]))  # (levels, sum m)
        starts = _phases(np.concatenate([t[::m] for _, _, t, m in planned]),
                         spec.levels)  # (sum blocks, levels); t E is E t bitwise
        for key, v in factors.items():
            if v.shape[1]:  # else V V^dag = 0
                pieces = [(slice(o[i], o[i + 1]), slice(r[i], r[i + 1]),
                           values[key][g][first:first + t.size])
                          for i, (g, first, t, _) in enumerate(planned)]
                _chunk_series(v, columns, spec.level_starts, offsets, starts, pieces)
    for g, size in enumerate(sizes):
        if size and any(v.shape[1] for v in factors.values()):
            # one plan at a time, so memory does not grow with the grids
            plan = _nufft_plan(spec.levels, grids[g], size)
            work = np.empty(plan.step * size, dtype=complex)
            for key, v in factors.items():
                if v.shape[1]:
                    for coef in _coefficient_groups(v, columns, spec.level_starts):
                        _nufft_series(plan, coef, values[key][g], work)
    out = []
    for g, times in enumerate(grids):
        series = [1.0 - values[id(p.factor)][g] if p.is_complement
                  else values[id(p.factor)][g] for p in stack]
        out.append(series[0] if single
                   else np.array(series).reshape(len(stack), times.size))
    return out


def expectation_series(projectors, state: QuantumState, times) -> np.ndarray:
    """tr(P rho_t) on an evenly spaced grid; for a sequence of
    projectors, a (len, n) array with one series per projector. The one-grid
    call of grid_series, which documents the method."""
    return grid_series(projectors, state, [times])[0]


class Measurement:
    """Ordered projective outcomes that sum to the identity; at most one
    outcome may be a complement."""

    def __init__(self, projectors):
        self.projectors = tuple(projectors)
        if not self.projectors:
            raise ValueError("measurement needs at least one outcome")
        self.dim = self.projectors[0].dim
        if any(p.dim != self.dim for p in self.projectors):
            raise ValueError("projectors have mismatched dimensions")
        if sum(p.rank for p in self.projectors) != self.dim:
            raise ValueError("outcome ranks must sum to the dimension")
        if sum(p.is_complement for p in self.projectors) > 1:
            raise ValueError("at most one outcome may be a complement")
        resid = self.residuals()
        worst = float(np.max(list(resid.values())))
        if not np.isfinite(worst) or worst > PROJECTOR_TOL:
            raise ValueError(f"measurement residuals exceed {PROJECTOR_TOL:g}: {resid}")

    def residuals(self) -> dict:
        """Worst idempotency, orthogonality, and completeness residuals, for
        reporting against the shared tolerance.

        Only d x r factor products are formed; a projector built from a
        factor is Hermitian by construction, so there is no hermiticity
        residual. X holds the explicit factors side by side: X^dag X - 1
        gives idempotency (within a factor) and orthogonality (across). A
        complement 1 - W W^dag completes the measurement when W spans X, and
        the rank sum is already checked, so completeness is ||X - W W^dag X||_2;
        without a complement X is square and it is ||X^dag X - 1||_2.
        """
        explicit = [p.factor for p in self.projectors if not p.is_complement]
        x = np.concatenate([np.zeros((self.dim, 0), dtype=complex), *explicit], axis=1)
        dev = x.conj().T @ x - np.eye(x.shape[1])
        owner = np.repeat(np.arange(len(explicit)), [v.shape[1] for v in explicit])
        same = owner[:, None] == owner[None, :]
        idem = np.abs(dev[same]).max(initial=0.0)
        ortho = np.linalg.norm(np.where(same, 0.0, dev), 2)
        complement = [p.factor for p in self.projectors if p.is_complement]
        if complement:
            w = complement[0]
            idem = max(idem, np.abs(w.conj().T @ w - np.eye(w.shape[1])).max(initial=0.0))
            complete = np.linalg.norm(x - w @ (w.conj().T @ x), 2)
        else:
            complete = np.linalg.norm(dev, 2)
        return {"idempotency": float(idem),
                "orthogonality": float(ortho), "completeness": float(complete)}

    def outcome_probabilities(self, state: QuantumState | EquilibriumState) -> np.ndarray:
        return np.array([p.expectation(state) for p in self.projectors])


def two_outcome(projector: Projector) -> Measurement:
    """Measurement {P, 1 - P}."""
    return Measurement([projector, projector.complement()])


def distinguishability(m: Measurement, a: QuantumState | EquilibriumState,
                       b: QuantumState | EquilibriumState) -> float:
    """Half the L1 distance between the outcome statistics of two states;
    either may be an equilibrium state."""
    if a.dim != b.dim or a.dim != m.dim:
        raise ValueError("measurement and states have mismatched dimensions")
    pa = m.outcome_probabilities(a)
    pb = m.outcome_probabilities(b)
    return 0.5 * float(np.abs(pa - pb).sum())


def series_distinguishability(series: np.ndarray, fixed) -> np.ndarray:
    """Half the L1 distance, at each time, between the outcome series (one
    row per outcome, as expectation_series stacks them) and the fixed
    outcome probabilities; the outcomes are added in order."""
    total = np.zeros(series.shape[1])
    for row, p in zip(series, fixed):
        total += np.abs(row - p)
    return 0.5 * total


def save_measurement(m: Measurement, path) -> None:
    """One entry per outcome: the columns of its factor as [re, im] pairs,
    the dimension, and the complement bit; nothing d x d is written."""
    entries = [{"dim": p.dim, "factor": complex_out(p.factor.T),
                "complement": p.is_complement} for p in m.projectors]
    with open(path, "w") as fh:
        json.dump({"projectors": entries}, fh)


def load_measurement(path) -> Measurement:
    """Read a measurement file written by :func:`save_measurement`; an entry
    in any other form is rejected."""
    with open(path) as fh:
        payload = json.load(fh)
    projectors = []
    for i, entry in enumerate(payload["projectors"]):
        keys = set(entry) if isinstance(entry, dict) else None
        if keys != {"dim", "factor", "complement"}:
            raise ValueError('measurement entries must be {"dim": d, "factor": '
                             '[column, ...], "complement": bool} objects')
        dim, cols = entry["dim"], entry["factor"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"measurement entry {i}: dim must be an integer")
        if not isinstance(entry["complement"], bool):
            raise ValueError(f"measurement entry {i}: complement must be true or false")
        v = complex_in(cols).T if cols else np.zeros((dim, 0), complex)
        if v.shape[0] != dim:
            raise ValueError(f"measurement entry {i}: dim {dim} does not match "
                             f"the factor's {v.shape[0]} rows")
        p = Projector.from_factor(v)
        projectors.append(p.complement() if entry["complement"] else p)
    return Measurement(projectors)

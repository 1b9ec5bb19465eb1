"""Energy spectra, level distributions and window statistics of levels and
of spectral gaps.

Everything downstream works in the Hamiltonian eigenbasis, so a spectrum is
just the sorted distinct energies, their degeneracies, and the map from
eigenbasis index to level index. It keeps no gap array: the gap count of a
window forms the gaps of the levels it is given for that call only. A :class:`LevelDistribution` carries the
spectrum whose levels it weights and is checked once, when it is built;
the window scans read it without checking it again.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEGENERACY_RTOL",
    "EnergySpectrum",
    "LevelDistribution",
    "spectrum_from_hermitian",
    "max_window_probability",
    "max_window_probability_window",
    "max_gaps_in_window",
]

DEGENERACY_RTOL = 1e-10
PROB_SUM_TOL = 1e-12


def _check_tol(tol) -> None:
    """A separation tolerance must be a finite positive number: a NaN one
    passes every ``>`` comparison it is used in."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


def _degeneracy_array(values) -> np.ndarray:
    """``values`` as a 1-d int array. An entry that is not an integer value
    (a fraction, NaN, infinity, a boolean, a string) raises rather than
    being truncated by the cast."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return np.atleast_1d(np.asarray(values, dtype=int))
    items = np.atleast_1d(np.asarray(values, dtype=object))
    for g in items.flat:
        if (isinstance(g, (bool, np.bool_)) or not isinstance(g, numbers.Real)
                or not math.isfinite(g) or g != int(g)):
            raise ValueError(f"degeneracies must be positive integers, got {g!r}")
    return items.astype(int)


@dataclass(frozen=True, eq=False)
class EnergySpectrum:
    """Sorted distinct energy levels with their degeneracies.

    Parameters
    ----------
    levels : array_like
        Strictly increasing distinct energies.
    degeneracies : array_like
        Positive multiplicity of each level; total Hilbert dimension is
        the sum.
    tol : float
        Relative tolerance below which two levels would be considered
        degenerate; adjacent levels must be separated by more than this.
        Must be finite and positive.
    """

    levels: np.ndarray
    degeneracies: np.ndarray
    tol: float = DEGENERACY_RTOL

    def __post_init__(self):
        _check_tol(self.tol)
        levels = np.atleast_1d(np.asarray(self.levels, dtype=float))
        degs = _degeneracy_array(self.degeneracies)
        if levels.ndim != 1 or degs.shape != levels.shape:
            raise ValueError("levels and degeneracies must be matching 1-d sequences")
        if levels.size == 0:
            raise ValueError("spectrum needs at least one level")
        if not np.all(np.isfinite(levels)):
            raise ValueError("levels must be finite")
        if np.any(degs < 1):
            raise ValueError("degeneracies must be positive integers")
        scale = max(1.0, float(np.abs(levels).max()))
        if levels.size > 1 and np.any(np.diff(levels) <= self.tol * scale):
            raise ValueError(
                "levels must be strictly increasing and separated by more than "
                f"{self.tol:g} * {scale:g}"
            )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "degeneracies", degs)
        object.__setattr__(self, "_level_of_index",
                           np.repeat(np.arange(levels.size), degs))
        object.__setattr__(self, "_index_energies", np.repeat(levels, degs))
        object.__setattr__(self, "_level_starts", np.cumsum(degs) - degs)
        object.__setattr__(self, "_dim", int(degs.sum()))

    @property
    def num_levels(self) -> int:
        return int(self.levels.size)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def level_of_index(self) -> np.ndarray:
        """Map eigenbasis index j in [0, dim) to its level index."""
        return self._level_of_index

    @property
    def level_starts(self) -> np.ndarray:
        """First eigenbasis index of each level: the offsets that
        ``np.add.reduceat`` sums a per-index array over."""
        return self._level_starts

    @property
    def index_energies(self) -> np.ndarray:
        """Energy of each eigenbasis index (levels repeated by degeneracy)."""
        return self._index_energies

    @property
    def span(self) -> float:
        return float(self.levels[-1] - self.levels[0])

    def is_nondegenerate(self) -> bool:
        return bool(np.all(self.degeneracies == 1))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"levels": [float(x) for x in self.levels],
                       "degeneracies": [int(g) for g in self.degeneracies]}, fh, indent=1)

    @classmethod
    def load(cls, path) -> "EnergySpectrum":
        """Read a spectrum file written by :meth:`save`; a payload with any
        other keys is rejected."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or set(data) != {"levels", "degeneracies"}:
            raise ValueError('a spectrum file must hold {"levels": [...], "degeneracies": [...]}')
        return cls(data["levels"], data["degeneracies"])


@dataclass(frozen=True, eq=False)
class LevelDistribution:
    """Probability p_n of finding the state on each level of ``spectrum``.

    The probabilities are checked here and nowhere else: one per level,
    finite, nonnegative and summing to 1. A clipped copy (no entry below
    zero) is stored.
    """

    spectrum: EnergySpectrum
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        n = self.spectrum.num_levels
        if p.shape != (n,):
            raise ValueError(f"expected {n} level probabilities, got shape {p.shape}")
        total = p.sum()
        if not np.isfinite(total):  # NaN and inf entries propagate into the sum
            raise ValueError("level probabilities must be finite")
        if np.any(p < -PROB_SUM_TOL):
            raise ValueError("level probabilities must be nonnegative")
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"level probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))


def spectrum_from_hermitian(matrix, tol: float = DEGENERACY_RTOL) -> EnergySpectrum:
    """The :class:`EnergySpectrum` of a Hermitian matrix, from its
    eigenvalues alone; a caller that needs the eigenbasis calls
    ``np.linalg.eigh`` itself.

    Eigenvalues closer than ``tol * max(1, |E|_max)`` are merged into one
    level; the merge is a transitive closure, so chains of near-equal
    eigenvalues collapse together. ``tol`` must be finite and positive; it
    also bounds the Hermiticity residual, relative to the largest entry.
    """
    _check_tol(tol)
    H = np.asarray(matrix, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix entries must be finite")
    residual = float(np.abs(H - H.conj().T).max()) if H.size else 0.0
    scale = max(1.0, float(np.abs(H).max())) if H.size else 1.0
    if residual > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: residual {residual:.3e} exceeds "
            f"{tol * scale:.3e}"
        )
    eigvals = np.linalg.eigvalsh((H + H.conj().T) / 2.0)
    thr = tol * max(1.0, float(np.abs(eigvals).max()))
    splits = np.nonzero(np.diff(eigvals) > thr)[0] + 1
    groups = np.split(np.arange(eigvals.size), splits)
    levels = np.array([eigvals[g].mean() for g in groups])
    degs = np.array([g.size for g in groups], dtype=int)
    return EnergySpectrum(levels, degs, tol=tol)


def max_window_probability_window(dist: LevelDistribution, width):
    """Maximum total level probability of ``dist`` inside any closed energy
    window of the given width, together with the maximizing window.

    The maximum of the window sum as a function of the window position is
    attained with the left edge sitting on a level, so only ``num_levels``
    candidate windows need to be scanned. Every width must be positive and
    finite. ``width`` may be an array: every width is scanned in one pass
    (one ``searchsorted`` over all of them), and each result equals the scan
    of that width alone. A window sum is a difference of cumulative sums,
    whose total can round above 1, so every value is clipped at 1.

    Returns
    -------
    (float, (float, float))
        For a scalar width, the probability and the ``(left, right)`` edges
        of a maximizing window; for an array of widths, arrays of its shape
        in the same places.
    """
    widths = np.asarray(width, dtype=float)
    # 1/T at T = 0 is inf, and every bound is stated for T > 0
    if not np.all((widths > 0) & (widths < np.inf)):
        raise ValueError("window width must be positive and finite")
    levels = dist.spectrum.levels
    cums = np.concatenate(([0.0], np.cumsum(dist.probs)))
    flat = widths.reshape(-1, 1)
    right = np.searchsorted(levels, levels + flat, side="right")
    sums = cums[right] - cums[: levels.size]
    best = np.argmax(sums, axis=1)
    values = np.minimum(sums[np.arange(best.size), best], 1.0)
    lo = levels[best]
    hi = lo + flat[:, 0]
    if widths.ndim == 0:
        return float(values[0]), (float(lo[0]), float(hi[0]))
    return (values.reshape(widths.shape),
            (lo.reshape(widths.shape), hi.reshape(widths.shape)))


def max_window_probability(dist: LevelDistribution, width):
    """Maximum total level probability of ``dist`` inside any closed window
    of the given energy width: a float, or an array for an array of widths."""
    value, _ = max_window_probability_window(dist, width)
    return value


def max_gaps_in_window(levels, width: float) -> int:
    """Maximum number of gaps E_n - E_m over ordered pairs of distinct levels
    (with multiplicity) inside any closed window of the given positive,
    finite width; ``levels`` are the distinct energies, as
    ``EnergySpectrum.levels`` holds them. The L(L - 1) gaps are formed,
    sorted and swept within the call, and not kept."""
    if not 0 < width < np.inf:
        raise ValueError(f"window width must be positive and finite, got {width!r}")
    levels = np.asarray(levels, dtype=float)
    gaps = (levels[:, None] - levels[None, :])[~np.eye(levels.size, dtype=bool)]
    if gaps.size == 0:
        return 0
    gaps.sort()
    right = np.searchsorted(gaps, gaps + width, side="right")
    return int((right - np.arange(gaps.size)).max())

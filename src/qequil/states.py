"""Quantum states in the energy eigenbasis.

Every state is a d x s factor A with rho = A A^dag; a pure state has s = 1
and A is its amplitude vector. Evolution multiplies the rows of A by their
phases e^{-i E_j t}, never exponentiating a matrix. Dephasing keeps only the
within-level blocks and yields the equilibrium (infinite-time-averaged)
state omega = sum_n P_n rho P_n, an :class:`EquilibriumState` that holds the
same factor with the level partition: its block on level n is A_n A_n^dag.
Both kinds are read through one method, ``column_traces``: the weight
tr(v^dag rho v) of every column v of a stack of frames, from which projector
expectations, overlaps, purity and the Haar estimators are summed.
:func:`level_distribution` returns the state's level probabilities as a
:class:`~qequil.spectra.LevelDistribution` over the state's own spectrum.
The factor is the only stored form of a state: no d x d density matrix is
built here, and a state file holds the factor's columns
(:func:`save_state`, :func:`load_state`).
"""
from __future__ import annotations

import json
import os
from typing import NamedTuple

import numpy as np

from .spectra import EnergySpectrum, LevelDistribution

__all__ = [
    "QuantumState",
    "EquilibriumState",
    "EnergyMoments",
    "evolve",
    "dephase",
    "level_distribution",
    "effective_dimension",
    "energy_moments",
    "purity",
    "save_state",
    "load_state",
]

TRACE_TOL = 1e-10


def _checked_factor(spectrum: EnergySpectrum, factor) -> np.ndarray:
    """``factor`` as a d x s complex array (a vector is one column), checked
    for its row count, finite entries and tr(A A^dag) = 1."""
    a = np.asarray(factor, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    d = spectrum.dim
    if a.ndim != 2 or a.shape[0] != d:
        raise ValueError(f"factor has shape {a.shape}, expected {d} rows")
    if not np.all(np.isfinite(a)):
        raise ValueError("factor entries must be finite")
    norm2 = float(np.vdot(a, a).real)
    if abs(norm2 - 1.0) > TRACE_TOL:
        raise ValueError(f"tr(A A^dag) is {norm2!r}, not 1")
    return a


def _checked_frames(v, d: int) -> np.ndarray:
    """``v`` as frames of shape (..., d, r). Anything else is rejected: a 1-d
    vector would broadcast to an outer product."""
    v = np.asarray(v)
    if v.ndim < 2 or v.shape[-2] != d:
        raise ValueError(f"expected frames of shape (..., {d}, r), got shape {v.shape}")
    return v


class QuantumState:
    """A density matrix rho = A A^dag over an :class:`EnergySpectrum`'s
    eigenbasis, stored as its d x s factor A.

    A pure state has s = 1 and A is its amplitude vector. No d x d matrix
    is held. Instances are treated as immutable.
    """

    __slots__ = ("spectrum", "factor")

    def __init__(self, spectrum: EnergySpectrum, factor):
        self.spectrum = spectrum
        self.factor = _checked_factor(spectrum, factor)

    @classmethod
    def pure(cls, spectrum: EnergySpectrum, amplitudes) -> "QuantumState":
        return cls(spectrum, np.ravel(amplitudes))

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def is_pure(self) -> bool:
        return self.factor.shape[1] == 1

    @property
    def amplitudes(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("state is mixed; no amplitude vector")
        return self.factor[:, 0]

    def diagonal(self) -> np.ndarray:
        """Real diagonal sum_k |A_jk|^2 of the density matrix (eigenbasis
        populations); an equilibrium state shares it with its source."""
        return np.sum(np.abs(self.factor) ** 2, axis=1)

    def column_traces(self, v) -> np.ndarray:
        """tr(v_i^dag rho v_i) = ||v_i^dag A||^2 for every column v_i of frames
        v of shape (..., d, r), as an array of shape (..., r)."""
        v = _checked_frames(v, self.dim)
        y = self.factor.conj().T @ v  # (..., s, r), the conjugate of v^dag A
        return np.sum(y.real ** 2 + y.imag ** 2, axis=-2)


class EquilibriumState:
    """The equilibrium state omega = sum_n P_n rho P_n of rho = A A^dag,
    stored as the same factor A with the level partition.

    omega's block on level n is A_n A_n^dag, where A_n holds the rows of A on
    that level (``spectrum.level_starts`` marks where each level begins), and
    nothing d x d is held. omega is handled as a mixed state (``is_pure`` is
    false). Built by :func:`dephase`.
    """

    __slots__ = ("spectrum", "factor")
    is_pure = False

    def __init__(self, spectrum: EnergySpectrum, factor):
        self.spectrum = spectrum
        self.factor = _checked_factor(spectrum, factor)

    dim = QuantumState.dim
    diagonal = QuantumState.diagonal

    def column_traces(self, v) -> np.ndarray:
        """tr(v_i^dag omega v_i) = sum_n ||v_{i,n}^dag A_n||^2 for every column
        v_i of frames v of shape (..., d, r), as an array of shape (..., r).

        The level sums (their conjugates a_n^dag v_{i,n}) run through
        np.add.reduceat over the level starts, one column a of A at a time,
        so memory stays at the size of v. Without a degenerate level each
        sum has one term, and the reduceat, an identity then, is skipped.

        The products conj(a_j) v_j are taken in real arithmetic: numpy's
        complex multiply picks its kernel by the operands' layout, and the
        kernels round differently, so a frame alone and the same frame in a
        stack would not give the same bits."""
        v = _checked_frames(v, self.dim)
        starts = self.spectrum.level_starts
        vr, vi = v.real, v.imag
        out = np.zeros(v.shape[:-2] + v.shape[-1:])
        for a in self.factor.T:
            ar, ai = a.real[:, None], a.imag[:, None]
            yr, yi = vr * ar + vi * ai, vi * ar - vr * ai
            if starts.size < self.dim:
                yr = np.add.reduceat(yr, starts, axis=-2)
                yi = np.add.reduceat(yi, starts, axis=-2)
            out += np.sum(yr ** 2 + yi ** 2, axis=-2)
        return out


class EnergyMoments(NamedTuple):
    mean: float
    std: float


def evolve(state: QuantumState, t: float) -> QuantumState:
    """Evolve a state for time t: each row of its factor gets its phase
    e^{-i E_j t}."""
    phases = np.exp(-1j * state.spectrum.index_energies * t)
    return QuantumState(state.spectrum, state.factor * phases[:, None])


def dephase(state: QuantumState) -> EquilibriumState:
    """Equilibrium state omega = sum_n P_n rho P_n: only the within-level
    blocks survive. omega shares the state's factor, so nothing is copied
    and no d x d matrix is built."""
    return EquilibriumState(state.spectrum, state.factor)


def level_distribution(state: QuantumState) -> LevelDistribution:
    """p_n = trace of the state inside each energy eigenspace, over the
    state's spectrum."""
    spec = state.spectrum
    sums = np.bincount(spec.level_of_index, weights=state.diagonal(),
                       minlength=spec.num_levels)
    return LevelDistribution(spec, sums)


def effective_dimension(dist: LevelDistribution) -> float:
    """Inverse participation ratio 1 / sum(p_n^2) of the level distribution."""
    s = float(np.dot(dist.probs, dist.probs))
    if s <= 0.0:
        raise ValueError("distribution has no support")
    return 1.0 / s


def energy_moments(dist: LevelDistribution) -> EnergyMoments:
    """Mean energy and energy standard deviation of a level distribution."""
    p = dist.probs
    levels = dist.spectrum.levels
    mean = float(np.dot(p, levels))
    var = float(np.dot(p, (levels - mean) ** 2))
    return EnergyMoments(mean, np.sqrt(max(var, 0.0)))


def purity(state: QuantumState | EquilibriumState) -> float:
    """tr(rho^2), the sum of the column traces of rho's own factor: for rho
    = A A^dag it is ||A^dag A||_F^2 (1 for a pure state), and for an
    equilibrium state sum_n ||A_n^dag A_n||_F^2."""
    return float(state.column_traces(state.factor).sum())


def complex_out(arr) -> list:
    """Render a complex array as nested [re, im] pairs."""
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [complex_out(row) for row in arr]


def complex_in(data) -> np.ndarray:
    """Parse nested [re, im] pairs into a complex array."""
    try:
        arr = np.asarray(data, dtype=float)
    except TypeError as exc:  # an object where a number belongs
        raise ValueError(f"expected nested [re, im] pairs: {exc}") from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError("expected innermost [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def save_state(state: QuantumState, path, spectrum_path) -> None:
    """Write a state file: the spectrum file's path and the columns of the
    state's factor as [re, im] pairs; nothing d x d is written."""
    payload = {"spectrum": str(spectrum_path), "factor": complex_out(state.factor.T)}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_state(path, spectrum: EnergySpectrum | None = None) -> QuantumState:
    """Read a state file written by :func:`save_state`; a payload in any
    other form is rejected. The referenced spectrum path is resolved
    relative to the state file unless a spectrum is passed in."""
    with open(path) as fh:
        payload = json.load(fh)
    keys = set(payload) if isinstance(payload, dict) else None
    if (keys != {"spectrum", "factor"} or not isinstance(payload["spectrum"], str)
            or not isinstance(payload["factor"], list)):
        raise ValueError('a state file must hold {"spectrum": path, "factor": [column, ...]}')
    if spectrum is None:
        ref = payload["spectrum"]
        if not os.path.isabs(ref):
            ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        spectrum = EnergySpectrum.load(ref)
    return QuantumState(spectrum, complex_in(payload["factor"]).T)

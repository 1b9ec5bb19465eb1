"""Quantum states in the energy eigenbasis.

Every state is a d x s factor A with rho = A A^dag; a pure state has s = 1
and A is its amplitude vector. Evolution multiplies the rows of A by their
phases e^{-i E_j t}, never exponentiating a matrix. Dephasing keeps only the
within-level blocks and yields the equilibrium (infinite-time-averaged)
state omega = sum_n P_n rho P_n, an :class:`EquilibriumState` that holds the
same factor with the level partition: its block on level n is A_n A_n^dag.
:func:`level_distribution` returns the state's level probabilities as a
:class:`~qequil.spectra.LevelDistribution` over the state's own spectrum.
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
HERMITICITY_TOL = 1e-10


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


def _checked_columns(v, d: int) -> np.ndarray:
    """``v`` as a (d, r) array. Anything else is rejected: a 1-d vector would
    broadcast to an outer product."""
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[0] != d:
        raise ValueError(f"expected a ({d}, r) array of columns, got shape {v.shape}")
    return v


def _gram(a: np.ndarray) -> np.ndarray:
    """A A^dag as a d x d matrix. One column goes through np.outer, whose
    entries are the single rounded products c_j conj(c_k); a matrix product
    does not promise those bits."""
    if a.shape[1] == 1:
        return np.outer(a[:, 0], a[:, 0].conj())
    return a @ a.conj().T


class QuantumState:
    """A density matrix rho = A A^dag over an :class:`EnergySpectrum`'s
    eigenbasis, stored as its d x s factor A.

    A pure state has s = 1 and A is its amplitude vector; :meth:`mixed`
    factors a density matrix. The d x d matrix is built only when ``rho`` is
    read, and then kept. Instances are treated as immutable.
    """

    __slots__ = ("spectrum", "factor", "_rho")

    def __init__(self, spectrum: EnergySpectrum, factor):
        self.spectrum = spectrum
        self.factor = _checked_factor(spectrum, factor)
        self._rho = None

    @classmethod
    def pure(cls, spectrum: EnergySpectrum, amplitudes) -> "QuantumState":
        return cls(spectrum, np.ravel(amplitudes))

    @classmethod
    def mixed(cls, spectrum: EnergySpectrum, rho) -> "QuantumState":
        """Factor a finite, Hermitian, unit-trace, positive semidefinite
        density matrix: rho = V diag(w) V^dag gives A = V sqrt(w) over the
        eigenvalues w above the eigensolver's roundoff, d eps max(w). An
        eigenvalue below -TRACE_TOL is rejected."""
        d = spectrum.dim
        m = np.asarray(rho, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"density matrix has shape {m.shape}, expected {(d, d)}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        herm = float(np.abs(m - m.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: residual {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, not 1")
        w, v = np.linalg.eigh(m)
        if w[0] < -TRACE_TOL:
            raise ValueError(f"density matrix not positive semidefinite: "
                             f"eigenvalue {w[0]:.3e}")
        keep = w > d * np.finfo(float).eps * w[-1]
        return cls(spectrum, v[:, keep] * np.sqrt(w[keep]))

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

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            self._rho = _gram(self.factor)
        return self._rho

    def diagonal(self) -> np.ndarray:
        """Real diagonal sum_k |A_jk|^2 of the density matrix (eigenbasis
        populations); an equilibrium state shares it with its source."""
        return np.sum(np.abs(self.factor) ** 2, axis=1)

    def projected_trace(self, v) -> float:
        """tr(V^dag rho V) = ||V^dag A||_F^2, the weight of the state in the
        span of the orthonormal columns of the d x r factor V."""
        v = _checked_columns(v, self.dim)
        return float(np.sum(np.abs(v.conj().T @ self.factor) ** 2))


def _levels_by_degeneracy(spectrum: EnergySpectrum) -> dict:
    """{g: (m, g) array}: the eigenbasis indices of each of the m levels of
    degeneracy g, one row per level."""
    degs = spectrum.degeneracies
    starts = np.cumsum(degs) - degs
    # The distinct degeneracies, ascending; np.unique would load numpy.ma.
    present = np.flatnonzero(np.bincount(degs))
    return {int(g): starts[degs == g][:, None] + np.arange(g) for g in present}


class EquilibriumState:
    """The equilibrium state omega = sum_n P_n rho P_n of rho = A A^dag,
    stored as the same factor A with the level partition.

    omega's block on level n is A_n A_n^dag, where A_n holds the rows of A on
    that level. Levels are grouped by their degeneracy g (see
    :func:`_levels_by_degeneracy`), and nothing d x d is held. omega is
    handled as a mixed state (``is_pure`` is false). Built by :func:`dephase`.
    """

    __slots__ = ("spectrum", "factor", "_groups")
    is_pure = False

    def __init__(self, spectrum: EnergySpectrum, factor):
        self.spectrum = spectrum
        self.factor = _checked_factor(spectrum, factor)
        self._groups = _levels_by_degeneracy(spectrum)

    dim = QuantumState.dim
    diagonal = QuantumState.diagonal

    def projected_trace(self, v) -> float:
        """tr(V^dag omega V) = sum_n ||V_n^dag A_n||_F^2 for a d x r
        orthonormal factor V.

        A nondegenerate level contributes omega_jj |V_j|^2 with omega_jj =
        sum_k A_jk conj(A_jk), computed in the order a diagonal matrix
        product would use, so a nondegenerate spectrum gives the same bits
        as the dense tr(V^dag omega V).
        """
        v = _checked_columns(v, self.dim)
        parts = []
        a = self.factor
        for g, idx in self._groups.items():
            if g == 1:
                j = slice(None) if idx.size == self.dim else idx[:, 0]
                x = v[j]
                diag = np.sum(a[j] * a[j].conj(), axis=1)
                parts.append(np.sum(x.conj() * np.multiply(diag[:, None], x, order="C")).real)
                continue
            xc = v[idx].conj()  # (m, g, r)
            for col in a.T:  # one column at a time keeps memory at d r
                y = np.sum(xc * col[idx][:, :, None], axis=1)  # V_n^dag a_n, (m, r)
                parts.append(np.sum(y.real ** 2 + y.imag ** 2))
        return float(sum(parts))

    def dense(self) -> np.ndarray:
        """omega as a d x d matrix, bit for bit the masked copy of the
        source's density matrix. O(d^2); meant for small d only."""
        lvl = self.spectrum.level_of_index
        return np.where(lvl[:, None] == lvl[None, :], _gram(self.factor), 0.0)


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
    """tr(rho^2) = ||A^dag A||_F^2; equals 1 for pure states. For an
    equilibrium state it is sum_n ||A_n^dag A_n||_F^2, taken as the squared
    norm of each block A_n A_n^dag (a nondegenerate level's block is its
    population)."""
    a = state.factor
    if not isinstance(state, EquilibriumState):
        gram = a.conj().T @ a
        return float(np.vdot(gram, gram).real)
    parts = []
    for g, idx in state._groups.items():
        if g == 1:
            q = state.diagonal()[idx[:, 0]]
            parts.append(np.dot(q, q))
        else:
            blocks = a[idx] @ a[idx].conj().transpose(0, 2, 1)  # (m, g, g)
            parts.append(np.vdot(blocks, blocks).real)
    return float(sum(parts))


def complex_out(arr) -> list:
    """Render a complex array as nested [re, im] pairs."""
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [complex_out(row) for row in arr]


def complex_in(data) -> np.ndarray:
    """Parse nested [re, im] pairs into a complex array."""
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected innermost [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def save_state(state: QuantumState, path, spectrum_path) -> None:
    """Write a state file referencing its spectrum file by path."""
    payload: dict = {"spectrum": str(spectrum_path)}
    if state.is_pure:
        payload["amplitudes"] = complex_out(state.amplitudes)
    else:
        payload["rho"] = complex_out(state.rho)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_state(path, spectrum: EnergySpectrum | None = None) -> QuantumState:
    """Load a state file; the referenced spectrum path is resolved relative
    to the state file unless a spectrum is passed in."""
    with open(path) as fh:
        payload = json.load(fh)
    if spectrum is None:
        ref = payload["spectrum"]
        if not os.path.isabs(ref):
            ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        spectrum = EnergySpectrum.load(ref)
    if "amplitudes" in payload:
        return QuantumState.pure(spectrum, complex_in(payload["amplitudes"]))
    return QuantumState.mixed(spectrum, complex_in(payload["rho"]))

"""Quantum states in the energy eigenbasis.

Evolution is elementwise phase multiplication, never matrix exponentiation:
with the state written in the eigenbasis, rho_jk(t) = rho_jk e^{-i(E_j-E_k)t}.
Dephasing keeps only the within-level blocks and yields the equilibrium
(infinite-time-averaged) state omega = sum_n P_n rho P_n. It is stored level
by level as an :class:`EquilibriumState`, never as a d x d matrix: a pure
state's amplitudes with the level partition, or a mixed state's within-level
blocks grouped by degeneracy (a diagonal when the spectrum is nondegenerate).
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
NORM_TOL = 1e-10


class QuantumState:
    """A density matrix over an :class:`EnergySpectrum`'s eigenbasis.

    Pure states carry their amplitude vector and materialize the density
    matrix lazily; mixed states are matrix-only. Instances are treated as
    immutable.
    """

    __slots__ = ("spectrum", "_amps", "_rho")

    def __init__(self, spectrum: EnergySpectrum, *, amplitudes=None, rho=None):
        if (amplitudes is None) == (rho is None):
            raise ValueError("provide exactly one of amplitudes or rho")
        self.spectrum = spectrum
        d = spectrum.dim
        if amplitudes is not None:
            c = np.asarray(amplitudes, dtype=complex).reshape(-1)
            if c.size != d:
                raise ValueError(f"amplitude vector has length {c.size}, expected {d}")
            if not np.all(np.isfinite(c)):
                raise ValueError("amplitudes must be finite")
            norm2 = float(np.vdot(c, c).real)
            if abs(norm2 - 1.0) > NORM_TOL:
                raise ValueError(f"|amplitudes|^2 sums to {norm2!r}, not 1")
            self._amps = c
            self._rho = None
        else:
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
            self._amps = None
            self._rho = m

    @classmethod
    def pure(cls, spectrum: EnergySpectrum, amplitudes) -> "QuantumState":
        return cls(spectrum, amplitudes=amplitudes)

    @classmethod
    def mixed(cls, spectrum: EnergySpectrum, rho) -> "QuantumState":
        return cls(spectrum, rho=rho)

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def is_pure(self) -> bool:
        return self._amps is not None

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amps is None:
            raise ValueError("state is mixed; no amplitude vector")
        return self._amps

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            c = self._amps
            self._rho = np.outer(c, c.conj())
        return self._rho

    def diagonal(self) -> np.ndarray:
        """Real diagonal of the density matrix (eigenbasis populations)."""
        if self._amps is not None:
            return np.abs(self._amps) ** 2
        return self._rho.diagonal().real.copy()

    def projected_trace(self, v) -> float:
        """tr(V^dag rho V), the weight of the state in the span of the
        orthonormal columns of the d x r factor V."""
        if self._amps is not None:
            return float(np.sum(np.abs(v.conj().T @ self._amps) ** 2))
        return float(np.sum(v.conj() * (self.rho @ v)).real)


def _levels_by_degeneracy(spectrum: EnergySpectrum) -> dict:
    """{g: (m, g) array}: the eigenbasis indices of each of the m levels of
    degeneracy g, one row per level."""
    degs = spectrum.degeneracies
    starts = np.cumsum(degs) - degs
    # The distinct degeneracies, ascending; np.unique would load numpy.ma.
    present = np.flatnonzero(np.bincount(degs))
    return {int(g): starts[degs == g][:, None] + np.arange(g) for g in present}


class EquilibriumState:
    """The equilibrium state omega = sum_n P_n rho P_n, stored level by level.

    Levels are grouped by their degeneracy g (see
    :func:`_levels_by_degeneracy`). A pure source keeps its amplitude vector
    c, and omega's block on level n is c_n c_n^dag. A mixed source keeps its
    within-level blocks, one (m, g, g) array per group, so a nondegenerate
    spectrum stores just the diagonal. Nothing d x d is held; omega is
    handled as a mixed state (``is_pure`` is false). Built by
    :func:`dephase` from a state's amplitudes or density matrix.
    """

    __slots__ = ("spectrum", "_groups", "_amps", "_blocks")
    is_pure = False

    def __init__(self, spectrum: EnergySpectrum, *, amplitudes=None, rho=None):
        if (amplitudes is None) == (rho is None):
            raise ValueError("provide exactly one of amplitudes or rho")
        self.spectrum = spectrum
        self._groups = _levels_by_degeneracy(spectrum)
        self._amps = amplitudes
        self._blocks = None if rho is None else {
            g: rho[idx[:, :, None], idx[:, None, :]] for g, idx in self._groups.items()}

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    def diagonal(self) -> np.ndarray:
        """Real diagonal (eigenbasis populations), the same as the source's."""
        if self._amps is not None:
            return np.abs(self._amps) ** 2
        out = np.empty(self.dim)
        for g, idx in self._groups.items():
            out[idx] = self._blocks[g].diagonal(axis1=1, axis2=2).real
        return out

    def projected_trace(self, v) -> float:
        """tr(V^dag omega V) for a d x r orthonormal factor V, summed over
        levels: sum_n ||V_n^dag c_n||^2 for a pure source and
        sum_n tr(V_n^dag rho_nn V_n) for a mixed one.

        Nondegenerate levels contribute sum_j omega_jj |V_j|^2, computed in
        the order a diagonal matrix product would use, so a nondegenerate
        spectrum gives the same bits as the dense tr(V^dag omega V).
        """
        parts = []
        c = self._amps
        for g, idx in self._groups.items():
            if g == 1:
                j = slice(None) if idx.size == self.dim else idx[:, 0]
                x = v[j]
                diag = c[j] * c[j].conj() if c is not None else self._blocks[1][:, 0, 0]
                parts.append(np.sum(x.conj() * np.multiply(diag[:, None], x, order="C")).real)
                continue
            x = v[idx]  # (m, g, r)
            if c is not None:
                y = np.sum(x.conj() * c[idx][:, :, None], axis=1)  # V_n^dag c_n
                parts.append(np.sum(y.real ** 2 + y.imag ** 2))
            else:
                parts.append(np.sum(x.conj() * (self._blocks[g] @ x)).real)
        return float(sum(parts))

    def dense(self) -> np.ndarray:
        """omega as a d x d matrix, bit for bit the masked copy of the
        source's density matrix. O(d^2); meant for small d only."""
        if self._amps is not None:
            lvl = self.spectrum.level_of_index
            c = self._amps
            return np.where(lvl[:, None] == lvl[None, :], np.outer(c, c.conj()), 0.0)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for g, idx in self._groups.items():
            out[idx[:, :, None], idx[:, None, :]] = self._blocks[g]
        return out


class EnergyMoments(NamedTuple):
    mean: float
    std: float


def evolve(state: QuantumState, t: float) -> QuantumState:
    """Evolve a state for time t (phase multiplication in the eigenbasis)."""
    energies = state.spectrum.index_energies
    if state.is_pure:
        return QuantumState.pure(state.spectrum,
                                 state.amplitudes * np.exp(-1j * energies * t))
    phases = np.exp(-1j * energies * t)
    return QuantumState.mixed(state.spectrum,
                              state.rho * np.outer(phases, phases.conj()))


def dephase(state: QuantumState) -> EquilibriumState:
    """Equilibrium state omega = sum_n P_n rho P_n: only the within-level
    blocks survive.

    A pure state keeps its amplitude vector (O(d) memory); a mixed state's
    blocks are copied out of its density matrix (O(sum_n g_n^2)). No d x d
    matrix is built and nothing is revalidated: omega inherits trace and
    Hermiticity from the state.
    """
    if state.is_pure:
        return EquilibriumState(state.spectrum, amplitudes=state.amplitudes)
    return EquilibriumState(state.spectrum, rho=state.rho)


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
    """tr(rho^2); equals 1 for pure states. For an equilibrium state it is
    sum_n p_n^2 (pure source) or the summed squared norms of its blocks."""
    if isinstance(state, EquilibriumState):
        if state._amps is not None:
            p = level_distribution(state).probs
            return float(np.dot(p, p))
        return float(sum(np.vdot(b, b).real for b in state._blocks.values()))
    if state.is_pure:
        n = float(np.vdot(state.amplitudes, state.amplitudes).real)
        return n * n
    return float(np.vdot(state.rho, state.rho).real)


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

"""Quantum states in the energy eigenbasis.

Evolution is elementwise phase multiplication, never matrix exponentiation:
with the state written in the eigenbasis, rho_jk(t) = rho_jk e^{-i(E_j-E_k)t}.
Dephasing projects onto the within-level blocks and yields the equilibrium
(infinite-time-averaged) state.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectra import EnergySpectrum, validated_level_probs

__all__ = [
    "QuantumState",
    "LevelDistribution",
    "EnergyMoments",
    "evolve",
    "dephase",
    "level_distribution",
    "effective_dimension",
    "energy_moments",
    "purity",
    "overlap",
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

    def check_positive(self, tol: float = 1e-8) -> float:
        """Opt-in positivity check; returns the minimum eigenvalue.

        Eigenvalue checks are O(d^3), and unitary evolution cannot break
        positivity, so this is not run per operation.
        """
        smallest = float(np.linalg.eigvalsh(self.rho)[0])
        if smallest < -tol:
            raise ValueError(f"density matrix has eigenvalue {smallest:.3e} below -{tol:g}")
        return smallest


@dataclass(frozen=True, eq=False)
class LevelDistribution:
    """Probability of finding the state on each distinct energy level."""

    probs: np.ndarray

    def __post_init__(self):
        p = validated_level_probs(self.probs, np.asarray(self.probs).shape[0])
        object.__setattr__(self, "probs", p)


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


def dephase(state: QuantumState) -> QuantumState:
    """Equilibrium state: zero all matrix elements between distinct levels,
    keeping within-level blocks."""
    lvl = state.spectrum.level_of_index
    mask = lvl[:, None] == lvl[None, :]
    return QuantumState.mixed(state.spectrum, np.where(mask, state.rho, 0.0))


def level_distribution(state: QuantumState) -> LevelDistribution:
    """p_n = trace of the state inside each energy eigenspace."""
    diag = state.diagonal()
    sums = np.bincount(state.spectrum.level_of_index, weights=diag,
                       minlength=state.spectrum.num_levels)
    return LevelDistribution(sums)


def effective_dimension(dist: LevelDistribution) -> float:
    """Inverse participation ratio 1 / sum(p_n^2) of the level distribution."""
    s = float(np.dot(dist.probs, dist.probs))
    if s <= 0.0:
        raise ValueError("distribution has no support")
    return 1.0 / s


def energy_moments(dist: LevelDistribution, spectrum: EnergySpectrum) -> EnergyMoments:
    """Mean energy and energy standard deviation of a level distribution."""
    p = dist.probs
    if p.shape != spectrum.levels.shape:
        raise ValueError("distribution does not match the spectrum")
    mean = float(np.dot(p, spectrum.levels))
    var = float(np.dot(p, (spectrum.levels - mean) ** 2))
    return EnergyMoments(mean, np.sqrt(max(var, 0.0)))


def purity(state: QuantumState) -> float:
    """tr(rho^2); equals 1 for pure states."""
    if state.is_pure:
        n = float(np.vdot(state.amplitudes, state.amplitudes).real)
        return n * n
    return float(np.vdot(state.rho, state.rho).real)


def overlap(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|^2 for two pure states."""
    if not (a.is_pure and b.is_pure):
        raise ValueError("overlap is defined for pure states only")
    if a.dim != b.dim:
        raise ValueError("states live on different dimensions")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


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

"""Projective measurements and the distinguishability functional.

Distinguishability between two states under a measurement is half the L1
distance between the outcome probability vectors; for a two-outcome
measurement {P, 1-P} it reduces to |tr(a P) - tr(b P)|.
"""
from __future__ import annotations

import json

import numpy as np

from .states import QuantumState, complex_in, complex_out

__all__ = [
    "PROJECTOR_TOL",
    "SERIES_CHUNK_ENTRIES",
    "Projector",
    "Measurement",
    "two_outcome",
    "distinguishability",
    "distinguishability_series",
    "expectation_series",
    "success_probability",
    "save_measurement",
    "load_measurement",
]

# Snapshot-subspace projectors arrive from numerically delicate
# orthonormalization, so the shared acceptance tolerance is looser than the
# 1e-10 that exactly constructed projectors meet.
PROJECTOR_TOL = 1e-8
# Complex entries per chunk of times in expectation_series: d per time for a
# pure state, d * r for a mixed one.
SERIES_CHUNK_ENTRIES = 4_000_000


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
    def from_matrix(cls, matrix) -> "Projector":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("projector must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("projector matrix has non-finite entries")
        herm = float(np.abs(m - m.conj().T).max(initial=0.0))
        idem = float(np.abs(m @ m - m).max(initial=0.0))
        if herm > PROJECTOR_TOL or idem > PROJECTOR_TOL:
            raise ValueError(
                f"not a projector: hermiticity residual {herm:.3e}, "
                f"idempotency residual {idem:.3e} (tol {PROJECTOR_TOL:g})"
            )
        eigvals, vecs = np.linalg.eigh(m)
        return cls(vecs[:, eigvals > 0.5])

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

    @classmethod
    def rank_one(cls, vector) -> "Projector":
        return cls.from_factor(np.asarray(vector, dtype=complex).reshape(-1, 1))

    def complement(self) -> "Projector":
        """1 - P over the same factor."""
        return Projector(self.factor, not self.is_complement)

    def expectation(self, state: QuantumState) -> float:
        """tr(P rho); a complement's value is 1 - tr(V V^dag rho), using tr(rho) = 1."""
        v = self.factor
        if state.is_pure:
            value = float(np.sum(np.abs(v.conj().T @ state.amplitudes) ** 2))
        else:
            value = float(np.sum(v.conj() * (state.rho @ v)).real)
        return 1.0 - value if self.is_complement else value


def expectation_series(projector: Projector, state: QuantumState, times) -> np.ndarray:
    """tr(P rho_t) for an array of times, from d x r factor products only.

    With Y = e^{+iEt} V, tr(V V^dag rho_t) = tr(Y^dag rho Y): for a pure state
    c this is sum |(V^dag * c) e^{-iEt}|^2, for a mixed state the sum of
    conj(Y) * (rho Y). The times run in chunks of SERIES_CHUNK_ENTRIES // d
    (pure) or // (d r) (mixed), so no d x d or d^2 x nt array is formed, and
    a complement's series is 1 - the series of V V^dag.
    """
    times = np.asarray(times, dtype=float)
    energies = state.spectrum.index_energies
    v = projector.factor
    d, r = v.shape
    if state.is_pure:
        w = v.conj().T * state.amplitudes[None, :]  # (r, d)
        chunk = SERIES_CHUNK_ENTRIES // d
    else:
        chunk = SERIES_CHUNK_ENTRIES // max(d * r, 1)
    chunk = max(chunk, 1)
    values = np.empty(times.size)
    for start in range(0, times.size, chunk):
        phases = np.exp(-1j * np.outer(energies, times[start:start + chunk]))  # (d, n)
        if state.is_pure:
            values[start:start + chunk] = np.sum(np.abs(w @ phases) ** 2, axis=0)
        else:
            y = v[:, :, None] * phases.conj()[:, None, :]  # (d, r, n)
            rho_y = (state.rho @ y.reshape(d, -1)).reshape(y.shape)
            values[start:start + chunk] = np.sum(y.conj() * rho_y, axis=(0, 1)).real
    return 1.0 - values if projector.is_complement else values


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

    @property
    def ranks(self) -> tuple:
        return tuple(p.rank for p in self.projectors)

    def residuals(self) -> dict:
        """Worst hermiticity, idempotency, orthogonality, and completeness
        residuals, for reporting against the shared tolerance.

        Only d x r factor products are formed, and factors are Hermitian by
        construction. X holds the explicit factors side by side: X^dag X - 1
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
        return {"hermiticity": 0.0, "idempotency": float(idem),
                "orthogonality": float(ortho), "completeness": float(complete)}

    def outcome_probabilities(self, state: QuantumState) -> np.ndarray:
        return np.array([p.expectation(state) for p in self.projectors])


def two_outcome(projector: Projector) -> Measurement:
    """Measurement {P, 1 - P}."""
    return Measurement([projector, projector.complement()])


def distinguishability(m: Measurement, a: QuantumState, b: QuantumState) -> float:
    """Half the L1 distance between the outcome statistics of two states."""
    if a.dim != b.dim or a.dim != m.dim:
        raise ValueError("measurement and states have mismatched dimensions")
    pa = m.outcome_probabilities(a)
    pb = m.outcome_probabilities(b)
    return 0.5 * float(np.abs(pa - pb).sum())


def distinguishability_series(m: Measurement, state: QuantumState,
                              fixed: QuantumState, times) -> np.ndarray:
    """D(rho_t, fixed) under m for an array of times, with state evolving
    and the comparison state held fixed."""
    times = np.asarray(times, dtype=float)
    total = np.zeros(times.size)
    for p in m.projectors:
        total += np.abs(expectation_series(p, state, times) - p.expectation(fixed))
    return 0.5 * total


def success_probability(distance: float) -> float:
    """Probability of correctly guessing which of two equally likely states
    was measured, given their distinguishability."""
    if not 0.0 <= distance <= 1.0 + 1e-12:
        raise ValueError(f"distinguishability {distance!r} outside [0, 1]")
    return 0.5 + 0.5 * min(distance, 1.0)


def save_measurement(m: Measurement, path) -> None:
    """One entry per outcome: the columns of its factor as [re, im] pairs,
    the dimension, and the complement bit; nothing d x d is written."""
    entries = [{"dim": p.dim, "factor": complex_out(p.factor.T),
                "complement": p.is_complement} for p in m.projectors]
    with open(path, "w") as fh:
        json.dump({"projectors": entries}, fh)


def load_measurement(path) -> Measurement:
    """Read a measurement file; entries written as dense matrices or as
    ``{"rank_one": ...}`` vectors by earlier versions still load."""
    with open(path) as fh:
        payload = json.load(fh)
    projectors = []
    for entry in payload["projectors"]:
        if isinstance(entry, dict) and "factor" in entry:
            cols = entry["factor"]
            v = complex_in(cols).T if cols else np.zeros((entry["dim"], 0), complex)
            p = Projector.from_factor(v)
            projectors.append(p.complement() if entry["complement"] else p)
        elif isinstance(entry, dict) and "rank_one" in entry:
            v = complex_in(entry["rank_one"])
            v = v / np.linalg.norm(v)
            projectors.append(Projector.rank_one(v))
        else:
            projectors.append(Projector.from_matrix(complex_in(entry)))
    return Measurement(projectors)

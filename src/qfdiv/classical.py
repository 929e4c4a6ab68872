"""Discrete Csiszar f-divergences.

I_f(q, p) = sum_x p_x f(q_x / p_x) over finite weight vectors, with the
standard zero conventions: a point with p_x = 0 and q_x = 0 contributes
nothing, and a point with p_x = 0 and q_x > 0 contributes q_x * f*(0)
where f*(0) = lim f(v)/v.  This is the commuting-case oracle for the
matrix divergence engine, plus checkable forms of the range-of-values,
refinement, and shift-invariance facts.

Distributions are never renormalized silently; a weight vector whose
sum is off by more than 1e-12 is rejected as malformed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError
from .generators import Generator, shift
from .hermitian import CheckReport, _chain_report, _json_floats, _load_json

__all__ = [
    "DiscreteDistribution",
    "i_f",
    "variation_distance",
    "range_check",
    "refinement_bound_check",
    "shift_invariance_check",
    "distribution_to_json",
    "distribution_from_json",
    "load_distribution",
]

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite probability vector: nonnegative weights summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise InputFormatError(f"weights must be a non-empty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InputFormatError("weights must be finite")
        if w.min() < 0.0:
            raise InputFormatError(f"weights must be nonnegative, min is {w.min()}")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InputFormatError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.size)


def _weights(d) -> np.ndarray:
    if isinstance(d, DiscreteDistribution):
        return d.weights
    return DiscreteDistribution(np.asarray(d, dtype=np.float64)).weights


def _pair_weights(q, p) -> tuple:
    qw, pw = _weights(q), _weights(p)
    if qw.size != pw.size:
        raise InputFormatError(f"length mismatch: {qw.size} vs {pw.size}")
    return qw, pw


def i_f(q, p, f: Generator) -> float:
    """The f-divergence I_f(q, p) = sum_x p_x f(q_x / p_x).

    Zero handling: p_x = 0 and q_x = 0 contributes 0; p_x = 0 and
    q_x > 0 contributes q_x * f*(0).  May return +inf.
    """
    qw, pw = _pair_weights(q, p)

    total = 0.0
    both = (pw > 0.0) & (qw > 0.0)
    if np.any(both):
        total += float(np.sum(pw[both] * f(qw[both] / pw[both])))
    q_dead = (pw > 0.0) & (qw == 0.0)
    if np.any(q_dead):
        mass = float(np.sum(pw[q_dead]))
        total += mass * f.value_at_zero
    p_dead = (pw == 0.0) & (qw > 0.0)
    if np.any(p_dead):
        mass = float(np.sum(qw[p_dead]))
        total += mass * f.star_at_zero
    return total


def variation_distance(q, p) -> float:
    """Total variation sum |q_x - p_x| (the full sum, not halved)."""
    qw, pw = _pair_weights(q, p)
    return float(np.sum(np.abs(qw - pw)))


def range_check(q, p, f: Generator, tol: float = 1e-10) -> CheckReport:
    """Chain f(1) <= I_f(q, p) <= f(0) + f*(0).

    An infinite upper limit leaves the upper link vacuously true.
    """
    value = i_f(q, p, f)
    upper = f.value_at_zero + f.star_at_zero
    note = "vacuous-upper: f(0) + f*(0) is infinite" if math.isinf(upper) else ""
    return _chain_report("range-of-values", [("f-at-one", f(1.0)), ("divergence", value),
                                             ("zero-limit-sum", upper)], tol, note)


def refinement_bound_check(q, p, f: Generator, tol: float = 1e-10) -> CheckReport:
    """Chain 0 <= I_f(q, p) <= (1/2)[f(0) + f*(0)] V(q, p) for normalized f.

    Reported as vacuous (not failure) when f(0) + f*(0) is infinite.
    """
    if not f.normalized:
        raise InputFormatError(f"refinement bound needs a normalized generator, got {f.spec}")
    value = i_f(q, p, f)
    cap_sum = f.value_at_zero + f.star_at_zero
    bound = 0.5 * cap_sum * variation_distance(q, p) if math.isfinite(cap_sum) else math.inf
    note = "vacuous: f(0) + f*(0) is infinite" if math.isinf(cap_sum) else ""
    return _chain_report("refinement-bound", [("zero", 0.0), ("divergence", value),
                                              ("half-sum-variation", bound)], tol, note)


def shift_invariance_check(q, p, f: Generator, c: float, tol: float = 1e-11) -> CheckReport:
    """I_{f + c(u-1)} equals I_f: the generator shift is invisible."""
    base = i_f(q, p, f)
    shifted = i_f(q, p, shift(f, c))
    if math.isinf(base) or math.isinf(shifted):
        ok = base == shifted
    else:
        ok = abs(shifted - base) <= tol * max(1.0, abs(base))
    return CheckReport(
        name="shift-invariance",
        terms=(("divergence", base), ("shifted-divergence", shifted)),
        tol=tol,
        ok=ok,
    )


def distribution_to_json(d) -> dict:
    """Serialize to the {"weights": [...]} exchange form."""
    return {"weights": _weights(d).tolist()}


def distribution_from_json(obj: dict) -> DiscreteDistribution:
    """Parse the {"weights": [...]} exchange form."""
    if not isinstance(obj, dict) or "weights" not in obj:
        raise InputFormatError('distribution JSON must be an object with "weights"')
    return DiscreteDistribution(_json_floats(obj["weights"], "bad weights"))


def load_distribution(path: str) -> DiscreteDistribution:
    """Read a distribution JSON file."""
    return distribution_from_json(_load_json(path)[0])

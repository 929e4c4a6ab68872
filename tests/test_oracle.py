"""S_f, V, chi-square and the window [r, R] against an oracle that shares
nothing with the joint-spectrum route: Petz's form S_f(Q, P) = <x, f(Delta) x>
with the relative modular operator Delta X = Q X P^-1 and x = P^(1/2).

On row-major vec, Delta is the d^2 x d^2 matrix Q kron (P^-1)^T and x =
vec(P^(1/2)).  One numpy.linalg.eigh of Delta, its eigenvalues delta_k
clipped at 0 and its eigenvectors e_k, gives every quantity:

    S_f   = sum_k |<e_k, x>|^2 f(delta_k),
    V     = sum_k |<e_k, x>|^2 |delta_k - 1|,
    chi^2 = sum_k |<e_k, x>|^2 (delta_k - 1)^2,

and r and R are Delta's extreme eigenvalues.  Delta's eigenvalues are the
ratios lambda_i / mu_j, and |<e_k, x>|^2 summed over an eigenspace is the
sum of the weights mu_j W_ij of its ratios, so the two routes agree up to
rounding.  The oracle takes f from f.fn alone, with f(0+) = f.value_at_zero
at a zero eigenvalue.

A rank-deficient Q gives Delta a zero eigenspace whose eigenvalues eigh
returns as rounding of order eps ||Delta||; the oracle sets those at most
ZERO_SNAP d^2 eps delta_max to 0.  Its terms at 0 are infinite for a
generator with f(0+) = +inf, which the library sums by the weight floor:
the values are compared only where quantum.SUM_FLAGS is empty, and an
infinite library value must be infinite in the oracle too.

Values are compared to 8 eps d R / r_+ relative to max(1, |value|), floored
at 1e-12, with r_+ the least positive eigenvalue of Delta (r itself for an
invertible Q): the rounding of a ratio spread over R / r_+.
"""

import math

import numpy as np
import pytest

from qfdiv.generators import conjugate, default_catalog
from qfdiv.harness import sample_pair
from qfdiv.quantum import chi_square, joint_spectrum, s_f_from_spectrum, variational_q

EPS = np.finfo(float).eps
ZERO_SNAP = 8.0
GENERATORS = (*default_catalog(), *map(conjugate, default_catalog()))


def oracle(q: np.ndarray, p: np.ndarray) -> tuple:
    """Delta's eigenvalues and the weights |<e_k, x>|^2 of the pair."""
    p_inv = np.linalg.inv(p)
    p_inv = (p_inv + p_inv.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(p)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    delta, e = np.linalg.eigh(np.kron(q, p_inv.T))
    delta = np.clip(delta, 0.0, None)
    delta[delta <= ZERO_SNAP * len(delta) * EPS * delta.max()] = 0.0
    return delta, np.abs(e.conj().T @ root.reshape(-1)) ** 2


def oracle_s_f(delta: np.ndarray, weight: np.ndarray, f) -> float:
    zero = delta == 0.0
    values = np.where(zero, f.value_at_zero, f.fn(np.where(zero, 1.0, delta)))
    with np.errstate(invalid="ignore"):  # an infinite f(0+) on a zero weight
        return float(np.sum(weight * values))


def low_rank(dim: int, rank: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pairs(kind: str, dim: int, count: int, seed: int) -> list:
    """count sampled pairs at floor 1e-3, Q replaced by one of rank dim - 1
    for kind "low-rank" (P from the ginibre sampler)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, p = sample_pair("ginibre" if kind == "low-rank" else kind, dim, 1e-3, rng)
        out.append((low_rank(dim, dim - 1, rng) if kind == "low-rank" else q.matrix, p.matrix))
    return out


def compare(q: np.ndarray, p: np.ndarray) -> list:
    """(name, library value, oracle value, tolerance) of each quantity of the
    pair compared; S_f of a generator where its sum carries a flag is
    checked here instead and left out."""
    delta, weight = oracle(q, p)
    d, js = len(q), joint_spectrum(q, p)
    tol = max(8.0 * EPS * d * delta.max() / delta[delta > 0.0].min(), 1e-12)
    out = [("r", js.r, delta.min(), tol), ("R", js.R, delta.max(), tol),
           ("V", variational_q(q, p), float(np.sum(weight * np.abs(delta - 1.0))), tol),
           ("chi2", chi_square(q, p), float(np.sum(weight * (delta - 1.0) ** 2)), tol)]
    for f in GENERATORS:
        value, want = s_f_from_spectrum(js, f), oracle_s_f(delta, weight, f)
        if value.flags:
            assert value.flags == ("infinite",) and not math.isfinite(want), f.spec
        else:
            out.append((f.spec, value.value, want, tol))
    return out


def assert_agree(cases) -> int:
    """Assert every comparison of the pairs holds; the number made."""
    made = 0
    for q, p in cases:
        for name, got, want, tol in compare(q, p):
            assert abs(got - want) <= tol * max(1.0, abs(want)), (name, got, want, tol)
            made += 1
    return made


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["ginibre", "mixture", "commuting"])
def test_invertible_pairs_agree(kind, dim):
    # 8 pairs, each with r, R, V, chi-square and S_f of all 24 generators.
    assert assert_agree(pairs(kind, dim, 8, 1000 * dim + len(kind))) == 8 * (4 + len(GENERATORS))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_rank_deficient_q_agrees(dim):
    cases = pairs("low-rank", dim, 4, 7000 + dim)
    assert all(joint_spectrum(q, p).r == 0.0 for q, p in cases)
    # The generators with f(0+) = +inf are flagged, the others compared.
    infinite = sum(math.isinf(f.value_at_zero) for f in GENERATORS)
    assert 0 < infinite < len(GENERATORS)
    assert assert_agree(cases) == 4 * (4 + len(GENERATORS) - infinite)

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

Three relations of the paper's objects are checked on the library alone, at
the same tolerance and on invertible pairs: unitary covariance (UQU*, UPU*)
has the r, R, V, chi-square and S_f of (Q, P) for a Haar U; the conjugate
swap S_f(Q, P) = S_f*(P, Q); and the tensor rule S_f(Q1 kron Q2, P1 kron P2)
= sum wt1 wt2 f(t1 t2) over the factors' joint spectra.  Unitary covariance
and the conjugate swap are checked on fixed seeds and, as hypothesis
properties, on pairs and unitaries drawn from a sampler, d and a seed that
hypothesis chooses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.generators import conjugate, default_catalog, parse_generator_spec
from qfdiv.harness import SAMPLER_KINDS, sample_pair
from qfdiv.quantum import chi_square, joint_spectrum, s_f_from_spectrum, variational_q

EPS = np.finfo(float).eps
ZERO_SNAP = 8.0
DIMS = (2, 3, 4, 5, 6, 7, 8)
# Non-default parameters: kinks, alpha = 0 and infinity, whole-grid sup Psi.
EXTRA_SPECS = ("chi-alpha:alpha=3", "chi-alpha:alpha=1.5", "dichotomy:alpha=3", "dichotomy:alpha=0",
               "matsushita:alpha=0.3", "puri-vincze:alpha=3", "arimoto:alpha=3", "arimoto:alpha=1",
               "arimoto:alpha=inf", "tsallis:q=0.2", "tsallis:q=0.8")
BASE = (*default_catalog(), *map(parse_generator_spec, EXTRA_SPECS))
GENERATORS = (*BASE, *map(conjugate, BASE))
CONJUGATES = tuple(map(conjugate, GENERATORS))


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


def tolerance(dim: int, r_plus: float, R: float) -> float:
    return max(8.0 * EPS * dim * R / r_plus, 1e-12)


def compare(q: np.ndarray, p: np.ndarray) -> list:
    """(name, library value, oracle value, tolerance) of each quantity of the
    pair compared; S_f of a generator where its sum carries a flag is
    checked here instead and left out."""
    delta, weight = oracle(q, p)
    d, js = len(q), joint_spectrum(q, p)
    tol = tolerance(d, delta[delta > 0.0].min(), delta.max())
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


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_invertible_pairs_agree(kind, dim):
    # 8 pairs, each with r, R, V, chi-square and S_f of all 46 generators.
    assert assert_agree(pairs(kind, dim, 8, 1000 * dim + len(kind))) == 8 * (4 + len(GENERATORS))


@pytest.mark.parametrize("dim", DIMS)
def test_rank_deficient_q_agrees(dim):
    cases = pairs("low-rank", dim, 4, 7000 + dim)
    assert all(joint_spectrum(q, p).r == 0.0 for q, p in cases)
    # The generators with f(0+) = +inf are flagged, the others compared.
    infinite = sum(math.isinf(f.value_at_zero) for f in GENERATORS)
    assert 0 < infinite < len(GENERATORS)
    assert assert_agree(cases) == 4 * (4 + len(GENERATORS) - infinite)


def library(q: np.ndarray, p: np.ndarray, generators=GENERATORS) -> tuple:
    """The tolerance of an invertible pair, and its r, R, V, chi-square and
    S_f of each generator as one array."""
    js = joint_spectrum(q, p)
    values = [s_f_from_spectrum(js, f) for f in generators]
    assert not any(v.flags for v in values)
    return (tolerance(js.dim, js.r, js.R),
            np.array([js.r, js.R, js.variational(), chi_square(q, p), *(v.value for v in values)]))


def assert_close(got: np.ndarray, want: np.ndarray, tol: float) -> None:
    bad = np.flatnonzero(np.abs(got - want) > tol * np.maximum(1.0, np.abs(want)))
    assert bad.size == 0, [(k, got[k], want[k], tol) for k in bad]


def haar(dim: int, rng) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Ginibre matrix, R's diagonal
    phases moved into Q."""
    u, t = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return u * (np.diag(t) / np.abs(np.diag(t)))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_unitary_covariance_and_conjugate_swap(kind, dim):
    rng = np.random.default_rng(8000 + 10 * dim + len(kind))
    for q, p in pairs(kind, dim, 6, 9000 + 10 * dim + len(kind)):
        tol, want = library(q, p)
        u = haar(dim, rng)
        assert_close(library(u @ q @ u.conj().T, u @ p @ u.conj().T)[1], want, tol)
        assert_close(library(p, q, CONJUGATES)[1][4:], want[4:], tol)


# A sampled invertible pair and a Haar unitary of its d, from one seed.
DRAWS = st.tuples(st.sampled_from(SAMPLER_KINDS), st.integers(2, 8), st.integers(0, 2**64 - 1))


def drawn(kind: str, dim: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    q, p = sample_pair(kind, dim, 1e-3, rng)
    return q.matrix, p.matrix, haar(dim, rng)


@settings(max_examples=25, deadline=None)
@given(DRAWS)
def test_property_unitary_covariance(draw):
    q, p, u = drawn(*draw)
    tol, want = library(q, p)
    assert_close(library(u @ q @ u.conj().T, u @ p @ u.conj().T)[1], want, tol)


@settings(max_examples=25, deadline=None)
@given(DRAWS)
def test_property_conjugate_swap(draw):
    q, p, _ = drawn(*draw)
    tol, want = library(q, p)
    assert_close(library(p, q, CONJUGATES)[1][4:], want[4:], tol)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_tensor_rule(kind, dim):
    second = pairs(kind, 3, 4, 11000 + len(kind))
    for (q1, p1), (q2, p2) in zip(pairs(kind, dim, 4, 12000 + 10 * dim + len(kind)), second):
        one, two = joint_spectrum(q1, p1), joint_spectrum(q2, p2)
        wt, ratio = np.multiply.outer(one.wt, two.wt), np.multiply.outer(one.ratio, two.ratio)
        tol, got = library(np.kron(q1, q2), np.kron(p1, p2))
        assert_close(got[4:], np.array([np.sum(wt * f.fn(ratio)) for f in GENERATORS]), tol)

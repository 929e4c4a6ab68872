"""Joint spectral representation and the quantum divergence values."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.classical import i_f
from qfdiv.errors import InputFormatError, PreconditionError
from qfdiv.generators import DEFAULT_SPECS, default_catalog, kl_quantum, neg_log, parse_generator_spec
from qfdiv.quantum import (
    DensityMatrix,
    JointSpectrum,
    as_density,
    chi_square,
    densities,
    hellinger_sq,
    joint_spectrum,
    s_f,
    s_f_from_spectrum,
    sandwich_check,
    trace_distance,
    tsallis,
    umegaki,
    variational_q,
    weighted_sums,
)

INF = math.inf

EXAMPLE_A_Q = np.diag([0.75, 0.25]).astype(complex)
EXAMPLE_A_P = np.diag([0.5, 0.5]).astype(complex)
EXAMPLE_B_Q = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
EXAMPLE_B_P = np.diag([0.7, 0.3]).astype(complex)


def haar_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim, rng, floor=1e-3):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (rho + floor * np.eye(dim) / dim) / (1.0 + floor)
    return (rho + rho.conj().T) / 2.0


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        d = DensityMatrix(EXAMPLE_A_Q)
        assert d.dim == 2
        assert d.min_eigenvalue == pytest.approx(0.25)

    def test_rejects_wrong_trace(self):
        with pytest.raises(PreconditionError):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(PreconditionError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_clamps_tiny_negative(self):
        d = DensityMatrix(np.diag([1.0 + 5e-13, -5e-13]))
        assert d.eigenvalues[0] == 0.0

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(PreconditionError):
            DensityMatrix(m)

    def test_as_density_idempotent(self):
        d = as_density(EXAMPLE_A_Q)
        assert as_density(d) is d


class TestDensityStack:
    def test_matches_one_density_matrix_per_matrix(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_density(3, rng, floor) for floor in (0.0, 1e-3, 1e-2)]
                         + [np.diag([1.0 + 5e-13, -5e-13, 0.0])])
        for block, one in zip(densities(stack), map(DensityMatrix, stack)):
            assert np.array_equal(block.matrix, one.matrix)
            assert np.array_equal(block.eigenvalues, one.eigenvalues)
            assert np.array_equal(block.dec.eigenvectors, one.dec.eigenvectors)

    @pytest.mark.parametrize("order, message", [
        ((0, 1, 2, 3), "positive semidefinite"),
        ((0, 2, 1, 3), "not Hermitian"),
        ((3, 1, 2, 0), "unit trace"),
    ])
    def test_first_failing_matrix_raises(self, order, message):
        # valid, not PSD, not Hermitian, wrong trace: whichever comes first
        # in the stack raises, with DensityMatrix's own message.
        mats = [EXAMPLE_A_Q, np.diag([1.5, -0.5]).astype(complex),
                np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
                np.diag([0.5, 0.6]).astype(complex)]
        with pytest.raises(PreconditionError, match=message) as block_err:
            densities(np.stack([mats[i] for i in order]))
        first = next(i for i in order if i != 0)
        with pytest.raises(PreconditionError) as one_err:
            DensityMatrix(mats[first])
        assert str(block_err.value) == str(one_err.value)


class TestJointSpectrum:
    def test_example_a(self):
        js = joint_spectrum(EXAMPLE_A_Q, EXAMPLE_A_P)
        assert np.allclose(js.lam, [0.75, 0.25], atol=1e-14)
        assert np.allclose(js.mu, [0.5, 0.5], atol=1e-14)
        # P is maximally mixed, so the overlap is some permutation matrix;
        # every choice yields the same divergence because mu is constant.
        assert np.allclose(js.w @ js.w.T, np.eye(2), atol=1e-12)
        assert js.r == pytest.approx(0.5, abs=1e-14)
        assert js.R == pytest.approx(1.5, abs=1e-14)

    def test_identical_diagonal_pair_overlap_is_identity(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        js = joint_spectrum(rho, rho)
        assert np.allclose(js.w, np.eye(2), atol=1e-12)
        assert js.R == pytest.approx(7.0 / 3.0, abs=1e-14)

    def test_example_b(self):
        js = joint_spectrum(EXAMPLE_B_Q, EXAMPLE_B_P)
        assert np.allclose(js.lam, [0.75, 0.25], atol=1e-12)
        assert np.allclose(js.mu, [0.7, 0.3], atol=1e-14)
        assert np.allclose(js.w, 0.5 * np.ones((2, 2)), atol=1e-12)
        assert js.r == pytest.approx(5.0 / 14.0, abs=1e-12)
        assert js.R == pytest.approx(2.5, abs=1e-12)

    def test_doubly_stochastic_overlap(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            js = joint_spectrum(random_density(dim, rng), random_density(dim, rng))
            assert np.abs(js.w.sum(axis=0) - 1.0).max() <= 1e-10
            assert np.abs(js.w.sum(axis=1) - 1.0).max() <= 1e-10

    def test_window_brackets_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            js = joint_spectrum(random_density(dim, rng), random_density(dim, rng))
            assert js.r <= 1.0 <= js.R
            assert js.r == pytest.approx(js.lam[-1] / js.mu[0], abs=1e-15)
            assert js.R == pytest.approx(js.lam[0] / js.mu[-1], abs=1e-12)

    def test_eigenvalues_descending(self):
        js = joint_spectrum(EXAMPLE_B_Q, EXAMPLE_B_P)
        assert np.all(np.diff(js.lam) <= 0)
        assert np.all(np.diff(js.mu) <= 0)

    def test_singular_p_rejected(self):
        with pytest.raises(PreconditionError):
            joint_spectrum(EXAMPLE_A_Q, np.diag([1.0, 0.0]))

    def test_dimension_mismatch_is_precondition(self):
        with pytest.raises(PreconditionError):
            joint_spectrum(EXAMPLE_A_Q, np.diag([0.25, 0.25, 0.5]))

    def test_bad_eps_rejected(self):
        with pytest.raises(InputFormatError):
            joint_spectrum(EXAMPLE_A_Q, EXAMPLE_A_P, eps=0.0)

    def test_weights_and_ratios_shapes(self):
        js = joint_spectrum(EXAMPLE_B_Q, EXAMPLE_B_P)
        assert js.weights().shape == (2, 2)
        assert js.ratios().shape == (2, 2)
        assert js.weights().sum() == pytest.approx(1.0, abs=1e-12)

    def test_keeps_the_stochasticity_defect(self):
        rng = np.random.default_rng(13)
        js = joint_spectrum(random_density(5, rng), random_density(5, rng))
        rows = np.abs(js.w.sum(axis=1) - 1.0).max()
        cols = np.abs(js.w.sum(axis=0) - 1.0).max()
        assert js.defect == (rows, cols)
        assert max(js.defect) <= 1e-10
        # A spectrum built by hand computes it too; it takes no part in equality.
        by_hand = JointSpectrum(lam=js.lam, mu=js.mu, w=js.w, r=js.r, R=js.R,
                                q_vectors=js.q_vectors, p_vectors=js.p_vectors)
        assert by_hand.defect == js.defect
        assert by_hand == dataclasses.replace(by_hand, defect=(1.0, 1.0))


class TestSFCommutingOracle:
    """Commuting pairs reduce to the classical divergence of the spectra."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_matches_classical(self, dim):
        rng = np.random.default_rng(dim + 100)
        cat = default_catalog()
        for _ in range(5):
            u = haar_unitary(dim, rng)
            a = 0.5 * rng.dirichlet(np.ones(dim)) + 0.5 / dim
            b = 0.5 * rng.dirichlet(np.ones(dim)) + 0.5 / dim
            q = (u * a) @ u.conj().T
            p = (u * b) @ u.conj().T
            for f in cat:
                quantum = s_f(q, p, f).value
                classical = i_f(a, b, f)
                assert quantum == pytest.approx(classical, abs=5e-13)

    def test_diagonal_pair_matches_exactly(self):
        val = s_f(EXAMPLE_A_Q, EXAMPLE_A_P, kl_quantum()).value
        assert val == pytest.approx(i_f([0.75, 0.25], [0.5, 0.5], kl_quantum()), abs=1e-15)


class TestEpsInvertFloor:
    def test_clamped_reference_state_stays_singular(self):
        # Thermal P at beta*omega = 1, N = 32: its smallest eigenvalue
        # 2.18e-14 lies below ZERO_EIGENVALUE_TOL * ||P||_F = 6.8e-14, so it
        # is clamped to 0 and even eps = 1e-300 finds P singular.
        from qfdiv.hermitian import ZERO_EIGENVALUE_TOL

        weights = np.exp(-np.arange(32.0))
        p = np.diag(weights / weights.sum())
        assert 0.0 < p[-1, -1] < ZERO_EIGENVALUE_TOL * np.linalg.norm(p)
        assert as_density(p).min_eigenvalue == 0.0
        q = np.diag(np.exp(-2.0 * np.arange(32.0)) / np.exp(-2.0 * np.arange(32.0)).sum())
        with pytest.raises(PreconditionError,
                           match=r"singular at tolerance 1e-300: min eigenvalue 0\.000e\+00"):
            s_f(q, p, kl_quantum(), eps=1e-300)


class TestSFBlock:
    def test_block_matches_one_call_per_spectrum(self):
        # Full-rank pairs take the stacked sum; a singular Q (zero ratios)
        # takes the single-spectrum path.
        rng = np.random.default_rng(7)
        spectra = [joint_spectrum(random_density(4, rng), random_density(4, rng)) for _ in range(5)]
        spectra.insert(2, joint_spectrum(np.diag([0.7, 0.3, 0.0, 0.0]), np.eye(4) / 4.0))
        for f in default_catalog():
            block = s_f_from_spectrum(spectra, f)
            single = [s_f_from_spectrum(js, f) for js in spectra]
            assert [(repr(v.value), v.flags) for v in block] == [
                (repr(v.value), v.flags) for v in single], f.spec


    def test_multi_term_weighted_sums_match_one_term_calls(self):
        # A zero ratio (singular Q) leaves a member's sums unheld, an
        # infinite value (the last term's, above t = 1) that term's sums.
        # At d = 16 the 40 terms run in several stacked chunks.
        rng = np.random.default_rng(11)
        for dim in (3, 16):
            spectra = [joint_spectrum(random_density(dim, rng), random_density(dim, rng))
                       for _ in range(4)]
            spectra.insert(1, joint_spectrum(np.diag([1.0] + [0.0] * (dim - 1)), np.eye(dim) / dim))
            ratio, wt = (np.stack([getattr(js, x) for js in spectra]) for x in ("ratio", "wt"))
            terms = [f.fn for f in default_catalog()] * 3 + [lambda t: np.where(t > 1.0, INF, t)] * 4
            sums, held = weighted_sums(ratio, wt, terms)
            assert sums.shape == held.shape == (len(terms), len(spectra))
            for i, term in enumerate(terms):
                one_sums, one_held = weighted_sums(ratio, wt, [term])
                assert [repr(v) for v in sums[i]] == [repr(v) for v in one_sums[0]]
                assert held[i].tolist() == one_held[0].tolist()
            assert not held[:, 1].any() and not held[-1].any()


class TestSFInvariances:
    def test_vanishes_on_equal_states(self):
        rng = np.random.default_rng(13)
        rho = random_density(4, rng)
        for spec in DEFAULT_SPECS:
            f = parse_generator_spec(spec)
            assert s_f(rho, rho, f).value == pytest.approx(0.0, abs=1e-11)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(14)
        q = random_density(3, rng)
        p = random_density(3, rng)
        u = haar_unitary(3, rng)
        f = parse_generator_spec("arimoto:alpha=2")
        base = s_f(q, p, f).value
        rotated = s_f(u @ q @ u.conj().T, u @ p @ u.conj().T, f).value
        assert rotated == pytest.approx(base, rel=1e-10, abs=1e-12)

    def test_infinite_dispatch_flags(self):
        q = np.diag([1.0, 0.0])
        p = np.diag([0.5, 0.5])
        dv = s_f(q, p, neg_log())
        assert dv.value == INF
        assert "infinite" in dv.flags

    def test_zero_eigenvalue_finite_for_kl(self):
        # f(0) = 0 for t ln t keeps the value finite when Q is singular.
        q = np.diag([1.0, 0.0])
        p = np.diag([0.5, 0.5])
        dv = s_f(q, p, kl_quantum())
        assert dv.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_float_conversion(self):
        dv = s_f(EXAMPLE_A_Q, EXAMPLE_A_P, kl_quantum())
        assert float(dv) == dv.value

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(DEFAULT_SPECS))
    def test_property_nonnegative(self, seed, spec):
        rng = np.random.default_rng(seed)
        q = random_density(3, rng)
        p = random_density(3, rng)
        val = s_f(q, p, parse_generator_spec(spec)).value
        assert val == INF or val >= -1e-10


class TestClosedForms:
    def test_example_b_frozen_values(self):
        assert umegaki(EXAMPLE_B_Q, EXAMPLE_B_P) == pytest.approx(0.21798872951352588, abs=1e-13)
        assert chi_square(EXAMPLE_B_Q, EXAMPLE_B_P) == pytest.approx(0.48809523809523814, abs=1e-12)

    def test_example_a_frozen_values(self):
        assert umegaki(EXAMPLE_A_Q, EXAMPLE_A_P) == pytest.approx(0.13081203594113697, abs=1e-13)
        assert chi_square(EXAMPLE_A_Q, EXAMPLE_A_P) == pytest.approx(0.25, abs=1e-13)

    @pytest.mark.parametrize("spec,closed", [
        ("kl-quantum", lambda q, p: umegaki(q, p)),
        ("chi2", lambda q, p: chi_square(q, p)),
        ("tsallis:q=0.25", lambda q, p: tsallis(q, p, 0.25)),
        ("tsallis:q=0.5", lambda q, p: tsallis(q, p, 0.5)),
        ("tsallis:q=0.75", lambda q, p: tsallis(q, p, 0.75)),
        ("hellinger", lambda q, p: hellinger_sq(q, p)),
    ])
    def test_spectral_route_matches_closed_form(self, spec, closed):
        rng = np.random.default_rng(hash(spec) % 2**31)
        f = parse_generator_spec(spec)
        for _ in range(5):
            dim = int(rng.integers(2, 6))
            q = random_density(dim, rng)
            p = random_density(dim, rng)
            spectral = s_f(q, p, f).value
            direct = closed(q, p)
            assert spectral == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_tsallis_parameter_range(self):
        with pytest.raises(InputFormatError):
            tsallis(EXAMPLE_A_Q, EXAMPLE_A_P, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            umegaki(EXAMPLE_A_Q, np.eye(3) / 3.0)


class TestVariationalAndTrace:
    def test_example_b_variational(self):
        assert variational_q(EXAMPLE_B_Q, EXAMPLE_B_P) == pytest.approx(0.5, abs=1e-12)

    def test_example_b_trace_distance(self):
        assert trace_distance(EXAMPLE_B_Q, EXAMPLE_B_P) == pytest.approx(
            0.6403124237432849, abs=1e-12)

    def test_variational_differs_from_trace_distance(self):
        # The two quantities are genuinely different on Example B.
        v = variational_q(EXAMPLE_B_Q, EXAMPLE_B_P)
        t = trace_distance(EXAMPLE_B_Q, EXAMPLE_B_P)
        assert abs(v - t) > 0.1

    def test_commuting_pair_variational_equals_trace_distance(self):
        # On commuting pairs both reduce to the same eigenvalue sum.
        v = variational_q(EXAMPLE_A_Q, EXAMPLE_A_P)
        t = trace_distance(EXAMPLE_A_Q, EXAMPLE_A_P)
        assert v == pytest.approx(t, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        q = random_density(3, rng)
        p = random_density(3, rng)
        assert variational_q(q, p) == pytest.approx(variational_q(p, q), abs=1e-11)
        assert trace_distance(q, p) == pytest.approx(trace_distance(p, q), abs=1e-12)


class TestSandwich:
    def test_example_b_passes(self):
        rep = sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=50, seed=0)
        assert rep.ok

    def test_random_pairs_pass(self):
        rng = np.random.default_rng(16)
        for k in range(5):
            dim = int(rng.integers(2, 6))
            q = random_density(dim, rng)
            p = random_density(dim, rng)
            rep = sandwich_check(q, p, trials=40, seed=k)
            assert rep.ok

    def test_attainment_terms_are_small(self):
        rep = sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=10, seed=1)
        terms = dict(rep.terms)
        assert terms["r-attainment-gap"] <= 1e-8
        assert terms["R-attainment-gap"] <= 1e-8

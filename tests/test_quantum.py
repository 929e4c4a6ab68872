"""Joint spectral representation and the quantum divergence values."""

import dataclasses
import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.classical import i_f
from qfdiv.errors import InputFormatError, PreconditionError
from qfdiv.generators import (
    DEFAULT_SPECS,
    chi2,
    default_catalog,
    kl_quantum,
    neg_log,
    parse_generator_spec,
)
from qfdiv.harness import certify, check_derivative_gap
from qfdiv.quantum import (
    SUM_FLAGS,
    WEIGHT_FLOOR,
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
        sym, dec = densities(stack)
        assert len(sym) == len(dec.eigenvalues) == len(dec.eigenvectors) == len(stack)
        for k, one in enumerate(map(DensityMatrix, stack)):
            assert np.array_equal(sym[k], one.matrix)
            assert np.array_equal(dec.eigenvalues[k], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[k], one.dec.eigenvectors)

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

    def test_stores_the_threshold_as_the_float_it_checked(self):
        js = joint_spectrum(EXAMPLE_A_Q, EXAMPLE_A_P, np.float32(1e-3))
        assert type(js.eps) is float and js.eps == float(np.float32(1e-3))
        assert joint_spectrum(EXAMPLE_A_Q, EXAMPLE_A_P, fractions.Fraction(1, 1000)).eps == 1e-3

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
        # So are its weights and ratios, bit for bit, and read-only alike.
        for name in ("wt", "ratio"):
            mine, theirs = getattr(by_hand, name), getattr(js, name)
            assert mine.tobytes() == theirs.tobytes() and mine.shape == theirs.shape
            assert not mine.flags.writeable and not theirs.flags.writeable


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


def reference_s_f(ratio, wt, term, at_zero):
    """The spectral sum sum_ij wt_ij term(ratio_ij) of one pair and its flags,
    entry by entry as the per-pair path formed it: a zero ratio takes
    at_zero; an infinite value with weight above WEIGHT_FLOOR makes the sum
    +inf, and below it the finite values are summed on their own."""
    pos = ratio > 0.0
    vals = np.full_like(ratio, at_zero)
    if pos.any():
        vals[pos] = term(ratio[pos])
    infinite = np.isinf(vals)
    if not infinite.any():
        return float((wt * vals).sum()), ()
    if (infinite & (wt > WEIGHT_FLOOR)).any():
        return INF, ("infinite",)
    finite = ~infinite
    return float(np.sum(wt[finite] * vals[finite])), ("zero-mass-infinite-terms",)


def slope_term(f):
    """The derivative-gap sum's (term, value at 0): (t - 1) f'_+(t), -f'(0+)."""
    return (lambda t: (t - 1.0) * f.deriv_right_fn(t)), -f.deriv_at_zero


def at_positive(ratio, terms):
    """weighted_sums' terms from (term, value at 0) pairs: each term's
    values over the whole stack, term at the positive ratios and the value
    at 0 at the zero ones."""
    pos, out = ratio > 0.0, []
    for term, at_zero in terms:
        vals = np.full(ratio.shape, at_zero, dtype=np.float64)
        vals[pos] = term(ratio[pos])
        out.append(vals)
    return out


def _bits(x):
    return float.hex(float(x))


def reference_pairs():
    """(name, Q, P): full rank at d = 2, 4 and 16, the commuting singular Q
    diag(1, 0), and rank-deficient Q not commuting with P at d = 3 and 8."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    rank3 = g @ g.conj().T
    rank2 = 0.3 * np.outer([1, 1, 0], [1, 1, 0]) + 0.4 / 3.0 * np.outer([1, -1, 1], [1, -1, 1])
    return [
        *((f"full-d{d}", random_density(d, rng), random_density(d, rng)) for d in (2, 4, 16)),
        ("commuting-singular", np.diag([1.0, 0.0]), np.diag([0.7, 0.3])),
        ("rank2-d3", rank2, np.diag([0.5, 0.3, 0.2])),
        ("rank3-d8", rank3 / np.trace(rank3).real, random_density(8, rng)),
    ]


class TestSpectralSumReference:
    """weighted_sums is the one spectral sum: S_f, certify's values and flags
    and the derivative-gap sums equal reference_s_f bit for bit."""

    def test_catalog_matches_reference(self):
        seen = set()
        for name, q, p in reference_pairs():
            js = joint_spectrum(q, p)
            results = certify(q, p, default_catalog())
            for f, (dv, reports) in zip(default_catalog(), results):
                value, flags = reference_s_f(js.ratio, js.wt, f.fn, f.value_at_zero)
                one = s_f_from_spectrum(js, f)
                assert (_bits(one.value), one.flags) == (_bits(value), flags), (name, f.spec)
                assert (_bits(dv.value), dv.flags) == (_bits(value), flags), (name, f.spec)
                seen.add(flags)
                gap = reports[1]
                assert gap.check == "derivative-gap"
                if f.smooth:
                    want, _ = reference_s_f(js.ratio, js.wt, *slope_term(f))
                    assert _bits(dict(gap.chain)["slope-weighted-gap"]) == _bits(want), (name, f.spec)
        # Each zero-ratio row of W sums to 1, so no catalog S_f has zero mass.
        assert seen == {(), ("infinite",)}

    def test_synthetic_infinite_terms(self):
        # Member k's last ratio carries an infinite value with weight above,
        # at and below WEIGHT_FLOOR; members 3 and 4 put it at a zero ratio
        # (the value at 0), one with weight and one without.
        ratio = np.tile(np.array([0.5, 1.0, 2.0, 3.0]), (5, 1))
        wt = np.tile(np.array([0.1, 0.2, 0.3, 0.4]), (5, 1))
        wt[:, -1] = [1e-3, WEIGHT_FLOOR, 1e-16, 0.5, 0.0]
        ratio[3:, -1] = 0.0
        terms = [(lambda t: np.where(t > 2.5, INF, t * t), INF),
                 (lambda t: np.where(t > 2.5, -INF, -t), -INF),
                 (lambda t: t, INF),
                 (lambda t: t, 0.0)]
        block = ratio.reshape(5, 2, 2)
        sums, codes = weighted_sums(wt.reshape(5, 2, 2), at_positive(block, terms))
        assert sums.shape == codes.shape == (len(terms), 5)
        for i, (term, at_zero) in enumerate(terms):
            for k in range(5):
                value, flags = reference_s_f(ratio[k].reshape(2, 2), wt[k].reshape(2, 2), term, at_zero)
                assert (_bits(sums[i, k]), SUM_FLAGS[codes[i, k]]) == (_bits(value), flags), (i, k)
        assert codes[:2].tolist() == [[1, 2, 2, 1, 2]] * 2
        assert codes[2].tolist() == [0, 0, 0, 1, 2] and not codes[3].any()
        assert sums[1, 0] == INF

    def test_derivative_gap_follows_the_s_f_rule(self):
        # Where the per-pair slope sum differed: a NaN f' with weight gave
        # +inf and now propagates; an overflowing (t - 1) f'(t) was dropped
        # whatever its weight and now makes the sum +inf (the link vacuous).
        q, p = EXAMPLE_B_Q, EXAMPLE_B_P
        nan_slope = dataclasses.replace(
            chi2(), deriv_right_fn=lambda t: np.where(t > 1.0, math.nan, 2.0 * t))
        huge_slope = dataclasses.replace(
            chi2(), deriv_right_fn=lambda t: np.where(t > 1.0, 1.5e308, 2.0 * t))
        rep = check_derivative_gap(q, p, nan_slope)
        assert math.isnan(dict(rep.chain)["slope-weighted-gap"]) and rep.status == "fail"
        with np.errstate(over="ignore"):
            rep = check_derivative_gap(q, p, huge_slope)
        assert dict(rep.chain)["slope-weighted-gap"] == INF and rep.status == "vacuous-pass"


class TestSFBlock:
    def test_block_matches_one_call_per_spectrum(self):
        # Full-rank pairs, a commuting singular Q and a non-commuting
        # rank-deficient Q (zero ratios) in one stacked sum.
        rng = np.random.default_rng(7)
        spectra = [joint_spectrum(random_density(4, rng), random_density(4, rng)) for _ in range(5)]
        spectra.insert(2, joint_spectrum(np.diag([0.7, 0.3, 0.0, 0.0]), np.eye(4) / 4.0))
        g = rng.standard_normal((4, 2))
        spectra.insert(4, joint_spectrum(g @ g.T / np.trace(g @ g.T), random_density(4, rng)))
        ratio, wt = (np.stack([getattr(js, x) for js in spectra]) for x in ("ratio", "wt"))
        for f in default_catalog():
            sums, codes = weighted_sums(wt, at_positive(ratio, [(f.fn, f.value_at_zero)]))
            single = [s_f_from_spectrum(js, f) for js in spectra]
            assert [(_bits(v), SUM_FLAGS[c]) for v, c in zip(sums[0], codes[0])] == [
                (_bits(v.value), v.flags) for v in single], f.spec

    def test_multi_term_weighted_sums_match_one_term_calls(self):
        # A zero ratio (singular Q) takes the value at 0, an infinite value
        # (the last term's, above t = 1) flags its sum.  At d = 16 the 40
        # terms run in several stacked chunks.
        rng = np.random.default_rng(11)
        for dim in (3, 16):
            spectra = [joint_spectrum(random_density(dim, rng), random_density(dim, rng))
                       for _ in range(4)]
            spectra.insert(1, joint_spectrum(np.diag([1.0] + [0.0] * (dim - 1)), np.eye(dim) / dim))
            ratio, wt = (np.stack([getattr(js, x) for js in spectra]) for x in ("ratio", "wt"))
            terms = [(f.fn, f.value_at_zero) for f in default_catalog()] * 3 + [
                (lambda t: np.where(t > 1.0, INF, t), 0.0)] * 4
            sums, codes = weighted_sums(wt, at_positive(ratio, terms))
            assert sums.shape == codes.shape == (len(terms), len(spectra))
            for i, term in enumerate(terms):
                one_sums, one_codes = weighted_sums(wt, at_positive(ratio, [term]))
                assert [_bits(v) for v in sums[i]] == [_bits(v) for v in one_sums[0]]
                assert codes[i].tolist() == one_codes[0].tolist()
            assert codes[:, 1].any() and codes[-1].all()


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

    @pytest.mark.parametrize("q", ["0.5", True, None, b"0.5"])
    def test_tsallis_parameter_must_be_a_real_number(self, q):
        with pytest.raises(InputFormatError, match="tsallis parameter must be a real number"):
            tsallis(EXAMPLE_A_Q, EXAMPLE_A_P, q)

    def test_tsallis_takes_numpy_numbers(self):
        want = tsallis(EXAMPLE_A_Q, EXAMPLE_A_P, 0.5)
        assert tsallis(EXAMPLE_A_Q, EXAMPLE_A_P, np.float32(0.5)) == want
        assert tsallis(EXAMPLE_A_Q, EXAMPLE_A_P, np.float64(0.5)) == want

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            umegaki(EXAMPLE_A_Q, np.eye(3) / 3.0)

    @pytest.mark.parametrize("closed", [umegaki, lambda q, p: tsallis(q, p, 0.5), hellinger_sq, chi_square],
                             ids=["umegaki", "tsallis", "hellinger_sq", "chi_square"])
    def test_singular_reference_state_rejected(self, closed):
        with pytest.raises(PreconditionError, match="reference state is singular"):
            closed(EXAMPLE_A_Q, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("eps", ["1e-12", True, None])
    def test_eps_must_be_a_real_number(self, eps):
        # eps="1e-12" once raised a bare TypeError.
        with pytest.raises(InputFormatError, match="invertibility threshold must be a real number"):
            joint_spectrum(EXAMPLE_A_Q, EXAMPLE_A_P, eps)


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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trials="3"), "trials must be a whole number"),
        (dict(trials=2.9), "trials must be a whole number"),
        (dict(trials=True), "trials must be a whole number"),
        (dict(trials=-4), "trials must be >= 0"),
        (dict(seed=True), "seed must be a whole number"),
        (dict(seed="7"), "seed must be a whole number"),
    ], ids=range(6))
    def test_takes_whole_counts(self, kwargs, message):
        # trials="3" and seed=True once ran through int(), trials=-4 made no
        # probe and trials=2.9 made 2.
        with pytest.raises(InputFormatError, match=message):
            sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, **kwargs)
        assert sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=3.0, seed=np.int64(1)).terms == \
            sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=3, seed=1).terms

    @pytest.mark.parametrize("seed, same_draws", [(2**128, 0), (2**64 + 7, 7), (-1, 2**64 - 1)])
    def test_seeds_are_taken_mod_2_64(self, seed, same_draws):
        # seed=2**128 once raised numpy's bare ValueError on the Philox key,
        # and seed=-1, which fuzz takes as 2**64 - 1, was refused.
        assert sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=5, seed=seed) == \
            sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=5, seed=same_draws)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**64 - 1])
    def test_seeds_below_2_64_keep_their_stream(self, seed):
        from qfdiv.hermitian import _philox_key
        keyed = np.random.Philox(key=_philox_key(seed, 0)).random_raw(8)
        assert np.array_equal(keyed, np.random.Philox(key=seed).random_raw(8))

    def test_attainment_terms_are_small(self):
        rep = sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=10, seed=1)
        terms = dict(rep.terms)
        assert terms["r-attainment-gap"] <= 1e-8
        assert terms["R-attainment-gap"] <= 1e-8

"""Generator catalog: values, limits, derivatives, and window bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.errors import InputFormatError, PreconditionError
from qfdiv.generators import (
    DEFAULT_SPECS,
    Generator,
    arimoto,
    chi2,
    chi_alpha,
    conjugate,
    default_catalog,
    dichotomy,
    from_callable,
    hellinger,
    inv_minus_one,
    jensen_gap_bound,
    kl_quantum,
    matsushita,
    neg_log,
    parse_generator_spec,
    psi,
    psi_sup,
    psi_sups,
    puri_vincze,
    secant_bound,
    shift,
    tsallis,
    tv,
)
from qfdiv.harness import check_thm4

INF = math.inf

# Probe grid for convexity / derivative-monotonicity invariants.  The
# exponent step divides 1 exactly, so t = 1 (where the kinks live) is a
# grid point.
PROBE_GRID = np.geomspace(1e-6, 1e3, 181)


class TestCatalog:
    def test_default_catalog_size_and_specs(self):
        cat = default_catalog()
        assert len(cat) == 12
        assert tuple(g.spec for g in cat) == DEFAULT_SPECS

    def test_get_by_spec(self):
        cat = default_catalog()
        assert cat.get("kl-quantum").name == "kl-quantum"

    def test_all_normalized(self):
        for g in default_catalog():
            assert g(1.0) == pytest.approx(0.0, abs=1e-14)
            assert g.normalized

    def test_parse_alias_and_case(self):
        assert parse_generator_spec("kl").name == "kl-quantum"
        assert parse_generator_spec("CHI_ALPHA:ALPHA=2").spec == "chi-alpha:alpha=2"

    def test_parse_inf_parameter(self):
        g = parse_generator_spec("arimoto:alpha=inf")
        assert g(3.0) == pytest.approx(1.0, abs=1e-14)

    def test_parse_unknown_name(self):
        with pytest.raises(InputFormatError):
            parse_generator_spec("nosuch")

    def test_parse_bad_param(self):
        with pytest.raises(InputFormatError):
            parse_generator_spec("chi-alpha:alpha=0.5")

    def test_parse_unknown_param(self):
        with pytest.raises(InputFormatError):
            parse_generator_spec("kl-quantum:alpha=2")


class TestFrozenValues:
    """Closed-form values frozen from independent evaluation."""

    CASES = [
        (chi_alpha(2.0), 3.0, 4.0),
        (chi_alpha(1.0), 3.0, 2.0),
        (dichotomy(0.0), 2.0, 0.30685281944005469),
        (dichotomy(1.0), 2.0, 0.38629436111989062),
        (dichotomy(0.5), 2.0, 0.34314575050761980),
        (matsushita(0.5), 4.0, 1.0),
        (puri_vincze(2.0), 3.0, 1.0),
        (arimoto(2.0), 4.0, 1.17514343936984586),
        (arimoto(math.inf), 4.0, 1.5),
        (kl_quantum(), math.e, math.e),
        (neg_log(), math.e, -1.0),
        (tv(), 3.0, 2.0),
        (chi2(), 3.0, 8.0),
        (tsallis(0.5), 4.0, -2.0),
        (hellinger(), 4.0, 0.5),
        (inv_minus_one(), 0.5, 1.0),
    ]

    @pytest.mark.parametrize("f,t,expect", CASES, ids=lambda c: getattr(c, "spec", repr(c)))
    def test_value(self, f, t, expect):
        assert f(t) == pytest.approx(expect, abs=1e-14, rel=1e-14)

    def test_zero_limits(self):
        assert kl_quantum().value_at_zero == 0.0
        assert kl_quantum().star_at_zero == INF
        assert neg_log().value_at_zero == INF
        assert neg_log().star_at_zero == 0.0
        assert chi2().value_at_zero == -1.0
        assert chi2().star_at_zero == INF
        assert tv().value_at_zero == 1.0
        assert tv().star_at_zero == 1.0
        assert chi_alpha(2.0).value_at_zero == 1.0
        assert chi_alpha(2.0).star_at_zero == INF
        assert chi_alpha(1.0).star_at_zero == 1.0
        assert hellinger().value_at_zero == 0.5
        assert hellinger().star_at_zero == 0.5
        assert tsallis(0.5).value_at_zero == pytest.approx(2.0, abs=1e-14)
        assert tsallis(0.5).star_at_zero == 0.0
        assert inv_minus_one().value_at_zero == INF
        assert inv_minus_one().star_at_zero == 0.0
        assert dichotomy(0.5).value_at_zero == pytest.approx(2.0, abs=1e-14)
        assert dichotomy(0.5).star_at_zero == pytest.approx(2.0, abs=1e-14)
        assert dichotomy(0.0).value_at_zero == INF
        assert dichotomy(1.0).value_at_zero == 1.0

    def test_arimoto_zero_limits_self_conjugate(self):
        for alpha in (0.5, 1.0, 2.0, 4.0, math.inf):
            g = arimoto(alpha)
            assert g.value_at_zero == pytest.approx(g.star_at_zero, abs=1e-14)

    def test_deriv_at_zero(self):
        assert chi_alpha(2.0).deriv_at_zero == -2.0
        assert tv().deriv_at_zero == -1.0
        assert chi2().deriv_at_zero == 0.0
        assert kl_quantum().deriv_at_zero == -INF
        assert neg_log().deriv_at_zero == -INF
        assert matsushita(1.0).deriv_at_zero == -1.0
        assert arimoto(math.inf).deriv_at_zero == -0.5

    def test_smoothness_flags(self):
        assert not tv().smooth
        assert not chi_alpha(1.0).smooth
        assert not matsushita(1.0).smooth
        assert not puri_vincze(1.0).smooth
        assert not arimoto(math.inf).smooth
        assert chi_alpha(2.0).smooth
        assert matsushita(0.5).smooth
        assert kl_quantum().smooth


class TestFamilyIdentities:
    def test_chi_alpha_one_is_tv(self):
        f, g = chi_alpha(1.0), tv()
        for t in PROBE_GRID:
            assert f(float(t)) == pytest.approx(g(float(t)), abs=1e-14)

    def test_dichotomy_half_is_scaled_hellinger(self):
        # alpha = 1/2 gives 2(sqrt(u) - 1)^2 = 4 * hellinger.
        f, h = dichotomy(0.5), hellinger()
        for t in PROBE_GRID:
            assert f(float(t)) == pytest.approx(4.0 * h(float(t)), rel=1e-12, abs=1e-13)

    def test_dichotomy_conjugate_swaps_alpha(self):
        f = dichotomy(0.3)
        g = dichotomy(0.7)
        fc = conjugate(f)
        for t in PROBE_GRID:
            assert fc(float(t)) == pytest.approx(g(float(t)), rel=1e-11, abs=1e-12)

    def test_dichotomy_zero_is_neg_log_plus_linear(self):
        # alpha = 0: u - 1 - ln u.
        f = dichotomy(0.0)
        for t in (0.25, 0.5, 2.0, 7.5):
            assert f(t) == pytest.approx(t - 1.0 - math.log(t), abs=1e-14)

    def test_dichotomy_one_is_reversed_kl(self):
        # alpha = 1: 1 - u + u ln u.
        f = dichotomy(1.0)
        for t in (0.25, 0.5, 2.0, 7.5):
            assert f(t) == pytest.approx(1.0 - t + t * math.log(t), abs=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: matsushita(0.5), lambda: puri_vincze(2.0), lambda: arimoto(2.0),
        lambda: arimoto(math.inf), lambda: hellinger(), lambda: tv(),
    ])
    def test_self_conjugate_families(self, make):
        f = make()
        fc = conjugate(f)
        for t in PROBE_GRID:
            assert fc(float(t)) == pytest.approx(f(float(t)), rel=1e-11, abs=1e-12)

    def test_kl_conjugate_is_neg_log_route(self):
        # (t ln t)* = t * (1/t) ln(1/t) = -ln t.
        fc = conjugate(kl_quantum())
        g = neg_log()
        for t in PROBE_GRID:
            assert fc(float(t)) == pytest.approx(g(float(t)), rel=1e-12, abs=1e-13)

    def test_double_conjugate_returns(self):
        for spec in DEFAULT_SPECS:
            f = parse_generator_spec(spec)
            fcc = conjugate(conjugate(f))
            for t in (0.2, 0.7, 1.0, 1.9, 6.0):
                assert fcc(t) == pytest.approx(f(t), rel=1e-10, abs=1e-11)

    def test_conjugate_swaps_zero_limits(self):
        f = kl_quantum()
        fc = conjugate(f)
        assert fc.value_at_zero == f.star_at_zero
        assert fc.star_at_zero == f.value_at_zero


class TestShift:
    def test_shift_moves_values_affinely(self):
        f = chi2()
        g = shift(f, 3.0)
        for t in (0.2, 1.0, 4.0):
            assert g(t) == pytest.approx(f(t) + 3.0 * (t - 1.0), abs=1e-12)

    def test_shift_zero_is_identity(self):
        f = chi2()
        assert shift(f, 0.0) is f

    def test_shift_keeps_normalization(self):
        g = shift(kl_quantum(), -2.5)
        assert g(1.0) == pytest.approx(0.0, abs=1e-14)
        assert g.normalized

    def test_shift_adjusts_limits_and_derivs(self):
        f = tv()
        g = shift(f, 1.0)
        assert g.value_at_zero == pytest.approx(f.value_at_zero - 1.0)
        assert g.star_at_zero == pytest.approx(f.star_at_zero + 1.0)
        assert g.deriv_left(2.0) == pytest.approx(f.deriv_left(2.0) + 1.0)


class TestDerivatives:
    SMOOTH = ["chi-alpha:alpha=2", "dichotomy:alpha=0.5", "matsushita:alpha=0.5",
              "puri-vincze:alpha=2", "arimoto:alpha=2", "kl-quantum", "neg-log",
              "chi2", "tsallis:q=0.5", "hellinger", "inv-minus-one"]

    @pytest.mark.parametrize("spec", SMOOTH)
    def test_matches_central_difference(self, spec):
        f = parse_generator_spec(spec)
        h = 1e-7
        for t in (0.3, 0.8, 1.0, 1.7, 5.0):
            fd = (f(t + h) - f(t - h)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(f.deriv_left(t) - fd) <= 2e-6 * scale
            assert abs(f.deriv_right(t) - fd) <= 2e-6 * scale

    def test_tv_kink_at_one(self):
        f = tv()
        assert f.deriv_left(1.0) == -1.0
        assert f.deriv_right(1.0) == 1.0

    def test_derivative_monotone_on_grid(self):
        # Convexity: one-sided derivatives are nondecreasing.
        for spec in DEFAULT_SPECS:
            f = parse_generator_spec(spec)
            vals = [f.deriv_right(float(t)) for t in PROBE_GRID]
            for a, b in zip(vals, vals[1:]):
                assert a <= b + 1e-9 * max(1.0, abs(b))

    def test_deriv_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            kl_quantum().deriv_left(0.0)


class TestEvaluation:
    def test_scalar_zero_uses_limit(self):
        assert kl_quantum()(0.0) == 0.0
        assert neg_log()(0.0) == INF

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            kl_quantum()(-0.5)

    def test_array_path_matches_scalar(self):
        f = parse_generator_spec("arimoto:alpha=2")
        ts = np.array([0.25, 1.0, 3.5])
        out = f(ts)
        assert out.shape == ts.shape
        for t, v in zip(ts, out):
            assert v == pytest.approx(f(float(t)), rel=1e-14, abs=1e-15)

    def test_array_path_rejects_zero(self):
        with pytest.raises(PreconditionError):
            kl_quantum()(np.array([0.5, 0.0]))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(DEFAULT_SPECS),
           st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.floats(0.01, 0.99))
    def test_property_convexity(self, spec, a, b, w):
        f = parse_generator_spec(spec)
        mix = w * a + (1 - w) * b
        lhs = f(mix)
        rhs = w * f(a) + (1 - w) * f(b)
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestSecantBound:
    def test_kl_window_value(self):
        f = kl_quantum()
        assert secant_bound(f, 0.5, 1.5) == pytest.approx(0.13081203594113697, abs=1e-15)

    def test_chi2_window_value(self):
        assert secant_bound(chi2(), 0.5, 1.5) == pytest.approx(0.25, abs=1e-15)

    def test_infinite_endpoint_gives_inf(self):
        assert secant_bound(neg_log(), 0.0, 2.0) == INF

    def test_nonnegative_for_normalized(self):
        for spec in DEFAULT_SPECS:
            f = parse_generator_spec(spec)
            val = secant_bound(f, 0.3, 2.5)
            assert val == INF or val >= -1e-14

    def test_window_preconditions(self):
        f = chi2()
        with pytest.raises(PreconditionError):
            secant_bound(f, 1.5, 0.5)
        with pytest.raises(PreconditionError):
            secant_bound(f, 1.2, 2.0)
        with pytest.raises(PreconditionError):
            secant_bound(f, 0.2, 0.9)


class TestPsi:
    def test_chi2_psi_is_constant_range(self):
        for t in (0.6, 1.0, 1.4):
            assert psi(chi2(), t, 0.5, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_requires_interior_point(self):
        with pytest.raises(PreconditionError):
            psi(chi2(), 0.5, 0.5, 1.5)

    def test_infinite_endpoint_rejected(self):
        with pytest.raises(PreconditionError):
            psi(neg_log(), 1.0, 0.0, 2.0)

    def test_psi_sup_chi2_exact(self):
        assert psi_sup(chi2(), 0.5, 1.5) == pytest.approx(1.0, rel=1e-9)

    def test_psi_sup_inv_frozen(self):
        # sup is the t -> r+ limit: (R - r)/(r^2 R) = 3 on [0.5, 2].
        assert psi_sup(inv_minus_one(), 0.5, 2.0) == pytest.approx(3.0, rel=1e-9)

    def test_psi_sup_kl_frozen(self):
        # sup is the t -> r+ limit: slope - f'(r) on [0.5, 1.5].
        assert psi_sup(kl_quantum(), 0.5, 1.5) == pytest.approx(0.6479184330021645, rel=1e-9)

    def test_psi_sup_infinite_when_endpoint_blows_up(self):
        assert psi_sup(neg_log(), 0.0, 2.0) == INF

    def test_psi_sup_keeps_t_one_on_wide_windows(self):
        # R - r above about 1e6 pushes the grid's edge pull-in past 1; the
        # kink of tv sits at t = 1 and must still be probed.
        assert psi_sup(tv(), 0.01, 3e6) >= psi(tv(), 1.0, 0.01, 3e6)

    def test_psi_sup_finite_on_narrow_windows(self):
        # Below a width of about 1e-10 the edge pull-in rounds away, so r
        # itself lands on the grid and its gap is 0/0.
        for f in default_catalog():
            assert math.isfinite(psi_sup(f, 1.0 - 2e-11, 1.0 + 2e-11)), f.spec

    def test_thm4_passes_on_narrow_window(self):
        q = np.diag([0.5 + 1e-11, 0.5 - 1e-11])
        for f in default_catalog():
            rep = check_thm4(q, np.eye(2) / 2.0, f)
            assert rep.status == "pass", (f.spec, rep.chain)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(DEFAULT_SPECS), st.floats(0.05, 0.95), st.floats(1.05, 20.0))
    def test_property_psi_sup_below_derivative_gap(self, spec, r, R):
        f = parse_generator_spec(spec)
        sup = psi_sup(f, r, R)
        d_left = f.deriv_left(R)
        d_right = f.deriv_right(r)
        if math.isinf(sup) or math.isinf(d_right):
            return
        gap = d_left - d_right
        assert sup <= gap + 1e-9 * max(1.0, abs(gap))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(DEFAULT_SPECS), st.floats(0.05, 0.95), st.floats(1.05, 20.0),
           st.floats(0.01, 0.99))
    def test_property_psi_below_sup(self, spec, r, R, frac):
        f = parse_generator_spec(spec)
        if math.isinf(f(r)):
            return
        t = r + frac * (R - r)
        sup = psi_sup(f, r, R)
        val = psi(f, t, r, R)
        assert val <= sup + 1e-9 * max(1.0, abs(sup))


def reference_psi_sup(f, r, R):
    """psi_sup as the max over the whole 10001-point np.linspace grid, t = 1
    when interior, and the two endpoint limits: the unpruned definition."""
    fr, fR = f(r), f(R)
    d_right_r, d_left_R = f.deriv_right(r), f.deriv_left(R)
    if math.isinf(fr) or math.isinf(fR) or d_right_r == -INF or d_left_R == INF:
        return INF
    slope = (fR - fr) / (R - r)
    h = (R - r) * 1e-6
    ts = np.linspace(r + h, R - h, 10001)
    if r < 1.0 < R:
        ts = np.append(ts, 1.0)
    fts = np.asarray(f.fn(ts), dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        gaps = (fR - fts) / (R - ts) - (fts - fr) / (ts - r)
    best = float(gaps.max())
    if not math.isfinite(best):
        best = float(np.max(gaps, where=np.isfinite(gaps), initial=-INF))
    return max(best, slope - d_right_r, d_left_R - slope)


def _bits(x):
    return float.hex(float(x))


PRUNING_GENERATORS = (
    *default_catalog(),
    *(parse_generator_spec(s) for s in (
        "dichotomy:alpha=0", "dichotomy:alpha=0.01", "dichotomy:alpha=1", "arimoto:alpha=1",
        "arimoto:alpha=inf", "matsushita:alpha=1", "puri-vincze:alpha=1", "chi-alpha:alpha=1.5",
        "tsallis:q=0.1")),
    conjugate(kl_quantum()),
    shift(hellinger(), 1e3),
)


class TestPsiSupPruning:
    """psi_sup skips the grid cells the three-chord bound excludes; its
    value must still be the full grid's max, bit for bit."""

    @pytest.mark.parametrize("r, R", [
        (1.0 - 2e-11, 1.0 + 2e-11), (0.01, 3e6), (1e-9, 1e9), (0.3, 2.5), (0.0, 2.0),
        (0.5, 1.0), (1.0, 2.0)])
    def test_edge_windows_match_full_grid(self, r, R):
        callable_kl = from_callable("custom-ent", lambda t: t * np.log(t))
        for f in (*PRUNING_GENERATORS, callable_kl):
            if r == 0.0 and not math.isfinite(f.value_at_zero):
                continue
            assert _bits(psi_sup(f, r, R)) == _bits(reference_psi_sup(f, r, R)), f.spec

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PRUNING_GENERATORS), st.floats(-9.0, -1e-4), st.floats(1e-4, 9.0))
    def test_property_matches_full_grid(self, f, log_r, log_R):
        r, R = 10.0**log_r, 10.0**log_R
        assert _bits(psi_sup(f, r, R)) == _bits(reference_psi_sup(f, r, R))

    def test_cancelling_formula_matches_full_grid(self):
        # dichotomy at alpha = 1e-8 loses about 1e8 ulps to cancellation, far
        # more than PSI_PAD covers; the edge cells show that noise.
        f = parse_generator_spec("dichotomy:alpha=1e-8")
        for r, R in ((1.0 - 1e-6, 1.0 + 1e-6), (1.0 - 1e-7, 1.0 + 1e-7), (0.5, 2.0)):
            assert _bits(psi_sup(f, r, R)) == _bits(reference_psi_sup(f, r, R)), (r, R)

    def test_block_matches_scalar_calls(self):
        rs = np.array([0.3, 1e-9, 0.01, 1.0 - 2e-11, 0.0, 0.9])
        Rs = np.array([2.5, 1e9, 3e6, 1.0 + 2e-11, 2.0, 1.0])
        for f in PRUNING_GENERATORS:
            block = psi_sup(f, rs, Rs)
            assert [_bits(v) for v in block] == [_bits(psi_sup(f, r, R)) for r, R in zip(rs, Rs)]

    def test_stacked_generators_match_one_call_each(self):
        # One psi_sups pass over every (window, generator) entry: r = 0,
        # narrow windows, t = 1 at an end (r = 1 or R = 1), a from_callable
        # generator and a whole-grid generator (chi2) twice.
        rs = np.array([0.3, 0.0, 1.0 - 2e-11, 1.0, 0.5, 1e-9, 0.01, 1.0 - 1e-7])
        Rs = np.array([2.5, 2.0, 1.0 + 2e-11, 2.0, 1.0, 1e9, 3e6, 1.0 + 1e-7])
        gens = (*PRUNING_GENERATORS, from_callable("custom-ent", lambda t: t * np.log(t)), chi2())
        stacked = psi_sups(gens, rs, Rs)
        assert stacked.shape == (rs.size, len(gens))
        for g, f in enumerate(gens):
            assert [_bits(v) for v in stacked[:, g]] == [
                _bits(psi_sup(f, r, R)) for r, R in zip(rs, Rs)], f.spec

    def test_stacked_generators_take_given_ends(self):
        gens = (kl_quantum(), chi2(), tv())
        rs, Rs = np.array([0.2, 0.6]), np.array([3.0, 1.5])
        ends = [np.array([[fn(f, x) for f in gens] for x in xs]) for fn, xs in (
            (Generator.__call__, rs), (Generator.__call__, Rs),
            (Generator.deriv_right, rs), (Generator.deriv_left, Rs))]
        assert [_bits(v) for v in psi_sups(gens, rs, Rs, ends).ravel()] == [
            _bits(v) for v in psi_sups(gens, rs, Rs).ravel()]

    def test_most_of_the_grid_is_skipped(self):
        seen = []
        counting = dataclasses.replace(kl_quantum(), fn=lambda t: seen.append(np.size(t)) or t * np.log(t))
        psi_sup(counting, 0.3, 2.5)
        assert sum(seen) < 1000


class TestJensenGapBound:
    def test_chi2_half_range_sq(self):
        assert jensen_gap_bound(chi2(), 0.5, 1.5) == pytest.approx(0.5, abs=1e-14)

    def test_inv_frozen(self):
        assert jensen_gap_bound(inv_minus_one(), 0.5, 2.0) == pytest.approx(0.9, abs=1e-13)

    def test_neg_log_frozen(self):
        assert jensen_gap_bound(neg_log(), 0.5, 2.0) == pytest.approx(
            0.44628710262841952, abs=1e-15)

    def test_infinite_endpoint(self):
        assert jensen_gap_bound(neg_log(), 0.0, 2.0) == INF

    def test_nonnegative_by_convexity(self):
        for spec in DEFAULT_SPECS:
            f = parse_generator_spec(spec)
            val = jensen_gap_bound(f, 0.25, 3.0)
            assert val == INF or val >= -1e-14


class TestFromCallable:
    def test_wraps_entropy_like_function(self):
        g = from_callable("custom-ent", lambda t: t * np.log(t))
        f = kl_quantum()
        for t in (0.3, 1.0, 2.5):
            assert g(t) == pytest.approx(f(t), abs=1e-12)
        assert g.approx
        assert g.normalized

    def test_finite_difference_derivative(self):
        g = from_callable("custom-sq", lambda t: t * t - 1.0)
        assert g.deriv_left(2.0) == pytest.approx(4.0, rel=1e-5)
        assert g.deriv_right(0.5) == pytest.approx(1.0, rel=1e-5)

    def test_explicit_limits_respected(self):
        g = from_callable("custom-ent", lambda t: t * np.log(t),
                          value_at_zero=0.0, star_at_zero=INF)
        assert g.value_at_zero == 0.0
        assert g.star_at_zero == INF

    def test_probed_zero_limit(self):
        g = from_callable("custom-sq", lambda t: t * t - 1.0)
        assert g.value_at_zero == pytest.approx(-1.0, abs=1e-5)

    def test_unnormalized_detected(self):
        g = from_callable("custom-off", lambda t: t * t)
        assert not g.normalized

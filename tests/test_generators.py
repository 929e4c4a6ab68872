"""Generator catalog: values, limits, derivatives, and window bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv import cli, generators
from qfdiv.classical import i_f, range_check, refinement_bound_check, shift_invariance_check
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
from qfdiv.harness import SAMPLER_KINDS, FuzzConfig, check_thm4, fuzz
from qfdiv.quantum import joint_spectrum, s_f, s_f_from_spectrum

INF = math.inf

# Probe grid for convexity / derivative-monotonicity invariants.  The
# exponent step divides 1 exactly, so t = 1 (where the kinks live) is a
# grid point.
PROBE_GRID = np.geomspace(1e-6, 1e3, 181)


class TestCatalog:
    # The catalog as the factory defaults make it: a changed default moves a spec.
    SPECS = ("chi-alpha:alpha=2", "dichotomy:alpha=0.5", "matsushita:alpha=0.5",
             "puri-vincze:alpha=2", "arimoto:alpha=2", "kl-quantum", "neg-log", "tv", "chi2",
             "tsallis:q=0.5", "hellinger", "inv-minus-one")

    def test_default_catalog_size_and_specs(self):
        cat = default_catalog()
        assert len(cat) == 12
        assert tuple(g.spec for g in cat) == self.SPECS
        assert DEFAULT_SPECS == self.SPECS

    def test_star_import_has_default_specs(self):
        names = {}
        exec("from qfdiv.generators import *", names)
        assert names["DEFAULT_SPECS"] is DEFAULT_SPECS

    def test_all_normalized(self):
        for g in default_catalog():
            assert g(1.0) == pytest.approx(0.0, abs=1e-14)
            assert g.normalized

    def test_parse_alias_and_case(self):
        assert parse_generator_spec("kl").name == "kl-quantum"
        assert parse_generator_spec("CHI_ALPHA:ALPHA=2").spec == "chi-alpha:alpha=2"

    def test_parse_specs_and_one_default_catalog(self):
        assert parse_generator_spec("tsallis:q=0.5").spec == parse_generator_spec("TSALLIS:q=5e-1").spec
        assert parse_generator_spec("kl").spec == "kl-quantum"
        # The catalog is built once; the CLI's default generators are its own.
        assert default_catalog() is default_catalog()
        served = cli._generators(cli.build_parser().parse_args(["fuzz"]))
        assert len(served) == len(default_catalog())
        assert all(a is b for a, b in zip(served, default_catalog()))

    def test_parse_keeps_signed_zero_parameters_apart(self):
        plus, minus = (parse_generator_spec(f"dichotomy:alpha={v}") for v in ("0", "-0"))
        assert plus is not minus
        assert (plus.spec, minus.spec) == ("dichotomy:alpha=0", "dichotomy:alpha=-0")

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

    @pytest.mark.parametrize("spec", ["", "   "])
    def test_parse_empty_spec(self, spec):
        with pytest.raises(InputFormatError, match="non-empty"):
            parse_generator_spec(spec)

    @pytest.mark.parametrize("spec", ["tsallis:q=0.5,q=0.3", "tsallis:q=0.5,Q=0.5",
                                      "chi-alpha:alpha=2, alpha=3"])
    def test_parse_rejects_repeated_parameter(self, spec):
        with pytest.raises(InputFormatError, match="repeated parameter"):
            parse_generator_spec(spec)

    def test_parse_non_numeric_value(self):
        with pytest.raises(InputFormatError, match="non-numeric"):
            parse_generator_spec("tsallis:q=abc")

    @pytest.mark.parametrize("make, param", [(matsushita, 2.0), (tsallis, 1.5)])
    def test_factories_reject_parameters_out_of_range(self, make, param):
        with pytest.raises(InputFormatError, match="needs"):
            make(param)

    # A non-finite parameter is malformed input, not a generator whose
    # values are NaN; arimoto's alpha = inf is its documented closure.
    NON_FINITE = [
        *(f"{name}:alpha={v}" for name in ("dichotomy", "chi-alpha", "puri-vincze")
          for v in ("nan", "inf", "-inf")),
        "arimoto:alpha=nan", "arimoto:alpha=-inf"]

    @pytest.mark.parametrize("spec", NON_FINITE)
    def test_parse_rejects_non_finite_parameters(self, spec):
        with pytest.raises(InputFormatError):
            parse_generator_spec(spec)

    @pytest.mark.parametrize("make, alpha", [
        *((make, alpha) for make in (dichotomy, chi_alpha, puri_vincze)
          for alpha in (math.nan, INF, -INF)),
        (arimoto, math.nan), (arimoto, -INF)])
    def test_factories_reject_non_finite_parameters(self, make, alpha):
        with pytest.raises(InputFormatError):
            make(alpha)

    # Parameters are real numbers: a string or a bool, which float() would
    # take, is refused; numpy numbers are taken.
    @pytest.mark.parametrize("make, param", [
        (chi_alpha, "3"), (dichotomy, True), (tsallis, " 0.25 "), (matsushita, "0.5"),
        (puri_vincze, False), (arimoto, "inf"), (chi_alpha, None), (tsallis, b"0.5"),
        (lambda c: shift(kl_quantum(), c), "0.5"), (lambda c: shift(kl_quantum(), c), True)])
    def test_factories_reject_parameters_that_are_not_real_numbers(self, make, param):
        with pytest.raises(InputFormatError, match="must be a real number"):
            make(param)

    @pytest.mark.parametrize("make, param", [
        (chi_alpha, np.float64(3.0)), (chi_alpha, np.int64(3)), (dichotomy, np.float32(0.5)),
        (matsushita, np.float32(0.5)), (puri_vincze, np.int32(2)), (arimoto, np.float64(1.5)),
        (tsallis, np.float32(0.25)), (arimoto, 3)])
    def test_factories_take_numpy_and_python_numbers(self, make, param):
        f = make(param)
        assert f.params == make(float(param)).params and type(next(iter(f.params.values()))) is float
        assert shift(f, np.float32(0.5)).spec == shift(f, 0.5).spec

    def test_arimoto_int_beyond_the_float_range_is_the_inf_closure(self):
        assert arimoto(10**400).spec == arimoto(INF).spec == "arimoto:alpha=inf"

    @pytest.mark.parametrize("alpha", [0.0009, 1 / 1024, 1e-300, 5e-324])
    def test_arimoto_rejects_alpha_where_its_constant_overflows(self, alpha):
        with pytest.raises(InputFormatError, match="arimoto needs alpha"):
            arimoto(alpha)

    def test_arimoto_small_alpha_still_parses(self):
        f = parse_generator_spec("arimoto:alpha=1e-3")
        assert f.params["alpha"] == 1e-3 and math.isfinite(f.value_at_zero)


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

    @pytest.mark.parametrize("c", [math.nan, INF, -INF])
    def test_shift_refuses_a_constant_that_is_not_finite(self, c):
        with pytest.raises(InputFormatError, match="shift constant must be finite"):
            shift(chi2(), c)


class TestGeneratorArguments:
    @staticmethod
    def entry_points(f) -> list:
        """Each public call outside harness that takes a generator, with f in its place."""
        q, p = [0.75, 0.25], [0.5, 0.5]
        qm, pm = np.diag(q), np.diag(p)
        return [lambda: s_f(qm, pm, f), lambda: s_f_from_spectrum(joint_spectrum(qm, pm), f),
                lambda: i_f(q, p, f), lambda: range_check(q, p, f), lambda: refinement_bound_check(q, p, f),
                lambda: shift_invariance_check(q, p, f, 1.0), lambda: secant_bound(f, 0.5, 2.0),
                lambda: psi(f, 1.0, 0.5, 2.0), lambda: psi_sup(f, 0.5, 2.0),
                lambda: jensen_gap_bound(f, 0.5, 2.0), lambda: conjugate(f), lambda: shift(f, 1.0)]

    @pytest.mark.parametrize("f", ["kl", None, 3])
    def test_every_entry_point_refuses_a_generator_that_is_not_one(self, f):
        # "kl" once raised a bare TypeError or AttributeError, by call.
        assert len(self.entry_points(f)) == 12
        for call in self.entry_points(f):
            with pytest.raises(InputFormatError, match="generators must hold Generator instances"):
                call()


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

    KINKED = [parse_generator_spec(s) for s in (
        "tv", "chi-alpha:alpha=1", "matsushita:alpha=1", "puri-vincze:alpha=1", "arimoto:alpha=inf")]

    @pytest.mark.parametrize("f", [*KINKED, *map(conjugate, KINKED),
                                   *(shift(f, 0.75) for f in KINKED)], ids=repr)
    def test_kinked_derivatives_take_arrays(self, f):
        ts = np.array([0.125, 0.5, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 2.0, 9.0])
        for fn, scalar in ((f.deriv_left_fn, f.deriv_left), (f.deriv_right_fn, f.deriv_right)):
            out = fn(ts)
            assert out.shape == ts.shape
            assert [_bits(v) for v in out] == [_bits(scalar(t)) for t in ts]


class TestAbsGap:
    """tv, chi-alpha, matsushita and puri-vincze at alpha = 1 and arimoto at
    alpha = inf are one generator, c |t - 1|: their family formulas reduce
    to it exactly at these parameters."""

    @pytest.mark.parametrize("spec, c, formula", [
        ("tv", 1.0, lambda t: np.abs(t - 1.0)),
        ("chi-alpha:alpha=1", 1.0, lambda t: np.abs(t - 1.0) ** 1.0),
        ("matsushita:alpha=1", 1.0, lambda t: np.abs(1.0 - t ** 1.0) ** 1.0),
        ("puri-vincze:alpha=1", 1.0, lambda t: np.abs(1.0 - t) ** 1.0 / (t + 1.0) ** 0.0),
        ("arimoto:alpha=inf", 0.5, lambda t: 0.5 * np.abs(1.0 - t)),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_family_formula_is_fn_bit_for_bit(self, spec, c, formula):
        f = parse_generator_spec(spec)
        ts = np.array([5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300])
        assert [_bits(v) for v in f.fn(ts)] == [_bits(v) for v in formula(ts)]
        assert (f.value_at_zero, f.star_at_zero, f.deriv_at_zero) == (c, c, -c)
        assert (f.smooth, f.psi_peak, f.quadratic) == (False, "1", None)


class TestEvaluation:
    def test_scalar_zero_uses_limit(self):
        assert kl_quantum()(0.0) == 0.0
        assert neg_log()(0.0) == INF

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            kl_quantum()(-0.5)

    def test_array_path_matches_scalar(self):
        f = parse_generator_spec("arimoto:alpha=2")
        ts = np.array([0.0, 0.25, 1.0, 3.5])
        out = f(ts)
        assert out.shape == ts.shape
        for t, v in zip(ts, out):
            assert v == pytest.approx(f(float(t)), rel=1e-14, abs=1e-15)

    def test_array_path_equals_scalar_path_at_zero(self):
        # One rule for t = 0 on both paths: f takes f(0+) and f'_+ takes
        # f'(0+), where an array with a zero once raised.  A negative point
        # raises on both, and so does a zero one for f'_-.
        ts = np.array([[0.0, 0.25], [1.0, 0.0], [3.5, 1e-12]])
        for f in (*default_catalog(), *map(conjugate, default_catalog())):
            for call in (f, f.deriv_right):
                got = call(ts)
                assert got.shape == ts.shape
                want = [call(float(t)) for t in ts.ravel()]
                assert [float.hex(v) for v in got.ravel().tolist()] == [float.hex(v) for v in want], f.spec
            assert f(ts)[0, 0] == f.value_at_zero and f.deriv_right(ts)[1, 1] == f.deriv_at_zero
        f = kl_quantum()
        with pytest.raises(PreconditionError, match="must be >= 0, got -0.5"):
            f(np.array([0.5, 0.0, -0.5]))
        with pytest.raises(PreconditionError, match="right derivative needs t >= 0"):
            f.deriv_right(np.array([[1.0], [-1e-300]]))
        with pytest.raises(PreconditionError, match="left derivative needs t > 0"):
            f.deriv_left(np.array([0.5, 0.0]))
        assert f(np.empty(0)).shape == (0,)

    def test_subnormal_window_has_a_sup(self):
        # The grid of [0, 5e-324] and its midpoint underflow to 0, which
        # take f(0+) like every other zero point; this once raised.
        f = chi_alpha(3.0)
        assert f.psi_peak is None
        value = psi_sup(f, 0.0, 5e-324)
        assert type(value) is float and math.isfinite(value)
        out = np.empty((6, 1, 1))
        assert generators._window_ends((f,), np.array([0.0]), np.array([5e-324]), out).shape == (2, 0)
        assert out[:5, 0, 0].tolist() == [1.0, 1.0, 1.0, -3.0, -3.0]

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

    def test_psi_sup_rejects_negative_lower_end(self):
        with pytest.raises(PreconditionError, match=">= 0"):
            psi_sup(kl_quantum(), -1.0, 2.0)

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
    when interior, and the two endpoint limits: the definition."""
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


PSI_GENERATORS = (
    *default_catalog(),
    *(parse_generator_spec(s) for s in (
        "dichotomy:alpha=0", "dichotomy:alpha=0.01", "dichotomy:alpha=1", "arimoto:alpha=1",
        "arimoto:alpha=inf", "matsushita:alpha=1", "puri-vincze:alpha=1", "chi-alpha:alpha=1.5",
        "tsallis:q=0.1", "chi-alpha:alpha=3", "matsushita:alpha=0.3", "puri-vincze:alpha=3",
        "arimoto:alpha=3")),
    conjugate(kl_quantum()),
    shift(hellinger(), 1e3),
    # Conjugates declare no peak, so these take the grid: a cancelling
    # formula, a kink, and a large linear term.
    conjugate(dichotomy(0.01)),
    conjugate(tv()),
    shift(conjugate(hellinger()), 1e3),
)
# The generators psi_sup takes over its grid; one that declares where Psi
# peaks has none (TestClosedFormPsiSup).
GRID_GENERATORS = tuple(f for f in PSI_GENERATORS if f.psi_peak is None)
PEAKED_GENERATORS = tuple(f for f in PSI_GENERATORS if f.psi_peak is not None)
EDGE_WINDOWS = [(1.0 - 2e-11, 1.0 + 2e-11), (0.01, 3e6), (1e-9, 1e9), (0.3, 2.5), (0.0, 2.0),
                (0.5, 1.0), (1.0, 2.0)]
# Windows whose grid step (R - r) / 10000 rounds to zero.
ZERO_STEP_WINDOWS = [(5e-324, 1e-323), (1e-310, np.nextafter(1e-310, INF)),
                     (1e-305, np.nextafter(1e-305, INF)), (1e-320, 3e-320)]


def outcome(fn, f, r, R):
    """fn(f, r, R) as bits, or the arithmetic error it raises."""
    try:
        with np.errstate(all="ignore"):
            return _bits(fn(f, r, R))
    except ArithmeticError as exc:
        return repr(exc)


class TestPsiSupPruning:
    """A generator that declares no peak takes psi_sup from its grid; the
    value must be the full grid's max, bit for bit."""

    @pytest.mark.parametrize("r, R", EDGE_WINDOWS)
    def test_edge_windows_match_full_grid(self, r, R):
        callable_kl = from_callable("custom-ent", lambda t: t * np.log(t))
        for f in (*GRID_GENERATORS, callable_kl):
            if r == 0.0 and not math.isfinite(f.value_at_zero):
                continue
            assert _bits(psi_sup(f, r, R)) == _bits(reference_psi_sup(f, r, R)), f.spec

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GRID_GENERATORS), st.floats(-9.0, -1e-4), st.floats(1e-4, 9.0))
    def test_property_matches_full_grid(self, f, log_r, log_R):
        r, R = 10.0**log_r, 10.0**log_R
        assert _bits(psi_sup(f, r, R)) == _bits(reference_psi_sup(f, r, R))

    def test_cancelling_formula_matches_full_grid(self):
        # dichotomy at alpha = 1e-8 loses about 1e8 ulps to cancellation.  Its
        # conjugate evaluates it and declares no peak, so it takes the grid.
        f = conjugate(dichotomy(1e-8))
        assert f.psi_peak is None
        for r, R in ((1.0 - 1e-6, 1.0 + 1e-6), (1.0 - 1e-7, 1.0 + 1e-7), (0.5, 2.0)):
            assert _bits(psi_sup(f, r, R)) == _bits(reference_psi_sup(f, r, R)), (r, R)

    @pytest.mark.parametrize("r, R", ZERO_STEP_WINDOWS)
    def test_zero_step_windows_match_full_grid(self, r, R):
        # The grid step (R - r) / 10000 rounds to zero (on the last window
        # the points are still distinct and decide kl's value); a generator
        # that cannot be evaluated this close to 0 raises the same error
        # both ways.
        assert (R - r) / 1e4 == 0.0
        for f in GRID_GENERATORS:
            assert outcome(psi_sup, f, r, R) == outcome(reference_psi_sup, f, r, R), f.spec

    def test_one_bad_window_among_several_raises(self):
        with pytest.raises(PreconditionError, match="need finite r < R, got r=0.5, R=inf"):
            psi_sups((kl_quantum(), chi2()), np.array([0.3, 0.5, 0.2]), np.array([2.5, INF, 4.0]))

    def test_no_windows_give_an_empty_array(self):
        # _window_ends once reshaped its empty endpoint values with a -1 axis.
        gens = default_catalog()
        assert psi_sups(gens, [], []).shape == (0, len(gens))

    def test_no_generators_give_an_empty_array(self):
        # The grid mask once was a float array (of no generators), so & raised.
        assert psi_sups((), [0.5, 0.2], [2.0, 3.0]).shape == (2, 0)

    def test_takes_one_window(self):
        # A block of windows is psi_sups' (test_stacked_generators_match_one_call_each).
        with pytest.raises(TypeError):
            psi_sup(kl_quantum(), np.array([0.3, 0.5]), np.array([2.5, 2.0]))

    def test_stacked_generators_match_one_call_each(self):
        # One psi_sups pass over every (window, generator) entry: r = 0,
        # narrow windows, t = 1 at an end (r = 1 or R = 1), a from_callable
        # generator and a whole-grid generator (chi2) twice.
        rs = np.array([0.3, 0.0, 1.0 - 2e-11, 1.0, 0.5, 1e-9, 0.01, 1.0 - 1e-7])
        Rs = np.array([2.5, 2.0, 1.0 + 2e-11, 2.0, 1.0, 1e9, 3e6, 1.0 + 1e-7])
        gens = (*PSI_GENERATORS, from_callable("custom-ent", lambda t: t * np.log(t)), chi2())
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
        ends.append(np.array([[psi(f, 1.0, r, R) for f in gens] for r, R in zip(rs, Rs)]))
        assert [_bits(v) for v in psi_sups(gens, rs, Rs, ends).ravel()] == [
            _bits(v) for v in psi_sups(gens, rs, Rs).ravel()]


QUADRATIC_GENERATORS = (chi2(), chi_alpha(2.0), shift(chi2(), 3.0), dichotomy(2.0))


def closed_form_psi_sup(f, r, R):
    """max(a (R - r) for a quadratic f, Psi(1) when r < 1 < R, Psi(r+),
    Psi(R-)) from the scalar calls, in float arithmetic; +inf where f(r) or
    f(R) is infinite or an endpoint derivative diverges."""
    fr, fR, f1, d_right_r, d_left_R = f(r), f(R), f(1.0), f.deriv_right(r), f.deriv_left(R)
    if math.isinf(fr) or math.isinf(fR) or d_right_r == -INF or d_left_R == INF:
        return INF
    slope = (fR - fr) / (R - r)
    at_one = (fR - f1) / (R - 1.0) - (f1 - fr) / (1.0 - r) if r < 1.0 < R else -INF
    constant = -INF if f.quadratic is None else f.quadratic * (R - r)
    return max(constant, at_one, slope - d_right_r, d_left_R - slope)


class TestQuadraticPsiSup:
    """A quadratic f has Psi = a (R - r) on every window, and psi_sup takes
    that closed form instead of a grid."""

    def test_quadratic_coefficient(self):
        assert [f.quadratic for f in QUADRATIC_GENERATORS] == [1.0, 1.0, 1.0, 0.5]
        for f in (*default_catalog(), chi_alpha(3.0), dichotomy(-1.0), conjugate(chi2()),
                  from_callable("sq", lambda t: t * t - 1.0)):
            if f.spec not in ("chi2", "chi-alpha:alpha=2"):
                assert f.quadratic is None, f.spec

    @pytest.mark.parametrize("r, R", EDGE_WINDOWS)
    def test_edge_windows_equal_closed_form(self, r, R):
        for f in QUADRATIC_GENERATORS:
            assert _bits(psi_sup(f, r, R)) == _bits(closed_form_psi_sup(f, r, R)), f.spec

    @pytest.mark.parametrize("r, R", EDGE_WINDOWS)
    def test_edge_windows_near_full_grid(self, r, R):
        for f in QUADRATIC_GENERATORS[:3]:
            assert abs(psi_sup(f, r, R) - reference_psi_sup(f, r, R)) <= 1e-9 * max(1.0, R - r), f.spec

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(QUADRATIC_GENERATORS), st.floats(-9.0, -1e-4), st.floats(1e-4, 9.0))
    def test_property_equals_closed_form_near_full_grid(self, f, log_r, log_R):
        r, R = 10.0**log_r, 10.0**log_R
        sup = psi_sup(f, r, R)
        assert _bits(sup) == _bits(closed_form_psi_sup(f, r, R))
        # The grid's own rounding: f-values of size `scale` err by an ulp or
        # so, and its first and last gaps divide that by 1e-6 (R - r).  On
        # windows of width about 0.1 that alone exceeds 1e-9.
        scale = max(1.0, abs(f(r)), abs(f(R)))
        grid_rounding = 8.0 * np.finfo(float).eps * scale / (1e-6 * (R - r))
        assert abs(sup - reference_psi_sup(f, r, R)) <= 1e-9 * max(1.0, R - r) + grid_rounding

    def test_no_grid_is_evaluated(self):
        seen = []
        counting = dataclasses.replace(chi2(), fn=lambda t: seen.append(np.size(t)) or t * t - 1.0)
        for f in (counting, shift(counting, 3.0)):
            seen.clear()
            psi_sups((f,), np.array([0.3, 0.0, 1e-9]), np.array([2.5, 2.0, 1e9]))
            assert seen == [9, 1]  # [r, R, (r + R)/2] of each window, then f(1)

    def test_narrow_window_keeps_thm4(self):
        # A grid's gap of (t - 1)^2 / 2 on this window is rounding noise,
        # about 3e-4, far above the derivative gap R - r = 4e-11: K sup Psi
        # <= K D failed at any tolerance below about 1e-15.
        q = np.diag([0.5 + 1e-11, 0.5 - 1e-11])
        rep = check_thm4(q, np.eye(2) / 2.0, dichotomy(2.0), tol=1e-300)
        assert rep.status == "pass", rep.chain


# Catalog parameters that declare where Psi peaks: the defaults, those
# tools/identity.py adds, and the other parameters whose f'' is monotone or
# whose f is c |t - 1| plus a linear term.
PEAKED_SPECS = (
    *DEFAULT_SPECS, "tsallis:q=0.1", "tsallis:q=0.2", "tsallis:q=0.8", "dichotomy:alpha=-1",
    "dichotomy:alpha=0", "dichotomy:alpha=0.01", "dichotomy:alpha=0.25", "dichotomy:alpha=1",
    "dichotomy:alpha=2", "dichotomy:alpha=3", "arimoto:alpha=1", "arimoto:alpha=1.5",
    "arimoto:alpha=inf", "chi-alpha:alpha=1", "matsushita:alpha=1", "puri-vincze:alpha=1",
)
UNPEAKED_SPECS = ("chi-alpha:alpha=1.5", "chi-alpha:alpha=3", "matsushita:alpha=0.3",
                  "matsushita:alpha=0.7", "puri-vincze:alpha=1.5", "puri-vincze:alpha=3",
                  "arimoto:alpha=3")
PEAKED = st.one_of(
    st.sampled_from(PEAKED_SPECS).map(parse_generator_spec),
    # Families whose f'' is monotone for every parameter drawn, away from
    # the cancellation of dichotomy near alpha = 0 and 1 and of arimoto
    # near alpha = 0 and 1 (its factor alpha / (alpha - 1) held to 100).
    st.floats(-2.0, 4.0).filter(lambda a: abs(a * (1.0 - a)) >= 0.01).map(dichotomy),
    st.floats(0.01, 0.99).map(tsallis),
    st.floats(0.25, 2.0).filter(lambda a: abs(a - 1.0) >= 0.01 * a).map(arimoto),
    st.tuples(st.sampled_from(PEAKED_SPECS), st.floats(-5.0, 5.0)).map(
        lambda sc: shift(parse_generator_spec(sc[0]), sc[1])),
)


def against_peak(f, r, R):
    """The largest step of Psi against the direction f.psi_peak declares,
    relative to max(1, |Psi|), sampled at t = 1 and at 2001 points of the
    middle 98% of (r, R), r < 1 < R: Psi falls throughout for "r", rises
    throughout for "R", and rises up to t = 1 and falls after it for "1"."""
    t = np.union1d(np.linspace(r + 0.01 * (R - r), R - 0.01 * (R - r), 2001), [1.0])
    ft, fr, fR = f(t), f(r), f(R)
    gap = (fR - ft) / (R - t) - (ft - fr) / (t - r)
    step = np.diff(gap) / np.maximum(1.0, np.maximum(np.abs(gap[:-1]), np.abs(gap[1:])))
    rising = {"r": np.zeros(step.size, dtype=bool), "R": np.ones(step.size, dtype=bool),
              "1": t[1:] <= 1.0}[f.psi_peak]
    return float(np.max(np.where(rising, -step, step)))


def edge_rounding(f, r, R):
    """How far above sup Psi a grid point's gap can round: f-values of size
    `scale` err by a few ulps, 100 times more where dichotomy's formula
    cancels (alpha = 0.01), and the first and last grid gaps divide that by
    1e-6 (R - r)."""
    scale = max(1.0, abs(f(r)), abs(f(R)))
    return 1e3 * np.finfo(float).eps * scale / (1e-6 * (R - r))


class TestClosedFormPsiSup:
    """A generator that declares where Psi peaks (f.psi_peak) takes psi_sup
    in closed form, max(Psi(1), Psi(r+), Psi(R-)), with no grid.  The
    declarations are checked here, not trusted."""

    def test_declarations(self):
        peaks = {spec: parse_generator_spec(spec).psi_peak for spec in (*PEAKED_SPECS, *UNPEAKED_SPECS)}
        assert {s for s, p in peaks.items() if p == "1"} == {
            "tv", "chi-alpha:alpha=1", "matsushita:alpha=1", "puri-vincze:alpha=1", "arimoto:alpha=inf"}
        assert {s for s, p in peaks.items() if p == "R"} == {"dichotomy:alpha=3"}
        assert {s for s, p in peaks.items() if p is None} == set(UNPEAKED_SPECS)
        assert shift(tv(), 2.0).psi_peak == "1" and shift(dichotomy(3.0), -1.0).psi_peak == "R"
        for f in (conjugate(kl_quantum()), conjugate(tv()), from_callable("ent", lambda t: t * math.log(t))):
            assert f.psi_peak is None, f.spec

    @settings(max_examples=150, deadline=None)
    @given(PEAKED, st.floats(0.02, 0.9), st.floats(1.1, 10.0))
    def test_property_psi_monotone_on_each_side_of_peak(self, f, r, R):
        # Rounding bound: f-values here err by at most about 1e-13 (dichotomy
        # at alpha = 0.01 cancels by 1 / (alpha (1 - alpha)) ~ 100), and each
        # slope divides that by a distance of at least 0.01 (R - r) >= 2e-3,
        # so a gap errs by about 1e-10 and a step by twice that.
        assert against_peak(f, r, R) <= 1e-9, f.spec

    def test_wrong_peak_is_caught(self):
        # Neither side holds for arimoto at alpha = 3 or chi-alpha at alpha =
        # 3, which is why they declare no peak.
        for f, wrong in ((dichotomy(3.0), "r"), (kl_quantum(), "R"), (kl_quantum(), "1"), (tv(), "r"),
                         (tv(), "R"), (arimoto(3.0), "r"), (arimoto(3.0), "R"), (chi_alpha(3.0), "r"),
                         (chi_alpha(3.0), "R")):
            assert against_peak(dataclasses.replace(f, psi_peak=wrong), 0.05, 2.0) > 1e-4, (f.spec, wrong)
        # Nor for puri-vincze at alpha = 3, whose f'' = 24 |t - 1| / (t + 1)^4
        # is 0 at t = 1 and peaks at t = 5/3, or for matsushita at alpha =
        # 0.3; on this window every declaration steps against Psi.
        for f in (puri_vincze(3.0), matsushita(0.3)):
            for wrong in "rR1":
                assert against_peak(dataclasses.replace(f, psi_peak=wrong), 0.9, 10.0) > 1e-5, (f.spec, wrong)

    @pytest.mark.parametrize("r, R", EDGE_WINDOWS + ZERO_STEP_WINDOWS)
    def test_edge_windows_equal_closed_form(self, r, R):
        for f in PEAKED_GENERATORS:
            assert outcome(psi_sup, f, r, R) == outcome(closed_form_psi_sup, f, r, R), f.spec

    @pytest.mark.parametrize("r, R", EDGE_WINDOWS)
    def test_edge_windows_within_full_grid(self, r, R):
        # The grid holds t = 1 and both limits, so it can only be higher.
        for f in PEAKED_GENERATORS:
            sup, grid = psi_sup(f, r, R), reference_psi_sup(f, r, R)
            assert sup == grid or grid - edge_rounding(f, r, R) <= sup < grid, f.spec

    @settings(max_examples=100, deadline=None)
    @given(PEAKED, st.floats(-9.0, -1e-4), st.floats(1e-4, 9.0))
    def test_property_equals_closed_form_within_full_grid(self, f, log_r, log_R):
        r, R = 10.0**log_r, 10.0**log_R
        sup = psi_sup(f, r, R)
        assert _bits(sup) == _bits(closed_form_psi_sup(f, r, R))
        grid = reference_psi_sup(f, r, R)
        assert sup == grid or grid - edge_rounding(f, r, R) <= sup < grid

    @pytest.mark.parametrize("f", [dichotomy(0.01), kl_quantum(), tsallis(0.5)], ids=lambda f: f.spec)
    def test_narrow_window_keeps_thm4(self, f):
        # The grid read rounding as sup Psi here: 2.8 for dichotomy at alpha =
        # 0.01, against a derivative gap of 4e-11, so K sup Psi <= K D failed
        # at tol 1e-300.
        rep = check_thm4(np.diag([0.5 + 1e-11, 0.5 - 1e-11]), np.eye(2) / 2.0, f, tol=1e-300)
        chain = dict(rep.chain)
        assert rep.status == "pass", rep.chain
        assert chain["window-psi-sup"] <= chain["window-derivative-gap"]

    def test_fuzz_builds_no_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("psi_sups built a grid")

        monkeypatch.setattr(generators, "_grid_sups", no_grid)
        with pytest.raises(AssertionError, match="built a grid"):
            psi_sup(conjugate(kl_quantum()), 0.3, 2.5)
        for sampler in SAMPLER_KINDS:
            for dim, floor in ((2, None), (4, 1e-3)):
                result = fuzz(FuzzConfig(dim=dim, trials=20, seed=7, sampler=sampler, floor=floor))
                assert result.summary["checks"]["thm4"]["pass"] > 0, (sampler, dim)


class TestDivergingDerivatives:
    """A one-sided derivative that diverges near 0 is infinite, not an
    arithmetic error, and so is psi_sup there."""

    def test_inv_minus_one(self):
        f = inv_minus_one()
        assert f.deriv_right(1e-170) == -INF
        assert f.deriv_left(1e-170) == -INF
        assert psi_sup(f, 1e-305, np.nextafter(1e-305, INF)) == INF

    def test_dichotomy_small_alpha(self):
        f = dichotomy(0.01)
        assert f.deriv_right(5e-324) == -INF
        assert f.deriv_left(5e-324) == -INF
        assert psi_sup(f, 5e-324, 1e-323) == INF


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

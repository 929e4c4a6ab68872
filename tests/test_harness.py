"""Bound chains, closed-form specializations, sampling, and fuzzing."""

import collections
import contextlib
import dataclasses
import io
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv import harness
from qfdiv.errors import InputFormatError, PreconditionError
from qfdiv.generators import (
    chi2,
    conjugate,
    from_callable,
    kl_quantum,
    parse_generator_spec,
    shift,
    tv,
)
from qfdiv.harness import (
    DEGENERATE_WINDOW_TOL,
    FuzzConfig,
    certify,
    check_derivative_gap,
    check_nonneg,
    check_thm2,
    check_thm3,
    check_thm4,
    check_thm5,
    chi_square_chord_coeff,
    chi_square_secant_coeff,
    collect_violations,
    fuzz,
    neg_log_jensen_coeff,
    neg_log_range_coeff,
    run_all_checks,
    sample_density,
    sample_pair,
)
from qfdiv.harness import _CHECKS, _Block, _judge, _pair, _plan, _states, _terms
from qfdiv.generators import default_catalog
from qfdiv.hermitian import MAX_DIM, matrix_from_json
from qfdiv.quantum import (
    _member, as_density, chi_square, chi_squares, densities, joint_spectra, joint_spectrum, variational_q)

INF = math.inf

EXAMPLE_A_Q = np.diag([0.75, 0.25]).astype(complex)
EXAMPLE_A_P = np.diag([0.5, 0.5]).astype(complex)
EXAMPLE_B_Q = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
EXAMPLE_B_P = np.diag([0.7, 0.3]).astype(complex)

QUARTER_LOG3 = 0.25 * math.log(3.0)
# The closed forms' checks, each a subchain on its family's generators alone.
CLOSED_FORMS = {ch.check for chains in _CHECKS.values() for ch in chains if ch.family}


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestCheckNonneg:
    def test_example_a_passes(self):
        rep = check_nonneg(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "pass"
        assert rep.chain[0] == ("zero", 0.0)
        assert rep.chain[1][1] == pytest.approx(0.13081203594113697, abs=1e-15)

    def test_infinite_value_is_vacuous_pass(self):
        rep = check_nonneg(np.diag([1.0, 0.0]), EXAMPLE_A_P, parse_generator_spec("neg-log"))
        assert rep.status == "vacuous-pass"
        assert rep.link_verdicts == ("vacuous",)

    def test_report_geometry(self):
        rep = check_nonneg(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("chi2"))
        assert rep.dim == 2
        assert rep.r == pytest.approx(0.5)
        assert rep.R == pytest.approx(1.5)
        assert rep.generator == "chi2"
        assert len(rep.slacks) == len(rep.chain) - 1
        assert rep.values == tuple(v for _, v in rep.chain)


class TestDerivativeGap:
    def test_example_a_kl(self):
        rep = check_derivative_gap(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "pass"
        # sum of w (t-1) ln t + (t-1) over the spectrum: equals 1/4 ln 3 here.
        assert rep.chain[1][1] == pytest.approx(QUARTER_LOG3, abs=1e-14)

    def test_kinked_generator_skipped(self):
        rep = check_derivative_gap(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("tv"))
        assert rep.status == "skipped"
        assert "kink" in rep.note

    def test_neg_log_swap_oracle(self):
        rep = check_derivative_gap(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("neg-log"))
        assert rep.status == "pass"
        assert "oracle:slope-gap-equals-swapped-chi-square" in rep.flags
        sub = rep.subchains[0]
        assert sub.check == "derivative-gap:swap"
        # chain: 0 <= U(P,Q) <= chi-square with the states swapped.
        assert sub.status == "pass"
        assert sub.chain[2][1] == pytest.approx(chi_square(EXAMPLE_A_P, EXAMPLE_A_Q), abs=1e-14)
        assert sub.chain[2][1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_neg_log_swap_oracle_unavailable_for_singular_q(self):
        # Q singular: no swapped chi-square, so no derivative-gap:swap
        # subchain, and the chain says why.
        reports = run_all_checks(np.diag([0.6, 0.4, 0.0]), np.diag([0.3, 0.3, 0.4]),
                                 parse_generator_spec("neg-log"))
        assert [(r.check, r.status, r.flags, [s.check for s in r.subchains],
                 [s.status for s in r.subchains]) for r in reports] == [
            ("nonneg", "vacuous-pass", (), [], []),
            ("derivative-gap", "vacuous-pass", ("swap-oracle-unavailable:singular-q",), [], []),
            ("thm2", "vacuous-pass", (), ["thm2:neg-log"], ["vacuous-pass"]),
            ("thm3", "vacuous-pass", (), ["thm3:neg-log"], ["vacuous-pass"]),
            ("thm4", "vacuous-pass", (), ["thm4:alternate", "thm4:neg-log"],
             ["vacuous-pass", "vacuous-pass"]),
            ("thm5", "vacuous-pass", (), ["thm5:neg-log"], ["vacuous-pass"]),
        ]

    def test_singular_q_makes_rhs_vacuous(self):
        q = np.diag([1.0, 0.0])
        rep = check_derivative_gap(q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        # f'(0+) = -inf at an occupied zero ratio: bound carries no content.
        assert rep.status == "vacuous-pass"


class TestThm2:
    def test_example_a_kl_chain_collapses(self):
        rep = check_thm2(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "pass"
        for _, value in rep.chain[1:]:
            assert value == pytest.approx(QUARTER_LOG3, abs=1e-14)

    def test_specialization_present_and_equal(self):
        rep = check_thm2(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        subs = {s.check for s in rep.subchains}
        assert subs == {"thm2:kl-quantum"}
        sub = rep.subchains[0]
        assert sub.status == "pass"
        for (_, a), (_, b) in zip(rep.chain, sub.chain):
            assert a == pytest.approx(b, abs=1e-13)

    def test_chi2_sharper_coefficient(self):
        rep = check_thm2(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("chi2"))
        sub = rep.subchains[0]
        assert sub.status == "pass"
        # printed chain uses (R-r)/2, half the generic D/2 = (R-r).
        assert sub.chain[1][1] == pytest.approx(0.5 * rep.chain[1][1], rel=1e-12)

    def test_infinite_gap_is_vacuous(self):
        q = np.diag([1.0, 0.0])
        rep = check_thm2(q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "vacuous-pass"
        assert all(v == "vacuous" for v in rep.link_verdicts[1:])

    def test_tsallis_specialization(self):
        rep = check_thm2(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("tsallis:q=0.5"))
        assert rep.status == "pass"
        sub = rep.subchains[0]
        assert sub.check == "thm2:tsallis"
        assert sub.status == "pass"
        # same derivative gap, so the printed coefficients match the generic chain.
        for (_, a), (_, b) in zip(rep.chain, sub.chain):
            assert a == pytest.approx(b, rel=1e-11, abs=1e-13)


    def test_degenerate_window_skipped(self):
        # r = R = 1: tv's derivative gap D = -2 would scale rounding residue
        # in chi into a false violation.
        rho = np.eye(5) / 5.0
        rep = check_thm2(rho, rho, parse_generator_spec("tv"))
        assert rep.status == "skipped"
        assert "degenerate window" in rep.note

    def test_ulp_wide_window_skipped(self):
        # A 1x1 pair 1 ulp apart: thm2 and thm3 would judge rounding, and at
        # tol 1e-300 thm2 failed on terms of about 1e-32.
        q, p = np.array([[1.0]]), np.array([[1.0 - 2.0**-53]])
        js = joint_spectrum(q, p)
        assert 0.0 < js.R - js.r <= DEGENERATE_WINDOW_TOL
        for f in default_catalog():
            reports = {rep.check: rep for rep in run_all_checks(q, p, f, tol=1e-300)}
            for check in ("thm2", "thm3"):
                assert reports[check].status == "skipped", (f.spec, check)
                assert "degenerate window" in reports[check].note

    def test_window_just_wider_than_tolerance_judged(self):
        q, p = np.diag([0.5 + 1e-12, 0.5 - 1e-12]), np.eye(2) / 2.0
        js = joint_spectrum(q, p)
        assert js.R - js.r > DEGENERATE_WINDOW_TOL
        for check in (check_thm2, check_thm3):
            assert check(q, p, kl_quantum()).status == "pass"


class TestThm3:
    def test_example_a_equality(self):
        rep = check_thm3(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "pass"
        assert "equality:value=secant" in rep.flags
        assert "tight:ratios-at-endpoints" in rep.flags

    def test_tight_with_unoccupied_ratios_inside_the_window(self):
        # Anti-aligned eigenbases: W is the swap, so the occupied ratios are
        # 0.7/0.4 = R and 0.3/0.6 = r, while the unoccupied 0.7/0.6 and
        # 0.3/0.4 lie inside the window.
        rep = check_thm3(np.diag([0.7, 0.3]), np.diag([0.4, 0.6]), parse_generator_spec("kl"))
        assert "tight:ratios-at-endpoints" in rep.flags
        assert "equality:value=secant" in rep.flags

    def test_example_b_not_tight(self):
        rep = check_thm3(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "pass"
        assert "tight:ratios-at-endpoints" not in rep.flags
        assert rep.slacks[0] > 1e-3

    def test_chi2_printed_bound(self):
        rep = check_thm3(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("chi2"))
        sub = rep.subchains[0]
        assert sub.check == "thm3:chi2"
        assert sub.chain[1][1] == pytest.approx(1.0, abs=1e-14)
        assert sub.status == "pass"

    def test_chi2_printed_bound_on_window_closed_at_one(self):
        # r = 1 exactly with R = 1 + 2^-52: thm3's hypothesis r <= 1 <= R
        # holds, so nothing raises; the window is 1 ulp wide, so the chain
        # and its closed form are skipped as degenerate.  The closed form
        # itself takes r = 1.
        q, p = np.diag([0.5, 0.5]), np.diag([0.5, 0.5 - 2.0**-54])
        assert joint_spectrum(q, p).r == 1.0 < joint_spectrum(q, p).R
        reports = run_all_checks(q, p, chi2())
        thm3 = next(rep for rep in reports if rep.check == "thm3")
        assert (thm3.status, thm3.subchains) == ("skipped", ())
        assert chi_square_secant_coeff(1.0, 2.0) == 0.0
        with pytest.raises(PreconditionError):
            chi_square_secant_coeff(1.0, 1.0)

    def test_kl_printed_equals_generic_secant(self):
        rep = check_thm3(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("kl-quantum"))
        sub = rep.subchains[0]
        assert sub.chain[1][1] == pytest.approx(rep.chain[1][1], rel=1e-13)

    def test_neg_log_printed_equals_generic_secant(self):
        rep = check_thm3(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("neg-log"))
        sub = rep.subchains[0]
        assert sub.chain[1][1] == pytest.approx(rep.chain[1][1], rel=1e-13)

    def test_infinite_secant_vacuous(self):
        rep = check_thm3(np.diag([1.0, 0.0]), EXAMPLE_A_P, parse_generator_spec("neg-log"))
        assert rep.status == "vacuous-pass"


class TestThm4:
    def test_example_a_matches_secant(self):
        rep = check_thm4(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "pass"
        assert "matches-secant" in rep.flags
        assert rep.chain[1][1] == pytest.approx(0.13081203594113697, abs=1e-14)

    def test_example_a_chi2_equality(self):
        rep = check_thm4(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("chi2"))
        sub = {s.check: s for s in rep.subchains}["thm4:chi2"]
        assert sub.status == "pass"
        assert "equality:value=window-product" in sub.flags
        assert sub.chain[1][1] == pytest.approx(0.25, abs=1e-14)
        assert "sharper-than-secant-polynomial" in rep.flags

    def test_alternate_chain_attached(self):
        rep = check_thm4(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("hellinger"))
        alt = {s.check: s for s in rep.subchains}["thm4:alternate"]
        assert alt.status == "pass"
        assert alt.chain[1] == rep.chain[1]
        assert alt.chain[-1] == rep.chain[-1]

    def test_kl_corrected_middle_term(self):
        rep = check_thm4(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        sub = {s.check: s for s in rep.subchains}["thm4:kl-quantum"]
        assert sub.status == "pass"
        # middle = [(1-r) R ln R + (R-1) r ln r]/(R-r): the secant value.
        assert sub.chain[1][1] == pytest.approx(0.13081203594113697, abs=1e-14)
        assert sub.chain[2][1] == pytest.approx(QUARTER_LOG3, abs=1e-14)

    def test_inv_specialization(self):
        rep = check_thm4(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("inv-minus-one"))
        sub = {s.check: s for s in rep.subchains}["thm4:inv-minus-one"]
        r, R = rep.r, rep.R
        assert sub.chain[1][1] == pytest.approx((R - 1) * (1 - r) / (R * r), rel=1e-13)
        assert sub.status == "pass"

    def test_neg_log_specialization(self):
        rep = check_thm4(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("neg-log"))
        sub = {s.check: s for s in rep.subchains}["thm4:neg-log"]
        assert sub.status == "pass"
        assert len(sub.chain) == 3

    def test_degenerate_window_skipped(self):
        rho = np.eye(2) / 2.0
        rep = check_thm4(rho, rho, parse_generator_spec("chi2"))
        assert rep.status == "skipped"
        assert "window" in rep.note

    def test_equal_states_with_spread_spectrum_not_skipped(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        rep = check_thm4(rho, rho, parse_generator_spec("chi2"))
        assert rep.status == "pass"


class TestThm5:
    def test_example_a_kl_frozen_bound(self):
        rep = check_thm5(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"))
        assert rep.status == "pass"
        assert rep.chain[1][1] == pytest.approx(0.26162407188227386, abs=1e-14)

    def test_chi2_half_range_sq(self):
        rep = check_thm5(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("chi2"))
        sub = rep.subchains[0]
        assert sub.chain[1][1] == pytest.approx(0.5, abs=1e-14)
        assert sub.status == "pass"

    def test_neg_log_extra_link(self):
        rep = check_thm5(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("neg-log"))
        sub = rep.subchains[0]
        assert sub.check == "thm5:neg-log"
        assert len(sub.chain) == 3
        # log midpoint gap <= quarter range ratio, always.
        assert sub.chain[1][1] <= sub.chain[2][1] + 1e-12
        assert sub.status == "pass"

    def test_degenerate_window_skipped(self):
        rho = np.eye(3) / 3.0
        rep = check_thm5(rho, rho, parse_generator_spec("kl-quantum"))
        assert rep.status == "skipped"


class TestGivenValue:
    """check_*(..., sf=x) judges the chains with x in place of S_f: every
    "value" term (of the chain and its subchains) is x, the rest unchanged."""

    @pytest.mark.parametrize("check", [check_nonneg, check_derivative_gap, check_thm2,
                                       check_thm3, check_thm4, check_thm5])
    @pytest.mark.parametrize("spec", ["kl-quantum", "chi2", "neg-log"])
    def test_value_terms_are_replaced(self, check, spec):
        f = parse_generator_spec(spec)
        base, replaced = check(EXAMPLE_B_Q, EXAMPLE_B_P, f), check(EXAMPLE_B_Q, EXAMPLE_B_P, f, sf=-1.0)
        assert len(replaced.subchains) == len(base.subchains)
        for a, b in zip((base, *base.subchains), (replaced, *replaced.subchains)):
            assert [label for label, _ in b.chain] == [label for label, _ in a.chain]
            assert [v for label, v in b.chain] == [
                -1.0 if label == "value" else v for label, v in a.chain]

    def test_negative_value_fails_nonneg(self):
        rep = check_nonneg(EXAMPLE_A_Q, EXAMPLE_A_P, parse_generator_spec("kl-quantum"), sf=-1.0)
        assert rep.status == "fail"
        assert rep.chain == (("zero", 0.0), ("value", -1.0))


class TestRunAllChecks:
    def test_package_exports_certify(self):
        import qfdiv

        assert qfdiv.certify is qfdiv.harness.certify
        assert "certify" in qfdiv.__all__

    def test_empty_generator_list(self):
        assert certify(EXAMPLE_B_Q, EXAMPLE_B_P, ()) == []

    def test_six_reports_in_order(self):
        reports = run_all_checks(EXAMPLE_B_Q, EXAMPLE_B_P, parse_generator_spec("kl-quantum"))
        assert [r.check for r in reports] == [
            "nonneg", "derivative-gap", "thm2", "thm3", "thm4", "thm5"]

    def test_full_catalog_on_example_b(self):
        from qfdiv.generators import default_catalog
        js = joint_spectrum(EXAMPLE_B_Q, EXAMPLE_B_P)
        for f in default_catalog():
            for rep in run_all_checks(EXAMPLE_B_Q, EXAMPLE_B_P, f, js=js):
                assert rep.status in ("pass", "vacuous-pass", "skipped")
                for sub in rep.subchains:
                    assert sub.status in ("pass", "vacuous-pass", "skipped")


    @pytest.mark.parametrize("make", [lambda: conjugate(kl_quantum()),
                                      lambda: shift(chi2(), 3.0)],
                             ids=["conjugate-kl", "shift-chi2"])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_derived_generators_on_full_rank_pairs(self, make, dim):
        # Their one-sided derivatives are evaluated on arrays of ratios.
        q, p = sample_pair("ginibre", dim, 1e-3, rng_for(dim))
        for rep in run_all_checks(q, p, make()):
            assert rep.status in ("pass", "vacuous-pass", "skipped"), rep

    def test_shift_leaves_every_chain_value_alone(self):
        # sum_ij mu_j W_ij (lambda_i / mu_j - 1) = 0, so adding c (t - 1) to
        # chi2 changes no exact chain term beyond rounding.  sup Psi takes
        # the max of (R - r) and the endpoint limits, whose slopes divide f's
        # rounding by R - r, so the linear term cancels there only to about
        # ulp * |f| / (R - r); those terms are held to the chain tolerance.
        def by_check(reports):
            return {rep.check: rep for top in reports for rep in (top, *top.subchains)}

        q, p = sample_pair("ginibre", 4, 1e-3, rng_for(8))
        grid_terms = {"window-psi-sup", "quarter-range-psi-sup"}
        base = by_check(run_all_checks(q, p, chi2()))
        moved = by_check(run_all_checks(q, p, shift(chi2(), 3.0)))
        # chi2's closed-form subchains have no counterpart for the shift.
        assert set(moved) == {"nonneg", "derivative-gap", "thm2", "thm3", "thm4",
                              "thm4:alternate", "thm5"}
        for check, b in moved.items():
            a = base[check]
            assert [label for label, _ in a.chain] == [label for label, _ in b.chain]
            for (label, x), (_, y) in zip(a.chain, b.chain):
                tol = 1e-9 * max(1.0, abs(x)) if label in grid_terms else 1e-12
                assert abs(x - y) <= tol, (a.check, label, x, y)

    def test_supplied_spectrum_keeps_its_threshold(self):
        # P's smallest eigenvalue 5e-13 is below the default eps 1e-12 but
        # above the 1e-15 the joint spectrum was built with.
        q = np.diag([0.5, 0.3, 0.2])
        p = np.diag([0.6, 0.4 - 5e-13, 5e-13])
        reports = run_all_checks(q, p, parse_generator_spec("kl"), js=joint_spectrum(q, p, 1e-15))
        assert [r.check for r in reports] == [
            "nonneg", "derivative-gap", "thm2", "thm3", "thm4", "thm5"]

    @staticmethod
    def three_pairs() -> list:
        rng = np.random.default_rng(0)
        return [sample_pair("ginibre", d, 1e-3, rng) for d in (2, 3, 3)]

    def test_spectrum_of_a_pair_of_another_dimension_is_refused(self):
        # Once a pass at dim 3: S_f, V and the window of the 3 x 3 pair, chi of the 2 x 2 one.
        (q2, p2), (q3, p3), _ = self.three_pairs()
        with pytest.raises(PreconditionError, match="joint spectrum is not the pair's own"):
            check_thm2(q2, p2, parse_generator_spec("kl"), js=joint_spectrum(q3, p3))

    def test_spectrum_of_another_pair_of_the_same_dimension_is_refused(self):
        # Once a pass, on numbers that belong to neither pair alone.
        _, (q3, p3), (q4, p4) = self.three_pairs()
        with pytest.raises(PreconditionError, match="joint spectrum is not the pair's own"):
            check_thm2(q3, p3, parse_generator_spec("kl"), js=joint_spectrum(q4, p4))

    @pytest.mark.parametrize("c", [math.nan, INF])
    def test_a_shift_that_is_not_finite_is_refused(self, c):
        # nan once gave five false fails, and inf six vacuous passes.
        with pytest.raises(InputFormatError, match="shift constant must be finite"):
            certify(EXAMPLE_B_Q, EXAMPLE_B_P, [shift(chi2(), c)])


class TestArrayEvaluation:
    """A block's endpoint values and closed forms are arrays, and equal the
    scalar definitions of those quantities bit for bit."""

    @staticmethod
    def _blocks():
        singular = (np.diag([0.6, 0.4, 0.0]), np.diag([0.5, 0.3, 0.2]))
        sampled = [sample_pair(kind, 3, floor, rng_for(40 + k)) for k, (kind, floor) in enumerate(
            (("ginibre", 1e-3), ("mixture", 0.0), ("commuting", 0.0)))]
        q, qdec = densities(np.stack([singular[0], *(qd.matrix for qd, _ in sampled)]))
        p, pdec = densities(np.stack([singular[1], *(pd.matrix for _, pd in sampled)]))
        fields, errors = joint_spectra(qdec, pdec)
        assert errors == [None] * 4
        yield _Block(q, qdec, p, pdec, fields, 1e-12)
        yield _pair(*sample_pair("ginibre", 4, 1e-3, rng_for(44)), None, 1e-12)

    def test_terms_equal_one_element_calls(self):
        def one(fn, x):
            return float(np.asarray(fn(np.array([x])))[0])

        # tv's one-sided derivatives differ at its kink, and so do those of
        # every from_callable generator (finite differences from each side).
        gens = (*default_catalog(), from_callable("kink", lambda t: abs(t - 1.0) + t * t - 1.0, smooth=False))
        seen_zero = False
        for b in self._blocks():
            e = _terms(b, gens)
            for k, (r, R) in enumerate(zip(b.r[:, 0].tolist(), b.R[:, 0].tolist())):
                seen_zero |= r == 0.0
                # The block's V is variational_q's, bit for bit.
                assert b.v[k, 0] == variational_q(b.q[k], b.p[k])
                for g, f in enumerate(gens):
                    expect = (f.value_at_zero if r == 0.0 else one(f.fn, r), one(f.fn, R),
                              one(f.fn, 0.5 * (r + R)),
                              f.deriv_at_zero if r == 0.0 else one(f.deriv_right_fn, r),
                              one(f.deriv_left_fn, R))
                    got = (e.fr[k, g], e.fR[k, g], e.fmid[k, g], e.dr[k, g], e.dR[k, g])
                    assert [float.hex(float(x)) for x in got] == [float.hex(x) for x in expect], (
                        f.spec, r, R)
                    # The scalar calls are the same evaluation.
                    assert got == (f(r), f(R), f(0.5 * (r + R)), f.deriv_right(r), f.deriv_left(R))
        assert seen_zero

    def test_chi2_psi_at_one_never_above_sup_at_any_tolerance(self):
        # psi_sups takes Psi(1) for every generator, also for those without
        # a declared peak: conjugates, a from_callable one (10001 Python
        # calls per grid, so on two pairs each) and grid-taking parameters.
        quadratic = (chi2(), parse_generator_spec("chi-alpha:alpha=2"))
        grid = (conjugate(kl_quantum()), conjugate(tv()), from_callable("ent", lambda t: t * math.log(t)),
                parse_generator_spec("chi-alpha:alpha=3"), parse_generator_spec("arimoto:alpha=3"))
        for k, (kind, dim) in enumerate((kind, dim) for kind in ("ginibre", "mixture", "commuting")
                                        for dim in (2, 3, 4, 8)):
            for trial in range(8):
                q, p = sample_pair(kind, dim, 0.0, rng_for(1000 * k + trial))
                for f in (*quadratic, *grid) if trial < 2 else quadratic:
                    rep = check_thm4(q, p, f, tol=1e-300)
                    if rep.status == "skipped":
                        continue
                    alternate = rep.subchains[0]
                    assert alternate.check == "thm4:alternate"
                    assert rep.link_verdicts[1] == "pass", (kind, dim, trial, rep.chain)
                    assert alternate.link_verdicts[2] == "pass", (kind, dim, trial, alternate.chain)

    def test_closed_forms_equal_coefficient_functions(self):
        gens = tuple(parse_generator_spec(s) for s in ("chi2", "neg-log"))
        for kind in ("ginibre", "mixture", "commuting"):
            q, p = sample_pair(kind, 4, 1e-3, rng_for(7))
            by_check = {rep.check: (rep.r, rep.R, rep.values) for _, reports in certify(q, p, gens)
                        for top in reports for rep in (top, *top.subchains)}
            r, R, values = by_check["thm3:chi2"]
            assert values[1] == chi_square_secant_coeff(r, R)
            r, R, values = by_check["thm4:chi2"]
            assert values[1] == chi_square_chord_coeff(r, R)
            r, R, values = by_check["thm5:neg-log"]
            assert values[1:] == (neg_log_jensen_coeff(r, R), neg_log_range_coeff(r, R))

    @staticmethod
    def _stacked(pairs, eps):
        """The _Block of hand-picked (Q, P) pairs, stacked."""
        q, qdec = densities(np.stack([np.asarray(q, dtype=complex) for q, _ in pairs]))
        p, pdec = densities(np.stack([np.asarray(p, dtype=complex) for _, p in pairs]))
        fields, errors = joint_spectra(qdec, pdec, eps)
        assert errors == [None] * len(pairs)
        return _Block(q, qdec, p, pdec, fields, eps)

    @pytest.mark.parametrize("eps", [1e-12, 0.01], ids=["full-rank", "singular-q"])
    def test_stacked_chi_squares_equal_separate_calls(self, eps):
        # chi_pass stacks chi-square(P, Q) of the rows whose Q is invertible
        # after chi-square(Q, P) of every row, in one chi_squares call.
        rotate = np.linalg.qr(rng_for(61).standard_normal((3, 3)))[0]
        pairs = [(qd.matrix, 0.5 * pd.matrix + np.eye(3) / 6.0)  # P invertible at 0.01
                 for qd, pd in (sample_pair("ginibre", 3, 1e-3, rng_for(60 + k)) for k in range(4))]
        pairs[1] = (rotate @ np.diag([0.6, 0.4, 0.0]) @ rotate.T, pairs[1][1])
        pairs[3] = (np.diag([0.5, 0.495, 0.005]), pairs[3][1])
        b = self._stacked(pairs, eps)
        b.chi_pass(True)
        rows = np.flatnonzero(b.q_invertible[:, 0])
        assert rows.tolist() == ([0, 2] if eps == 0.01 else [0, 2, 3])
        swapped = np.full(4, math.nan)
        swapped[rows] = chi_squares(b.p[rows], b.qdec[rows], eps)
        assert b.chi[:, 0].tobytes() == np.sqrt(np.maximum(chi_squares(b.q, b.pdec, eps), 0.0)).tobytes()
        assert b.chi_swapped[:, 0].tobytes() == swapped.tobytes()
        # Without the swapped pairs, chi is the same and chi_swapped is not set.
        alone = self._stacked(pairs, eps)
        alone.chi_pass(False)
        assert alone.chi.tobytes() == b.chi.tobytes() and not hasattr(alone, "chi_swapped")

    def test_stacked_terms_equal_each_pairs_own(self):
        # A block that mixes strict windows with one that is not (Q = P = I/3,
        # r = R = 1): sup Psi on the strict rows alone, through a grid-taking
        # generator too, as each pair's own block of one gives it.
        pairs = [(qd.matrix, pd.matrix) for qd, pd in (sample_pair("ginibre", 3, 1e-3, rng_for(70 + k))
                                                        for k in range(2))]
        pairs.insert(1, (np.eye(3) / 3.0, np.eye(3) / 3.0))
        gens = (*default_catalog(), conjugate(kl_quantum()))
        tsallis = [g for g, f in enumerate(gens) if f.name == "tsallis"]
        b = self._stacked(pairs, 1e-12)
        assert b.strict[:, 0].tolist() == [True, False, True]
        e = _terms(b, gens, tsallis)
        for k, (q, p) in enumerate(pairs):
            own = _terms(_pair(q, p, None, 1e-12), gens, tsallis)
            for name in e._fields:
                assert getattr(e, name)[k].tobytes() == getattr(own, name)[0].tobytes(), (k, name)


class TestCoefficients:
    def test_frozen_values(self):
        assert chi_square_secant_coeff(0.5, 1.5) == pytest.approx(1.0, abs=1e-14)
        assert chi_square_chord_coeff(0.5, 1.5) == pytest.approx(0.25, abs=1e-14)
        assert neg_log_jensen_coeff(0.5, 2.0) == pytest.approx(0.44628710262841952, abs=1e-15)
        assert neg_log_range_coeff(0.5, 2.0) == pytest.approx(0.5625, abs=1e-14)

    def test_window_validation(self):
        from qfdiv.errors import PreconditionError
        with pytest.raises(PreconditionError):
            chi_square_chord_coeff(1.2, 2.0)
        with pytest.raises(PreconditionError):
            neg_log_jensen_coeff(0.5, 0.9)

    @pytest.mark.parametrize("coeff", [chi_square_secant_coeff, chi_square_chord_coeff,
                                       neg_log_jensen_coeff, neg_log_range_coeff])
    @pytest.mark.parametrize("R", [INF, math.nan])
    def test_non_finite_window_raises(self, coeff, R):
        with pytest.raises(PreconditionError, match="need finite r < R"):
            coeff(0.5, R)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-4, 1.0 - 1e-9), st.floats(1.0 + 1e-9, 100.0))
    def test_property_chord_below_secant_route(self, r, R):
        assert chi_square_chord_coeff(r, R) <= chi_square_secant_coeff(r, R) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-4, 1.0 - 1e-9), st.floats(1.0 + 1e-9, 100.0))
    def test_property_jensen_below_range(self, r, R):
        assert neg_log_jensen_coeff(r, R) <= neg_log_range_coeff(r, R) + 1e-12


class TestSampling:
    @pytest.mark.parametrize("kind", ["ginibre", "commuting", "mixture"])
    def test_valid_density(self, kind):
        rho = sample_density(kind, 4, 1e-4, rng_for(0))
        assert rho.dim == 4
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert rho.min_eigenvalue >= 0.0

    def test_floor_keeps_spectrum_away_from_zero(self):
        rho = sample_density("ginibre", 4, 0.01, rng_for(1))
        assert rho.min_eigenvalue >= 0.01 / 4 / 1.01 - 1e-12

    def test_commuting_pair_commutes(self):
        q, p = sample_pair("commuting", 5, 1e-6, rng_for(2))
        comm = q.matrix @ p.matrix - p.matrix @ q.matrix
        assert np.abs(comm).max() <= 1e-12

    def test_same_seed_reproduces(self):
        a = sample_density("ginibre", 3, 0.0, rng_for(3))
        b = sample_density("ginibre", 3, 0.0, rng_for(3))
        assert np.array_equal(a.matrix, b.matrix)

    def test_unknown_kind(self):
        with pytest.raises(InputFormatError):
            sample_density("haar", 3, 0.0, rng_for(0))

    def test_floor_out_of_range(self):
        with pytest.raises(InputFormatError):
            sample_density("ginibre", 4, 0.25, rng_for(0))

    @pytest.mark.parametrize("dim", [1, 2, 8, 16, 64])
    @pytest.mark.parametrize("states", [1, 2, 3])
    def test_draw_weights_are_generator_dirichlet(self, dim, states):
        # _draw forms unit-alpha Dirichlet weights itself; they must be
        # Generator.dirichlet's numbers, and leave the stream where it does.
        from qfdiv.harness import _draw

        for kind in ("mixture", "commuting"):
            rng, ref = rng_for(100 + dim), rng_for(100 + dim)
            normals, weights = _draw(kind, dim, rng, states)
            if kind == "commuting":
                expected = ref.standard_normal((2, dim, dim)), ref.dirichlet(np.ones(dim), size=states)
            else:
                draws = [(ref.standard_normal((2, dim, dim)), ref.dirichlet(np.ones(dim)))
                         for _ in range(states)]
                expected = np.concatenate([g for g, _ in draws]), np.stack([w for _, w in draws])
            for got, want in zip((normals, weights), expected):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), kind
            assert _same_state(rng.bit_generator.state, ref.bit_generator.state), kind
            assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes(), kind


def reference_pair(kind, dim, floor, rng):
    """sample_pair one state at a time: a (dim, dim) draw per call and 2-D
    numpy operations throughout, with no stacking."""

    def gauss():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    def state(basis):
        if kind == "ginibre":
            g = gauss()
            rho = g @ g.conj().T
            rho = rho / np.trace(rho).real
        elif kind == "commuting":
            rho = (basis * rng.dirichlet(np.ones(dim))) @ basis.conj().T
        else:
            vecs = gauss()
            vecs /= np.linalg.norm(vecs, axis=0)
            rho = (vecs * rng.dirichlet(np.ones(dim))) @ vecs.conj().T
        if floor > 0.0:
            rho = (rho + floor * np.eye(dim) / dim) / (1.0 + floor)
        return (rho + rho.conj().T) / 2.0

    basis = None
    if kind == "commuting":
        qmat, rmat = np.linalg.qr(gauss())
        basis = qmat * (np.diag(rmat) / np.abs(np.diag(rmat)))
    return state(basis), state(basis)


def reference_eigh(m):
    """LAPACK eigh of one matrix, the zero clamp at ||m||_F, negatives to 0."""
    vals, vecs = np.linalg.eigh(m)
    vals[np.abs(vals) <= 1e-13 * np.linalg.norm(m)] = 0.0
    vals[vals < 0.0] = 0.0
    return vals, vecs


def reference_joint(qd, pd):
    """lam, mu, W, r, R and chi-square of one pair by 2-D numpy operations:
    descending spectra, W = |U* V|^2, and tr(Q^2 P^-1) - 1 with P^-1 from
    P's ascending decomposition through matrix_function."""
    from qfdiv.hermitian import matrix_function

    u, v = qd.dec.eigenvectors[:, ::-1], pd.dec.eigenvectors[:, ::-1]
    lam, mu = qd.eigenvalues[::-1].copy(), pd.eigenvalues[::-1].copy()
    w = np.abs(u.conj().T @ v) ** 2
    chi = float(np.trace(qd.matrix @ qd.matrix @ matrix_function(pd.dec, lambda x: 1.0 / x))
                .real) - 1.0
    return lam, mu, w, min(float(lam[-1] / mu[0]), 1.0), max(float(lam[0] / mu[-1]), 1.0), chi


_JS_FIELDS = ("lam", "mu", "w", "r", "R", "q_vectors", "p_vectors", "defect", "wt", "ratio")


def _js_arrays(js):
    return tuple(getattr(js, name) for name in _JS_FIELDS)


def _row_arrays(fields, k):
    """Row k of joint_spectra's stacked fields, in _js_arrays' order."""
    assert sorted(fields) == sorted(_JS_FIELDS)
    return tuple(fields[name][k] for name in _JS_FIELDS)


class TestBlockFrontEnd:
    """A block's states, joint spectra and chi-squares stay stacked through
    _states, densities, joint_spectra and chi_squares; each row must equal
    the single-pair call bit for bit."""

    @pytest.mark.parametrize("kind", ["ginibre", "commuting", "mixture"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("floor", [0.0, None], ids=["floor0", "default-floor"])
    def test_block_matches_single_calls(self, kind, dim, floor):
        from qfdiv.harness import _trial_rng
        from qfdiv.quantum import chi_squares

        floor = 1e-6 / dim if floor is None else floor
        trials = range(5)
        sym, dec = densities(_states(kind, dim, floor, [_trial_rng(17, t) for t in trials], 2))
        fields, errors = joint_spectra(dec[0::2], dec[1::2])
        chis = chi_squares(sym[0::2], dec[1::2])
        assert len(sym) == 10 and errors == [None] * 5 and len(chis) == 5
        for k, t in enumerate(trials):
            one = sample_pair(kind, dim, floor, _trial_rng(17, t))
            for i, single, raw in zip((2 * k, 2 * k + 1), one,
                                      reference_pair(kind, dim, floor, _trial_rng(17, t))):
                assert np.array_equal(sym[i], single.matrix)
                assert np.array_equal(sym[i], raw)
                vals, vecs = reference_eigh(raw)
                assert np.array_equal(dec.eigenvalues[i], vals)
                assert np.array_equal(dec.eigenvectors[i], vecs)
            qd, pd = one
            js = joint_spectrum(qd, pd)
            # The one-pair spectrum's window and defect are Python floats.
            assert type(js.r) is float and type(js.R) is float
            assert type(js.defect) is tuple and all(type(x) is float for x in js.defect)
            for a, b in zip(_row_arrays(fields, k), _js_arrays(js)):
                assert np.array_equal(a, b)
            assert chis[k] == chi_square(qd, pd)
            for a, b in zip((*_row_arrays(fields, k)[:5], chis[k]), reference_joint(qd, pd)):
                assert np.array_equal(a, b)

    def test_failing_rows_carry_their_exceptions(self):
        from qfdiv.harness import _trial_rng

        sym, dec = densities(_states("ginibre", 3, 1e-6 / 3, [_trial_rng(2, t) for t in range(16)], 2))
        # From trial 8 on, Q's eigenvectors are scaled off the unit sphere, so
        # the overlap matrix is not doubly stochastic.  A singular P (below
        # eps 0.01) is reported first, as joint_spectrum always did.
        dec.eigenvectors[16::2] *= 1.01
        fields, errors = joint_spectra(dec[0::2], dec[1::2], 0.01)
        kinds = []
        for k, got in enumerate(errors):
            qd, pd = _member(sym, dec, 2 * k), _member(sym, dec, 2 * k + 1)
            singular = pd.min_eigenvalue < 0.01
            expected = (PreconditionError if singular else ArithmeticError if k >= 8 else None)
            try:
                want = joint_spectrum(qd, pd, 0.01)
            except (PreconditionError, ArithmeticError) as exc:
                assert type(got) is type(exc) is expected and str(got) == str(exc)
                kinds.append((type(exc).__name__, k >= 8))
            else:
                assert expected is None and got is None
                for a, b in zip(_row_arrays(fields, k), _js_arrays(want)):
                    assert np.array_equal(a, b)
                kinds.append(("pass", False))
        assert {("pass", False), ("PreconditionError", False), ("PreconditionError", True),
                ("ArithmeticError", True)} <= set(kinds)

    def test_fuzz_skips_the_same_trials_with_the_same_reasons(self):
        from qfdiv.harness import _trial_rng

        config = FuzzConfig(dim=3, trials=16, seed=2, eps=0.01)
        expected = []
        for t in range(16):
            qd, pd = sample_pair("ginibre", 3, config.floor, _trial_rng(2, t))
            try:
                joint_spectrum(qd, pd, 0.01)
            except PreconditionError as exc:
                expected.append({"trial": t, "reason": str(exc)})
        assert 0 < len(expected) < 16
        assert fuzz(config).summary["skipped_trials"] == expected


class TestFuzzConfig:
    def test_defaults(self):
        cfg = FuzzConfig(dim=5)
        assert cfg.floor == pytest.approx(1e-6 / 5)
        assert len(cfg.generators) == 12

    def test_trials_must_be_positive(self):
        with pytest.raises(InputFormatError):
            FuzzConfig(trials=0)

    def test_tol_must_be_positive(self):
        with pytest.raises(InputFormatError):
            FuzzConfig(tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, INF, math.nan, pytest.param(-10**400, id="huge-negative-int")])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(InputFormatError, match="positive and finite"):
            FuzzConfig(tol=tol)

    @staticmethod
    def entry_points(tol=1e-9, f=None, sf=None) -> list:
        """Each public call that judges chains, on one pair at tolerance tol
        for generator f (chi2 by default); with sf given, the check_* calls
        alone, which take it."""
        f = parse_generator_spec("chi2") if f is None else f
        checks = [lambda check=check: check(EXAMPLE_B_Q, EXAMPLE_B_P, f, tol=tol, sf=sf) for check in (
            check_nonneg, check_derivative_gap, check_thm2, check_thm3, check_thm4, check_thm5)]
        return checks if sf is not None else [lambda: run_all_checks(EXAMPLE_B_Q, EXAMPLE_B_P, f, tol=tol),
                                               lambda: certify(EXAMPLE_B_Q, EXAMPLE_B_P, (f,), tol=tol), *checks]

    @pytest.mark.parametrize("tol", [0.0, -1.0, INF, math.nan])
    def test_every_entry_point_checks_tol(self, tol):
        for call in self.entry_points(tol):
            with pytest.raises(InputFormatError, match="positive and finite"):
                call()

    @pytest.mark.parametrize("tol", ["1e-9", True])
    def test_every_entry_point_refuses_a_tol_that_is_not_a_number(self, tol):
        for call in self.entry_points(tol):
            with pytest.raises(InputFormatError, match="tolerance must be a real number"):
                call()

    @pytest.mark.parametrize("f", ["chi2", 1.0])
    def test_every_entry_point_refuses_a_generator_that_is_not_one(self, f):
        # certify(q, p, ["chi2"]) once raised a bare AttributeError.
        assert len(self.entry_points(f=f)) == 8
        for call in self.entry_points(f=f):
            with pytest.raises(InputFormatError, match="generators must hold Generator instances"):
                call()

    @pytest.mark.parametrize("sf", ["x", True])
    def test_every_check_refuses_an_sf_that_is_not_a_number(self, sf):
        # sf="x" once raised a bare ValueError, and sf=True was judged as S_f = 1.0.
        assert len(self.entry_points(sf=sf)) == 6
        for call in self.entry_points(sf=sf):
            with pytest.raises(InputFormatError, match="sf must be a real number"):
                call()

    def test_whole_numbers_stored_as_ints(self):
        config = FuzzConfig(dim=3.0, trials=5.0)
        assert (type(config.dim), type(config.trials)) == (int, int)
        assert json.dumps(fuzz(config).summary) == json.dumps(fuzz(FuzzConfig(dim=3, trials=5)).summary)

    @pytest.mark.parametrize("field", ["dim", "trials"])
    @pytest.mark.parametrize("value", [2.5, INF, math.nan, "x", None])
    def test_fractional_dim_or_trials_rejected(self, field, value):
        # dim = 2.5 once ran silently at d = 2.
        with pytest.raises(InputFormatError, match="whole number"):
            FuzzConfig(**{field: value})

    @pytest.mark.parametrize("field", ["seed", "jobs"])
    def test_fractional_seed_or_jobs_rejected(self, field):
        # seed = 2.5 once ran silently as seed 2, and jobs = 2.5 was stored as 2.5.
        with pytest.raises(InputFormatError, match="whole number"):
            FuzzConfig(**{field: 2.5})

    @pytest.mark.parametrize("field", ["dim", "trials", "seed", "jobs"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "4", " 4 ", "4.0"])
    def test_bool_or_string_rejected(self, field, value):
        # trials=True once ran 1 trial, seed="7" seeded 7 and dim=" 4 " ran at d = 4.
        with pytest.raises(InputFormatError, match="whole number"):
            FuzzConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("dim", 4.0), ("dim", np.int64(4)), ("trials", np.int32(3)), ("trials", np.float64(3.0)),
        ("seed", np.uint64(7)), ("jobs", np.int8(2))])
    def test_whole_float_and_numpy_integer_accepted(self, field, value):
        config = FuzzConfig(**{field: value})
        assert type(getattr(config, field)) is int and getattr(config, field) == value

    @pytest.mark.parametrize("field", ["tol", "eps", "floor"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1e-9", " 0.001 ", [1e-9]])
    def test_bool_or_string_tolerance_or_floor_rejected(self, field, value):
        # tol="1e-9" once died in the first block and eps="1e-12" raised a bare
        # TypeError; floor="0.001", floor=False and tol=True ran, the last at tol 1.
        with pytest.raises(InputFormatError, match="must be a real number"):
            FuzzConfig(dim=2, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("tol", 1), ("tol", np.float32(0.5)), ("eps", 1), ("eps", np.float64(1e-3)), ("floor", 0),
        ("floor", np.float16(0.25))])
    def test_real_numbers_stored_as_floats(self, field, value):
        config = FuzzConfig(dim=2, **{field: value})
        assert type(getattr(config, field)) is float and getattr(config, field) == value

    @pytest.mark.parametrize("generators", [["kl-quantum"], "kl", [chi2(), None]],
                             ids=["spec", "string", "none-entry"])
    def test_generators_must_be_generator_instances(self, generators):
        # generators=["kl-quantum"] once died in the first block with an AttributeError.
        with pytest.raises(InputFormatError, match="Generator instances"):
            FuzzConfig(generators=generators)

    def test_whole_seed_runs_as_that_seed(self):
        config = FuzzConfig(dim=3, trials=3, seed=3.0, jobs=2.0)
        assert (type(config.seed), type(config.jobs)) == (int, int)
        other = FuzzConfig(dim=3, trials=3, seed=3)
        assert json.dumps(fuzz(config).summary) == json.dumps(fuzz(other).summary)

    @pytest.mark.parametrize("seed, same_draws", [(2**64 + 7, 7), (-1, 2**64 - 1)])
    def test_large_and_negative_seeds_run(self, seed, same_draws):
        # The streams are keyed by the seed mod 2**64; the summary keeps the seed given.
        summary = fuzz(FuzzConfig(dim=3, trials=3, seed=seed)).summary
        assert summary["config"]["seed"] == seed
        other = fuzz(FuzzConfig(dim=3, trials=3, seed=same_draws)).summary
        assert json.dumps({**summary, "config": None}) == json.dumps({**other, "config": None})

    def test_zero_dim_rejected_before_the_default_floor(self):
        with pytest.raises(InputFormatError, match="dimension must be >= 1"):
            FuzzConfig(dim=0)

    def test_bad_sampler(self):
        with pytest.raises(InputFormatError):
            FuzzConfig(sampler="none")

    def test_bad_jobs(self):
        with pytest.raises(InputFormatError):
            FuzzConfig(jobs=0)

    @pytest.mark.parametrize("field", ["trials", "jobs"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(InputFormatError, match=f"^{field} must be >= 1, got 0$"):
            FuzzConfig(**{field: 0})

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 100_000])
    def test_oversized_dim_rejected(self, dim):
        # Refused before anything of that size is allocated.
        with pytest.raises(InputFormatError, match=f"at most {MAX_DIM}"):
            FuzzConfig(dim=dim)
        with pytest.raises(InputFormatError, match=f"at most {MAX_DIM}"):
            sample_pair("ginibre", dim, 0.0, rng_for(0))


def _same_state(a, b) -> bool:
    """Two bit-generator state dicts are equal, arrays by dtype and value."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestRekey:
    """fuzz draws every trial from one Philox re-keyed to (seed, trial); each
    re-keyed state must be the one a Philox built with that key starts in."""

    @pytest.mark.parametrize("seed", [0, 19, 2**63, 2**64 - 1, 2**64 + 7, -1, -(2**70) - 3])
    def test_rekeyed_state_and_draws_are_a_fresh_philox(self, seed):
        from qfdiv.harness import _rekey, _trial_rng

        rng = np.random.Generator(np.random.Philox(key=0))
        rng.integers(2**32, dtype=np.uint32)  # a buffered 32-bit half and a partly used buffer
        for t in (0, 1, 5, 5, 2**40):
            before = rng.bit_generator.state
            assert (before["buffer_pos"], before["has_uint32"]) != (4, 0)
            assert _rekey(rng, seed, t) is rng
            fresh = np.random.Philox(key=np.array([seed % 2**64, t], dtype=np.uint64))
            assert _same_state(rng.bit_generator.state, fresh.state)
            assert _same_state(rng.bit_generator.state, _trial_rng(seed, t).bit_generator.state)
            ref = np.random.Generator(fresh)
            for d in (1, 3, 4):
                assert np.array_equal(rng.standard_normal((2, d, d)), ref.standard_normal((2, d, d)))
                assert np.array_equal(rng.dirichlet(np.ones(d)), ref.dirichlet(np.ones(d)))
            rng.random()  # an odd number of 64-bit draws leaves buffer_pos != 4
            rng.integers(2**32, dtype=np.uint32)

    def test_seeds_from_2_63_keep_their_streams(self):
        # From 2**63 a key word no longer fits an int64: the state setter takes
        # it as plain ints, and the constructors must still get uint64 arrays
        # (a plain list is mis-cast there, with a RuntimeWarning).  The draws
        # and slacks below are frozen from the streams of uint64-array keys.
        from qfdiv.harness import _trial_rng
        from qfdiv.quantum import sandwich_check

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (seed, t), raw in {(2**63, 0): [17362331033885484258, 9600455299303337028],
                                   (2**63, 7): [8678392443289258050, 17736777605186398321],
                                   (2**64 - 1, 2): [8616273357809074041, 11965345385270336486]}.items():
                assert _trial_rng(seed, t).bit_generator.random_raw(2).tolist() == raw
            for seed, slacks in {2**63: (0.39998881930503655, 1.0587602679204478),
                                 2**64 - 1: (0.5124169460610608, 0.6612067120260761)}.items():
                terms = dict(sandwich_check(EXAMPLE_B_Q, EXAMPLE_B_P, trials=5, seed=seed).terms)
                assert (terms["worst-lower-slack"], terms["worst-upper-slack"]) == pytest.approx(slacks, rel=1e-9)

    @pytest.mark.parametrize("kind", ["ginibre", "commuting", "mixture"])
    def test_block_from_one_rekeyed_stream_matches_fresh_streams(self, kind):
        # _states must draw from each yielded stream before taking the next,
        # since every one is the same re-keyed Generator.
        from qfdiv.harness import _rekey, _trial_rng

        rng = np.random.Generator(np.random.Philox(key=0))
        trials = range(3, 9)
        block, _ = densities(_states(kind, 3, 1e-4, (_rekey(rng, 23, t) for t in trials), 2))
        fresh, _ = densities(_states(kind, 3, 1e-4, [_trial_rng(23, t) for t in trials], 2))
        assert block.shape == fresh.shape == (2 * len(trials), 3, 3)
        for q, p, q0, p0 in zip(block[0::2], block[1::2], fresh[0::2], fresh[1::2], strict=True):
            assert np.array_equal(q, q0)
            assert np.array_equal(p, p0)


class TestFuzz:
    def test_clean_run_has_no_violations(self):
        res = fuzz(FuzzConfig(dim=3, trials=20, seed=5))
        assert res.violations == ()
        assert res.summary["violations"] == 0
        assert res.summary["checks"]["thm3"]["fail"] == 0

    def test_summary_is_deterministic(self):
        cfg = dict(dim=3, trials=15, seed=9)
        a = fuzz(FuzzConfig(**cfg)).summary
        b = fuzz(FuzzConfig(**cfg)).summary
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jobs_do_not_change_output(self):
        a = fuzz(FuzzConfig(dim=3, trials=15, seed=9, jobs=1)).summary
        b = fuzz(FuzzConfig(dim=3, trials=15, seed=9, jobs=4)).summary
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_empty_generator_list(self):
        res = fuzz(FuzzConfig(dim=2, trials=3, generators=()))
        assert res.violations == ()
        assert res.summary["checks"] == {}
        assert res.summary["min_slack"] is None

    def test_summary_has_slack_statistics(self):
        res = fuzz(FuzzConfig(dim=2, trials=10, seed=1))
        assert res.summary["min_slack"] is not None
        assert "thm3" in res.summary["slack_histograms"]
        assert res.summary["near_tight_total"] >= 0

    def test_concave_generator_is_caught(self):
        # -(t-1)^2 is concave and normalized: nonneg must fail.
        bad = from_callable("concave-probe", lambda t: -((t - 1.0) ** 2))
        res = fuzz(FuzzConfig(dim=3, trials=5, seed=2, generators=(bad,)))
        assert len(res.violations) > 0
        checks = {v.check for v in res.violations}
        assert "nonneg" in checks

    def test_violation_replays_bit_identically(self):
        bad = from_callable("concave-probe", lambda t: -((t - 1.0) ** 2))
        cfg = FuzzConfig(dim=3, trials=5, seed=2, generators=(bad,))
        res = fuzz(cfg)
        v = res.violations[0]
        assert v.seed == 2
        # Re-drawing the trial stream must reproduce the serialized pair.
        from qfdiv.harness import _trial_rng
        rng = _trial_rng(v.seed, v.trial)
        q2, p2 = sample_pair(cfg.sampler, cfg.dim, cfg.floor, rng)
        assert np.array_equal(matrix_from_json(v.q_json), q2.matrix)
        assert np.array_equal(matrix_from_json(v.p_json), p2.matrix)

    def test_violation_json_fields(self):
        bad = from_callable("concave-probe", lambda t: -((t - 1.0) ** 2))
        res = fuzz(FuzzConfig(dim=2, trials=3, seed=4, generators=(bad,)))
        obj = res.violations[0].to_json()
        for key in ("check", "link", "left", "right", "generator", "seed", "trial", "q", "p"):
            assert key in obj

    def test_wide_window_tv_has_no_false_violations(self):
        # Trial windows with R above 1e6, where sup Psi once missed t = 1.
        res = fuzz(FuzzConfig(dim=16, trials=3, seed=3000031))
        assert res.summary["violations"] == 0

    def test_unreachable_eps_skips_trials(self):
        res = fuzz(FuzzConfig(dim=3, trials=4, seed=0, eps=0.5))
        assert len(res.summary["skipped_trials"]) == 4
        assert res.violations == ()

    @pytest.mark.parametrize("degenerate", [0, 1], ids=["degenerate-first", "degenerate-last"])
    def test_block_without_closed_forms_keeps_chain_list(self, monkeypatch, degenerate):
        # 17 trials are a block of 16 and a block of 1.  Block `degenerate` is
        # Q = P = I/2, whose window r = R = 1 leaves no entry to any closed
        # form of thm2 to thm5; the tally's chain layout must still fit the
        # other block.
        real, blocks = harness._states, []

        def states(kind, dim, floor, rngs, n):
            stack = real(kind, dim, floor, rngs, n)
            blocks.append(np.broadcast_to(np.eye(2) / 2.0, stack.shape).astype(stack.dtype)
                          if len(blocks) == degenerate else stack)
            return blocks[-1]

        monkeypatch.setattr(harness, "_states", states)
        result = fuzz(FuzzConfig(dim=2, trials=17))
        assert result.violations == ()
        assert [len(stack) for stack in blocks] == [32, 2]
        expected = {}
        for i, stack in enumerate(blocks):
            for qd, pd in zip(stack[0::2], stack[1::2]):
                for f in default_catalog():
                    for top in run_all_checks(qd, pd, f):
                        for rep in (top, *top.subchains):
                            if i == degenerate and rep.check in ("thm2", "thm3", "thm4", "thm5"):
                                assert rep.status == "skipped", (f.spec, rep.check)
                            counts = expected.setdefault(rep.check, dict.fromkeys(
                                ("pass", "vacuous-pass", "fail", "skipped"), 0))
                            counts[rep.status] += 1
        assert result.summary["checks"] == expected


class TestBlocksStayStacked:
    """fuzz keeps a block's states and spectra as stacks: it builds a
    DensityMatrix only for a trial with a failed link, and no JointSpectrum."""

    @staticmethod
    def _count_objects(monkeypatch):
        from qfdiv import quantum

        built = {"DensityMatrix": 0, "JointSpectrum": 0}
        real = quantum._frozen

        def frozen(cls, **fields):
            if cls.__name__ in built:
                built[cls.__name__] += 1
            return real(cls, **fields)

        monkeypatch.setattr(quantum, "_frozen", frozen)
        for cls in (quantum.DensityMatrix, quantum.JointSpectrum):
            def post_init(self, real_post=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                real_post(self)
            monkeypatch.setattr(cls, "__post_init__", post_init)
        return built

    def test_clean_run_builds_no_per_pair_objects(self, monkeypatch):
        built = self._count_objects(monkeypatch)
        result = fuzz(FuzzConfig(dim=3, trials=37, seed=2, eps=0.01))
        assert result.violations == () and len(result.summary["skipped_trials"]) == 5
        assert built == {"DensityMatrix": 0, "JointSpectrum": 0}

    def test_violating_run_builds_states_only_for_failing_trials(self, monkeypatch):
        built = self._count_objects(monkeypatch)
        result = fuzz(FuzzConfig(dim=3, trials=37, seed=2, eps=0.01, tol=1e-300))
        failing = {v.trial for v in result.violations}
        assert failing == {12, 15, 18, 19, 24, 27}
        assert built == {"DensityMatrix": 2 * len(failing), "JointSpectrum": 0}
        # The single-pair API still builds its objects through the counted paths.
        joint_spectrum(EXAMPLE_B_Q, EXAMPLE_B_P)
        assert built == {"DensityMatrix": 2 * len(failing) + 2, "JointSpectrum": 1}

    def test_block_without_skipped_trials_is_not_copied(self, monkeypatch):
        # _Block gets the stacks densities made, as views, unless a trial of
        # its block was skipped; then it gets the kept rows.
        made, blocks = [], []
        real_densities, real_block = harness.densities, harness._Block
        monkeypatch.setattr(harness, "densities", lambda stack: made.append(real_densities(stack)) or made[-1])
        monkeypatch.setattr(harness, "_Block", lambda *args: blocks.append(args) or real_block(*args))
        result = fuzz(FuzzConfig(dim=3, trials=37, seed=2, eps=0.01))
        skipped = {entry["trial"] for entry in result.summary["skipped_trials"]}
        assert skipped == {3, 5, 13, 23, 29} and len(made) == len(blocks) == 3
        for first, (sym, dec), (q, qdec, p, pdec, *_) in zip(range(0, 37, 16), made, blocks, strict=True):
            uncopied = not skipped & set(range(first, first + 16))
            assert uncopied == (first == 32)
            for x, y in ((q, sym), (p, sym), (qdec.eigenvalues, dec.eigenvalues),
                         (pdec.eigenvectors, dec.eigenvectors)):
                assert np.shares_memory(x, y) == uncopied


class TestOneEvaluationPerBlock:
    """Each generator is evaluated once per fuzz block: one f.fn call on the
    block's positive ratios and window points, and one call per derivative
    function; and a closed form stays the column it comes out as."""

    @staticmethod
    def counted(f):
        """f with counting fn and derivatives, a shared derivative kept shared."""
        calls = collections.Counter()

        def count(name, fn):
            def counted_fn(t):
                calls[name] += 1
                return fn(t)
            return counted_fn

        shared = f.deriv_left_fn is f.deriv_right_fn
        left = count("deriv" if shared else "left", f.deriv_left_fn)
        right = left if shared else count("right", f.deriv_right_fn)
        return dataclasses.replace(f, fn=count("fn", f.fn), deriv_left_fn=left, deriv_right_fn=right), calls

    def test_declared_generator(self):
        f, calls = self.counted(kl_quantum())
        fuzz(FuzzConfig(dim=3, trials=17, seed=21, generators=(f,)))  # blocks of 16 and 1
        # Twice each, and f(1) once, cached by value_at_one.
        assert dict(calls) == {"fn": 2 + 1, "deriv": 2}

    def test_conjugate_keeps_two_derivative_calls(self):
        f, calls = self.counted(conjugate(kl_quantum()))
        assert f.psi_peak is None  # fn is called for its grids too
        fuzz(FuzzConfig(dim=3, trials=17, seed=21, generators=(f,)))
        assert (calls["left"], calls["right"]) == (2, 2)

    def test_default_catalog_block_makes_25_calls(self):
        wrapped = [self.counted(f) for f in default_catalog()]
        fuzz(FuzzConfig(dim=3, trials=17, seed=21, generators=[f for f, _ in wrapped]))
        # tv's left and right derivatives differ; the other 11 share one.
        total = sum(sum(calls.values()) for _, calls in wrapped)
        assert total - len(wrapped) == 2 * 25

    def test_closed_forms_stay_columns(self):
        from qfdiv.harness import _kl_log_mix, _neg_log_log_mix, _product_ratio

        gens = tuple(default_catalog())
        p = _plan(tuple((f.name, f.smooth) for f in gens), tuple(_CHECKS))
        nc = len(p.columns)
        # The base terms (pairs, generators) each closed form reads; its other
        # factors are (pairs, 1) columns.
        read = {}
        for i, (j, n, at) in enumerate(zip(p.chain, p.links, p.starts)):
            if p.chains[j].check in CLOSED_FORMS:
                factors = p.factor[at + i:at + i + n + 1]
                read[p.chains[j].check] = {p.bases[(x - nc) // len(gens)] for x in factors.tolist() if x >= nc}
        assert set(read) == CLOSED_FORMS
        # tsallis's coefficient depends on its q: a base term, on its column alone.
        assert read.pop("thm2:tsallis") == {"sf", "tsallis"} and p.tsallis == [g for g, f in enumerate(gens) if f.name == "tsallis"]
        assert set().union(*read.values()) == {"sf"}
        # A formula that several closed forms read is one column of a block.
        for formula in (_kl_log_mix, _neg_log_log_mix, _product_ratio, neg_log_range_coeff.formula,
                        chi_square_secant_coeff.formula):
            assert [key is formula for key in p.columns].count(True) == 1

    def test_link_table_holds_only_existing_links(self):
        gens = tuple(default_catalog())
        sym, dec = densities(_states("ginibre", 4, 1e-3, [rng_for(45)], 6))
        fields, errors = joint_spectra(dec[0::2], dec[1::2])
        judged = _judge(_Block(sym[0::2], dec[0::2], sym[1::2], dec[1::2], fields, 1e-12), gens, 1e-9)
        t, chains = judged.plan, judged.plan.chains
        # 15 links of generic chains on each of the 12 columns, and the 27 of
        # the closed forms each on its family's one column.
        assert judged.codes.shape == judged.slack.shape == (3, 207) and len(t.owner) == 207
        want = [(g, j, k) for g, f in enumerate(gens) for j, ch in enumerate(chains)
                if ch.family in (None, f.name) for k in range(len(ch.labels) - 1)]
        got = [(t.gen[i], t.chain[i], e - t.starts[i]) for e, i in enumerate(t.owner.tolist())]
        assert got == want  # by generator, then chain, then link
        assert t.labels == [(g, chains[j].check, f"{chains[j].labels[k]}<={chains[j].labels[k + 1]}")
                            for g, j, k in want]
        # Each chain is present on some pair of the block.
        for j, ch in enumerate(chains):
            assert judged.present[:, [i for i, c in enumerate(t.chain) if c == j]].any(), ch.check

    def test_generator_infinite_at_the_upper_end(self):
        # f(R) overflows while f(r) is finite: Psi(1) is +inf like sup Psi,
        # where thm4 once raised "psi needs f finite at r, t, R".
        f = parse_generator_spec("chi-alpha:alpha=200")
        rep = check_thm4(*sample_pair("ginibre", 4, 1e-3, rng_for(3)), f)
        assert rep.R > 40.0 and dict(rep.chain)["window-psi-at-one"] == INF
        assert rep.status == "vacuous-pass"
        summary = fuzz(FuzzConfig(dim=4, trials=5, generators=(f,))).summary
        assert summary["violations"] == 0 and summary["checks"]["thm4"]["fail"] == 0


class TestClosedFormsNeedClosedFormMetadata:
    """A closed form, and its flag rules, hold for its family's own function:
    a generator that only bears a family's name, built from a bare callable
    (approx), is judged on the generic chains alone."""

    @pytest.mark.parametrize("f", [
        # No q parameter: certify once raised a bare KeyError: 'q'.
        from_callable("tsallis", lambda t: (1.0 - t**0.5) / 0.5),
        # Judged against chi2's closed forms, thm2 to thm5 once failed.
        from_callable("chi2", lambda t: (t - 1.0) ** 4),
    ], ids=["tsallis-without-q", "chi2-quartic"])
    def test_named_callable_gets_no_closed_form(self, f):
        for q, p in ((EXAMPLE_A_Q, EXAMPLE_A_P), (EXAMPLE_B_Q, EXAMPLE_B_P)):
            [(_, reports)] = certify(q, p, [f])
            for top in reports:
                assert top.status != "fail" and not {sub.check for sub in top.subchains} & CLOSED_FORMS, top
                assert "sharper-than-secant-polynomial" not in top.flags
        summary = fuzz(FuzzConfig(dim=3, trials=17, seed=1, generators=(f,))).summary
        assert summary["violations"] == 0 and not set(summary["checks"]) & CLOSED_FORMS


class TestReportOnlyWork:
    """The flags and thm3's tightness are worked out where reports are built,
    for the pair reported, and nowhere else."""

    PAIRS = {
        "example-a": (EXAMPLE_A_Q, EXAMPLE_A_P),
        "singular-q": (np.diag([0.6, 0.4, 0.0]), np.diag([0.5, 0.3, 0.2])),
        "narrow": (np.diag([0.5 + 1e-11, 0.5 - 1e-11]), np.eye(2) / 2.0),
    }

    @staticmethod
    def fuzz_stdout(argv) -> str:
        from qfdiv.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        return out.getvalue()

    def test_fuzz_runs_no_flag_rule_or_tightness(self, monkeypatch):
        def boom(*_):
            raise AssertionError("report-only work ran")

        def raising(chains):
            return tuple(ch._replace(flags=tuple((name, boom, *family) for name, _, *family in ch.flags))
                         for ch in chains)

        argv = ("fuzz", "--dim", "4", "--trials", "20", "--seed", "5", "--floor", "1e-3")
        want = self.fuzz_stdout(argv)
        try:
            with monkeypatch.context() as m:
                m.setattr(harness, "_CHECKS", {check: raising(chains) for check, chains in _CHECKS.items()})
                m.setattr(_Block, "tight", property(boom))
                harness._plan.cache_clear()
                assert self.fuzz_stdout(argv) == want
                # Where reports are built, every one of them runs.
                with pytest.raises(AssertionError, match="report-only work ran"):
                    run_all_checks(EXAMPLE_A_Q, EXAMPLE_A_P, chi2())
        finally:
            harness._plan.cache_clear()

    def test_reports_keep_every_flag_without_warnings(self):
        gens = tuple(default_catalog())
        everywhere = {(f.spec, check, flag) for f in gens for check, flag in (
            ("thm3", "tight:ratios-at-endpoints"), ("thm4", "matches-secant"))}
        want = {
            "example-a": everywhere | {("chi2", "thm4", "sharper-than-secant-polynomial"),
                                       ("neg-log", "derivative-gap", "oracle:slope-gap-equals-swapped-chi-square")},
            # f(0+) = +inf leaves K Psi(1) and the secant value infinite.
            "singular-q": {(f.spec, "thm4", "matches-secant") for f in gens
                           if f.name not in ("inv-minus-one", "neg-log")}
            | {("chi2", "thm4", "sharper-than-secant-polynomial"),
               ("neg-log", "derivative-gap", "swap-oracle-unavailable:singular-q")},
        }
        want["narrow"] = want["example-a"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, (q, p) in self.PAIRS.items():
                got = {(f.spec, rep.check, flag) for f in gens for rep in run_all_checks(q, p, f)
                       for flag in rep.flags if not flag.startswith("equality:")}
                assert got == want[name], name


class TestCollectViolations:
    def test_flattens_subchain_failures(self):
        bad = from_callable("concave-probe", lambda t: -((t - 1.0) ** 2))
        qd = as_density(EXAMPLE_B_Q)
        pd = as_density(EXAMPLE_B_P)
        reports = run_all_checks(qd, pd, bad)
        found = []
        for rep in reports:
            found.extend(collect_violations(rep, seed=0, trial=0, qd=qd, pd=pd))
        assert found
        assert all(v.generator == "concave-probe" for v in found)


def _slack_bucket(slack):
    if math.isinf(slack):
        return "vacuous"
    for edge, name in ((0.0, "negative"), (1e-9, "<1e-9"), (1e-6, "<1e-6"),
                       (1e-3, "<1e-3"), (1.0, "<1")):
        if slack < edge:
            return name
    return ">=1"


def _scalar_link(left, right, tol):
    """The link rule one link at a time: (verdict, slack)."""
    if math.isinf(right):
        return "vacuous", INF
    if math.isinf(left):
        return "fail", -INF
    return ("pass" if left <= right + tol * max(1.0, abs(right)) else "fail"), right - left


def _same(a, b):
    return repr(a) == repr(b)


def _walk(report, tol):
    """The report and its subchains, after checking each against _scalar_link."""
    links = [_scalar_link(lv, rv, tol) for (_, lv), (_, rv) in zip(report.chain, report.chain[1:])]
    assert report.link_verdicts == tuple(v for v, _ in links)
    assert all(_same(a, s) for a, (_, s) in zip(report.slacks, links)), report
    verdicts = set(report.link_verdicts)
    expected = ("skipped" if not links else "fail" if "fail" in verdicts
                else "vacuous-pass" if "vacuous" in verdicts else "pass")
    assert report.status == expected
    yield report
    for sub in report.subchains:
        yield from _walk(sub, tol)


def reference_fuzz(config):
    """fuzz's summary and violations, aggregated one report at a time."""
    from qfdiv.harness import _trial_rng

    statuses = ("pass", "vacuous-pass", "fail", "skipped")
    buckets = ("negative", "<1e-9", "<1e-6", "<1e-3", "<1", ">=1", "vacuous")
    violations, counts, hist, near_tight, skipped = [], {}, {}, [], []
    near_tight_total = 0
    min_slack = None
    for trial in range(config.trials):
        qd, pd = sample_pair(config.sampler, config.dim, config.floor,
                             _trial_rng(config.seed, trial))
        try:
            js = joint_spectrum(qd, pd, config.eps)
        except (ValueError, ArithmeticError) as exc:
            skipped.append({"trial": trial, "reason": str(exc)})
            continue
        for f in config.generators:
            for top in run_all_checks(qd, pd, f, js=js, tol=config.tol, eps=config.eps):
                for rep in _walk(top, config.tol):
                    counts.setdefault(rep.check, dict.fromkeys(statuses, 0))[rep.status] += 1
                    bucket = hist.setdefault(rep.check, dict.fromkeys(buckets, 0))
                    for (ll, _), (rl, _), slack in zip(rep.chain, rep.chain[1:], rep.slacks):
                        bucket[_slack_bucket(slack)] += 1
                        if not math.isfinite(slack):
                            continue
                        if min_slack is None or slack < min_slack["slack"]:
                            min_slack = {"slack": slack, "check": rep.check,
                                         "generator": rep.generator, "trial": trial,
                                         "link": f"{ll}<={rl}"}
                        if 0.0 <= slack < 1e-6:
                            near_tight_total += 1
                            if len(near_tight) < 100:
                                near_tight.append({"trial": trial, "check": rep.check,
                                                   "generator": rep.generator,
                                                   "link": f"{ll}<={rl}", "slack": slack})
                violations.extend(collect_violations(top, config.seed, trial, qd, pd))
    return {
        "checks": {k: counts[k] for k in sorted(counts)},
        "slack_histograms": {k: hist[k] for k in sorted(hist)},
        "violations": len(violations),
        "near_tight_total": near_tight_total,
        "near_tight": near_tight,
        "min_slack": min_slack,
        "skipped_trials": skipped,
    }, [v.to_json() for v in violations]


FINITE_AT_ZERO = tuple(f for f in default_catalog() if math.isfinite(f.value_at_zero))


class TestFuzzMatchesReports:
    """fuzz aggregates from arrays; the reports of run_all_checks must agree."""

    @pytest.mark.parametrize("cfg", [
        dict(dim=3, trials=12, seed=11, sampler="ginibre"),
        dict(dim=4, trials=12, seed=11, sampler="commuting"),
        dict(dim=3, trials=12, seed=11, sampler="mixture"),
        dict(dim=3, trials=12, seed=5, floor=0.0, generators=FINITE_AT_ZERO),
        dict(dim=2, trials=12, seed=3, sampler="commuting", floor=0.0,
             generators=FINITE_AT_ZERO),
        dict(dim=3, trials=10, seed=1, tol=1e-300),
        dict(dim=2, trials=10, seed=3, sampler="commuting", floor=0.0,
             generators=FINITE_AT_ZERO, tol=1e-300),
        dict(dim=3, trials=4, seed=0, eps=0.5),
        # 37 trials span three blocks: trials 3, 5, 13, 23 and 29 are skipped,
        # and the second config fails links in trials 7, 9 and 29.
        dict(dim=3, trials=37, seed=2, eps=0.01),
        dict(dim=3, trials=37, seed=2, sampler="mixture", tol=1e-300),
        # The same skipped trials, with trials 12, 15, 18, 19, 24 and 27 failing
        # links in the same blocks: the kept rows of every stack line up.
        dict(dim=3, trials=37, seed=2, eps=0.01, tol=1e-300),
        # 198 links are near-tight; the first block lists 80, so the cap of 100
        # listed entries is reached in the second.
        dict(dim=3, trials=40, seed=19, generators=(tv(),)),
        # One plan over every kind of column: the catalog, a second tsallis
        # column, a kinked generator, a family without closed forms (the
        # conjugate) and a chi2 whose metadata is approx.
        dict(dim=3, trials=17, seed=23, generators=(
            *default_catalog(), parse_generator_spec("tsallis:q=0.2"), parse_generator_spec("chi-alpha:alpha=1"),
            conjugate(parse_generator_spec("neg-log")), from_callable("chi2", lambda t: (t - 1.0) ** 4))),
    ], ids=["ginibre", "commuting", "mixture", "floor0", "floor0-commuting",
            "tol-ginibre", "tol-commuting", "skipped", "blocks-skipped", "blocks-tol",
            "blocks-skipped-tol",
            "near-tight-cap", "mixed-generators"])
    def test_summary_and_violations(self, cfg):
        config = FuzzConfig(**cfg)
        result = fuzz(config)
        summary, violations = reference_fuzz(config)
        assert json.dumps({k: result.summary[k] for k in summary}) == json.dumps(summary)
        assert json.dumps([v.to_json() for v in result.violations]) == json.dumps(violations)

    def test_link_rule_on_special_values(self):
        from qfdiv.harness import _SLACK_BUCKETS, _STATUSES, _VERDICTS, _Chain, _layout, _link_eval, _reports

        special = (0.0, -0.0, 1.0, -2.5, 1e-9, 5e-7, 1e-300, 1e300, INF, -INF, math.nan)
        pairs = [(a, b) for a in special for b in special]
        # One chain per pair of values, each on a block of one pair and one
        # generator, its terms given as the block's values.
        chains = [_Chain("c", ("a", "b"), ((1.0, 1.0), (1.0, 1.0))) for _ in pairs]
        gens = (types.SimpleNamespace(name="g", spec="g"),)
        plan = _layout((("g", True),), chains)
        terms = np.array([[x for pair in pairs for x in pair]])
        judged = _link_eval(plan, None, terms, np.ones((1, len(pairs)), bool), 1e-9)
        # One pair, and per chain one instance with one entry, in chain order.
        status, codes, slacks, buckets = (x[0] for x in (judged.status, judged.codes, judged.slack, judged.buckets))
        assert plan.links == [1] * len(pairs) and len(codes) == len(pairs)
        assert all(_same(float(x), a) and _same(float(y), b)
                   for (a, b), x, y in zip(pairs, terms[0, plan.left], terms[0, plan.left + 1]))
        # The equality flag is derived where reports are built.
        block = types.SimpleNamespace(r=np.zeros((1, 1)), R=np.ones((1, 1)), dim=1)
        reports = _reports(judged, 0, block, gens)[0]
        for (left, right), st, code, slack, bucket, rep in zip(pairs, status, codes, slacks,
                                                               buckets, reports):
            verdict, expected = _scalar_link(left, right, 1e-9)
            assert _VERDICTS[code] == verdict, (left, right)
            assert _STATUSES[st] == {"vacuous": "vacuous-pass"}.get(verdict, verdict)
            assert _same(float(slack), expected), (left, right)
            assert _SLACK_BUCKETS[bucket] == _slack_bucket(expected), (left, right)
            eq = verdict == "pass" and abs(expected) <= 1e-12 * max(1.0, abs(right))
            assert rep.flags == (("equality:a=b",) if eq else ()), (left, right)

    def test_tiny_tolerance_forces_violations(self):
        assert fuzz(FuzzConfig(dim=3, trials=10, seed=1, tol=1e-300)).violations
        assert len(fuzz(FuzzConfig(dim=2, trials=10, seed=3, sampler="commuting", floor=0.0,
                                   generators=FINITE_AT_ZERO, tol=1e-300)).violations) > 10

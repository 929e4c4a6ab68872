"""Bound chains, closed-form specializations, sampling, and fuzzing."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.errors import InputFormatError, PreconditionError
from qfdiv.generators import (
    chi2,
    conjugate,
    from_callable,
    kl_quantum,
    parse_generator_spec,
    shift,
)
from qfdiv.harness import (
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
    sample_pairs,
)
from qfdiv.generators import default_catalog
from qfdiv.hermitian import MAX_DIM, matrix_from_json
from qfdiv.quantum import as_density, chi_square, joint_spectrum

INF = math.inf

EXAMPLE_A_Q = np.diag([0.75, 0.25]).astype(complex)
EXAMPLE_A_P = np.diag([0.5, 0.5]).astype(complex)
EXAMPLE_B_Q = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
EXAMPLE_B_P = np.diag([0.7, 0.3]).astype(complex)

QUARTER_LOG3 = 0.25 * math.log(3.0)


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
        # holds, so the closed form is judged, not raised.
        q, p = np.diag([0.5, 0.5]), np.diag([0.5, 0.5 - 2.0**-54])
        assert joint_spectrum(q, p).r == 1.0 < joint_spectrum(q, p).R
        reports = run_all_checks(q, p, chi2())
        thm3 = next(rep for rep in reports if rep.check == "thm3")
        assert [(sub.check, sub.status) for sub in thm3.subchains] == [("thm3:chi2", "pass")]
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


class TestRunAllChecks:
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
        # chi2 changes no exact chain term beyond rounding.  sup Psi is the
        # max over a grid whose edge points sit 1e-6 (R - r) from r and R;
        # the linear term cancels there only to about ulp * |f| / 1e-6, so
        # those terms are held to the chain tolerance instead.
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


def _js_arrays(js):
    return (js.lam, js.mu, js.w, js.r, js.R, js.q_vectors, js.p_vectors, js.defect,
            js.wt, js.ratio, js.pos)


class TestBlockFrontEnd:
    """sample_pairs, joint_spectra and chi_squares work on stacked blocks;
    each row must equal the single-pair call bit for bit."""

    @pytest.mark.parametrize("kind", ["ginibre", "commuting", "mixture"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("floor", [0.0, None], ids=["floor0", "default-floor"])
    def test_block_matches_single_calls(self, kind, dim, floor):
        from qfdiv.harness import _trial_rng
        from qfdiv.quantum import chi_squares, joint_spectra

        floor = 1e-6 / dim if floor is None else floor
        trials = range(5)
        block = sample_pairs(kind, dim, floor, [_trial_rng(17, t) for t in trials])
        qds, pds = [q for q, _ in block], [p for _, p in block]
        spectra = joint_spectra(qds, pds)
        chis = chi_squares(qds, pds)
        for t, qd, pd, js, chi in zip(trials, qds, pds, spectra, chis):
            one = sample_pair(kind, dim, floor, _trial_rng(17, t))
            for state, single, raw in zip((qd, pd), one,
                                          reference_pair(kind, dim, floor, _trial_rng(17, t))):
                assert np.array_equal(state.matrix, single.matrix)
                assert np.array_equal(state.matrix, raw)
                vals, vecs = reference_eigh(raw)
                assert np.array_equal(state.eigenvalues, vals)
                assert np.array_equal(state.dec.eigenvectors, vecs)
            for a, b in zip(_js_arrays(js), _js_arrays(joint_spectrum(qd, pd))):
                assert np.array_equal(a, b)
            assert chi == chi_square(qd, pd)
            for a, b in zip((js.lam, js.mu, js.w, js.r, js.R, chi), reference_joint(qd, pd)):
                assert np.array_equal(a, b)

    def test_failing_rows_carry_their_exceptions(self):
        from qfdiv.harness import _trial_rng
        from qfdiv.quantum import joint_spectra

        block = sample_pairs("ginibre", 3, 1e-6 / 3, [_trial_rng(2, t) for t in range(16)])
        # From trial 8 on, Q's eigenvectors are scaled off the unit sphere, so
        # the overlap matrix is not doubly stochastic.  A singular P (below
        # eps 0.01) is reported first, as joint_spectrum always did.
        for k in range(8, 16):
            qd, pd = block[k]
            bent = dataclasses.replace(qd)
            object.__setattr__(bent, "dec", dataclasses.replace(
                qd.dec, eigenvectors=qd.dec.eigenvectors * 1.01))
            block[k] = (bent, pd)
        qds, pds = [q for q, _ in block], [p for _, p in block]
        kinds = []
        for k, ((qd, pd), got) in enumerate(zip(block, joint_spectra(qds, pds, 0.01))):
            singular = pd.min_eigenvalue < 0.01
            expected = (PreconditionError if singular else ArithmeticError if k >= 8 else None)
            try:
                want = joint_spectrum(qd, pd, 0.01)
            except (PreconditionError, ArithmeticError) as exc:
                assert type(got) is type(exc) is expected and str(got) == str(exc)
                kinds.append((type(exc).__name__, k >= 8))
            else:
                assert expected is None
                for a, b in zip(_js_arrays(got), _js_arrays(want)):
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

    @pytest.mark.parametrize("tol", [-1.0, INF, math.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(InputFormatError, match="positive and finite"):
            FuzzConfig(tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, INF, math.nan])
    def test_every_entry_point_checks_tol(self, tol):
        f = parse_generator_spec("chi2")
        calls = [lambda: run_all_checks(EXAMPLE_B_Q, EXAMPLE_B_P, f, tol=tol),
                 lambda: certify(EXAMPLE_B_Q, EXAMPLE_B_P, (f,), tol=tol),
                 *(lambda check=check: check(EXAMPLE_B_Q, EXAMPLE_B_P, f, tol=tol) for check in (
                     check_nonneg, check_derivative_gap, check_thm2, check_thm3, check_thm4,
                     check_thm5))]
        for call in calls:
            with pytest.raises(InputFormatError, match="positive and finite"):
                call()

    def test_zero_dim_rejected_before_the_default_floor(self):
        with pytest.raises(InputFormatError, match="dimension must be >= 1"):
            FuzzConfig(dim=0)

    def test_bad_sampler(self):
        with pytest.raises(InputFormatError):
            FuzzConfig(sampler="none")

    def test_bad_jobs(self):
        with pytest.raises(InputFormatError):
            FuzzConfig(jobs=0)

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 100_000])
    def test_oversized_dim_rejected(self, dim):
        # Refused before anything of that size is allocated.
        with pytest.raises(InputFormatError, match=f"at most {MAX_DIM}"):
            FuzzConfig(dim=dim)
        with pytest.raises(InputFormatError, match=f"at most {MAX_DIM}"):
            sample_pair("ginibre", dim, 0.0, rng_for(0))


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
    ], ids=["ginibre", "commuting", "mixture", "floor0", "floor0-commuting",
            "tol-ginibre", "tol-commuting", "skipped", "blocks-skipped", "blocks-tol"])
    def test_summary_and_violations(self, cfg):
        config = FuzzConfig(**cfg)
        result = fuzz(config)
        summary, violations = reference_fuzz(config)
        assert json.dumps({k: result.summary[k] for k in summary}) == json.dumps(summary)
        assert json.dumps([v.to_json() for v in result.violations]) == json.dumps(violations)

    def test_link_rule_on_special_values(self):
        from qfdiv.harness import _SLACK_BUCKETS, _STATUSES, _VERDICTS, _Chain, _link_eval

        special = (0.0, -0.0, 1.0, -2.5, 1e-9, 5e-7, 1e-300, 1e300, INF, -INF, math.nan)
        pairs = [(a, b) for a in special for b in special]
        # One chain per pair of values, each on a block of one pair.
        chains = [_Chain("c", ("a", "b"), (np.array([a]), np.array([b])), np.ones(1, bool))
                  for a, b in pairs]
        status, nlinks, codes, slacks, buckets, equal = _link_eval(chains, 1e-9)
        status, codes, slacks, buckets, equal = status[0], codes[0], slacks[0], buckets[0], equal[0]
        assert list(nlinks) == [1] * len(pairs)
        for (left, right), st, code, slack, bucket, eq in zip(pairs, status, codes, slacks,
                                                              buckets, equal):
            verdict, expected = _scalar_link(left, right, 1e-9)
            assert _VERDICTS[code] == verdict, (left, right)
            assert _STATUSES[st] == {"vacuous": "vacuous-pass"}.get(verdict, verdict)
            assert _same(float(slack), expected), (left, right)
            assert _SLACK_BUCKETS[bucket] == _slack_bucket(expected), (left, right)
            assert eq == (verdict == "pass" and abs(expected) <= 1e-12 * max(1.0, abs(right)))

    def test_tiny_tolerance_forces_violations(self):
        assert fuzz(FuzzConfig(dim=3, trials=10, seed=1, tol=1e-300)).violations
        assert len(fuzz(FuzzConfig(dim=2, trials=10, seed=3, sampler="commuting", floor=0.0,
                                   generators=FINITE_AT_ZERO, tol=1e-300)).violations) > 10

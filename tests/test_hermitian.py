"""Eigensolver, matrix functions, and scalar-window checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.hermitian import (
    CheckReport,
    InputFormatError,
    MAX_DIM,
    PreconditionError,
    eigh,
    eigh_hermitian,
    gruss_gap_check,
    hermitian_part,
    hermitian_stack,
    hs_inner,
    hs_norm,
    load_matrix,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    operator_abs,
    save_matrix,
    singular_values,
    trace,
    trace_hoelder_check,
    trace_norm,
    variance_bound_check,
)


def random_hermitian(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


class TestEigh:
    def test_diagonal_matrix_is_exact(self):
        dec = eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=0)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(1)
        dec = eigh(random_hermitian(6, rng))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        a = random_hermitian(dim, rng)
        dec = eigh(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.abs(dec.reconstruct() - a).max() <= 1e-12 * scale
        u = dec.eigenvectors
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12

    def test_zero_matrix(self):
        dec = eigh(np.zeros((3, 3)))
        assert np.all(dec.eigenvalues == 0.0)

    def test_known_pauli_x(self):
        dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_tiny_eigenvalues_clamp_to_zero(self):
        a = np.diag([1.0, 1e-20])
        dec = eigh(a)
        assert dec.eigenvalues[0] == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(InputFormatError):
            eigh(np.ones((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10_000))
    def test_property_reconstruction(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(dim, rng, scale=10.0 ** rng.integers(-3, 4))
        dec = eigh(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.abs(dec.reconstruct() - a).max() <= 1e-11 * scale


class TestEighStack:
    def test_stack_matches_single_calls(self):
        # A stack holding a rank-deficient matrix: its zero eigenvalue is
        # clamped exactly as eigh on that matrix alone clamps it.
        rng = np.random.default_rng(4)
        v = np.linalg.qr(random_hermitian(4, rng))[0]
        low_rank = (v * np.array([0.0, 1e-17, 0.5, 2.0])) @ v.conj().T
        # 3e-13 is above the clamp threshold 1e-13 * ||A||_F (about 2e-13
        # here) but below twice it: only the exact threshold keeps it.
        near_zero = (v * np.array([3e-13, 0.5, 1.0, 1.5])) @ v.conj().T
        raw = [random_hermitian(4, rng), low_rank, random_hermitian(4, rng) * 1e5, near_zero]
        stack, errors = hermitian_stack(raw)
        assert errors == [None] * 4
        dec = eigh_hermitian(stack)
        assert dec.eigenvalues.shape == (4, 4) and dec.eigenvectors.shape == (4, 4, 4)
        for i, m in enumerate(raw):
            assert np.array_equal(stack[i], hermitian_part(m))
            one = eigh(m)
            assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[i], one.eigenvectors)
        assert np.count_nonzero(dec.eigenvalues[1] == 0.0) == 2
        assert dec.eigenvalues[3][0] > 0.0

    def test_stack_reports_each_bad_matrix(self):
        good = np.eye(2)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
        _, errors = hermitian_stack([good, skew, nan])
        assert errors[0] is None
        for exc, m in zip(errors[1:], (skew, nan)):
            with pytest.raises(type(exc)) as single:
                hermitian_part(m)
            assert str(exc) == str(single.value)


class TestHermitianPart:
    def test_symmetrizes_small_defect(self):
        a = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
        h = hermitian_part(a)
        assert np.allclose(h, h.conj().T, atol=0)

    def test_rejects_large_defect(self):
        with pytest.raises(PreconditionError):
            hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_scale_invariance(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-13, -1.0]]) * 1e8
        h = hermitian_part(a)
        assert np.allclose(h, h.conj().T, atol=0)


class TestMatrixFunction:
    def test_square_root_squares_back(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g @ g.conj().T + 0.1 * np.eye(4)
        root = matrix_function(a, math.sqrt)
        assert np.abs(root @ root - a).max() <= 1e-10 * float(np.linalg.norm(a))

    def test_log_of_identity_is_zero(self):
        out = matrix_function(np.eye(3), math.log)
        assert np.abs(out).max() <= 1e-14

    def test_nonfinite_value_raises(self):
        with pytest.raises(PreconditionError):
            matrix_function(np.diag([1.0, 0.0]), math.log)

    def test_accepts_decomposition(self):
        dec = eigh(np.diag([1.0, 4.0]))
        out = matrix_function(dec, math.sqrt)
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-14)


class TestNormsAndTraces:
    def test_trace_real(self):
        assert trace(np.diag([1.0, 2.0])) == pytest.approx(3.0, abs=0)

    def test_operator_abs_matches_singular_values(self):
        # |A| and the singular values of A come from different routes.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sv = singular_values(a)
        abs_eigs = np.sort(eigh(operator_abs(a)).eigenvalues)[::-1]
        assert np.abs(sv - abs_eigs).max() <= 1e-10

    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_hs_inner_matches_manual_sum(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0, 1j], [0.0, 2.0]])
        manual = np.sum(np.conj(b) * a)
        assert hs_inner(a, b) == pytest.approx(manual, abs=1e-14)

    def test_hs_norm_frobenius(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert hs_norm(a) == pytest.approx(5.0, abs=1e-12)


class TestGrussGap:
    def test_random_triples_pass(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            s = random_hermitian(dim, rng)
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            lo = float(eigh(s).eigenvalues[0])
            hi = float(eigh(s).eigenvalues[-1])
            # g affine in t keeps |g - lam| <= rho easy to certify.
            slope = float(rng.standard_normal())
            g = lambda t, k=slope: k * t
            lam = slope * (hi + lo) / 2.0
            rho = abs(slope) * (hi - lo) / 2.0 + 1e-9
            rep = gruss_gap_check(s, g, lam, rho, x)
            assert rep.ok

    def test_hypothesis_violation_raises(self):
        s = np.diag([0.0, 1.0])
        with pytest.raises(PreconditionError):
            gruss_gap_check(s, lambda t: t, 0.5, 0.1, np.array([1.0, 1.0]) / math.sqrt(2))

    def test_requires_unit_vector(self):
        s = np.diag([0.0, 1.0])
        with pytest.raises(PreconditionError):
            gruss_gap_check(s, lambda t: t, 0.5, 0.6, np.array([1.0, 1.0]))


class TestVarianceBound:
    def test_equality_witness(self):
        # s = diag(0, 1), x = (1,1)/sqrt(2): all three terms equal 1/4.
        rep = variance_bound_check(np.diag([0.0, 1.0]), np.array([1.0, 1.0]) / math.sqrt(2))
        assert rep.ok
        values = [v for _, v in rep.terms[1:]]
        assert values == pytest.approx([0.25, 0.25, 0.25], abs=1e-14)

    def test_random_vectors_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            s = random_hermitian(dim, rng)
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            assert variance_bound_check(s, x).ok

    def test_eigenvector_has_zero_variance(self):
        rep = variance_bound_check(np.diag([0.0, 1.0]), np.array([1.0, 0.0]))
        assert rep.ok
        assert rep.terms[1][1] == pytest.approx(0.0, abs=1e-14)


class TestTraceHoelder:
    def test_random_pairs_pass(self):
        rng = np.random.default_rng(6)
        for alpha in (0.25, 0.5, 0.75):
            for _ in range(10):
                a = random_hermitian(3, rng)
                b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                assert trace_hoelder_check(a, b, alpha).ok

    def test_alpha_out_of_range(self):
        with pytest.raises(PreconditionError):
            trace_hoelder_check(np.eye(2), np.eye(2), 1.5)

    def test_equality_for_identity(self):
        rep = trace_hoelder_check(np.eye(2), np.eye(2), 0.5)
        assert rep.ok
        values = [v for _, v in rep.terms]
        assert values == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)


class TestMatrixJson:
    def test_round_trip_complex(self):
        a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_real_matrix_omits_im(self):
        obj = matrix_to_json(np.eye(2))
        assert "im" not in obj

    def test_bad_shape_rejected(self):
        with pytest.raises(InputFormatError):
            matrix_from_json({"dim": 2, "re": [[1.0]]})

    def test_missing_key_rejected(self):
        with pytest.raises(InputFormatError):
            matrix_from_json({"re": [[1.0]]})

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 100_000])
    def test_oversized_dim_rejected_before_parsing(self, dim):
        # "re" is not even read: the dimension alone is refused.
        with pytest.raises(InputFormatError, match=f"at most {MAX_DIM}"):
            matrix_from_json({"dim": dim, "re": None})

    def test_file_round_trip(self, tmp_path):
        a = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        path = str(tmp_path / "m.json")
        save_matrix(a, path)
        assert np.array_equal(load_matrix(path), a)

    def test_missing_file_is_input_error(self):
        with pytest.raises(InputFormatError):
            load_matrix("/nonexistent/m.json")


class TestCheckReport:
    def test_values_property(self):
        rep = CheckReport("demo", (("a", 1.0), ("b", 2.0)), 1e-10, True)
        assert rep.values == (1.0, 2.0)

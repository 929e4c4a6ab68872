"""Dense complex Hermitian linear algebra on small matrices.

Everything downstream (density matrices, joint spectra, divergence
values) is built on the primitives here: the Hermitian eigendecomposition
(LAPACK through numpy.linalg.eigh, with numerically-zero eigenvalues
clamped to exactly 0), matrix functions through the eigendecomposition,
traces and the Schatten 1- and 2-norms, plus checkable forms of the
classical trace inequalities (Gruss-type gap, variance bound, trace
Hoelder).

Matrices are plain complex ndarrays.  The JSON exchange format is
``{"dim": d, "re": [[...]], "im": [[...]]}`` with "im" optional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, PreconditionError

__all__ = [
    "PreconditionError",
    "InputFormatError",
    "EigenDecomposition",
    "CheckReport",
    "hermitian_part",
    "hermitian_stack",
    "eigh",
    "eigh_hermitian",
    "matrix_function",
    "trace",
    "operator_abs",
    "singular_values",
    "trace_norm",
    "hs_norm",
    "hs_inner",
    "gruss_gap_check",
    "variance_bound_check",
    "trace_hoelder_check",
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix",
    "save_matrix",
]

# The largest matrix dimension accepted from input.  A dense eigh at this
# size takes tens of milliseconds, and each (32, d, d) complex stack of a
# fuzz block's states is 32 MiB; memory grows as d^2 beyond it.
MAX_DIM = 256
# Eigenvalues at or below this (times ||A||_F) count as exactly zero.
ZERO_EIGENVALUE_TOL = 1e-13
HERMITICITY_TOL = 1e-12


def _as_square_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputFormatError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputFormatError("matrix entries must be finite")
    return m


def hermitian_stack(a, tol: float = HERMITICITY_TOL) -> tuple:
    """(A + A*)/2 for every matrix of an (n, d, d) stack, and per matrix
    None or the error hermitian_part raises for it: entries not finite,
    or a Hermiticity defect above ``tol * max|entry|``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise InputFormatError(f"expected a stack of square matrices, got shape {m.shape}")
    adj = m.conj().swapaxes(1, 2)
    finite = np.isfinite(m).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.abs(m).max(axis=(1, 2)), 1e-300)
        defect = np.abs(m - adj).max(axis=(1, 2))
    errors = [None] * len(m)
    for i in np.flatnonzero(~finite | (defect > tol * scale)):
        errors[i] = InputFormatError("matrix entries must be finite") if not finite[i] else (
            PreconditionError(f"matrix is not Hermitian: defect {defect[i]:.3e} exceeds "
                              f"{tol:.1e} * max|entry|"))
    return (m + adj) / 2.0, errors


def hermitian_part(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Symmetrize ``a`` to (A + A*)/2, rejecting inputs that are not
    Hermitian within ``tol * max|entry|``."""
    sym, errors = hermitian_stack(_as_square_matrix(a)[np.newaxis], tol)
    if errors[0] is not None:
        raise errors[0]
    return sym[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending, eigenvectors as orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    Eigenvalues within ``ZERO_EIGENVALUE_TOL * ||A||_F`` of zero are
    clamped to exactly 0.  Deterministic for identical input within one
    numpy/LAPACK build.

    Returns:
        EigenDecomposition with eigenvalues sorted ascending and the
        matching orthonormal eigenvector columns.

    Raises:
        PreconditionError: input not Hermitian within tolerance.
    """
    dec = eigh_hermitian(hermitian_part(a)[np.newaxis])
    return EigenDecomposition(dec.eigenvalues[0], dec.eigenvectors[0])


def eigh_hermitian(stack: np.ndarray) -> EigenDecomposition:
    """eigh of each matrix of an (n, d, d) stack already made exactly
    Hermitian (by hermitian_stack), in one LAPACK call: (n, d) eigenvalues
    and (n, d, d) eigenvectors, each matrix's the same as eigh gives."""
    vals, vecs = np.linalg.eigh(stack)
    # Clamp numerically-zero eigenvalues so downstream zero dispatch is exact.
    # The threshold is np.linalg.norm of each matrix; a stacked estimate,
    # off by a few ulps at most, picks the matrices that might need it.
    rough = np.sqrt((np.abs(stack) ** 2).sum(axis=(1, 2)))
    near = (np.abs(vals) <= 2.0 * ZERO_EIGENVALUE_TOL * rough[:, np.newaxis]).any(axis=1)
    for i in np.flatnonzero(near):
        row = vals[i]
        row[np.abs(row) <= ZERO_EIGENVALUE_TOL * np.linalg.norm(stack[i])] = 0.0
    return EigenDecomposition(vals, vecs)


def matrix_function(a, g) -> np.ndarray:
    """Apply the scalar function ``g`` to a Hermitian matrix: U g(L) U*.

    ``g`` must be defined on every eigenvalue of ``a``; it may be scalar
    or numpy-vectorized.  The result is Hermitian by construction.
    """
    dec = a if isinstance(a, EigenDecomposition) else eigh(a)
    try:
        vals = np.asarray([float(g(x)) for x in dec.eigenvalues], dtype=np.float64)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise PreconditionError(f"function undefined on an eigenvalue: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        bad = dec.eigenvalues[~np.isfinite(vals)]
        raise PreconditionError(f"function undefined or infinite on eigenvalues {bad}")
    u = dec.eigenvectors
    out = (u * vals) @ u.conj().T
    return (out + out.conj().T) / 2.0


def trace(a) -> complex:
    """Sum of the diagonal of a square matrix."""
    return complex(np.trace(_as_square_matrix(a)))


def singular_values(a) -> np.ndarray:
    """Singular values of ``a`` in descending order, via eigh of A*A."""
    m = _as_square_matrix(a)
    gram = m.conj().T @ m
    vals = eigh(gram).eigenvalues
    return np.sqrt(np.clip(vals, 0.0, None))[::-1]


def operator_abs(a) -> np.ndarray:
    """The modulus |A| = (A*A)^(1/2); PSD for every square A."""
    m = _as_square_matrix(a)
    return matrix_function(m.conj().T @ m, lambda x: math.sqrt(max(x, 0.0)))


def trace_norm(a) -> float:
    """Schatten 1-norm tr|A|."""
    return float(np.sum(singular_values(a)))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr(A*A))."""
    return float(np.linalg.norm(_as_square_matrix(a)))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product <A, B> = tr(B*A)."""
    ma = _as_square_matrix(a)
    mb = _as_square_matrix(b)
    if ma.shape != mb.shape:
        raise InputFormatError("dimension mismatch in hs_inner")
    return complex(np.sum(mb.conj() * ma))


@dataclass(frozen=True)
class CheckReport:
    """Evaluated inequality chain: ordered (label, value) terms.

    ``ok`` means every consecutive pair satisfies left <= right + tol.
    ``note`` flags degenerate outcomes such as vacuously-true chains.
    """

    name: str
    terms: tuple
    tol: float
    ok: bool
    note: str = ""

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.terms)


def _chain_report(name: str, terms, tol: float, note: str = "") -> CheckReport:
    values = [v for _, v in terms]
    ok = all(left <= right + tol for left, right in zip(values, values[1:]))
    return CheckReport(name=name, terms=tuple(terms), tol=tol, ok=ok, note=note)


def _unit_vector(x) -> np.ndarray:
    vec = np.asarray(x, dtype=np.complex128).ravel()
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-10:
        raise PreconditionError(f"expected a unit vector, got norm {norm}")
    return vec


def _quad_form(op: np.ndarray, x: np.ndarray) -> float:
    return float(np.real(np.vdot(x, op @ x)))


def gruss_gap_check(s, g, lam: float, rho: float, x, tol: float = 1e-10) -> CheckReport:
    """Covariance-gap chain for a selfadjoint S, scalar g, and unit x.

    Requires |g(t) - lam| <= rho on the spectrum interval [gamma, Gamma]
    of S.  Checks

        |<S g(S)x,x> - <Sx,x><g(S)x,x>|
            <= rho <|S - <Sx,x> I| x, x>
            <= rho [<S^2 x,x> - <Sx,x>^2]^(1/2)

    within ``tol`` absolute.
    """
    xv = _unit_vector(x)
    dec = eigh(s)
    lo, hi = float(dec.eigenvalues[0]), float(dec.eigenvalues[-1])
    # The hypothesis must hold on the whole spectral interval, not just
    # at eigenvalues; probe a fine grid plus the eigenvalues themselves.
    probes = np.union1d(np.linspace(lo, hi, 513), dec.eigenvalues)
    gvals = np.asarray([float(g(t)) for t in probes])
    worst = float(np.abs(gvals - lam).max())
    if worst > rho + 1e-12 * max(1.0, abs(rho)):
        raise PreconditionError(
            f"|g(t) - lam| reaches {worst:.6e} > rho = {rho:.6e} on [{lo}, {hi}]"
        )

    u = dec.eigenvectors
    smat = dec.reconstruct()
    gmat = (u * np.asarray([float(g(t)) for t in dec.eigenvalues])) @ u.conj().T
    mean_s = _quad_form(smat, xv)
    mean_g = _quad_form(gmat, xv)
    cross = float(np.real(np.vdot(xv, smat @ (gmat @ xv))))
    lhs = abs(cross - mean_s * mean_g)

    absdev = (u * np.abs(dec.eigenvalues - mean_s)) @ u.conj().T
    mid = rho * _quad_form(absdev, xv)
    variance = _quad_form(smat @ smat, xv) - mean_s**2
    rhs = rho * math.sqrt(max(variance, 0.0))
    return _chain_report("gruss-gap", [("gap", lhs), ("abs-deviation", mid), ("std-dev", rhs)], tol)


def variance_bound_check(s, x, tol: float = 1e-10) -> CheckReport:
    """Variance chain 0 <= var <= (Gamma-gamma)/2 * <|S - mean|x,x>
    <= (Gamma-gamma)^2 / 4 for a selfadjoint S and unit x."""
    xv = _unit_vector(x)
    dec = eigh(s)
    lo, hi = float(dec.eigenvalues[0]), float(dec.eigenvalues[-1])
    smat = dec.reconstruct()
    mean_s = _quad_form(smat, xv)
    variance = _quad_form(smat @ smat, xv) - mean_s**2
    u = dec.eigenvectors
    absdev = (u * np.abs(dec.eigenvalues - mean_s)) @ u.conj().T
    mid = 0.5 * (hi - lo) * _quad_form(absdev, xv)
    cap = 0.25 * (hi - lo) ** 2
    return _chain_report(
        "variance-bound",
        [("zero", 0.0), ("variance", variance), ("half-range-absdev", mid), ("quarter-range-sq", cap)],
        tol,
    )


def trace_hoelder_check(a, b, alpha: float, tol: float = 1e-10) -> CheckReport:
    """Trace Hoelder chain |tr(AB)| <= tr|AB| <= (tr|A|^(1/alpha))^alpha
    (tr|B|^(1/(1-alpha)))^(1-alpha), with ``tol`` relative slack."""
    if not 0.0 < alpha < 1.0:
        raise PreconditionError(f"alpha must lie in (0, 1), got {alpha}")
    ma = _as_square_matrix(a)
    mb = _as_square_matrix(b)
    if ma.shape != mb.shape:
        raise InputFormatError("dimension mismatch in trace_hoelder_check")
    prod = ma @ mb
    lhs = abs(trace(prod))
    mid = trace_norm(prod)
    sa = singular_values(ma)
    sb = singular_values(mb)
    rhs = float(np.sum(sa ** (1.0 / alpha)) ** alpha * np.sum(sb ** (1.0 / (1.0 - alpha))) ** (1.0 - alpha))
    scale = tol * max(1.0, abs(rhs))
    return _chain_report("trace-hoelder", [("abs-trace", lhs), ("trace-norm", mid), ("hoelder", rhs)], scale)


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the {"dim", "re", "im"} exchange form."""
    m = _as_square_matrix(a)
    out = {"dim": int(m.shape[0]), "re": m.real.tolist()}
    if np.any(m.imag != 0.0):
        out["im"] = m.imag.tolist()
    return out


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the {"dim", "re", "im"} exchange form into a complex matrix."""
    if not isinstance(obj, dict):
        raise InputFormatError("matrix JSON must be an object")
    try:
        dim = int(obj["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad matrix JSON: {exc}") from exc
    if dim <= 0:
        raise InputFormatError(f"dim must be positive, got {dim}")
    if dim > MAX_DIM:
        raise InputFormatError(f"dim must be at most {MAX_DIM}, got {dim}")
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad matrix JSON: {exc}") from exc
    if re.shape != (dim, dim):
        raise InputFormatError(f'"re" must be {dim}x{dim}, got shape {re.shape}')
    im = np.asarray(obj.get("im", np.zeros((dim, dim))), dtype=np.float64)
    if im.shape != (dim, dim):
        raise InputFormatError(f'"im" must be {dim}x{dim}, got shape {im.shape}')
    return _as_square_matrix(re + 1j * im)


def _load_json(path: str):
    """The JSON document in a file; an unreadable or malformed file is an
    InputFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON in {path}: {exc}") from exc


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix JSON file."""
    return matrix_from_json(_load_json(path))


def save_matrix(a, path: str) -> None:
    """Write a matrix JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
        fh.write("\n")

"""Matrix f-divergences from joint spectral data.

For density matrices Q, P with P invertible, the divergence

    S_f(Q, P) = sum_ij mu_j W_ij f(lambda_i / mu_j)

is evaluated from the eigenvalues lambda (of Q) and mu (of P) and the
overlap weights W_ij = |<u_i, v_j>|^2 between their eigenbases.  W is
doubly stochastic, so the ratio window [r, R] with r = min lambda_i/mu_j
and R = max lambda_i/mu_j always brackets 1.

Density matrices, joint spectra and chi-square distances also come in
blocks: densities, joint_spectra and chi_squares check and compute a
whole stack at once, with one eigh call for all its states, and give
each member the same bits and the same errors as the single-matrix or
single-pair call.  DensityMatrix(m), joint_spectrum and chi_square are
their one-member case.

The named closed forms (umegaki, chi_square, tsallis, hellinger_sq) are
computed by matrix functional calculus as an independent route; they
never touch the overlap weights, which makes them usable as oracles for
the spectral sum.

A note on the variational quantity: variational_q(Q, P) is the
spectral sum with f = |t - 1|, i.e. sum_ij W_ij |lambda_i - mu_j|.
Off the commuting case this differs from the trace-norm distance
tr|Q - P| (both are provided; see trace_distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, PreconditionError
from .generators import STACK_POINTS, Generator
from .hermitian import (
    CheckReport,
    EigenDecomposition,
    eigh_hermitian,
    hermitian_stack,
    hs_norm,
    matrix_function,
    trace_norm,
)

__all__ = [
    "DensityMatrix",
    "JointSpectrum",
    "DivergenceValue",
    "as_density",
    "densities",
    "joint_spectrum",
    "joint_spectra",
    "s_f",
    "s_f_from_spectrum",
    "umegaki",
    "chi_square",
    "chi_squares",
    "tsallis",
    "hellinger_sq",
    "variational_q",
    "trace_distance",
    "sandwich_check",
]

DENSITY_TRACE_TOL = 1e-12
# Eigenvalues this far below zero are rejected; above it they clamp to 0.
EIGENVALUE_FLOOR = -1e-12
DEFAULT_INVERTIBILITY_EPS = 1e-12
# mu_j W_ij at or below this carries no mass for the infinity dispatch.
WEIGHT_FLOOR = 1e-14
STOCHASTICITY_TOL = 1e-10


def _frozen(cls, **fields):
    """An instance of the frozen dataclass cls with the given field values,
    set without running __init__ or __post_init__ (their work is done)."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one positive semidefinite matrix with its spectral data."""

    matrix: np.ndarray
    dec: EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputFormatError(f"expected a square matrix, got shape {m.shape}")
        one = densities(m[np.newaxis])[0]
        object.__setattr__(self, "matrix", one.matrix)
        object.__setattr__(self, "dec", one.dec)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending, clamped to be exactly nonnegative."""
        return self.dec.eigenvalues

    @property
    def min_eigenvalue(self) -> float:
        return float(self.dec.eigenvalues[0])


def densities(stack) -> list:
    """A DensityMatrix for each matrix of an (n, d, d) stack, each equal to
    DensityMatrix(m), checked and diagonalized together.

    Every matrix gets DensityMatrix's checks, in its order: finite
    entries and Hermitian within tolerance, unit trace, and positive
    semidefinite (eigenvalues down to EIGENVALUE_FLOOR, then clamped to
    0).  All are diagonalized by one eigh call; the first matrix in stack
    order that fails raises.
    """
    sym, errors = hermitian_stack(stack)
    traces = np.trace(sym, axis1=1, axis2=2).real
    for i in np.flatnonzero(np.abs(traces - 1.0) > DENSITY_TRACE_TOL):
        if errors[i] is None:
            errors[i] = PreconditionError(
                f"density matrix must have unit trace, got {float(traces[i])!r}")
    first = next((i for i, exc in enumerate(errors) if exc is not None), len(errors))
    # A matrix after the first failure cannot fail before it.
    dec = eigh_hermitian(sym[:first])
    low = dec.eigenvalues[:, 0]
    negative = np.flatnonzero(low < EIGENVALUE_FLOOR)
    if negative.size:
        raise PreconditionError(
            f"matrix is not positive semidefinite: eigenvalue {float(low[negative[0]])}")
    if first < len(errors):
        raise errors[first]
    dec.eigenvalues[dec.eigenvalues < 0.0] = 0.0
    return [_frozen(DensityMatrix, matrix=m,
                    dec=_frozen(EigenDecomposition, eigenvalues=vals, eigenvectors=vecs))
            for m, vals, vecs in zip(sym, dec.eigenvalues, dec.eigenvectors)]


def as_density(x) -> DensityMatrix:
    return x if isinstance(x, DensityMatrix) else DensityMatrix(np.asarray(x))


def _check_eps(eps: float) -> None:
    if eps <= 0.0:
        raise InputFormatError(f"invertibility threshold must be positive, got {eps}")


def _singular(pd: DensityMatrix, eps: float):
    """The error for a reference state pd singular at eps, or None."""
    if pd.min_eigenvalue < eps:
        return PreconditionError(
            f"reference state is singular at tolerance {eps:g}: "
            f"min eigenvalue {pd.min_eigenvalue:.3e}"
        )
    return None


def _density_pair(q, p, eps: float = None) -> tuple:
    """Both states as DensityMatrix of one dimension; unless eps is None,
    the reference state p must have smallest eigenvalue at least eps."""
    qd = as_density(q)
    pd = as_density(p)
    if qd.dim != pd.dim:
        raise PreconditionError(f"dimension mismatch: {qd.dim} vs {pd.dim}")
    if eps is not None:
        _check_eps(eps)
        exc = _singular(pd, eps)
        if exc is not None:
            raise exc
    return qd, pd


def _one(results: list):
    """The single result of a block function, raised if it is an error."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


@dataclass(frozen=True)
class JointSpectrum:
    """Joint spectral data of a pair (Q, P).

    lam and mu are the eigenvalues of Q and P in descending order,
    w[i, j] = |<u_i, v_j>|^2 the eigenbasis overlaps, and [r, R] the
    ratio window min/max of lambda_i / mu_j, which always contains 1.
    q_vectors and p_vectors hold the eigenvector columns in the same
    descending order, and eps the invertibility threshold P was checked
    against.  defect is W's distance from double stochasticity, the
    largest |row sum - 1| and |column sum - 1|.  Weights, ratios and the
    positive-ratio mask are computed once, on construction, and are
    read-only.
    """

    lam: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    r: float
    R: float
    q_vectors: np.ndarray
    p_vectors: np.ndarray
    eps: float = DEFAULT_INVERTIBILITY_EPS
    defect: tuple = field(default=None, compare=False)
    wt: np.ndarray = field(init=False, repr=False, compare=False)
    ratio: np.ndarray = field(init=False, repr=False, compare=False)
    pos: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.defect is None:
            object.__setattr__(self, "defect", _stochasticity_defect(self.w[np.newaxis])[0])
        ratio = self.lam[:, np.newaxis] / self.mu[np.newaxis, :]
        for name, arr in (("wt", self.w * self.mu[np.newaxis, :]),
                          ("ratio", ratio), ("pos", ratio > 0.0)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return int(self.lam.size)

    def weights(self) -> np.ndarray:
        """The summation weights mu_j W_ij (rows follow lam, columns mu)."""
        return self.wt

    def ratios(self) -> np.ndarray:
        return self.ratio

    def variational(self) -> float:
        """sum_ij W_ij |lambda_i - mu_j|, the value of variational_q."""
        return float(np.sum(self.w * np.abs(self.lam[:, np.newaxis] - self.mu[np.newaxis, :])))


def _stochasticity_defect(w: np.ndarray) -> list:
    """(largest |row sum - 1|, largest |column sum - 1|) of each matrix of
    an (n, d, d) stack."""
    rows = np.abs(w.sum(axis=2) - 1.0).max(axis=1)
    cols = np.abs(w.sum(axis=1) - 1.0).max(axis=1)
    return list(zip(rows.tolist(), cols.tolist()))


def joint_spectrum(q, p, eps: float = DEFAULT_INVERTIBILITY_EPS) -> JointSpectrum:
    """Diagonalize both states and assemble the joint spectral data.

    Requires the reference state p to be invertible: its smallest
    eigenvalue must be at least eps.
    """
    qd, pd = _density_pair(q, p)
    return _one(joint_spectra([qd], [pd], eps))


def joint_spectra(qds, pds, eps: float = DEFAULT_INVERTIBILITY_EPS) -> list:
    """joint_spectrum of each pair (qds[k], pds[k]) of a block of density
    matrices of one dimension, in one stacked pass.

    A pair that joint_spectrum rejects gets, in place of its spectrum,
    the exception joint_spectrum raises for it: PreconditionError for P
    singular at eps, ArithmeticError for an overlap matrix that lost
    double stochasticity.
    """
    _check_eps(eps)
    q_vals = np.stack([qd.dec.eigenvalues for qd in qds])
    p_vals = np.stack([pd.dec.eigenvalues for pd in pds])
    lam = q_vals[:, ::-1].copy()
    mu = p_vals[:, ::-1].copy()
    u = np.stack([qd.dec.eigenvectors for qd in qds])[:, :, ::-1]
    v = np.stack([pd.dec.eigenvectors for pd in pds])[:, :, ::-1]
    w = np.abs(u.conj().swapaxes(1, 2) @ v) ** 2
    defects = _stochasticity_defect(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Unit traces force r <= 1 <= R; only last-ulp rounding can break it.
        r = np.minimum(lam[:, -1] / mu[:, 0], 1.0).tolist()
        R = np.maximum(lam[:, 0] / mu[:, -1], 1.0).tolist()
        ratio = lam[:, :, np.newaxis] / mu[:, np.newaxis, :]
    wt = w * mu[:, np.newaxis, :]
    pos = ratio > 0.0
    for arr in (wt, ratio, pos):
        arr.flags.writeable = False

    out = []
    for k, pd in enumerate(pds):
        exc = _singular(pd, eps)
        rows, cols = defects[k]
        if exc is None and max(rows, cols) > STOCHASTICITY_TOL:
            exc = ArithmeticError(
                f"overlap matrix lost double stochasticity: row defect {rows:.2e}, "
                f"column defect {cols:.2e}"
            )
        out.append(exc or _frozen(
            JointSpectrum, lam=lam[k], mu=mu[k], w=w[k], r=r[k], R=R[k], q_vectors=u[k],
            p_vectors=v[k], eps=eps, defect=defects[k], wt=wt[k], ratio=ratio[k], pos=pos[k]))
    return out


@dataclass(frozen=True)
class DivergenceValue:
    """S_f(Q, P) with provenance: generator spec and outcome flags."""

    value: float
    generator: str
    flags: tuple = ()

    def __float__(self) -> float:
        return self.value


def weighted_sums(ratio: np.ndarray, wt: np.ndarray, terms) -> tuple:
    """sum_ij wt_ij term(ratio_ij) for each function of the sequence terms and
    each member of a block's (n, d, d) ratio and weight stacks, a (terms, n)
    array, and whether each holds: only for members with all ratios
    positive (gathered once; the only ones the terms see) and the term
    finite on them.  The terms are weighted and summed as one stack, about
    STACK_POINTS values at a time.  A held sum equals the single-spectrum
    (weights * term).sum() bit for bit; the caller evaluates the others."""
    full = (ratio > 0.0).reshape(len(ratio), -1).all(axis=1)
    sums, held = np.full((len(terms), len(ratio)), math.nan), np.zeros((len(terms), len(ratio)), dtype=bool)
    if full.any():
        x, w = ratio[full], wt[full].reshape(int(full.sum()), -1)
        step = max(1, STACK_POINTS // w.size)
        for lo in range(0, len(terms), step):
            vals = np.array([np.asarray(term(x), dtype=np.float64).reshape(w.shape)
                             for term in terms[lo:lo + step]])
            sums[lo:lo + step, full] = (w * vals).sum(axis=2)
            held[lo:lo + step, full] = np.isfinite(vals).all(axis=2)
    return sums, held


def s_f_from_spectrum(js, f: Generator):
    """Evaluate sum_ij mu_j W_ij f(lambda_i / mu_j) on prepared data.

    Zero ratios dispatch to f(0+).  An infinite f-value makes the result
    +inf only when its weight mu_j W_ij exceeds the weight floor; below
    it the term counts as zero mass.

    js may also be a sequence of joint spectra of one dimension, a
    block: the result is then a list with each spectrum's value, the
    same as one call per spectrum would give.
    """
    if isinstance(js, JointSpectrum):
        return _s_f_one(js, f)
    spectra = list(js)
    if not spectra:
        return []
    sums, held = weighted_sums(np.stack([one.ratio for one in spectra]),
                               np.stack([one.wt for one in spectra]), [f.fn])
    return [DivergenceValue(value=total, generator=f.spec) if ok else _s_f_one(one, f)
            for one, total, ok in zip(spectra, sums[0].tolist(), held[0].tolist())]


def _s_f_one(js: JointSpectrum, f: Generator) -> DivergenceValue:
    wt = js.wt
    fvals = np.full_like(js.ratio, f.value_at_zero)
    if js.pos.any():
        fvals[js.pos] = f.fn(js.ratio[js.pos])

    infinite = np.isinf(fvals)
    if not infinite.any():
        return DivergenceValue(value=float((wt * fvals).sum()), generator=f.spec)
    if (infinite & (wt > WEIGHT_FLOOR)).any():
        return DivergenceValue(value=math.inf, generator=f.spec, flags=("infinite",))
    finite = ~infinite
    value = float(np.sum(wt[finite] * fvals[finite]))
    return DivergenceValue(value=value, generator=f.spec, flags=("zero-mass-infinite-terms",))


def s_f(q, p, f: Generator, eps: float = DEFAULT_INVERTIBILITY_EPS) -> DivergenceValue:
    """The matrix f-divergence S_f(Q, P) via the joint spectral sum."""
    return s_f_from_spectrum(joint_spectrum(q, p, eps), f)


def umegaki(q, p, eps: float = DEFAULT_INVERTIBILITY_EPS) -> float:
    """Relative entropy tr[Q (ln Q - ln P)] by functional calculus.

    Zero eigenvalues of Q contribute nothing (0 ln 0 = 0).  Independent
    of the overlap route: uses each state's own eigenbasis plus one
    matrix product.
    """
    qd, pd = _density_pair(q, p, eps)
    lam = qd.dec.eigenvalues
    pos = lam > 0.0
    q_ln_q = float(np.sum(lam[pos] * np.log(lam[pos])))
    ln_p = matrix_function(pd.dec, math.log)
    q_ln_p = float(np.trace(qd.matrix @ ln_p).real)
    return q_ln_q - q_ln_p


def chi_square(q, p, eps: float = DEFAULT_INVERTIBILITY_EPS) -> float:
    """tr(Q^2 P^(-1)) - 1, the chi-square distance."""
    qd, pd = _density_pair(q, p)
    return _one(chi_squares([qd], [pd], eps))


def chi_squares(qds, pds, eps: float = DEFAULT_INVERTIBILITY_EPS) -> list:
    """chi_square of each pair (qds[k], pds[k]) of a block, in one stacked
    pass; a pair that chi_square rejects gets its exception instead."""
    _check_eps(eps)
    p_vecs = np.stack([pd.dec.eigenvectors for pd in pds])
    q_mats = np.stack([qd.matrix for qd in qds])
    # P^(-1) through P's ascending decomposition, as matrix_function builds it.
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.stack([pd.dec.eigenvalues for pd in pds])
    p_inv = (p_vecs * inv[:, np.newaxis, :]) @ p_vecs.conj().swapaxes(1, 2)
    p_inv = (p_inv + p_inv.conj().swapaxes(1, 2)) / 2.0
    with np.errstate(invalid="ignore", over="ignore"):
        values = (np.trace(q_mats @ q_mats @ p_inv, axis1=1, axis2=2).real - 1.0).tolist()
    finite = np.isfinite(inv).all(axis=1)
    out = []
    for k, pd in enumerate(pds):
        exc = _singular(pd, eps)
        if exc is None and not finite[k]:
            try:
                matrix_function(pd.dec, lambda x: 1.0 / x)
            except PreconditionError as err:
                exc = err
        out.append(exc or values[k])
    return out


def tsallis(q, p, qparam: float, eps: float = DEFAULT_INVERTIBILITY_EPS) -> float:
    """(1 - tr(Q^q P^(1-q))) / (1 - q) for q in (0, 1)."""
    qparam = float(qparam)
    if not 0.0 < qparam < 1.0:
        raise InputFormatError(f"tsallis parameter must lie in (0, 1), got {qparam}")
    qd, pd = _density_pair(q, p, eps)
    q_pow = matrix_function(qd.dec, lambda x: x**qparam)
    p_pow = matrix_function(pd.dec, lambda x: x ** (1.0 - qparam))
    return (1.0 - float(np.trace(q_pow @ p_pow).real)) / (1.0 - qparam)


def hellinger_sq(q, p, eps: float = DEFAULT_INVERTIBILITY_EPS) -> float:
    """1 - tr(Q^(1/2) P^(1/2)), the squared Hellinger discrimination."""
    qd, pd = _density_pair(q, p, eps)
    q_root = matrix_function(qd.dec, math.sqrt)
    p_root = matrix_function(pd.dec, math.sqrt)
    return 1.0 - float(np.trace(q_root @ p_root).real)


def variational_q(q, p, eps: float = DEFAULT_INVERTIBILITY_EPS) -> float:
    """S_f with f = |t - 1|: sum_ij W_ij |lambda_i - mu_j|.

    This is the variational quantity appearing in the proven chains.
    It coincides with tr|Q - P| when Q and P commute, and generally
    does not otherwise.
    """
    return joint_spectrum(q, p, eps).variational()


def trace_distance(q, p) -> float:
    """tr|Q - P|: the trace-norm distance (no invertibility needed)."""
    qd, pd = _density_pair(q, p)
    return trace_norm(qd.matrix - pd.matrix)


def sandwich_check(q, p, trials: int = 100, seed: int = 0,
                   eps: float = DEFAULT_INVERTIBILITY_EPS) -> CheckReport:
    """Containment r ||T||^2 <= ||Q^(1/2) T P^(-1/2)||^2 <= R ||T||^2.

    Probes `trials` random unit-norm complex matrices T, then verifies
    both ends are attained by the rank-one couplings of extremal
    eigenvectors: T = u_max v_min* hits R and T = u_min v_max* hits r.
    """
    qd, pd = as_density(q), as_density(p)
    js = joint_spectrum(qd, pd, eps)
    d = js.dim
    q_half = matrix_function(qd.dec, math.sqrt)
    p_inv_half = matrix_function(pd.dec, lambda x: 1.0 / math.sqrt(x))

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    lower_slack = upper_slack = math.inf
    for _ in range(max(int(trials), 0)):
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t /= np.linalg.norm(t)
        mid = hs_norm(q_half @ t @ p_inv_half) ** 2
        lower_slack = min(lower_slack, mid - js.r)
        upper_slack = min(upper_slack, js.R - mid)

    # lam is descending: index 0 pairs with the largest ratio numerator.
    t_top = np.outer(js.q_vectors[:, 0], js.p_vectors[:, -1].conj())
    t_bot = np.outer(js.q_vectors[:, -1], js.p_vectors[:, 0].conj())
    hit_R = hs_norm(q_half @ t_top @ p_inv_half) ** 2
    hit_r = hs_norm(q_half @ t_bot @ p_inv_half) ** 2
    gap_R = abs(hit_R - js.R)
    gap_r = abs(hit_r - js.r)

    ok = (
        lower_slack >= -1e-9
        and upper_slack >= -1e-9
        and gap_R <= 1e-8 * max(1.0, js.R)
        and gap_r <= 1e-8 * max(1.0, js.r)
    )
    return CheckReport(
        name="sandwich",
        terms=(
            ("worst-lower-slack", lower_slack),
            ("worst-upper-slack", upper_slack),
            ("r-attainment-gap", gap_r),
            ("R-attainment-gap", gap_R),
        ),
        tol=1e-9,
        ok=ok,
    )

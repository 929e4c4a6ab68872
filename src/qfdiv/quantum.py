"""Matrix f-divergences from joint spectral data.

For density matrices Q, P with P invertible, the divergence

    S_f(Q, P) = sum_ij mu_j W_ij f(lambda_i / mu_j)

is evaluated from the eigenvalues lambda (of Q) and mu (of P) and the
overlap weights W_ij = |<u_i, v_j>|^2 between their eigenbases.  W is
doubly stochastic, so the ratio window [r, R] with r = min lambda_i/mu_j
and R = max lambda_i/mu_j always brackets 1.

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
from .generators import Generator
from .hermitian import (
    CheckReport,
    EigenDecomposition,
    eigh,
    hermitian_part,
    hs_norm,
    matrix_function,
    trace_norm,
)

__all__ = [
    "DensityMatrix",
    "JointSpectrum",
    "DivergenceValue",
    "as_density",
    "joint_spectrum",
    "s_f",
    "s_f_from_spectrum",
    "umegaki",
    "chi_square",
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


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one positive semidefinite matrix with its spectral data."""

    matrix: np.ndarray
    dec: EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = hermitian_part(self.matrix)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise PreconditionError(f"density matrix must have unit trace, got {tr!r}")
        dec = eigh(m)
        vals = dec.eigenvalues.copy()
        low = float(vals[0])
        if low < EIGENVALUE_FLOOR:
            raise PreconditionError(f"matrix is not positive semidefinite: eigenvalue {low}")
        vals[vals < 0.0] = 0.0
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dec", EigenDecomposition(vals, dec.eigenvectors))

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


def as_density(x) -> DensityMatrix:
    return x if isinstance(x, DensityMatrix) else DensityMatrix(np.asarray(x))


def _density_pair(q, p, eps: float = None) -> tuple:
    """Both states as DensityMatrix of one dimension; unless eps is None,
    the reference state p must have smallest eigenvalue at least eps."""
    qd = as_density(q)
    pd = as_density(p)
    if qd.dim != pd.dim:
        raise PreconditionError(f"dimension mismatch: {qd.dim} vs {pd.dim}")
    if eps is not None:
        if eps <= 0.0:
            raise InputFormatError(f"invertibility threshold must be positive, got {eps}")
        if pd.min_eigenvalue < eps:
            raise PreconditionError(
                f"reference state is singular at tolerance {eps:g}: "
                f"min eigenvalue {pd.min_eigenvalue:.3e}"
            )
    return qd, pd


@dataclass(frozen=True)
class JointSpectrum:
    """Joint spectral data of a pair (Q, P).

    lam and mu are the eigenvalues of Q and P in descending order,
    w[i, j] = |<u_i, v_j>|^2 the eigenbasis overlaps, and [r, R] the
    ratio window min/max of lambda_i / mu_j, which always contains 1.
    q_vectors and p_vectors hold the eigenvector columns in the same
    descending order, and eps the invertibility threshold P was checked
    against.  Weights, ratios and the positive-ratio mask are computed
    once, on construction, and are read-only.
    """

    lam: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    r: float
    R: float
    q_vectors: np.ndarray
    p_vectors: np.ndarray
    eps: float = DEFAULT_INVERTIBILITY_EPS
    wt: np.ndarray = field(init=False, repr=False, compare=False)
    ratio: np.ndarray = field(init=False, repr=False, compare=False)
    pos: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


def joint_spectrum(q, p, eps: float = DEFAULT_INVERTIBILITY_EPS) -> JointSpectrum:
    """Diagonalize both states and assemble the joint spectral data.

    Requires the reference state p to be invertible: its smallest
    eigenvalue must be at least eps.
    """
    qd, pd = _density_pair(q, p, eps)

    lam = qd.dec.eigenvalues[::-1].copy()
    u = qd.dec.eigenvectors[:, ::-1]
    mu = pd.dec.eigenvalues[::-1].copy()
    v = pd.dec.eigenvectors[:, ::-1]
    w = np.abs(u.conj().T @ v) ** 2

    rows = np.abs(w.sum(axis=1) - 1.0).max()
    cols = np.abs(w.sum(axis=0) - 1.0).max()
    if max(rows, cols) > STOCHASTICITY_TOL:
        raise ArithmeticError(
            f"overlap matrix lost double stochasticity: row defect {rows:.2e}, column defect {cols:.2e}"
        )

    r = float(lam[-1] / mu[0])
    R = float(lam[0] / mu[-1])
    # Unit traces force r <= 1 <= R; only last-ulp rounding can break it.
    r = min(r, 1.0)
    R = max(R, 1.0)
    return JointSpectrum(lam=lam, mu=mu, w=w, r=r, R=R, q_vectors=u, p_vectors=v, eps=eps)


@dataclass(frozen=True)
class DivergenceValue:
    """S_f(Q, P) with provenance: generator spec and outcome flags."""

    value: float
    generator: str
    flags: tuple = ()

    def __float__(self) -> float:
        return self.value


def weighted_sums(spectra, terms) -> list:
    """sum_ij mu_j W_ij terms(lambda_i / mu_j) for each spectrum of a block.

    The block is evaluated stacked, as one (B, d, d) array.  A spectrum
    with a zero ratio or a non-finite term gets None, for the caller to
    evaluate on its own.  Each sum equals the single-spectrum
    (weights * terms).sum() bit for bit.
    """
    out = [None] * len(spectra)
    rows = [i for i, js in enumerate(spectra) if js.pos.all()]
    if rows:
        vals = np.asarray(terms(np.stack([spectra[i].ratio for i in rows])), dtype=np.float64)
        vals = vals.reshape(len(rows), -1)
        wts = np.stack([spectra[i].wt for i in rows]).reshape(len(rows), -1)
        sums = (wts * vals).sum(axis=1)
        for i, total, finite in zip(rows, sums.tolist(), np.isfinite(vals).all(axis=1)):
            if finite:
                out[i] = total
    return out


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
    sums = weighted_sums(spectra, f.fn)
    return [_s_f_one(one, f) if total is None else DivergenceValue(value=total, generator=f.spec)
            for one, total in zip(spectra, sums)]


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
    qd, pd = _density_pair(q, p, eps)
    p_inv = matrix_function(pd.dec, lambda x: 1.0 / x)
    return float(np.trace(qd.matrix @ qd.matrix @ p_inv).real) - 1.0


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
    qd = as_density(q)
    pd = as_density(p)
    js = joint_spectrum(qd, pd, eps)
    d = js.dim
    q_half = matrix_function(qd.dec, math.sqrt)
    p_inv_half = matrix_function(pd.dec, lambda x: 1.0 / math.sqrt(x))

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    lower_slack = math.inf
    upper_slack = math.inf
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

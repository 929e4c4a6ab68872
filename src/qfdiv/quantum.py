"""Matrix f-divergences from joint spectral data.

For density matrices Q, P with P invertible, the divergence

    S_f(Q, P) = sum_ij mu_j W_ij f(lambda_i / mu_j)

is evaluated from the eigenvalues lambda (of Q) and mu (of P) and the
overlap weights W_ij = |<u_i, v_j>|^2 between their eigenbases.  W is
doubly stochastic, so the ratio window [r, R] with r = min lambda_i/mu_j
and R = max lambda_i/mu_j always brackets 1.

weighted_sums is the one implementation of such spectral sums, for a
block of pairs and many terms at once: S_f and the derivative-gap sum
sum_ij mu_j W_ij (t - 1) f'(t) alike.  There an infinite term carries no
mass when its weight mu_j W_ij is at most WEIGHT_FLOOR; a zero ratio's
term, f(0+) or -f'(0+), is the generators' to give (generators._at).
s_f_from_spectrum is its one-pair, one-generator case.

Density matrices, joint spectra and chi-square distances come in blocks
that stay stacked: densities, joint_spectra and chi_squares check and
compute a whole stack at once (one eigh call for all its states) into
stacked arrays, each member the same bits and errors as the single call.
DensityMatrix(m), joint_spectrum and chi_square, their one-member case,
are the only places a per-pair object is built.  A spectrum's weights
mu_j W_ij, ratios lambda_i / mu_j and W's defect are derived by one
function (_derived) and V by one (_variation), for a pair or a stack.

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
from .generators import Generator, _generators
from .hermitian import (
    CheckReport,
    EigenDecomposition,
    _as_square_matrix,
    _philox_key,
    _positive,
    _real,
    _whole,
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
        sym, dec = densities(_as_square_matrix(self.matrix)[np.newaxis])
        object.__setattr__(self, "matrix", sym[0])
        object.__setattr__(self, "dec", dec[0])

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


def densities(stack) -> tuple:
    """The (n, d, d) stack checked and diagonalized as DensityMatrix(m)
    does each matrix m: its Hermitian parts and their stacked
    EigenDecomposition, member k equal to DensityMatrix(stack[k])'s.

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
    return sym, dec


def _member(sym: np.ndarray, dec: EigenDecomposition, k: int) -> DensityMatrix:
    """Member k of densities' stacks, as a DensityMatrix."""
    return _frozen(DensityMatrix, matrix=sym[k], dec=dec[k])


def as_density(x) -> DensityMatrix:
    return x if isinstance(x, DensityMatrix) else DensityMatrix(np.asarray(x))


def _singular(low: float, eps: float):
    """The error for a reference state of least eigenvalue low singular at eps, or None."""
    if low < eps:
        return PreconditionError(
            f"reference state is singular at tolerance {eps:g}: min eigenvalue {low:.3e}")
    return None


def _density_pair(q, p, eps: float = None) -> tuple:
    """Both states as DensityMatrix of one dimension; unless eps is None,
    the reference state p must have smallest eigenvalue at least eps."""
    qd = as_density(q)
    pd = as_density(p)
    if qd.dim != pd.dim:
        raise PreconditionError(f"dimension mismatch: {qd.dim} vs {pd.dim}")
    if eps is not None:
        if error := _singular(pd.min_eigenvalue, _positive(eps, "invertibility threshold")):
            raise error
    return qd, pd


@dataclass(frozen=True)
class JointSpectrum:
    """Joint spectral data of a pair (Q, P).

    lam and mu are the eigenvalues of Q and P in descending order,
    w[i, j] = |<u_i, v_j>|^2 the eigenbasis overlaps, and [r, R] the
    ratio window min/max of lambda_i / mu_j, which always contains 1.
    q_vectors and p_vectors hold the eigenvector columns in the same
    descending order, and eps the invertibility threshold P was checked
    against.  The rest is derived once, on construction: defect, W's
    distance from double stochasticity (the largest |row sum - 1| and
    |column sum - 1|), and the read-only weights wt = mu_j W_ij and
    ratios lambda_i / mu_j.
    """

    lam: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    r: float
    R: float
    q_vectors: np.ndarray
    p_vectors: np.ndarray
    eps: float = DEFAULT_INVERTIBILITY_EPS
    defect: tuple = field(init=False, compare=False)
    wt: np.ndarray = field(init=False, repr=False, compare=False)
    ratio: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        defect, wt, ratio = _derived(self.lam, self.mu, self.w)
        for name, value in (("defect", tuple(defect.tolist())), ("wt", wt), ("ratio", ratio)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return int(self.lam.size)

    def variational(self) -> float:
        """sum_ij W_ij |lambda_i - mu_j|, the value of variational_q."""
        return float(_variation(self.lam, self.mu, self.w))


def _derived(lam, mu, w) -> tuple:
    """W's defect (largest |row sum - 1|, largest |column sum - 1|), and the
    read-only weights mu_j W_ij and ratios lambda_i / mu_j, of one pair's
    spectrum or, stacked, of each pair of a block's."""
    defect = np.abs(np.stack([w.sum(axis=-1), w.sum(axis=-2)], axis=-2) - 1.0).max(axis=-1)
    wt = w * mu[..., np.newaxis, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lam[..., :, np.newaxis] / mu[..., np.newaxis, :]
    wt.flags.writeable = ratio.flags.writeable = False
    return defect, wt, ratio


def _variation(lam, mu, w):
    """sum_ij W_ij |lambda_i - mu_j| of one pair's spectrum or, stacked, of
    each pair of a block's."""
    return (w * np.abs(lam[..., :, np.newaxis] - mu[..., np.newaxis, :])).reshape(*w.shape[:-2], -1).sum(axis=-1)


def joint_spectrum(q, p, eps: float = DEFAULT_INVERTIBILITY_EPS) -> JointSpectrum:
    """Diagonalize both states and assemble the joint spectral data.

    Requires the reference state p to be invertible: its smallest
    eigenvalue must be at least eps.
    """
    qd, pd = _density_pair(q, p)
    fields, (error,) = joint_spectra(qd.dec[np.newaxis], pd.dec[np.newaxis], eps)
    if error:
        raise error
    lam, mu, w, r, R, u, v = (fields[name][0] for name in ("lam", "mu", "w", "r", "R", "q_vectors", "p_vectors"))
    return JointSpectrum(lam, mu, w, float(r), float(R), u, v, float(eps))  # the float joint_spectra checked


def joint_spectra(q_dec, p_dec, eps: float = DEFAULT_INVERTIBILITY_EPS) -> tuple:
    """joint_spectrum of each pair of a block of one dimension, given as
    the stacked decompositions of its Qs and Ps, in one stacked pass:
    JointSpectrum's fields but eps, stacked, and per pair None or the
    exception joint_spectrum raises for it (PreconditionError for P
    singular at eps, ArithmeticError for an overlap matrix that lost
    double stochasticity)."""
    eps = _positive(eps, "invertibility threshold")
    lam, mu = (dec.eigenvalues[:, ::-1].copy() for dec in (q_dec, p_dec))
    u, v = q_dec.eigenvectors[:, :, ::-1], p_dec.eigenvectors[:, :, ::-1]
    w = np.abs(u.conj().swapaxes(1, 2) @ v) ** 2
    defect, wt, ratio = _derived(lam, mu, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Unit traces force r <= 1 <= R; only last-ulp rounding can break it.
        r = np.minimum(lam[:, -1] / mu[:, 0], 1.0)
        R = np.maximum(lam[:, 0] / mu[:, -1], 1.0)
    low, errors = p_dec.eigenvalues[:, 0], [None] * len(lam)
    for k in np.flatnonzero((low < eps) | (defect > STOCHASTICITY_TOL).any(axis=1)).tolist():
        rows, cols = defect[k].tolist()
        errors[k] = _singular(float(low[k]), eps) or ArithmeticError(
            f"overlap matrix lost double stochasticity: row defect {rows:.2e}, column defect {cols:.2e}")
    return dict(lam=lam, mu=mu, w=w, r=r, R=R, q_vectors=u, p_vectors=v, defect=defect, wt=wt,
                ratio=ratio), errors


@dataclass(frozen=True)
class DivergenceValue:
    """S_f(Q, P) with provenance: generator spec and outcome flags."""

    value: float
    generator: str
    flags: tuple = ()

    def __float__(self) -> float:
        return self.value


# weighted_sums' flag codes, as DivergenceValue flags.
SUM_FLAGS = ((), ("infinite",), ("zero-mass-infinite-terms",))

# A block's term pass takes generators in chunks of about this many ratio values.
STACK_POINTS = 2**14


def weighted_sums(wt: np.ndarray, terms) -> tuple:
    """sum_ij wt_ij term_ij for each term, an array of values at every ratio
    of the block, of terms (the rows of an array, or a nonempty list) and
    each member of the block's (n, d, d) weight stack: a (terms, n) array of
    sums and one of SUM_FLAGS codes.  A zero ratio's value, f(0+), is the
    generator's to give (generators._at).  The terms are weighted and summed
    as one stack.  A sum with an infinite value is +inf (code 1) if any such
    value has weight above WEIGHT_FLOOR, and otherwise the sum of its
    finite values (code 2): those terms carry no mass.  Every sum equals
    the single-spectrum sum bit for bit."""
    w = wt.reshape(len(wt), -1)
    vals = np.asarray(terms, dtype=np.float64).reshape(len(terms), *w.shape)
    with np.errstate(invalid="ignore"):  # inf * 0 weight; the loop below redoes such sums
        total = (w * vals).sum(axis=2)
    code = np.zeros(total.shape, dtype=np.intp)
    infinite = np.isinf(vals)
    for i, k in zip(*(a.tolist() for a in np.nonzero(infinite.any(axis=2)))):
        inf, v = infinite[i, k], vals[i, k]
        if (inf & (w[k] > WEIGHT_FLOOR)).any():
            total[i, k], code[i, k] = math.inf, 1
        else:
            total[i, k], code[i, k] = np.sum(w[k][~inf] * v[~inf]), 2
    return total, code


def s_f_from_spectrum(js: JointSpectrum, f: Generator) -> DivergenceValue:
    """Evaluate sum_ij mu_j W_ij f(lambda_i / mu_j) on prepared data: the
    one-member case of weighted_sums.

    Zero ratios take f(0+), as f does at 0.  An infinite f-value makes the
    result +inf only when its weight mu_j W_ij exceeds the weight floor;
    below it the term counts as zero mass.
    """
    _generators((f,))
    sums, codes = weighted_sums(js.wt[np.newaxis], [f(js.ratio)])
    return DivergenceValue(value=float(sums[0, 0]), generator=f.spec, flags=SUM_FLAGS[codes[0, 0]])


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
    return float(chi_squares(qd.matrix[np.newaxis], pd.dec[np.newaxis], eps)[0])


def chi_squares(q_mats, p_dec, eps: float = DEFAULT_INVERTIBILITY_EPS) -> np.ndarray:
    """chi_square of each pair of a block, its Qs stacked in q_mats and
    its Ps as a stacked decomposition, in one stacked pass, as a float
    array; chi_square's PreconditionError for the first pair whose P is
    singular at eps."""
    eps = _positive(eps, "invertibility threshold")
    p_vecs, p_vals = p_dec.eigenvectors, p_dec.eigenvalues
    singular = np.flatnonzero(p_vals[:, 0] < eps)
    if singular.size:
        raise _singular(float(p_vals[singular[0], 0]), eps)
    # P^(-1) through P's ascending decomposition, as matrix_function builds it.
    with np.errstate(invalid="ignore", over="ignore"):
        p_inv = (p_vecs * (1.0 / p_vals)[:, np.newaxis, :]) @ p_vecs.conj().swapaxes(1, 2)
        p_inv = (p_inv + p_inv.conj().swapaxes(1, 2)) / 2.0
        return np.trace(q_mats @ q_mats @ p_inv, axis1=1, axis2=2).real - 1.0


def tsallis(q, p, qparam: float, eps: float = DEFAULT_INVERTIBILITY_EPS) -> float:
    """(1 - tr(Q^q P^(1-q))) / (1 - q) for q in (0, 1)."""
    qparam = _real(qparam, "tsallis parameter")
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
    The probes are drawn from a Philox keyed by seed mod 2**64, so any
    whole seed is taken, as fuzz takes it.
    """
    trials, seed = _whole(trials, "trials", least=0), _whole(seed, "seed")
    qd, pd = as_density(q), as_density(p)
    js = joint_spectrum(qd, pd, eps)
    d = js.dim
    q_half = matrix_function(qd.dec, math.sqrt)
    p_inv_half = matrix_function(pd.dec, lambda x: 1.0 / math.sqrt(x))

    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed, 0)))
    lower_slack = upper_slack = math.inf
    for _ in range(trials):
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

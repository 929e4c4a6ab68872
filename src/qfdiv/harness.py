"""Bound-chain certification and seeded violation search.

Every upper-bound family is evaluated as a full inequality chain on a
concrete pair (Q, P): the terms are computed left to right and each
consecutive link must satisfy left <= right + tol * max(1, |right|).
An infinite right side makes a link vacuous (hypothesis unmet), which
is reported distinctly from a violated inequality.  Chains whose
hypotheses exclude the pair entirely (degenerate ratio window) are
reported as skipped.

The fuzz driver runs its trials serially, in index order, on random
density pairs drawn from seeded, counter-based streams: trial k always
uses the stream keyed by (seed, k), so a run's output is a function of
its configuration and any violation can be replayed bit-for-bit from
its (seed, trial) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, PreconditionError
from .generators import (
    Generator,
    default_catalog,
    jensen_gap_bound,
    psi,
    psi_sup,
    secant_bound,
)
from .hermitian import matrix_to_json
from .quantum import (
    WEIGHT_FLOOR,
    DensityMatrix,
    JointSpectrum,
    as_density,
    chi_square,
    joint_spectrum,
    s_f_from_spectrum,
)

__all__ = [
    "BoundChainReport",
    "FuzzConfig",
    "FuzzResult",
    "Violation",
    "check_nonneg",
    "check_derivative_gap",
    "check_thm2",
    "check_thm3",
    "check_thm4",
    "check_thm5",
    "run_all_checks",
    "chi_square_secant_coeff",
    "chi_square_chord_coeff",
    "neg_log_jensen_coeff",
    "neg_log_range_coeff",
    "sample_density",
    "sample_pair",
    "fuzz",
    "collect_violations",
]

INF = math.inf
DEFAULT_TOL = 1e-9
# Windows with R or r within this of 1 fail the strict R > 1 > r hypothesis.
DEGENERATE_WINDOW_TOL = 1e-12
EQUALITY_TOL = 1e-12
NEAR_TIGHT_SLACK = 1e-6
SAMPLER_KINDS = ("ginibre", "commuting", "mixture")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundChainReport:
    """One evaluated inequality chain.

    chain holds ordered (label, value) terms; slacks and link_verdicts
    describe each consecutive pair ("pass" | "fail" | "vacuous").
    status is "pass", "vacuous-pass" (all links hold, at least one
    vacuous), "fail", or "skipped" (hypotheses exclude this pair).
    subchains carries the closed-form specializations evaluated
    alongside the generic chain.
    """

    check: str
    chain: tuple
    slacks: tuple
    link_verdicts: tuple
    status: str
    generator: str
    dim: int
    r: float
    R: float
    flags: tuple = ()
    subchains: tuple = ()
    note: str = ""
    seed: object = None

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.chain)


def _link_eval(left: float, right: float, tol: float) -> tuple:
    if math.isinf(right):
        return "vacuous", INF
    if math.isinf(left):
        # A finite bound can never absorb an infinite value.
        return "fail", -INF
    slack = right - left
    verdict = "pass" if left <= right + tol * max(1.0, abs(right)) else "fail"
    return verdict, slack


def _report(check: str, terms, f: Generator, js: JointSpectrum, tol: float,
            flags=(), subchains=(), note: str = "") -> BoundChainReport:
    verdicts = []
    slacks = []
    eq_flags = []
    for (ll, lv), (rl, rv) in zip(terms, terms[1:]):
        verdict, slack = _link_eval(lv, rv, tol)
        verdicts.append(verdict)
        slacks.append(slack)
        if verdict == "pass" and abs(slack) <= EQUALITY_TOL * max(1.0, abs(rv)):
            eq_flags.append(f"equality:{ll}={rl}")
    status = "fail" if "fail" in verdicts else ("vacuous-pass" if "vacuous" in verdicts else "pass")
    return BoundChainReport(
        check=check,
        chain=tuple(terms),
        slacks=tuple(slacks),
        link_verdicts=tuple(verdicts),
        status=status,
        generator=f.spec,
        dim=js.dim,
        r=js.r,
        R=js.R,
        flags=tuple(flags) + tuple(eq_flags),
        subchains=tuple(subchains),
        note=note,
    )


def _skipped(check: str, f: Generator, js: JointSpectrum, note: str, sf: float) -> BoundChainReport:
    return BoundChainReport(
        check=check,
        chain=(("value", sf),),
        slacks=(),
        link_verdicts=(),
        status="skipped",
        generator=f.spec,
        dim=js.dim,
        r=js.r,
        R=js.R,
        note=note,
    )


def _xlogx(t: float) -> float:
    return 0.0 if t == 0.0 else t * math.log(t)


def _prepare(q, p, f, js, eps, sf):
    qd = as_density(q)
    pd = as_density(p)
    if js is None:
        js = joint_spectrum(qd, pd, eps)
    if sf is None:
        sf = s_f_from_spectrum(js, f).value
    return qd, pd, js, float(sf)


def _derivative_gap_coeff(f: Generator, js: JointSpectrum) -> float:
    """f'_-(R) - f'_+(r), or +inf when a one-sided derivative diverges."""
    d_left_R = f.deriv_left(js.R)
    d_right_r = f.deriv_right(js.r)
    if not (math.isfinite(d_left_R) and math.isfinite(d_right_r)):
        return INF
    return d_left_R - d_right_r


# ---------------------------------------------------------------------------
# individual chains


def check_nonneg(q, p, f: Generator, js: JointSpectrum = None,
                 tol: float = DEFAULT_TOL, eps: float = 1e-12, sf: float = None) -> BoundChainReport:
    """Chain [0, S_f]: the divergence of a normalized generator is nonnegative."""
    _, _, js, sfv = _prepare(q, p, f, js, eps, sf)
    return _report("nonneg", [("zero", 0.0), ("value", sfv)], f, js, tol)


def check_derivative_gap(q, p, f: Generator, js: JointSpectrum = None,
                         tol: float = DEFAULT_TOL, eps: float = 1e-12,
                         sf: float = None) -> BoundChainReport:
    """Chain [S_f, sum of weights * (t - 1) f'(t)] for differentiable f.

    For f = -ln t the right side collapses to the chi-square distance
    with the states swapped; when Q is invertible that closed form is
    attached as an oracle subchain.
    """
    qd, pd, js, sfv = _prepare(q, p, f, js, eps, sf)
    if not f.smooth:
        return _skipped("derivative-gap", f, js,
                        "generator has a derivative kink; chain needs a continuous derivative", sfv)

    wt = js.weights()
    ratios = js.ratios()
    deriv = np.empty_like(ratios)
    pos = ratios > 0.0
    if np.any(pos):
        deriv[pos] = np.asarray(f.deriv_right_fn(ratios[pos]), dtype=np.float64)
    deriv[~pos] = f.deriv_at_zero

    gaps = np.empty_like(ratios)
    finite = np.isfinite(deriv)
    gaps[finite] = (ratios[finite] - 1.0) * deriv[finite]
    gaps[~finite] = INF

    if np.any(~finite & (wt > WEIGHT_FLOOR)):
        rhs = INF
    else:
        keep = np.isfinite(gaps)
        rhs = float(np.sum(wt[keep] * gaps[keep]))

    subchains = []
    flags = []
    if f.name == "neg-log":
        if qd.min_eigenvalue >= eps:
            swapped = chi_square(pd, qd, eps)
            subchains.append(
                _report("derivative-gap:swap",
                        [("zero", 0.0), ("value", sfv), ("chi-square-swapped", swapped)],
                        f, js, tol)
            )
            if math.isfinite(rhs) and abs(rhs - swapped) <= 1e-8 * max(1.0, abs(swapped)):
                flags.append("oracle:slope-gap-equals-swapped-chi-square")
        else:
            flags.append("swap-oracle-unavailable:singular-q")

    return _report("derivative-gap", [("value", sfv), ("slope-weighted-gap", rhs)],
                   f, js, tol, flags=flags, subchains=subchains)


def check_thm2(q, p, f: Generator, js: JointSpectrum = None,
               tol: float = DEFAULT_TOL, eps: float = 1e-12, sf: float = None) -> BoundChainReport:
    """Four-term chain through the variational quantity and chi.

    [S_f, D/2 * V, D/2 * chi, (R-r)/4 * D] with D = f'_-(R) - f'_+(r),
    V the variational quantity, and chi = sqrt of the chi-square
    distance.  Closed-form specializations are attached for the chi2,
    kl, neg-log, and tsallis generators.
    """
    qd, pd, js, sfv = _prepare(q, p, f, js, eps, sf)
    r, R = js.r, js.R
    big_d = _derivative_gap_coeff(f, js)
    v = js.variational()
    chi = math.sqrt(max(chi_square(qd, pd, eps), 0.0))

    if math.isinf(big_d):
        half_v = half_chi = quarter = INF
    else:
        half_v = 0.5 * big_d * v
        half_chi = 0.5 * big_d * chi
        quarter = 0.25 * (R - r) * big_d

    subchains = []
    if f.name == "chi2":
        co = 0.5 * (R - r)
        subchains.append(_report(
            "thm2:chi2",
            [("value", sfv), ("half-window-variation", co * v),
             ("half-window-chi", co * chi), ("quarter-window-sq", 0.25 * (R - r) ** 2)],
            f, js, tol))
    elif f.name == "kl-quantum":
        co = 0.5 * math.log(R / r) if r > 0.0 else INF
        final = 0.5 * (R - r) * co if math.isfinite(co) else INF
        subchains.append(_report(
            "thm2:kl-quantum",
            [("value", sfv), ("half-log-variation", co * v if math.isfinite(co) else INF),
             ("half-log-chi", co * chi if math.isfinite(co) else INF),
             ("quarter-window-log", final)],
            f, js, tol))
    elif f.name == "neg-log":
        co = (R - r) / (2.0 * r * R) if r > 0.0 else INF
        final = (R - r) ** 2 / (4.0 * r * R) if r > 0.0 else INF
        subchains.append(_report(
            "thm2:neg-log",
            [("value", sfv), ("half-ratio-variation", co * v if math.isfinite(co) else INF),
             ("half-ratio-chi", co * chi if math.isfinite(co) else INF),
             ("quarter-window-ratio", final)],
            f, js, tol))
    elif f.name == "tsallis":
        qq = f.params["q"]
        if r > 0.0:
            co = qq * (R ** (1.0 - qq) - r ** (1.0 - qq)) / (2.0 * (1.0 - qq) * (R * r) ** (1.0 - qq))
            final = 0.5 * (R - r) * co
        else:
            co = final = INF
        subchains.append(_report(
            "thm2:tsallis",
            [("value", sfv), ("half-power-variation", co * v if math.isfinite(co) else INF),
             ("half-power-chi", co * chi if math.isfinite(co) else INF),
             ("quarter-window-power", final)],
            f, js, tol))

    return _report(
        "thm2",
        [("value", sfv), ("half-gap-variation", half_v),
         ("half-gap-chi", half_chi), ("quarter-window-gap", quarter)],
        f, js, tol, subchains=subchains)


def check_thm3(q, p, f: Generator, js: JointSpectrum = None,
               tol: float = DEFAULT_TOL, eps: float = 1e-12, sf: float = None) -> BoundChainReport:
    """Two-term chain [S_f, secant value at the window endpoints]."""
    _, _, js, sfv = _prepare(q, p, f, js, eps, sf)
    r, R = js.r, js.R
    if not r < R:
        return _skipped("thm3", f, js, "degenerate window: r = R", sfv)
    bound = secant_bound(f, r, R)

    flags = []
    occupied = js.ratios()[js.weights() > WEIGHT_FLOOR]
    at_ends = (np.abs(occupied - r) <= 1e-12 * max(1.0, r)) | (np.abs(occupied - R) <= 1e-12 * R)
    if occupied.size and bool(np.all(at_ends)):
        flags.append("tight:ratios-at-endpoints")

    subchains = []
    if f.name == "chi2":
        subchains.append(_report(
            "thm3:chi2",
            [("value", sfv), ("window-polynomial", chi_square_secant_coeff(r, R))],
            f, js, tol))
    elif f.name == "kl-quantum":
        bound_kl = ((R - 1.0) * _xlogx(r) + (1.0 - r) * R * math.log(R)) / (R - r)
        subchains.append(_report(
            "thm3:kl-quantum", [("value", sfv), ("window-log-mix", bound_kl)], f, js, tol))
    elif f.name == "neg-log":
        bound_nl = ((1.0 - R) * math.log(r) + (r - 1.0) * math.log(R)) / (R - r) if r > 0.0 else INF
        subchains.append(_report(
            "thm3:neg-log", [("value", sfv), ("window-log-mix", bound_nl)], f, js, tol))

    return _report("thm3", [("value", sfv), ("secant", bound)], f, js, tol,
                   flags=flags, subchains=subchains)


def check_thm4(q, p, f: Generator, js: JointSpectrum = None,
               tol: float = DEFAULT_TOL, eps: float = 1e-12, sf: float = None) -> BoundChainReport:
    """Five-term chain through the double-slope gap Psi.

    Main chain: [S_f, K Psi(1), K sup Psi, K D, (R-r)/4 * D] with
    K = (R-1)(1-r)/(R-r) and D = f'_-(R) - f'_+(r).  The alternate
    routing through (R-r)/4 * Psi(1) is attached as a subchain, as are
    the chi2 / inv / neg-log / kl closed forms.  Requires the strict
    window R > 1 > r.
    """
    _, _, js, sfv = _prepare(q, p, f, js, eps, sf)
    r, R = js.r, js.R
    if R - 1.0 <= DEGENERATE_WINDOW_TOL or 1.0 - r <= DEGENERATE_WINDOW_TOL:
        return _skipped("thm4", f, js, "window must satisfy R > 1 > r strictly", sfv)

    k = (R - 1.0) * (1.0 - r) / (R - r)
    quarter = 0.25 * (R - r)
    fr = f(r)
    psi1 = INF if math.isinf(fr) else psi(f, 1.0, r, R)
    sup = psi_sup(f, r, R)
    big_d = _derivative_gap_coeff(f, js)

    main = [
        ("value", sfv),
        ("window-psi-at-one", k * psi1),
        ("window-psi-sup", k * sup),
        ("window-derivative-gap", k * big_d),
        ("quarter-range-derivative-gap", quarter * big_d),
    ]
    alternate = _report(
        "thm4:alternate",
        [("value", sfv), ("window-psi-at-one", k * psi1),
         ("quarter-range-psi-at-one", quarter * psi1),
         ("quarter-range-psi-sup", quarter * sup),
         ("quarter-range-derivative-gap", quarter * big_d)],
        f, js, tol)

    flags = []
    sec = secant_bound(f, r, R)
    if math.isfinite(sec) and math.isfinite(psi1) and abs(k * psi1 - sec) <= 1e-9 * max(1.0, abs(sec)):
        flags.append("matches-secant")

    subchains = [alternate]
    if f.name == "chi2":
        chord = chi_square_chord_coeff(r, R)
        subchains.append(_report(
            "thm4:chi2", [("value", sfv), ("window-product", chord)], f, js, tol))
        if chord < chi_square_secant_coeff(r, R):
            flags.append("sharper-than-secant-polynomial")
    elif f.name == "inv-minus-one":
        bound_inv = (R - 1.0) * (1.0 - r) / (R * r) if r > 0.0 else INF
        subchains.append(_report(
            "thm4:inv-minus-one", [("value", sfv), ("window-product-ratio", bound_inv)],
            f, js, tol))
    elif f.name == "neg-log":
        if r > 0.0:
            mid = ((1.0 - R) * math.log(r) + (r - 1.0) * math.log(R)) / (R - r)
            kd = (R - 1.0) * (1.0 - r) / (r * R)
        else:
            mid = kd = INF
        subchains.append(_report(
            "thm4:neg-log",
            [("value", sfv), ("window-log-mix", mid), ("window-product-ratio", kd)],
            f, js, tol))
    elif f.name == "kl-quantum":
        mid = ((1.0 - r) * R * math.log(R) + (R - 1.0) * _xlogx(r)) / (R - r)
        kd = (R - 1.0) * (1.0 - r) * math.log(R / r) / (R - r) if r > 0.0 else INF
        subchains.append(_report(
            "thm4:kl-quantum",
            [("value", sfv), ("window-log-mix", mid), ("window-product-log", kd)],
            f, js, tol))

    return _report("thm4", main, f, js, tol, flags=flags, subchains=subchains)


def check_thm5(q, p, f: Generator, js: JointSpectrum = None,
               tol: float = DEFAULT_TOL, eps: float = 1e-12, sf: float = None) -> BoundChainReport:
    """Two-term chain [S_f, midpoint Jensen gap bound] on a strict window."""
    _, _, js, sfv = _prepare(q, p, f, js, eps, sf)
    r, R = js.r, js.R
    if R - 1.0 <= DEGENERATE_WINDOW_TOL or 1.0 - r <= DEGENERATE_WINDOW_TOL:
        return _skipped("thm5", f, js, "window must satisfy R > 1 > r strictly", sfv)

    bound = jensen_gap_bound(f, r, R)
    subchains = []
    if f.name == "chi2":
        subchains.append(_report(
            "thm5:chi2", [("value", sfv), ("half-range-sq", 0.5 * (R - r) ** 2)], f, js, tol))
    elif f.name == "inv-minus-one":
        bound_inv = (R - r) ** 2 / (r * R * (r + R)) if r > 0.0 else INF
        subchains.append(_report(
            "thm5:inv-minus-one", [("value", sfv), ("range-sq-ratio", bound_inv)], f, js, tol))
    elif f.name == "neg-log":
        if r > 0.0:
            jn = neg_log_jensen_coeff(r, R)
            cap = neg_log_range_coeff(r, R)
        else:
            jn = cap = INF
        subchains.append(_report(
            "thm5:neg-log",
            [("value", sfv), ("log-midpoint-gap", jn), ("quarter-range-ratio", cap)],
            f, js, tol))

    return _report("thm5", [("value", sfv), ("midpoint-gap-bound", bound)],
                   f, js, tol, subchains=subchains)


def run_all_checks(q, p, f: Generator, js: JointSpectrum = None,
                   tol: float = DEFAULT_TOL, eps: float = 1e-12) -> tuple:
    """All six chains for one generator, sharing one joint spectrum."""
    qd = as_density(q)
    pd = as_density(p)
    if js is None:
        js = joint_spectrum(qd, pd, eps)
    sfv = s_f_from_spectrum(js, f).value
    args = dict(js=js, tol=tol, eps=eps, sf=sfv)
    return (
        check_nonneg(qd, pd, f, **args),
        check_derivative_gap(qd, pd, f, **args),
        check_thm2(qd, pd, f, **args),
        check_thm3(qd, pd, f, **args),
        check_thm4(qd, pd, f, **args),
        check_thm5(qd, pd, f, **args),
    )


# ---------------------------------------------------------------------------
# closed-form window coefficients (for tightness comparisons)


def _check_open_window(r: float, R: float) -> tuple:
    r, R = float(r), float(R)
    if not 0.0 <= r < 1.0 < R:
        raise PreconditionError(f"need 0 <= r < 1 < R, got r={r}, R={R}")
    return r, R


def chi_square_secant_coeff(r: float, R: float) -> float:
    """(R-1)(1-r)(R+r+2)/(R-r): the chi-square secant-route bound."""
    r, R = _check_open_window(r, R)
    return (R - 1.0) * (1.0 - r) * (R + r + 2.0) / (R - r)


def chi_square_chord_coeff(r: float, R: float) -> float:
    """(R-1)(1-r): the chi-square double-slope-route bound."""
    r, R = _check_open_window(r, R)
    return (R - 1.0) * (1.0 - r)


def neg_log_jensen_coeff(r: float, R: float) -> float:
    """ln((R+r)^2 / (4 r R)): the -ln midpoint-gap bound."""
    r, R = _check_open_window(r, R)
    if r == 0.0:
        return INF
    return math.log((R + r) ** 2 / (4.0 * r * R))


def neg_log_range_coeff(r: float, R: float) -> float:
    """(R-r)^2 / (4 r R): the coarser -ln window bound."""
    r, R = _check_open_window(r, R)
    if r == 0.0:
        return INF
    return (R - r) ** 2 / (4.0 * r * R)


# ---------------------------------------------------------------------------
# sampling


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, rmat = np.linalg.qr(g)
    d = np.diag(rmat)
    return qmat * (d / np.abs(d))


def _apply_floor(rho: np.ndarray, dim: int, floor: float) -> np.ndarray:
    if floor > 0.0:
        rho = (rho + floor * np.eye(dim) / dim) / (1.0 + floor)
    return (rho + rho.conj().T) / 2.0


def _check_sampler_args(kind: str, dim: int, floor: float) -> tuple:
    if kind not in SAMPLER_KINDS:
        raise InputFormatError(f"unknown sampler {kind!r}; choose from {SAMPLER_KINDS}")
    dim = int(dim)
    if dim < 1:
        raise InputFormatError(f"dimension must be >= 1, got {dim}")
    floor = float(floor)
    if not 0.0 <= floor < 1.0 / dim:
        raise InputFormatError(f"floor must lie in [0, 1/dim), got {floor} at dim {dim}")
    return kind, dim, floor


def _raw_state(kind: str, dim: int, rng: np.random.Generator,
               basis: np.ndarray = None) -> np.ndarray:
    if kind == "ginibre":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real
    if kind == "commuting":
        u = basis if basis is not None else _haar_unitary(dim, rng)
        evals = rng.dirichlet(np.ones(dim))
        return (u * evals) @ u.conj().T
    # mixture: dim rank-one projectors with Dirichlet weights
    vecs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    vecs /= np.linalg.norm(vecs, axis=0)
    wts = rng.dirichlet(np.ones(dim))
    return (vecs * wts) @ vecs.conj().T


def sample_density(kind: str, dim: int, floor: float, rng: np.random.Generator) -> DensityMatrix:
    """One random density matrix of the given ensemble.

    kinds: "ginibre" (Wishart-normalized), "commuting" (random spectrum
    on a Haar basis), "mixture" (Dirichlet-weighted rank-one states).
    floor in [0, 1/dim) mixes in floor * I/dim and renormalizes, keeping
    the smallest eigenvalue away from zero.
    """
    kind, dim, floor = _check_sampler_args(kind, dim, floor)
    rho = _raw_state(kind, dim, rng)
    return DensityMatrix(_apply_floor(rho, dim, floor))


def sample_pair(kind: str, dim: int, floor: float, rng: np.random.Generator) -> tuple:
    """A (Q, P) pair; the commuting ensemble shares one eigenbasis."""
    kind, dim, floor = _check_sampler_args(kind, dim, floor)
    if kind == "commuting":
        u = _haar_unitary(dim, rng)
        a = _raw_state(kind, dim, rng, basis=u)
        b = _raw_state(kind, dim, rng, basis=u)
    else:
        a = _raw_state(kind, dim, rng)
        b = _raw_state(kind, dim, rng)
    return (DensityMatrix(_apply_floor(a, dim, floor)),
            DensityMatrix(_apply_floor(b, dim, floor)))


# ---------------------------------------------------------------------------
# fuzzing


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one violation-search run."""

    dim: int = 4
    trials: int = 100
    seed: int = 0
    sampler: str = "ginibre"
    floor: float = None
    generators: tuple = None
    tol: float = DEFAULT_TOL
    eps: float = 1e-12
    jobs: int = 1

    def __post_init__(self):
        if self.floor is None:
            object.__setattr__(self, "floor", 1e-6 / int(self.dim))
        if self.generators is None:
            object.__setattr__(self, "generators", default_catalog().generators)
        else:
            object.__setattr__(self, "generators", tuple(self.generators))
        _check_sampler_args(self.sampler, self.dim, self.floor)
        if int(self.trials) < 1:
            raise InputFormatError(f"trials must be >= 1, got {self.trials}")
        if not self.tol > 0.0:
            raise InputFormatError(f"tolerance must be positive, got {self.tol}")
        if not self.eps > 0.0:
            raise InputFormatError(f"eps must be positive, got {self.eps}")
        if int(self.jobs) < 1:
            raise InputFormatError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class Violation:
    """A failed chain link with everything needed to replay it."""

    check: str
    link: tuple
    left: float
    right: float
    generator: str
    dim: int
    r: float
    R: float
    seed: int
    trial: int
    q_json: dict
    p_json: dict

    def to_json(self) -> dict:
        def num(x):
            return repr(x) if math.isinf(x) else x

        return {
            "check": self.check,
            "link": list(self.link),
            "left": num(self.left),
            "right": num(self.right),
            "generator": self.generator,
            "dim": self.dim,
            "r": self.r,
            "R": self.R,
            "seed": self.seed,
            "trial": self.trial,
            "q": self.q_json,
            "p": self.p_json,
        }


def collect_violations(report: BoundChainReport, seed: int, trial: int,
                       qd: DensityMatrix, pd: DensityMatrix) -> list:
    """Flatten the failed links of a report (and its subchains)."""
    out = []
    for sub in report.subchains:
        out.extend(collect_violations(sub, seed, trial, qd, pd))
    for (left_term, right_term, verdict) in zip(report.chain, report.chain[1:], report.link_verdicts):
        if verdict != "fail":
            continue
        out.append(Violation(
            check=report.check,
            link=(left_term[0], right_term[0]),
            left=left_term[1],
            right=right_term[1],
            generator=report.generator,
            dim=report.dim,
            r=report.r,
            R=report.R,
            seed=seed,
            trial=trial,
            q_json=matrix_to_json(qd.matrix),
            p_json=matrix_to_json(pd.matrix),
        ))
    return out


@dataclass(frozen=True)
class FuzzResult:
    """Violations plus deterministic aggregate statistics."""

    config: FuzzConfig
    violations: tuple
    summary: dict


_SLACK_BUCKETS = ("negative", "<1e-9", "<1e-6", "<1e-3", "<1", ">=1", "vacuous")


def _slack_bucket(slack: float) -> str:
    if math.isinf(slack):
        return "vacuous"
    if slack < 0.0:
        return "negative"
    if slack < 1e-9:
        return "<1e-9"
    if slack < 1e-6:
        return "<1e-6"
    if slack < 1e-3:
        return "<1e-3"
    if slack < 1.0:
        return "<1"
    return ">=1"


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed % (2**64), trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _walk(report: BoundChainReport):
    yield report
    for sub in report.subchains:
        yield from _walk(sub)


def fuzz(config: FuzzConfig) -> FuzzResult:
    """Run every chain on `trials` sampled pairs; collect violations.

    Trials run one after another, in index order.  Each draws from a
    stream keyed by (seed, trial index), so the output is deterministic
    and any violation replays from its (seed, trial) pair.  config.jobs
    is validated but does not change how the run executes.
    """
    violations = []
    counts = {}
    hist = {}
    near_tight = []
    near_tight_total = 0
    min_slack = None
    skipped_trials = []

    for trial in range(int(config.trials)):
        qd, pd = sample_pair(config.sampler, config.dim, config.floor,
                             _trial_rng(config.seed, trial))
        try:
            js = joint_spectrum(qd, pd, config.eps)
        except PreconditionError as exc:
            skipped_trials.append({"trial": trial, "reason": str(exc)})
            continue
        reports = []
        for f in config.generators:
            reports.extend(run_all_checks(qd, pd, f, js=js, tol=config.tol, eps=config.eps))
        for top in reports:
            for rep in _walk(top):
                counts.setdefault(rep.check, {"pass": 0, "vacuous-pass": 0, "fail": 0, "skipped": 0})
                counts[rep.check][rep.status] += 1
                bucket = hist.setdefault(rep.check, dict.fromkeys(_SLACK_BUCKETS, 0))
                for (ll, _), (rl, rv), slack in zip(rep.chain, rep.chain[1:], rep.slacks):
                    bucket[_slack_bucket(slack)] += 1
                    if math.isfinite(slack):
                        if min_slack is None or slack < min_slack["slack"]:
                            min_slack = {"slack": slack, "check": rep.check,
                                         "generator": rep.generator, "trial": trial,
                                         "link": f"{ll}<={rl}"}
                        if 0.0 <= slack < NEAR_TIGHT_SLACK:
                            near_tight_total += 1
                            if len(near_tight) < 100:
                                near_tight.append({
                                    "trial": trial, "check": rep.check,
                                    "generator": rep.generator,
                                    "link": f"{ll}<={rl}", "slack": slack,
                                })
            violations.extend(collect_violations(top, config.seed, trial, qd, pd))

    summary = {
        "config": {
            "dim": int(config.dim),
            "trials": int(config.trials),
            "seed": int(config.seed),
            "sampler": config.sampler,
            "floor": float(config.floor),
            "tol": float(config.tol),
            "eps": float(config.eps),
            "generators": [g.spec for g in config.generators],
        },
        "checks": {k: counts[k] for k in sorted(counts)},
        "slack_histograms": {k: hist[k] for k in sorted(hist)},
        "violations": len(violations),
        "near_tight_total": near_tight_total,
        "near_tight": near_tight,
        "min_slack": min_slack,
        "skipped_trials": skipped_trials,
    }
    return FuzzResult(config=config, violations=tuple(violations), summary=summary)

"""Bound-chain certification and seeded violation search.

Every upper-bound family is evaluated as a full inequality chain on a
concrete pair (Q, P): the terms are computed left to right and each
consecutive link must satisfy left <= right + tol * max(1, |right|).
An infinite right side makes a link vacuous (hypothesis unmet), which
is reported distinctly from a violated inequality.  Chains whose
hypotheses exclude the pair entirely (degenerate ratio window) are
reported as skipped.

certify (and run_all_checks and the check_* functions) and fuzz share
one pipeline, run on a block of pairs: one pair for certify, up to
FUZZ_BLOCK trials for fuzz.  A pair's invariants (joint spectrum,
window, V, chi) are computed once.  Per generator, one pass over the
block computes S_f, the derivative-gap sums and sup Psi, and one scalar
call per endpoint quantity (f(r), f(R), f(1), f((r+R)/2), f'_+(r),
f'_-(R)) serves every chain.  One producer per check emits its chains'
terms as data, closed-form subchains come from a table keyed by (check,
family), and all links of the block are judged in one vectorized pass.
fuzz aggregates from those arrays, in trial order, and builds reports
only for a trial with a failed link.

fuzz draws its random density pairs from seeded,
counter-based streams: trial k always uses the stream keyed by (seed,
k), so a run's output is a function of its configuration (not of the
block size) and any violation can be replayed bit-for-bit from its
(seed, trial) pair.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputFormatError, PreconditionError
from .generators import (
    Generator,
    default_catalog,
    jensen_gap_value,
    psi_sup,
    psi_value,
    secant_value,
)
from .hermitian import matrix_to_json
from .quantum import (
    WEIGHT_FLOOR,
    DensityMatrix,
    DivergenceValue,
    JointSpectrum,
    as_density,
    chi_square,
    joint_spectrum,
    s_f_from_spectrum,
    weighted_sums,
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
    "certify",
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
# fuzz evaluates its trials in blocks of this many; the output does not
# depend on it.
FUZZ_BLOCK = 16


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


# Verdicts and statuses by code.  A chain's status is the worst verdict
# among its links; a chain without links was skipped.
_VERDICTS = ("pass", "vacuous", "fail")
_STATUSES = ("pass", "vacuous-pass", "fail", "skipped")
_SLACK_BUCKETS = ("negative", "<1e-9", "<1e-6", "<1e-3", "<1", ">=1", "vacuous")
_BUCKET_EDGES = np.array([0.0, 1e-9, 1e-6, 1e-3, 1.0])


def _link_eval(chains, tol: float) -> tuple:
    """Judge every link of `chains` in one vectorized pass: each chain's
    status code and link count, then each link's verdict code, slack,
    slack bucket and equality flag.  An infinite right side makes a link
    vacuous; an infinite left side under a finite one fails."""
    sizes = np.fromiter((len(ch[3]) for ch in chains), np.intp, len(chains))
    values = np.fromiter(itertools.chain.from_iterable(ch[3] for ch in chains), np.float64)
    is_left = np.ones(values.size, dtype=bool)
    is_left[np.cumsum(sizes) - 1] = False
    at = np.flatnonzero(is_left)
    left, right = values[at], values[at + 1]

    vacuous = np.isinf(right)
    endless = np.isinf(left) & ~vacuous
    with np.errstate(invalid="ignore"):
        slack = right - left
        held = (left <= right + tol * np.maximum(1.0, np.abs(right))) & ~endless
    slack[vacuous] = INF
    slack[endless] = -INF
    codes = np.where(vacuous, 1, np.where(held, 0, 2))
    buckets = np.where(np.isinf(slack), 6, np.searchsorted(_BUCKET_EDGES, slack, side="right"))
    equal = held & ~vacuous & (np.abs(slack) <= EQUALITY_TOL * np.maximum(1.0, np.abs(right)))

    nlinks = sizes - 1
    status = np.full(len(chains), 3)
    linked = nlinks > 0
    if codes.size:
        status[linked] = np.maximum.reduceat(codes, (np.cumsum(nlinks) - nlinks)[linked])
    return status, nlinks, codes, slack, buckets, equal


def _reports(groups, js: JointSpectrum, tol: float) -> list:
    """One report per group of chains: the first, with the rest as subchains."""
    chains = [ch for g in groups for ch in g]
    status, nlinks, codes, slack, _, equal = (a.tolist() for a in _link_eval(chains, tol))
    built = []
    for (check, spec, labels, values, flags, note), st, n, at in zip(
            chains, status, nlinks, itertools.accumulate(nlinks, initial=0)):
        equalities = [f"equality:{labels[i]}={labels[i + 1]}" for i in range(n) if equal[at + i]]
        built.append(BoundChainReport(
            check=check, chain=tuple(zip(labels, values)), slacks=tuple(slack[at:at + n]),
            link_verdicts=tuple(_VERDICTS[v] for v in codes[at:at + n]), status=_STATUSES[st],
            generator=spec, dim=js.dim, r=js.r, R=js.R, flags=(*flags, *equalities), note=note))
    built = iter(built)
    return [dataclasses.replace(next(built), subchains=tuple(itertools.islice(built, len(g) - 1)))
            for g in groups]


class _Pair:
    """Invariants of one (Q, P) pair, shared by every generator's chains.

    A supplied joint spectrum brings its own invertibility threshold,
    which then replaces eps.
    """

    def __init__(self, q, p, js: JointSpectrum, eps: float):
        self.qd, self.pd = as_density(q), as_density(p)
        self.js = joint_spectrum(self.qd, self.pd, eps) if js is None else js
        self.eps = self.js.eps
        r, R = self.r, self.R = self.js.r, self.js.R
        self.v = self.js.variational()
        # thm4 and thm5 need the strict window R > 1 > r.
        self.strict = R - 1.0 > DEGENERATE_WINDOW_TOL and 1.0 - r > DEGENERATE_WINDOW_TOL
        self.k = (R - 1.0) * (1.0 - r) / (R - r) if self.strict else None
        self.quarter = 0.25 * (R - r)
        # thm3 is tight when every occupied ratio sits at an end of the window.
        occupied = self.js.ratio[self.js.wt > WEIGHT_FLOOR]
        at_ends = (np.abs(occupied - r) <= 1e-12 * max(1.0, r)) | (np.abs(occupied - R) <= 1e-12 * R)
        self.tight = bool(occupied.size and at_ends.all())

    @functools.cached_property
    def chi(self) -> float:
        return math.sqrt(max(chi_square(self.qd, self.pd, self.eps), 0.0))

    @functools.cached_property
    def chi_square_swapped(self) -> float:
        return chi_square(self.pd, self.qd, self.eps)


class _Terms(NamedTuple):
    """One generator's quantities on one pair, from which its chains are made.

    dv is S_f and sf its value; slope_gap is the derivative-gap right
    side (None for a generator with a kink) and sup the supremum of Psi
    (None off a strict window).  The rest are f(r), f(R), f(1),
    f((r + R)/2), f'_+(r) and f'_-(R), each from one scalar call.
    """

    dv: DivergenceValue
    sf: float
    slope_gap: float
    sup: float
    fr: float
    fR: float
    f1: float
    fmid: float
    dr: float
    dR: float

    @property
    def derivative_gap(self) -> float:
        """f'_-(R) - f'_+(r), or +inf when a one-sided derivative diverges."""
        return self.dR - self.dr if math.isfinite(self.dR) and math.isfinite(self.dr) else INF


def _slope_gap(js: JointSpectrum, f: Generator) -> float:
    """sum of weights * (t - 1) f'_+(t) over the joint spectrum, or +inf when
    an infinite slope carries weight."""
    wt, ratios, pos = js.wt, js.ratio, js.pos
    deriv = np.full_like(ratios, f.deriv_at_zero)
    if pos.any():
        deriv[pos] = np.asarray(f.deriv_right_fn(ratios[pos]), dtype=np.float64)
    finite = np.isfinite(deriv)
    if (~finite & (wt > WEIGHT_FLOOR)).any():
        return INF
    gaps = (ratios[finite] - 1.0) * deriv[finite]
    keep = np.isfinite(gaps)
    return float((wt[finite][keep] * gaps[keep]).sum())


def _terms(pairs: list, f: Generator) -> list:
    """f's _Terms on each pair of a block.

    S_f, the derivative-gap sums and sup Psi are each computed for the
    whole block in one pass; a pair that the stacked sums leave out (a
    zero ratio, an infinite value) is evaluated on its own.
    """
    ends = [(f(c.r), f(c.R), f(1.0), f(0.5 * (c.r + c.R)), f.deriv_right(c.r), f.deriv_left(c.R))
            for c in pairs]
    spectra = [c.js for c in pairs]
    dvs = s_f_from_spectrum(spectra, f)
    gaps = [None] * len(pairs)
    if f.smooth:
        sums = weighted_sums(spectra, lambda t: (t - 1.0) * f.deriv_right_fn(t))
        gaps = [_slope_gap(js, f) if total is None else total for js, total in zip(spectra, sums)]
    sups = [None] * len(pairs)
    strict = [i for i, c in enumerate(pairs) if c.strict]
    if strict:
        values = psi_sup(f, [pairs[i].r for i in strict], [pairs[i].R for i in strict],
                         ends=[[ends[i][k] for i in strict] for k in (0, 1, 4, 5)])
        for i, value in zip(strict, values.tolist()):
            sups[i] = value
    return [_Terms(dv, float(dv.value), gap, sup, *end)
            for dv, gap, sup, end in zip(dvs, gaps, sups, ends)]


# ---------------------------------------------------------------------------
# chain terms
#
# A chain is a tuple (check, generator spec, labels, values, flags, note).
# Each producer returns the chains of one check for one generator: the
# check's own chain, then its subchains.  A skipped chain keeps only the
# divergence value and says why in its note.


def _with_closed_form(c: _Pair, f: Generator, check: str, labels: tuple,
                      values: tuple, flags=(), subs=()) -> list:
    """The chain of `check`, its subchains `subs`, then its closed form for
    f's family from _CLOSED_FORMS, if it has one."""
    flags = list(flags)
    name, sub_labels, terms = _CLOSED_FORMS.get((check, f.name), (None, None, None))
    sub_values = terms(c, f, values, flags) if terms else None
    closed = [] if sub_values is None else [(name, f.spec, sub_labels, sub_values, (), "")]
    return [(check, f.spec, labels, values, flags, ""), *subs, *closed]


def _nonneg(c: _Pair, f: Generator, e: _Terms) -> list:
    """Chain [0, S_f]: the divergence of a normalized generator is nonnegative."""
    return [("nonneg", f.spec, ("zero", "value"), (0.0, e.sf), (), "")]


def _derivative_gap(c: _Pair, f: Generator, e: _Terms) -> list:
    """Chain [S_f, sum of weights * (t - 1) f'(t)] for differentiable f.

    For f = -ln t the right side collapses to the chi-square distance
    with the states swapped; when Q is invertible that closed form is
    attached as an oracle subchain.
    """
    if not f.smooth:
        return [("derivative-gap", f.spec, ("value",), (e.sf,), (),
                 "generator has a derivative kink; chain needs a continuous derivative")]
    return _with_closed_form(c, f, "derivative-gap", ("value", "slope-weighted-gap"),
                             (e.sf, e.slope_gap))


def _thm2(c: _Pair, f: Generator, e: _Terms) -> list:
    """Four-term chain through the variational quantity and chi.

    [S_f, D/2 * V, D/2 * chi, (R-r)/4 * D] with D = f'_-(R) - f'_+(r),
    V the variational quantity, and chi = sqrt of the chi-square
    distance.  Closed-form specializations are attached for the chi2,
    kl, neg-log, and tsallis generators.  Skipped on a degenerate window
    r = R, where every window term vanishes and only rounding is left.
    """
    if not c.r < c.R:
        return [("thm2", f.spec, ("value",), (e.sf,), (), "degenerate window: r = R")]
    big_d = e.derivative_gap
    values = (e.sf, INF, INF, INF) if math.isinf(big_d) else (
        e.sf, 0.5 * big_d * c.v, 0.5 * big_d * c.chi, c.quarter * big_d)
    return _with_closed_form(c, f, "thm2", (
        "value", "half-gap-variation", "half-gap-chi", "quarter-window-gap"), values)


def _thm3(c: _Pair, f: Generator, e: _Terms) -> list:
    """Two-term chain [S_f, secant value at the window endpoints]."""
    if not c.r < c.R:
        return [("thm3", f.spec, ("value",), (e.sf,), (), "degenerate window: r = R")]
    return _with_closed_form(c, f, "thm3", ("value", "secant"),
                             (e.sf, secant_value(c.r, c.R, e.fr, e.fR)),
                             flags=["tight:ratios-at-endpoints"] if c.tight else [])


def _thm4(c: _Pair, f: Generator, e: _Terms) -> list:
    """Five-term chain through the double-slope gap Psi.

    Main chain: [S_f, K Psi(1), K sup Psi, K D, (R-r)/4 * D] with
    K = (R-1)(1-r)/(R-r) and D = f'_-(R) - f'_+(r).  The alternate
    routing through (R-r)/4 * Psi(1) is attached as a subchain, as are
    the chi2 / inv / neg-log / kl closed forms.  Requires the strict
    window R > 1 > r.
    """
    if not c.strict:
        return [("thm4", f.spec, ("value",), (e.sf,), (), "window must satisfy R > 1 > r strictly")]
    r, R, k, quarter, sf, sup = c.r, c.R, c.k, c.quarter, e.sf, e.sup
    psi1 = INF if math.isinf(e.fr) else psi_value(1.0, r, R, e.f1, e.fr, e.fR)
    big_d = e.derivative_gap
    alternate = ("thm4:alternate", f.spec, (
        "value", "window-psi-at-one", "quarter-range-psi-at-one", "quarter-range-psi-sup",
        "quarter-range-derivative-gap"), (sf, k * psi1, quarter * psi1, quarter * sup, quarter * big_d),
        (), "")
    sec = secant_value(r, R, e.fr, e.fR)
    matches = math.isfinite(sec) and math.isfinite(psi1) and abs(k * psi1 - sec) <= 1e-9 * max(1.0, abs(sec))
    return _with_closed_form(c, f, "thm4", (
        "value", "window-psi-at-one", "window-psi-sup", "window-derivative-gap",
        "quarter-range-derivative-gap"), (sf, k * psi1, k * sup, k * big_d, quarter * big_d),
        flags=["matches-secant"] if matches else [], subs=[alternate])


def _thm5(c: _Pair, f: Generator, e: _Terms) -> list:
    """Two-term chain [S_f, midpoint Jensen gap bound] on a strict window."""
    if not c.strict:
        return [("thm5", f.spec, ("value",), (e.sf,), (), "window must satisfy R > 1 > r strictly")]
    return _with_closed_form(c, f, "thm5", ("value", "midpoint-gap-bound"),
                             (e.sf, jensen_gap_value(e.fr, e.fR, e.fmid)))


_CHAINS = (_nonneg, _derivative_gap, _thm2, _thm3, _thm4, _thm5)


def _evaluate(pairs: list, generators) -> list:
    """For each pair of a block, per generator: its _Terms and the chains of
    all six checks, grouped by check."""
    out = [[] for _ in pairs]
    for f in generators:
        for row, c, e in zip(out, pairs, _terms(pairs, f)):
            row.append((e, [chains(c, f, e) for chains in _CHAINS]))
    return out


# ---------------------------------------------------------------------------
# closed-form specializations, keyed by (check, generator family)
#
# An entry names the subchain, labels its terms and computes them as
# terms(pair, f, values of the check's own chain, flags of that chain).
# terms may add to the flags, and returns None for no subchain.


def _swap_oracle(c, f, main, flags):
    # For f = -ln t the slope-weighted gap is the swapped chi-square distance.
    if not c.qd.min_eigenvalue >= c.eps:
        flags.append("swap-oracle-unavailable:singular-q")
        return None
    swapped = c.chi_square_swapped
    if math.isfinite(main[1]) and abs(main[1] - swapped) <= 1e-8 * max(1.0, abs(swapped)):
        flags.append("oracle:slope-gap-equals-swapped-chi-square")
    return (0.0, main[0], swapped)


def _thm2_form(coeff, final=None):
    """thm2 with the family coefficient coeff(f, r, R) in place of D/2 and
    last term final(r, R), by default (R - r)/2 times the coefficient."""

    def terms(c, f, main, flags):
        co = coeff(f, c.r, c.R)
        last = final(c.r, c.R) if final else (0.5 * (c.R - c.r) * co if math.isfinite(co) else INF)
        return (main[0], co * c.v, co * c.chi, last) if math.isfinite(co) else (main[0], INF, INF, last)

    return terms


def _tsallis_coeff(f, r, R):
    qq = f.params["q"]
    return qq * (R ** (1.0 - qq) - r ** (1.0 - qq)) / (2.0 * (1.0 - qq) * (R * r) ** (1.0 - qq))


def _window(bounds):
    """A closed form [S_f, *bounds(r, R)]."""
    return lambda c, f, main, flags: (main[0], *bounds(c.r, c.R))


def _kl_log_mix(r: float, R: float) -> float:
    """The secant value of t ln t on [r, R]."""
    return ((R - 1.0) * (r * math.log(r) if r > 0.0 else 0.0) + (1.0 - r) * R * math.log(R)) / (R - r)


def _neg_log_log_mix(r: float, R: float) -> float:
    """The secant value of -ln t on [r, R]."""
    return ((1.0 - R) * math.log(r) + (r - 1.0) * math.log(R)) / (R - r) if r > 0.0 else INF


def _chi2_thm4(c, f, main, flags):
    chord = chi_square_chord_coeff(c.r, c.R)
    if chord < chi_square_secant_coeff(c.r, c.R):
        flags.append("sharper-than-secant-polynomial")
    return (main[0], chord)


_CLOSED_FORMS = {
    ("derivative-gap", "neg-log"): (
        "derivative-gap:swap", ("zero", "value", "chi-square-swapped"), _swap_oracle),
    ("thm2", "chi2"): (
        "thm2:chi2", ("value", "half-window-variation", "half-window-chi", "quarter-window-sq"),
        _thm2_form(lambda f, r, R: 0.5 * (R - r), lambda r, R: 0.25 * (R - r) ** 2)),
    ("thm2", "kl-quantum"): (
        "thm2:kl-quantum", ("value", "half-log-variation", "half-log-chi", "quarter-window-log"),
        _thm2_form(lambda f, r, R: 0.5 * math.log(R / r) if r > 0.0 else INF)),
    ("thm2", "neg-log"): (
        "thm2:neg-log", ("value", "half-ratio-variation", "half-ratio-chi", "quarter-window-ratio"),
        _thm2_form(lambda f, r, R: (R - r) / (2.0 * r * R) if r > 0.0 else INF,
                   lambda r, R: (R - r) ** 2 / (4.0 * r * R) if r > 0.0 else INF)),
    ("thm2", "tsallis"): (
        "thm2:tsallis", ("value", "half-power-variation", "half-power-chi", "quarter-window-power"),
        _thm2_form(lambda f, r, R: _tsallis_coeff(f, r, R) if r > 0.0 else INF)),
    ("thm3", "chi2"): (
        "thm3:chi2", ("value", "window-polynomial"),
        _window(lambda r, R: (chi_square_secant_coeff(r, R),))),
    ("thm3", "kl-quantum"): (
        "thm3:kl-quantum", ("value", "window-log-mix"), _window(lambda r, R: (_kl_log_mix(r, R),))),
    ("thm3", "neg-log"): (
        "thm3:neg-log", ("value", "window-log-mix"), _window(lambda r, R: (_neg_log_log_mix(r, R),))),
    ("thm4", "chi2"): ("thm4:chi2", ("value", "window-product"), _chi2_thm4),
    ("thm4", "inv-minus-one"): (
        "thm4:inv-minus-one", ("value", "window-product-ratio"),
        _window(lambda r, R: ((R - 1.0) * (1.0 - r) / (R * r) if r > 0.0 else INF,))),
    ("thm4", "neg-log"): (
        "thm4:neg-log", ("value", "window-log-mix", "window-product-ratio"),
        _window(lambda r, R: (_neg_log_log_mix(r, R),
                              (R - 1.0) * (1.0 - r) / (r * R) if r > 0.0 else INF))),
    ("thm4", "kl-quantum"): (
        "thm4:kl-quantum", ("value", "window-log-mix", "window-product-log"),
        _window(lambda r, R: (_kl_log_mix(r, R),
                              (R - 1.0) * (1.0 - r) * math.log(R / r) / (R - r) if r > 0.0 else INF))),
    ("thm5", "chi2"): (
        "thm5:chi2", ("value", "half-range-sq"), _window(lambda r, R: (0.5 * (R - r) ** 2,))),
    ("thm5", "inv-minus-one"): (
        "thm5:inv-minus-one", ("value", "range-sq-ratio"),
        _window(lambda r, R: ((R - r) ** 2 / (r * R * (r + R)) if r > 0.0 else INF,))),
    ("thm5", "neg-log"): (
        "thm5:neg-log", ("value", "log-midpoint-gap", "quarter-range-ratio"),
        _window(lambda r, R: (neg_log_jensen_coeff(r, R), neg_log_range_coeff(r, R)))),
}


# ---------------------------------------------------------------------------
# individual chains


def _public(chains, name: str):
    """The public check function around the chain producer `chains`."""

    def check(q, p, f: Generator, js: JointSpectrum = None, tol: float = DEFAULT_TOL,
              eps: float = 1e-12, sf: float = None) -> BoundChainReport:
        c = _Pair(q, p, js, eps)
        e = _terms([c], f)[0]
        if sf is not None:
            e = e._replace(sf=float(sf))
        return _reports([chains(c, f, e)], c.js, tol)[0]

    check.__name__ = check.__qualname__ = name
    check.__doc__ = chains.__doc__
    return check


check_nonneg = _public(_nonneg, "check_nonneg")
check_derivative_gap = _public(_derivative_gap, "check_derivative_gap")
check_thm2 = _public(_thm2, "check_thm2")
check_thm3 = _public(_thm3, "check_thm3")
check_thm4 = _public(_thm4, "check_thm4")
check_thm5 = _public(_thm5, "check_thm5")


def certify(q, p, generators, js: JointSpectrum = None, tol: float = DEFAULT_TOL,
            eps: float = 1e-12) -> list:
    """All six chains for each generator on one pair, sharing the pair's
    invariants and judged in one pass.  Returns, per generator, its S_f
    (a DivergenceValue) and its six reports."""
    c = _Pair(q, p, js, eps)
    rows = _evaluate([c], generators)[0]
    reports = _reports([g for _, groups in rows for g in groups], c.js, tol)
    n = len(_CHAINS)
    return [(e.dv, tuple(reports[i * n:(i + 1) * n])) for i, (e, _) in enumerate(rows)]


def run_all_checks(q, p, f: Generator, js: JointSpectrum = None,
                   tol: float = DEFAULT_TOL, eps: float = 1e-12) -> tuple:
    """All six chains for one generator, sharing one joint spectrum."""
    return certify(q, p, (f,), js=js, tol=tol, eps=eps)[0][1]


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


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed % (2**64), trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Tally:
    """fuzz's aggregates, fed one block of trials at a time in trial order."""

    def __init__(self, config: FuzzConfig):
        self.config = config
        self.violations = []
        self.statuses = collections.Counter()  # (check, status code) -> chains
        self.buckets = collections.Counter()  # (check, slack bucket) -> links
        self.near_tight = []
        self.near_tight_total = 0
        self.min_slack = None

    def add(self, block: list) -> None:
        """Evaluate every chain of `block`, a list of (trial, _Pair), judge
        all its links in one pass, and aggregate them."""
        config = self.config
        per_pair = [[g for _, groups in row for g in groups]
                    for row in _evaluate([c for _, c in block], config.generators)]
        chains = [ch for groups in per_pair for g in groups for ch in g]
        status, nlinks, codes, slack, bucket, _ = _link_eval(chains, config.tol)
        owner = np.repeat(np.arange(len(chains)), nlinks)  # link -> chain
        pair_of = np.repeat(np.arange(len(block)), [sum(map(len, groups)) for groups in per_pair])
        checks = [ch[0] for ch in chains]
        self.statuses.update(zip(checks, status.tolist()))
        link_checks = itertools.chain.from_iterable(map(itertools.repeat, checks, nlinks.tolist()))
        self.buckets.update(zip(link_checks, bucket.tolist()))

        def where(i):
            j = owner[i]
            check, spec, labels = chains[j][:3]
            at = i - int(np.searchsorted(owner, j))
            return block[pair_of[j]][0], check, spec, f"{labels[at]}<={labels[at + 1]}"

        finite = np.isfinite(slack)
        if finite.any():
            i = int(np.argmin(np.where(finite, slack, INF)))
            if self.min_slack is None or slack[i] < self.min_slack["slack"]:
                trial, check, spec, link = where(i)
                self.min_slack = {"slack": float(slack[i]), "check": check, "generator": spec,
                                  "trial": trial, "link": link}
        tight = np.flatnonzero(finite & (slack >= 0.0) & (slack < NEAR_TIGHT_SLACK))
        self.near_tight_total += tight.size
        for i in tight[:max(0, 100 - len(self.near_tight))]:
            trial, check, spec, link = where(i)
            self.near_tight.append({"trial": trial, "check": check, "generator": spec,
                                    "link": link, "slack": float(slack[i])})

        for k in sorted(set(pair_of[owner[codes == 2]].tolist())):
            trial, c = block[k]
            for top in _reports(per_pair[k], c.js, config.tol):
                self.violations.extend(collect_violations(top, config.seed, trial, c.qd, c.pd))

    def summary(self, skipped_trials: list) -> dict:
        config = self.config
        checks = sorted({check for check, _ in self.statuses})
        return {
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
            "checks": {k: {name: self.statuses[k, code] for code, name in enumerate(_STATUSES)}
                       for k in checks},
            "slack_histograms": {k: {name: self.buckets[k, code]
                                     for code, name in enumerate(_SLACK_BUCKETS)}
                                 for k in checks},
            "violations": len(self.violations),
            "near_tight_total": self.near_tight_total,
            "near_tight": self.near_tight,
            "min_slack": self.min_slack,
            "skipped_trials": skipped_trials,
        }


def fuzz(config: FuzzConfig) -> FuzzResult:
    """Run every chain on `trials` sampled pairs; collect violations.

    Each trial draws from a stream keyed by (seed, trial index), so the
    output is deterministic and any violation replays from its (seed,
    trial) pair.  Trials are evaluated in blocks of FUZZ_BLOCK, each
    generator in one pass over a block, and aggregated in trial order, so
    the output is the same as one trial at a time would give.
    config.jobs is validated but does not change how the run executes.
    A pair that joint_spectrum rejects (singular P, lost double
    stochasticity) is recorded as a skipped trial with the reason.
    """
    tally = _Tally(config)
    skipped_trials = []
    trials = int(config.trials)
    for first in range(0, trials, FUZZ_BLOCK):
        block = []  # (trial, pair)
        for trial in range(first, min(first + FUZZ_BLOCK, trials)):
            qd, pd = sample_pair(config.sampler, config.dim, config.floor,
                                 _trial_rng(config.seed, trial))
            try:
                js = joint_spectrum(qd, pd, config.eps)
            except (PreconditionError, ArithmeticError) as exc:
                skipped_trials.append({"trial": trial, "reason": str(exc)})
                continue
            block.append((trial, _Pair(qd, pd, js, config.eps)))
        if block:
            tally.add(block)
    return FuzzResult(config=config, violations=tuple(tally.violations),
                      summary=tally.summary(skipped_trials))

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
FUZZ_BLOCK trials for fuzz.  For fuzz the block starts at the draw: only
the random numbers are drawn trial by trial; the states are formed,
checked and diagonalized (one eigh call) as one stack, and states and
spectra stay stacks up to the tally.  One chi_squares call gives
chi-square(Q, P) (thm2) and, where the plan reads it (neg-log's oracle),
chi-square(P, Q).  The chains are data, declared once in one table
(_CHECKS: per check its chain, then its subchains, closed forms among
them), each term a column of the block times a factor: a column or a
base term of the generators.  A generator set's term plan, laid out once
per process, holds every link that exists (a closed form on its family's
generators alone, where their metadata is closed-form) and each link's
report labels.  A block computes each base term over all generators at
once and each column once, forms every link's terms with one gather and
judges them in one vectorized pass, as (pairs, entries) arrays; fuzz
tallies them with bincount, and reports (their flags, and a pair's
DensityMatrix objects) are built only where read: by certify,
run_all_checks and check_*, and for a failed fuzz trial.

fuzz draws its random density pairs from seeded,
counter-based streams: trial k always uses the stream keyed by (seed,
k), so a run's output is a function of its configuration (not of the
block size) and any violation can be replayed bit-for-bit from its
(seed, trial) pair.  One Philox serves a run, re-keyed for each trial to
the state a Philox built with that key starts in, set from plain ints.
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

from . import quantum
from .errors import InputFormatError, PreconditionError
from .generators import (
    Generator,
    _check_open_window,
    _generators,
    _window_ends,
    default_catalog,
    jensen_gap_value,
    psi_sups,
    secant_value,
)
from .hermitian import (
    MAX_DIM, EigenDecomposition, _json_num, _philox_key, _philox_words, _positive, _real, _whole, matrix_to_json)
from .quantum import (
    DEFAULT_INVERTIBILITY_EPS,
    SUM_FLAGS,
    WEIGHT_FLOOR,
    DensityMatrix,
    DivergenceValue,
    JointSpectrum,
    _density_pair,
    _member,
    _variation,
    chi_squares,
    densities,
    joint_spectra,
    joint_spectrum,
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
]

INF = math.inf
DEFAULT_TOL = 1e-9
# Windows with R or r within this of 1 fail the strict R > 1 > r hypothesis,
# and windows no wider than this count as degenerate (r = R).
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

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.chain)


class _Chain(NamedTuple):
    """One chain, as data.  A term is (coefficient, factor), or with a third
    element True +inf where the factor is not finite: a column times a
    column or a base term (a _Terms field, on the generator's column).  A
    column is a number, a (B, 1) _Block attribute or a formula of r and R.
    The chain exists where the _Block attribute cond holds (every pair
    without one), and if smooth on smooth generators only; elsewhere its
    check is skipped for the reason note (none: not reported).  A closed
    form names its generator family, and holds for its f alone.  flags holds
    (name, rule(block, _Terms, row, generator column)[, family])."""

    check: str
    labels: tuple
    terms: tuple
    cond: str = None
    note: str = ""
    smooth: bool = False
    flags: tuple = ()
    sub: bool = False
    family: str = None


# Verdicts and statuses by code.  A chain's status is the worst verdict
# among its links; where it does not exist but has a note, it is skipped.
_VERDICTS = ("pass", "vacuous", "fail")
_STATUSES = ("pass", "vacuous-pass", "fail", "skipped")
_SLACK_BUCKETS = ("negative", "<1e-9", "<1e-6", "<1e-3", "<1", ">=1", "vacuous")
_BUCKET_EDGES = np.array([0.0, 1e-9, 1e-6, 1e-3, 1.0])


class _Block:
    """The invariants of a block of B (Q, P) pairs, one (B, 1) column each:
    window [r, R], V, K, chi; and the stacks they come from: states q, p and
    their decompositions from densities, joint_spectra's fields.  chi, which
    thm2 reads, is set when the block is judged (chi_pass), in one stacked
    chi_squares call with the swapped chi-square where the plan reads that
    too (neg-log's oracle); thm3's tightness, which only reports read, once
    read.  The spectra share one threshold, eps."""

    def __init__(self, q, qdec, p, pdec, fields: dict, eps: float):
        self.q, self.qdec, self.p, self.pdec, self.eps = q, qdec, p, pdec, eps
        lam, mu, w, self.ratio, self.wt, r, R = (fields[name] for name in ("lam", "mu", "w", "ratio", "wt", "r", "R"))
        self.dim, v = lam.shape[1], _variation(lam, mu, w)
        # thm4 and thm5 need the strict window R > 1 > r.
        strict = (R - 1.0 > DEGENERATE_WINDOW_TOL) & (1.0 - r > DEGENERATE_WINDOW_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (R - 1.0) * (1.0 - r) / (R - r)
        q_invertible = qdec.eigenvalues[:, 0] >= eps
        self.r, self.R, self.v, self.window, self.strict, self.k, self.quarter, self.q_invertible = (
            x[:, np.newaxis] for x in (r, R, v, R - r > DEGENERATE_WINDOW_TOL, strict, k, 0.25 * (R - r), q_invertible))

    def chi_pass(self, swapped: bool) -> None:
        """chi from chi-square(Q, P) and, if swapped, chi_swapped: chi-square(P,
        Q) where Q is invertible at eps, else NaN; in one chi_squares call, which
        raises the first error (only a spectrum not built from its pair has one)."""
        q, dec, n = self.q, self.pdec, len(self.q)
        if swapped:
            rows = _rows(self.q_invertible[:, 0])
            q = np.concatenate([q, self.p[rows]])
            dec = EigenDecomposition(np.concatenate([dec.eigenvalues, self.qdec.eigenvalues[rows]]),
                                     np.concatenate([dec.eigenvectors, self.qdec.eigenvectors[rows]]))
        values = chi_squares(q, dec, self.eps)
        self.chi = np.sqrt(np.maximum(values[:n], 0.0))[:, np.newaxis]
        if swapped:
            self.chi_swapped = np.full((n, 1), math.nan)
            self.chi_swapped[rows, 0] = values[n:]

    @functools.cached_property
    def tight(self) -> np.ndarray:
        """thm3's tightness: every occupied ratio at an end of the window."""
        occupied, r3, R3 = self.wt > WEIGHT_FLOOR, self.r[:, :, np.newaxis], self.R[:, :, np.newaxis]
        at_ends = (np.abs(self.ratio - r3) <= 1e-12 * np.maximum(1.0, r3)) | (np.abs(self.ratio - R3) <= 1e-12 * R3)
        return (occupied.any(axis=(1, 2)) & (at_ends | ~occupied).all(axis=(1, 2)))[:, np.newaxis]


def _rows(mask: np.ndarray):
    """The rows where mask holds: a slice, so a view, where it holds on every row."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _pair(q, p, js: JointSpectrum, eps: float) -> _Block:
    """One pair as a block of one; a supplied joint spectrum must be the
    pair's own (its eigenvalues and eigenvectors those of Q's and P's
    decompositions, bit for bit), and brings its own invertibility
    threshold, which then replaces eps."""
    qd, pd = _density_pair(q, p)
    if js is None:
        js = joint_spectrum(qd, pd, eps)
    elif not all(map(np.array_equal, (js.lam, js.mu, js.q_vectors, js.p_vectors),
                     (qd.dec.eigenvalues[::-1], pd.dec.eigenvalues[::-1],
                      qd.dec.eigenvectors[:, ::-1], pd.dec.eigenvectors[:, ::-1]))):
        raise PreconditionError("joint spectrum is not the pair's own: its eigendata differ from Q's and P's")
    return _Block(qd.matrix[np.newaxis], qd.dec[np.newaxis], pd.matrix[np.newaxis], pd.dec[np.newaxis],
                  {name: np.array([getattr(js, name)]) for name in vars(js)}, js.eps)


# The generators' quantities on a block, one (B, G) array each: S_f and its SUM_FLAGS
# code, the derivative-gap right side (read for a smooth f only), sup Psi (NaN off a
# strict window), f(r), f(R), f((r + R)/2), f'_+(r), f'_-(R) and Psi(1) from _window_ends,
# D = f'_-(R) - f'_+(r) (+inf if one diverges) and D/2, the secant value and the
# midpoint Jensen gap bound on [r, R], and the Tsallis coefficient (NaN off the
# columns asked for).
_Terms = collections.namedtuple(
    "_Terms", "sf sf_flags slope_gap sup fr fR fmid dr dR gap half_gap psi1 secant jensen tsallis")
_TERM_NAMES = frozenset(_Terms._fields)


def _terms(b: _Block, generators, tsallis=()) -> _Terms:
    """The generators' _Terms on block b, term by term over all generators:
    _window_ends, on as many at a time as quantum.STACK_POINTS allows, gives
    the windows' endpoint values, Psi(1) among them, and, summed by
    weighted_sums, S_f and the derivative-gap sums sum wt (t - 1) f'_+(t)
    (value -f'(0+) at t = 0) over the block's stacked spectra; then sup Psi
    in one psi_sups pass.  The Tsallis coefficient is computed on the
    columns `tsallis` alone."""
    strict, r, R = _rows(b.strict[:, 0]), b.r[:, 0], b.R[:, 0]
    fr, fR, fmid, dr, dR, psi1 = ends = np.empty((6, len(r), len(generators)))
    ratios, step = b.ratio.reshape(-1), max(1, quantum.STACK_POINTS // b.ratio.size)
    sums, codes = (np.concatenate(x) for x in zip(*(
        weighted_sums(b.wt, _window_ends(generators[g:g + step], r, R, ends[..., g:g + step], ratios))
        for g in range(0, len(generators), step))))
    sup, coeff = np.full(fr.shape, math.nan), np.full(fr.shape, math.nan)
    sup[strict] = psi_sups(generators, r[strict], R[strict], ends=[x[strict] for x in (fr, fR, dr, dR, psi1)])
    with np.errstate(all="ignore"):  # r = R gives 0/0
        gap = np.where(np.isfinite(dR) & np.isfinite(dr), dR - dr, INF)
        if tsallis:
            q = np.array([[generators[g].params["q"] for g in tsallis]])
            coeff[:, tsallis] = np.where(b.r > 0.0, q * (b.R ** (1.0 - q) - b.r ** (1.0 - q))
                                         / (2.0 * (1.0 - q) * (b.R * b.r) ** (1.0 - q)), INF)
        return _Terms(sums[0::2].T, codes[0::2].T, sums[1::2].T, sup, fr, fR, fmid, dr, dR, gap, 0.5 * gap, psi1,
                      secant_value(b.r, b.R, fr, fR), jensen_gap_value(fr, fR, fmid), coeff)


# ---------------------------------------------------------------------------
# closed-form window coefficients (for tightness comparisons)


def _coefficient(name: str, formula, doc: str, closed: bool = False):
    """The public function `name` of formula(r, R), written for a block's
    (B, 1) columns and kept as .formula, on one checked window (closed: thm3's)."""

    def coeff(r: float, R: float) -> float:
        r, R = _check_open_window(r, R, closed)
        with np.errstate(divide="ignore"):
            return float(formula(np.array([[r]]), np.array([[R]]))[0, 0])

    coeff.__name__, coeff.__qualname__, coeff.__doc__, coeff.formula = name, name, doc, formula
    return coeff


# A formula with r in a denominator or a logarithm is +inf at r = 0.
chi_square_secant_coeff = _coefficient(
    "chi_square_secant_coeff", lambda r, R: (R - 1.0) * (1.0 - r) * (R + r + 2.0) / (R - r),
    "(R-1)(1-r)(R+r+2)/(R-r): the chi-square secant-route bound, on 0 <= r <= 1 <= R.", closed=True)
chi_square_chord_coeff = _coefficient(
    "chi_square_chord_coeff", lambda r, R: (R - 1.0) * (1.0 - r),
    "(R-1)(1-r): the chi-square double-slope-route bound.")
neg_log_jensen_coeff = _coefficient(
    "neg_log_jensen_coeff", lambda r, R: np.where(r > 0.0, np.log((R + r) ** 2 / (4.0 * r * R)), INF),
    "ln((R+r)^2 / (4 r R)): the -ln midpoint-gap bound.")
neg_log_range_coeff = _coefficient(
    "neg_log_range_coeff", lambda r, R: np.where(r > 0.0, (R - r) ** 2 / (4.0 * r * R), INF),
    "(R-r)^2 / (4 r R): the coarser -ln window bound.")


# ---------------------------------------------------------------------------
# the chains, as data
#
# Each check lists its chain (with the reason it is skipped on the pairs its
# hypotheses exclude), then its subchains: the generic ones, then its closed
# forms, each on the generators of its family.


_DEGENERATE = "degenerate window: r = R"
_NOT_STRICT = "window must satisfy R > 1 > r strictly"
_SF = (1.0, "sf")


def _half_range(r, R):
    return 0.5 * (R - r)


def _thm2_terms(co, final=None) -> tuple:
    """thm2's terms with coefficient co in place of D/2: [S_f, co V, co chi,
    final], final by default (R - r)/2 co, each term of co +inf where co is
    not finite.  Halving and quartering are exact."""
    return _SF, ("v", co, True), ("chi", co, True), (1.0, final) if final else (_half_range, co, True)


def _window(*bounds) -> tuple:
    """A closed form's terms [S_f, *(bound(r, R) for bound in bounds)]."""
    return _SF, *((1.0, bound) for bound in bounds)


def _matches_secant(b, e, row, g):
    """thm4's K Psi(1) equals the secant value, both finite, to 1e-9."""
    sec, psi1 = e.secant[row, g], e.psi1[row, g]
    return np.isfinite(sec) & np.isfinite(psi1) & (
        np.abs(b.k[row, 0] * psi1 - sec) <= 1e-9 * np.maximum(1.0, np.abs(sec)))


def _swap_equal(b, e, row, g):
    """For f = -ln t the slope-weighted gap is the swapped chi-square distance."""
    gap, swapped = e.slope_gap[row, g], b.chi_swapped[row, 0]
    return b.q_invertible[row, 0] & np.isfinite(gap) & (
        np.abs(gap - swapped) <= 1e-8 * np.maximum(1.0, np.abs(swapped)))


def _kl_log_mix(r, R):
    """The secant value of t ln t on [r, R]."""
    return ((R - 1.0) * np.where(r > 0.0, r * np.log(r), 0.0) + (1.0 - r) * R * np.log(R)) / (R - r)


def _neg_log_log_mix(r, R):
    """The secant value of -ln t on [r, R]."""
    return np.where(r > 0.0, ((1.0 - R) * np.log(r) + (r - 1.0) * np.log(R)) / (R - r), INF)


def _product_ratio(r, R):
    return np.where(r > 0.0, (R - 1.0) * (1.0 - r) / (R * r), INF)


# A formula of r and R is one (B, 1) column per block, however many terms read it.
_CHECKS = {
    "nonneg": (_Chain("nonneg", ("zero", "value"), ((0.0, 1.0), _SF)),),
    "derivative-gap": (
        _Chain("derivative-gap", ("value", "slope-weighted-gap"), (_SF, (1.0, "slope_gap")), smooth=True,
               note="generator has a derivative kink; chain needs a continuous derivative", flags=(
                   ("swap-oracle-unavailable:singular-q", lambda b, e, row, g: ~b.q_invertible[row, 0], "neg-log"),
                   ("oracle:slope-gap-equals-swapped-chi-square", _swap_equal, "neg-log"))),
        _Chain("derivative-gap:swap", ("zero", "value", "chi-square-swapped"),
               ((0.0, 1.0), _SF, (1.0, "chi_swapped")), "q_invertible", family="neg-log")),
    "thm2": (
        _Chain("thm2", ("value", "half-gap-variation", "half-gap-chi", "quarter-window-gap"),
               _thm2_terms("half_gap"), "window", _DEGENERATE),
        _Chain("thm2:chi2", ("value", "half-window-variation", "half-window-chi", "quarter-window-sq"),
               _thm2_terms(_half_range, lambda r, R: 0.25 * (R - r) ** 2), family="chi2"),
        _Chain("thm2:kl-quantum", ("value", "half-log-variation", "half-log-chi", "quarter-window-log"),
               _thm2_terms(lambda r, R: np.where(r > 0.0, 0.5 * np.log(R / r), INF)), family="kl-quantum"),
        _Chain("thm2:neg-log", ("value", "half-ratio-variation", "half-ratio-chi", "quarter-window-ratio"),
               _thm2_terms(lambda r, R: np.where(r > 0.0, (R - r) / (2.0 * r * R), INF),
                           neg_log_range_coeff.formula), family="neg-log"),
        _Chain("thm2:tsallis", ("value", "half-power-variation", "half-power-chi", "quarter-window-power"),
               _thm2_terms("tsallis"), family="tsallis")),
    "thm3": (
        _Chain("thm3", ("value", "secant"), (_SF, (1.0, "secant")), "window", _DEGENERATE,
               flags=(("tight:ratios-at-endpoints", lambda b, e, row, g: b.tight[row, 0]),)),
        _Chain("thm3:chi2", ("value", "window-polynomial"), _window(chi_square_secant_coeff.formula), family="chi2"),
        _Chain("thm3:kl-quantum", ("value", "window-log-mix"), _window(_kl_log_mix), family="kl-quantum"),
        _Chain("thm3:neg-log", ("value", "window-log-mix"), _window(_neg_log_log_mix), family="neg-log")),
    "thm4": (
        _Chain("thm4", ("value", "window-psi-at-one", "window-psi-sup", "window-derivative-gap",
                        "quarter-range-derivative-gap"),
               (_SF, ("k", "psi1"), ("k", "sup"), ("k", "gap"), ("quarter", "gap")), "strict", _NOT_STRICT, flags=(
                   ("matches-secant", _matches_secant),
                   ("sharper-than-secant-polynomial", lambda b, e, row, g: (
                       chi_square_chord_coeff.formula(b.r, b.R) < chi_square_secant_coeff.formula(b.r, b.R))[row, 0],
                    "chi2"))),
        _Chain("thm4:alternate", ("value", "window-psi-at-one", "quarter-range-psi-at-one",
                                  "quarter-range-psi-sup", "quarter-range-derivative-gap"),
               (_SF, ("k", "psi1"), ("quarter", "psi1"), ("quarter", "sup"), ("quarter", "gap"))),
        _Chain("thm4:chi2", ("value", "window-product"), _window(chi_square_chord_coeff.formula), family="chi2"),
        _Chain("thm4:inv-minus-one", ("value", "window-product-ratio"), _window(_product_ratio),
               family="inv-minus-one"),
        _Chain("thm4:neg-log", ("value", "window-log-mix", "window-product-ratio"),
               _window(_neg_log_log_mix, _product_ratio), family="neg-log"),
        _Chain("thm4:kl-quantum", ("value", "window-log-mix", "window-product-log"), _window(_kl_log_mix, lambda r, R:
            np.where(r > 0.0, (R - 1.0) * (1.0 - r) * np.log(R / r) / (R - r), INF)), family="kl-quantum")),
    "thm5": (
        _Chain("thm5", ("value", "midpoint-gap-bound"), (_SF, (1.0, "jensen")), "strict", _NOT_STRICT),
        _Chain("thm5:chi2", ("value", "half-range-sq"), _window(lambda r, R: 0.5 * (R - r) ** 2), family="chi2"),
        _Chain("thm5:inv-minus-one", ("value", "range-sq-ratio"), _window(
            lambda r, R: np.where(r > 0.0, (R - r) ** 2 / (r * R * (r + R)), INF)), family="inv-minus-one"),
        _Chain("thm5:neg-log", ("value", "log-midpoint-gap", "quarter-range-ratio"),
               _window(neg_log_jensen_coeff.formula, neg_log_range_coeff.formula), family="neg-log")),
}
# A subchain is on the pairs and generators where its check's chain is (short of
# its own condition).
_CHECKS = {check: (top, *(ch._replace(cond=ch.cond or top.cond, smooth=top.smooth, sub=True) for ch in subs))
           for check, (top, *subs) in _CHECKS.items()}


# ---------------------------------------------------------------------------
# the term plan
#
# A generator set's _Plan: its chains in report order and their checks (sorted);
# the columns and base terms its terms read, laid out as a block's factor table
# (pairs, columns + bases * generators), the block conditions its chains read,
# and the columns whose Tsallis coefficient is read.  Per generator column: its
# closed-form family (None: none).  Per (generator, chain) instance: its chain,
# generator, check (index in checks), whether the chain has a note, presence
# column (0: every pair, 1: none, 2 + i: conds[i]), link count and first entry.
# Per entry (generator, chain, link): its instance, left and right terms and report
# labels (generator column, check, "left<=right").  Per term: its coefficient's and
# factor's columns in the table, and whether it is guarded.  Whether the swapped
# chi-square is read; the tally's first bins, per instance and per entry.
_Plan = collections.namedtuple("_Plan", "checks chains columns bases conds tsallis family chain gen check noted "
                               "cond links starts owner left right labels coef factor guard swapped bins")
# A block judged: its plan and _Terms, per pair and instance whether it is present
# and its status (skipped where not), per pair and entry the verdict code, slack
# and slack bucket, and the (pairs, terms) values.
_Judged = collections.namedtuple("_Judged", "plan e present status codes slack buckets terms")


@functools.lru_cache(maxsize=64)
def _plan(shape: tuple, checks: tuple) -> _Plan:
    """The _Plan of `checks` on the generators whose (family, smooth) pairs,
    all it reads, are `shape`, once per process for a generator set.  A
    generator's family is its name, or None where its metadata is approx."""
    families = {family for family, _ in shape}
    return _layout(shape, [ch for check in checks for ch in _CHECKS[check] if ch.family in (None, *families)])


def _layout(shape: tuple, chains: list) -> _Plan:
    """The _Plan of `chains` on the generators whose (family, smooth) pairs are
    `shape`: a generic chain on every column, a closed form on its family's;
    each (generator, chain, link, term) appended in report order."""
    ng, checks = len(shape), sorted({ch.check for ch in chains})
    conds = list(dict.fromkeys(ch.cond for ch in chains if ch.cond))
    # The table's columns (coefficients' keys first), then a block of ng
    # generator columns per base term.
    keys = dict.fromkeys(term[i] for i in (0, 1) for ch in chains for term in ch.terms)
    columns = [key for key in keys if key not in _TERM_NAMES]
    bases = [key for key in keys if key in _TERM_NAMES]
    slot = {**{key: c for c, key in enumerate(columns)},
            **{key: len(columns) + i * ng for i, key in enumerate(bases)}}
    inst, entries, cells, tsallis = [], [], [], set()
    for g, (family, smooth) in enumerate(shape):
        for j, ch in enumerate(chains):
            if ch.family not in (None, family):
                continue
            present = 1 if ch.smooth > smooth else conds.index(ch.cond) + 2 if ch.cond else 0
            inst.append((j, g, checks.index(ch.check), bool(ch.note), present, len(ch.terms) - 1, len(entries)))
            # An instance's terms are its links' left terms and then one right term.
            entries += [(len(inst) - 1, len(cells) + k, (g, ch.check, f"{a}<={b}"))
                        for k, (a, b) in enumerate(zip(ch.labels, ch.labels[1:]))]
            for coef, factor, *guard in ch.terms:
                cells.append((slot[coef], slot[factor] + g * (factor in _TERM_NAMES), bool(guard)))
                if factor == "tsallis":
                    tsallis.add(g)
    chain, gen, check, noted, cond, links, starts = map(list, zip(*inst))
    owner, left, labels = map(list, zip(*entries))
    coef, factor, guard = zip(*cells)
    check, owner, left = (np.array(x, dtype=np.intp) for x in (check, owner, left))
    return _Plan(
        checks=checks, chains=chains, columns=columns, bases=bases, conds=conds, tsallis=sorted(tsallis),
        family=[family for family, _ in shape], chain=chain, gen=gen, check=check, noted=np.array(noted),
        cond=np.array(cond, dtype=np.intp), links=links, starts=starts, owner=owner, left=left, right=left + 1,
        labels=labels, coef=np.array(coef, dtype=np.intp), factor=np.array(factor, dtype=np.intp),
        guard=np.array(guard), swapped="chi_swapped" in columns,
        bins=(check * len(_STATUSES), check[owner] * len(_SLACK_BUCKETS)))


def _judge(b: _Block, generators, tol: float, checks: tuple = tuple(_CHECKS), sf: float = None) -> _Judged:
    """The chains of `checks` on block b for the generators, judged: the
    chi-squares the plan reads (b.chi_pass), each base term (_terms, with
    S_f replaced by sf when given) and column once into the block's factor
    table, every link's terms from it with one gather, then _link_eval;
    None without generators."""
    if not generators:
        return None
    p = _plan(tuple((None if f.approx else f.name, f.smooth) for f in generators), checks)
    b.chi_pass(p.swapped)
    e = _terms(b, generators, p.tsallis)
    if sf is not None:
        e = e._replace(sf=np.full(e.sf.shape, _real(sf, "sf")))
    n, nc = len(b.r), len(p.columns)
    table = np.empty((n, nc + len(p.bases) * len(generators)))
    bases = table[:, nc:].reshape(n, len(p.bases), len(generators))
    with np.errstate(all="ignore"):
        for c, key in enumerate(p.columns):
            table[:, c:c + 1] = key if isinstance(key, float) else getattr(b, key) if isinstance(key, str) \
                else key(b.r, b.R)
        for i, name in enumerate(p.bases):
            bases[:, i] = getattr(e, name)
        factors = table[:, p.factor]
        terms = table[:, p.coef] * factors
    terms[p.guard & ~np.isfinite(factors)] = INF
    every = np.ones_like(b.window)
    present = np.concatenate([every, ~every, *(getattr(b, c) for c in p.conds)], axis=1)[:, p.cond]
    return _link_eval(p, e, terms, present, tol)


def _link_eval(p: _Plan, e: _Terms, terms, present, tol: float) -> _Judged:
    """Judge every link of plan p in one pass over its (pairs, terms)
    values: per pair and instance its status (skipped where not present),
    per pair and entry the verdict code, slack and slack bucket.  An
    infinite right side makes a link vacuous; an infinite left side under a
    finite one fails."""
    left, right = terms[:, p.left], terms[:, p.right]
    vacuous = np.isinf(right)
    endless = np.isinf(left) & ~vacuous
    with np.errstate(invalid="ignore"):
        slack = right - left
        held = (left <= right + tol * np.maximum(1.0, np.abs(right))) & ~endless
    slack[vacuous] = INF
    slack[endless] = -INF
    codes = np.where(vacuous, 1, np.where(held, 0, 2))
    buckets = np.where(np.isinf(slack), 6, np.searchsorted(_BUCKET_EDGES, slack, side="right"))
    status = np.where(present, np.maximum.reduceat(codes, p.starts, axis=1), _STATUSES.index("skipped"))
    return _Judged(p, e, present, status, codes, slack, buckets, terms)


def _reports(judged: _Judged, row: int, b: _Block, generators) -> list:
    """Per generator, the reports of pair `row` of block b from its _Judged:
    one per top-level chain, with its subchains, or a skipped report where
    the chain's check is skipped.  Flags are worked out here, for this pair
    alone."""
    p, r, R = judged.plan, float(b.r[row, 0]), float(b.R[row, 0])
    present, status, codes, slack, terms = (x[row].tolist() for x in (
        judged.present, judged.status, judged.codes, judged.slack, judged.terms))
    groups = [[] for _ in generators]  # per generator: (a top-level chain's fields, its subchains' reports)
    for i, (g, j, n, at) in enumerate(zip(p.gen, p.chain, p.links, p.starts)):
        ch, values = p.chains[j], terms[at + i:at + i + n + 1]
        if present[i]:
            with np.errstate(all="ignore"):
                flags = [name for name, rule, *family in ch.flags
                         if family in ([], [p.family[g]]) and rule(b, judged.e, row, g)]
            fields = dict(
                chain=tuple(zip(ch.labels, values)), slacks=tuple(slack[at:at + n]),
                link_verdicts=tuple(_VERDICTS[v] for v in codes[at:at + n]), status=_STATUSES[status[i]],
                # A link holds with equality if it passes with a slack within
                # EQUALITY_TOL * max(1, |right|) of zero.
                flags=(*flags, *(f"equality:{ch.labels[k]}={ch.labels[k + 1]}" for k in range(n)
                                 if codes[at + k] == 0
                                 and abs(slack[at + k]) <= EQUALITY_TOL * max(1.0, abs(values[k + 1])))))
        elif ch.note:
            fields = dict(chain=((ch.labels[0], values[0]),), slacks=(), link_verdicts=(), status="skipped",
                          note=ch.note)
        else:
            continue
        fields.update(check=ch.check, generator=generators[g].spec, dim=b.dim, r=r, R=R)
        if ch.sub:
            groups[g][-1][1].append(BoundChainReport(**fields))
        else:
            groups[g].append((fields, []))
    return [[BoundChainReport(**fields, subchains=tuple(subs)) for fields, subs in group] for group in groups]


# ---------------------------------------------------------------------------
# individual chains


def _public(check: str, doc: str):
    """The public check function of `check`: its chains (and closed forms)
    alone, on one pair."""

    def fn(q, p, f: Generator, js: JointSpectrum = None, tol: float = DEFAULT_TOL,
           eps: float = DEFAULT_INVERTIBILITY_EPS, sf: float = None) -> BoundChainReport:
        tol, generators = _positive(tol, "tolerance"), _generators((f,))
        b = _pair(q, p, js, eps)
        return _reports(_judge(b, generators, tol, (check,), sf), 0, b, generators)[0][0]

    fn.__name__ = fn.__qualname__ = "check_" + check.replace("-", "_")
    fn.__doc__ = doc
    return fn


check_nonneg = _public("nonneg", "Chain [0, S_f]: the divergence of a normalized generator is nonnegative.")
check_derivative_gap = _public("derivative-gap", """Chain [S_f, sum of weights * (t - 1) f'(t)] for differentiable f.

    For f = -ln t the right side collapses to the chi-square distance
    with the states swapped; when Q is invertible that closed form is
    attached as an oracle subchain.
    """)
check_thm2 = _public("thm2", """Four-term chain through the variational quantity and chi.

    [S_f, D/2 * V, D/2 * chi, (R-r)/4 * D] with D = f'_-(R) - f'_+(r),
    V the variational quantity, and chi = sqrt of the chi-square
    distance: the closed forms' shape (_thm2_terms) with coefficient D/2.
    Closed-form specializations are attached for the chi2, kl, neg-log,
    and tsallis generators.  Skipped on a degenerate window, R - r <=
    DEGENERATE_WINDOW_TOL, where every window term vanishes and only
    rounding is left.
    """)
check_thm3 = _public("thm3", """Two-term chain [S_f, secant value at the window endpoints]; skipped
    on a degenerate window, as thm2 is.""")
check_thm4 = _public("thm4", """Five-term chain through the double-slope gap Psi.

    Main chain: [S_f, K Psi(1), K sup Psi, K D, (R-r)/4 * D] with
    K = (R-1)(1-r)/(R-r) and D = f'_-(R) - f'_+(r).  The alternate
    routing through (R-r)/4 * Psi(1) is attached as a subchain, as are
    the chi2 / inv / neg-log / kl closed forms.  Requires the strict
    window R > 1 > r.
    """)
check_thm5 = _public("thm5", "Two-term chain [S_f, midpoint Jensen gap bound] on a strict window.")


def certify(q, p, generators, js: JointSpectrum = None, tol: float = DEFAULT_TOL,
            eps: float = DEFAULT_INVERTIBILITY_EPS) -> list:
    """All six chains for each generator on one pair, sharing the pair's
    invariants and judged in one pass.  Returns, per generator, its S_f
    (a DivergenceValue) and its six reports."""
    tol, generators = _positive(tol, "tolerance"), _generators(generators)
    b = _pair(q, p, js, eps)
    if not generators:
        return []
    judged = _judge(b, generators, tol)
    reports, e = _reports(judged, 0, b, generators), judged.e
    return [(DivergenceValue(value=float(e.sf[0, g]), generator=f.spec,
                             flags=SUM_FLAGS[e.sf_flags[0, g]]), tuple(reports[g]))
            for g, f in enumerate(generators)]


def run_all_checks(q, p, f: Generator, js: JointSpectrum = None,
                   tol: float = DEFAULT_TOL, eps: float = DEFAULT_INVERTIBILITY_EPS) -> tuple:
    """All six chains for one generator, sharing one joint spectrum."""
    return certify(q, p, (f,), js=js, tol=tol, eps=eps)[0][1]


# ---------------------------------------------------------------------------
# sampling


def _check_sampler_args(kind: str, dim: int, floor: float = None) -> tuple:
    """(kind, dim, floor) checked; floor defaults to 1e-6 / dim."""
    if kind not in SAMPLER_KINDS:
        raise InputFormatError(f"unknown sampler {kind!r}; choose from {SAMPLER_KINDS}")
    dim = _whole(dim, "dimension", least=1)
    if dim > MAX_DIM:
        raise InputFormatError(f"dimension must be at most {MAX_DIM}, got {dim}")
    floor = 1e-6 / dim if floor is None else _real(floor, "floor")
    if not 0.0 <= floor < 1.0 / dim:
        raise InputFormatError(f"floor must lie in [0, 1/dim), got {floor} at dim {dim}")
    return kind, dim, floor


def _draw(kind: str, dim: int, rng: np.random.Generator, states: int) -> tuple:
    """The random numbers of `states` states from one stream, in the order
    sampling one state at a time draws them: standard normals as (real,
    imaginary) pairs of (dim, dim) arrays, and Dirichlet(1, ..., 1) weights
    (None for ginibre), one (dim,) row after each mixture state's normals.
    The states of the commuting ensemble share one basis, drawn before
    their (states, dim) weights."""
    if kind == "ginibre":
        return rng.standard_normal((2 * states, dim, dim)), None
    if kind == "commuting":
        normals, weights = rng.standard_normal((2, dim, dim)), rng.standard_exponential((states, dim))
    else:
        normals, weights = np.empty((2 * states, dim, dim)), np.empty((states, dim))
        for i in range(states):
            rng.standard_normal(out=normals[2 * i:2 * i + 2])
            rng.standard_exponential(out=weights[i])
    # The weights as Generator.dirichlet forms them from unit exponentials,
    # bit for bit and without its per-call checks: each row times the
    # reciprocal of its sum taken left to right (.sum() pairs a long row's terms).
    weights *= 1.0 / np.cumsum(weights, axis=1)[:, -1:]
    return normals, weights


def _states(kind: str, dim: int, floor: float, rngs, states: int) -> np.ndarray:
    """The (streams * states, dim, dim) stack of sampled states (see
    sample_density), `states` from each stream of the iterable rngs in
    turn, formed from the draws in one stacked pass; densities makes them
    exactly Hermitian.  Each stream is drawn from before the next is taken."""
    draws = [_draw(kind, dim, rng, states) for rng in rngs]
    normals = np.concatenate([g for g, _ in draws]).reshape(-1, 2, dim, dim)
    g = normals[:, 0] + 1j * normals[:, 1]
    if kind == "ginibre":
        rho = g @ g.conj().swapaxes(1, 2)
        rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, np.newaxis, np.newaxis]
    else:
        if kind == "commuting":
            # A Haar unitary: Q of the QR decomposition, column phases fixed by R.
            qmat, rmat = np.linalg.qr(g)
            d = np.diagonal(rmat, axis1=1, axis2=2)
            vecs = np.repeat(qmat * (d / np.abs(d))[:, np.newaxis, :], states, axis=0)
        else:
            vecs = g / np.linalg.norm(g, axis=1)[:, np.newaxis, :]
        wts = np.concatenate([w for _, w in draws])
        rho = (vecs * wts[:, np.newaxis, :]) @ vecs.conj().swapaxes(1, 2)
    if floor > 0.0:
        rho = (rho + floor * np.eye(dim) / dim) / (1.0 + floor)
    return rho


def sample_density(kind: str, dim: int, floor: float, rng: np.random.Generator) -> DensityMatrix:
    """One random density matrix of the given ensemble.

    kinds: "ginibre" (Wishart-normalized), "commuting" (random spectrum
    on a Haar basis), "mixture" (Dirichlet-weighted rank-one states).  The
    Dirichlet(1, ..., 1) weights are unit exponentials over their
    left-to-right sum: what Generator.dirichlet returns for unit alphas.
    floor in [0, 1/dim) mixes in floor * I/dim and renormalizes, keeping
    the smallest eigenvalue away from zero.
    """
    kind, dim, floor = _check_sampler_args(kind, dim, floor)
    return _member(*densities(_states(kind, dim, floor, [rng], 1)), 0)


def sample_pair(kind: str, dim: int, floor: float, rng: np.random.Generator) -> tuple:
    """A (Q, P) pair; the commuting ensemble shares one eigenbasis."""
    kind, dim, floor = _check_sampler_args(kind, dim, floor)
    states = densities(_states(kind, dim, floor, [rng], 2))
    return _member(*states, 0), _member(*states, 1)


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
    eps: float = DEFAULT_INVERTIBILITY_EPS
    jobs: int = 1

    def __post_init__(self):
        generators = _generators(default_catalog() if self.generators is None else self.generators)
        # dim checked, and the floor checked, or its default 1e-6 / dim once dim is.
        _, dim, floor = _check_sampler_args(self.sampler, self.dim, self.floor)
        for name, value in (("generators", generators), ("dim", dim), ("floor", floor),
                            ("trials", _whole(self.trials, "trials", least=1)), ("seed", _whole(self.seed, "seed")),
                            ("jobs", _whole(self.jobs, "jobs", least=1)), ("tol", _positive(self.tol, "tolerance")),
                            ("eps", _positive(self.eps, "invertibility threshold"))):
            object.__setattr__(self, name, value)


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
        """The fields in order (q_json as q, p_json as p), the link as a list,
        non-finite numbers as repr."""
        doc = {field.name.removesuffix("_json"): _json_num(getattr(self, field.name))
               for field in dataclasses.fields(self)}
        return {**doc, "link": list(self.link)}


def collect_violations(report: BoundChainReport, seed: int, trial: int,
                       qd: DensityMatrix, pd: DensityMatrix) -> list:
    """Flatten the failed links of a report (and its subchains)."""
    out = [v for sub in report.subchains for v in collect_violations(sub, seed, trial, qd, pd)]
    for (left_term, right_term, verdict) in zip(report.chain, report.chain[1:], report.link_verdicts):
        if verdict == "fail":
            out.append(Violation(
                check=report.check, link=(left_term[0], right_term[0]), left=left_term[1],
                right=right_term[1], generator=report.generator, dim=report.dim, r=report.r,
                R=report.R, seed=seed, trial=trial, q_json=matrix_to_json(qd.matrix),
                p_json=matrix_to_json(pd.matrix)))
    return out


@dataclass(frozen=True)
class FuzzResult:
    """Violations plus deterministic aggregate statistics."""

    config: FuzzConfig
    violations: tuple
    summary: dict


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, trial)))


def _rekey(rng: np.random.Generator, seed: int, trial: int) -> np.random.Generator:
    """rng, whose bit generator is a Philox, set to the state _trial_rng(seed,
    trial) starts in: counter 0, key (seed mod 2**64, trial), an empty
    buffer.  Setting a state is several times cheaper than building a
    Generator, and cheaper from plain ints than from the uint64 arrays the
    constructor needs (it mis-casts a plain key word above 2**63)."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": _philox_words(seed, trial)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


class _Tally:
    """fuzz's aggregates, fed one block of trials at a time in trial order,
    read from a block's _Judged and its _Plan, worked out once per process
    for a generator set."""

    def __init__(self, config: FuzzConfig):
        self.config, self.violations, self.checks, self.counts = config, [], [], ()
        self.near_tight, self.near_tight_total, self.min_slack = [], 0, None

    def add(self, trials: list, b: _Block) -> None:
        """Evaluate every chain of block b, whose pairs are the trials
        `trials`, judge all its links in one pass, and aggregate them."""
        config, gens = self.config, self.config.generators
        judged = _judge(b, gens, config.tol)
        if judged is None:
            return
        t, self.checks = judged.plan, judged.plan.checks
        if not self.counts:
            self.counts = tuple(np.zeros((len(self.checks), len(names)), dtype=np.int64)
                                for names in (_STATUSES, _SLACK_BUCKETS))
        linked = judged.present[:, t.owner]  # (B, entries)
        # Outside its rows a chain with a note counts as its check skipped.
        counted = judged.present | t.noted
        for counts, bins, code, on in zip(self.counts, t.bins, (judged.status, judged.buckets), (counted, linked)):
            counts += np.bincount((bins + code)[on], minlength=counts.size).reshape(counts.shape)

        # The least finite slack's entry, then the near-tight entries still
        # to list, decoded from their flat (B, entries) indices together.
        slack = judged.slack
        finite = linked & np.isfinite(slack)
        lowest = bool(finite.any())
        tight = np.flatnonzero(finite & (slack >= 0.0) & (slack < NEAR_TIGHT_SLACK))
        self.near_tight_total += tight.size
        at = tight[:max(0, 100 - len(self.near_tight))]
        if lowest:
            at = np.concatenate(([np.argmin(np.where(finite, slack, INF))], at))
        rows, links = np.unravel_index(at, slack.shape)
        entries = [{"trial": trials[row], "check": check, "generator": gens[g].spec, "link": link, "slack": value}
                   for row, (g, check, link), value in zip(rows.tolist(), [t.labels[k] for k in links.tolist()],
                                                           slack.ravel()[at].tolist())]
        if lowest:
            low = entries.pop(0)
            if self.min_slack is None or low["slack"] < self.min_slack["slack"]:
                self.min_slack = {key: low[key] for key in ("slack", "check", "generator", "trial", "link")}
        self.near_tight.extend(entries)

        for row in np.flatnonzero((judged.status == _STATUSES.index("fail")).any(axis=1)).tolist():
            qd, pd = _member(b.q, b.qdec, row), _member(b.p, b.pdec, row)
            for top in itertools.chain.from_iterable(_reports(judged, row, b, gens)):
                self.violations.extend(collect_violations(top, config.seed, trials[row], qd, pd))

    def summary(self, skipped_trials: list) -> dict:
        config = self.config
        seen = [(check, statuses, buckets) for check, statuses, buckets in
                zip(self.checks, *(counts.tolist() for counts in self.counts)) if any(statuses)]
        return {
            "config": {
                "dim": config.dim,
                "trials": config.trials,
                "seed": config.seed,
                "sampler": config.sampler,
                "floor": config.floor,
                "tol": config.tol,
                "eps": config.eps,
                "generators": [g.spec for g in config.generators],
            },
            "checks": {k: dict(zip(_STATUSES, counts)) for k, counts, _ in seen},
            "slack_histograms": {k: dict(zip(_SLACK_BUCKETS, links)) for k, _, links in seen},
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
    trial) pair.  Trials run in blocks of FUZZ_BLOCK: after each trial's
    draws, the block's states are formed, checked and diagonalized, and
    its joint spectra, V and chi computed, over arrays that stay stacked
    (per-pair states are built only for a trial that fails a link); then
    each term is evaluated in one pass over the block for all generators,
    and the block is aggregated in trial order.  The output is the same
    as one trial at a time would give.  config.jobs is validated but does
    not change how the run executes.  A pair that joint_spectrum rejects
    (singular P, lost double stochasticity) is recorded as a skipped
    trial with the reason.
    """
    tally = _Tally(config)
    skipped_trials = []
    rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed for every trial
    for first in range(0, config.trials, FUZZ_BLOCK):
        numbers = range(first, min(first + FUZZ_BLOCK, config.trials))
        sym, dec = densities(_states(config.sampler, config.dim, config.floor,
                                     (_rekey(rng, config.seed, trial) for trial in numbers), 2))
        stacks = sym[0::2], dec[0::2], sym[1::2], dec[1::2]
        fields, errors = joint_spectra(stacks[1], stacks[3], config.eps)
        skipped_trials.extend({"trial": t, "reason": str(exc)} for t, exc in zip(numbers, errors) if exc)
        kept = [k for k, exc in enumerate(errors) if exc is None]
        if len(kept) < len(numbers):  # the kept rows only where a trial was skipped
            stacks, fields = [x[kept] for x in stacks], {name: x[kept] for name, x in fields.items()}
        if kept:
            tally.add([numbers[k] for k in kept], _Block(*stacks, fields, config.eps))
    return FuzzResult(config=config, violations=tuple(tally.violations),
                      summary=tally.summary(skipped_trials))

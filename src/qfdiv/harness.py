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
FUZZ_BLOCK trials for fuzz.  For fuzz the block starts at the draw:
only the random numbers are drawn trial by trial; the states are
formed, checked and diagonalized (one eigh call) as one stack, and
states and spectra stay stacks up to the tally.  The chains are
columnar: each term is computed over the block for all generators at
once (the generators' values at the ratios as one array), and one
producer per check (closed forms from a table keyed by check and
family) emits its chains for all of them, as (pairs, generators)
arrays.  One vectorized pass judges the links only where a chain exists
(a closed form on its family's generators alone), as (pairs, entries)
arrays; fuzz tallies them with bincount, and reports (and a pair's
DensityMatrix objects) are built only where read: by certify,
run_all_checks and check_*, and for a failed fuzz trial.

fuzz draws its random density pairs from seeded,
counter-based streams: trial k always uses the stream keyed by (seed,
k), so a run's output is a function of its configuration (not of the
block size) and any violation can be replayed bit-for-bit from its
(seed, trial) pair.  One Philox serves a run, re-keyed for each trial to
the state a Philox built with that key starts in.
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
from .errors import InputFormatError
from .generators import (
    Generator,
    _check_open_window,
    _window_ends,
    default_catalog,
    jensen_gap_value,
    psi_sups,
    secant_value,
)
from .hermitian import MAX_DIM, _json_num, _positive, _real, _whole, matrix_to_json
from .quantum import (
    DEFAULT_INVERTIBILITY_EPS,
    SUM_FLAGS,
    WEIGHT_FLOOR,
    DensityMatrix,
    DivergenceValue,
    JointSpectrum,
    _density_pair,
    _member,
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
    "collect_violations",
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
    seed: object = None

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.chain)


class _Chain(NamedTuple):
    """One chain over a block of B pairs and G generators: per term a value
    broadcast to (B, G) where read, the entries that have it (rows, only on
    the columns where it exists), its flags as (name, entries set on), the
    reason its check is skipped on the other entries (none: it is not
    reported there), and whether it is a subchain."""

    check: str
    labels: tuple
    values: tuple
    rows: np.ndarray
    flags: tuple = ()
    note: str = ""
    sub: bool = False


# Verdicts and statuses by code.  A chain's status is the worst verdict
# among its links; an entry outside its rows, where it has a note, is skipped.
_VERDICTS = ("pass", "vacuous", "fail")
_STATUSES = ("pass", "vacuous-pass", "fail", "skipped")
_SLACK_BUCKETS = ("negative", "<1e-9", "<1e-6", "<1e-3", "<1", ">=1", "vacuous")
_BUCKET_EDGES = np.array([0.0, 1e-9, 1e-6, 1e-3, 1.0])


# The links that exist (_shaped): a generic chain's on every generator column, a
# closed form's on its family's.  Per (generator, chain) instance, in that order:
# its chain, generator, check (index in the sorted checks), whether the chain has
# a note, rows' flat column in (pairs, chains * generators), link count and first
# entry.  Per entry (generator, chain, link), in that order: its instance,
# generator, left term's flat column in (pairs, terms * generators) and
# (check, "left<=right").
_Table = collections.namedtuple("_Table", "checks chain gen check noted rows links starts owner entry_gen left names")
# _link_eval's _Table and verdicts: (pairs, instances) or (pairs, entries) arrays in its order.
_Judged = collections.namedtuple("_Judged", "table present status codes slack buckets left right")


@functools.lru_cache(maxsize=64)
def _shaped(shape: tuple, names: tuple) -> _Table:
    """The _Table of chains whose (check, labels, note) are `shape`, each
    with a link, on the generators named `names`: all it reads, so it is
    worked out once per process for a generator set."""
    ng, checks = len(names), sorted({check for check, _, _ in shape})
    firsts = list(itertools.accumulate((len(labels) for _, labels, _ in shape), initial=0))
    # A generic chain has no family, so it takes each column's name.
    inst = [(g, j) for g, name in enumerate(names) for j, (check, _, _) in enumerate(shape)
            if _FAMILY.get(check, name) == name]
    links = [len(shape[j][1]) - 1 for _, j in inst]
    entries = [(i, g, j, k) for i, (g, j) in enumerate(inst) for k in range(links[i])]
    index = functools.partial(np.array, dtype=np.intp)
    return _Table(
        checks=checks, chain=[j for _, j in inst], gen=[g for g, _ in inst],
        check=index([checks.index(shape[j][0]) for _, j in inst]), noted=np.array([bool(shape[j][2]) for _, j in inst]),
        rows=index([j * ng + g for g, j in inst]), links=links,
        starts=list(itertools.accumulate(links, initial=0))[:-1],
        owner=index([e[0] for e in entries]), entry_gen=[e[1] for e in entries],
        left=index([(firsts[j] + k) * ng + g for _, g, j, k in entries]),
        names=[(shape[j][0], f"{shape[j][1][k]}<={shape[j][1][k + 1]}") for _, _, j, k in entries])


def _link_eval(chains, generators, tol: float) -> _Judged:
    """Judge the links of `chains` (at least one) that exist on `generators`
    in one pass over their terms, gathered as (pairs, entries) arrays: the
    _Table; per pair and instance whether its rows have it and its status
    (skipped where not); per pair and entry the verdict code, slack, slack
    bucket and both terms.  An infinite right side makes a link vacuous; an
    infinite left side under a finite one fails."""
    t = _shaped(tuple((ch.check, ch.labels, ch.note) for ch in chains), tuple(f.name for f in generators))
    n = len(chains[0].rows)
    cols = [col for ch in chains for col in ch.values]
    values = np.empty((n, len(cols), len(generators)))
    for i, col in enumerate(cols):
        values[:, i] = col  # broadcast to (B, G)
    values = values.reshape(n, -1)
    left, right = values[:, t.left], values[:, t.left + len(generators)]
    present = np.stack([ch.rows for ch in chains], axis=1).reshape(n, -1)[:, t.rows]

    vacuous = np.isinf(right)
    endless = np.isinf(left) & ~vacuous
    with np.errstate(invalid="ignore"):
        slack = right - left
        held = (left <= right + tol * np.maximum(1.0, np.abs(right))) & ~endless
    slack[vacuous] = INF
    slack[endless] = -INF
    codes = np.where(vacuous, 1, np.where(held, 0, 2))
    buckets = np.where(np.isinf(slack), 6, np.searchsorted(_BUCKET_EDGES, slack, side="right"))
    status = np.where(present, np.maximum.reduceat(codes, t.starts, axis=1), _STATUSES.index("skipped"))
    return _Judged(t, present, status, codes, slack, buckets, left, right)


def _reports(chains, judged: _Judged, row: int, b: "_Block", generators) -> list:
    """Per generator, the reports of pair `row` of block b from its chains
    and their _link_eval: one per top-level chain, with its subchains, or a
    skipped report where the chain's check is skipped."""
    t, r, R = judged.table, float(b.r[row, 0]), float(b.R[row, 0])
    present, status, codes, slack, left, right = (x[row].tolist() for x in (
        judged.present, judged.status, judged.codes, judged.slack, judged.left, judged.right))
    groups = [[] for _ in generators]  # per generator: (a top-level chain's fields, its subchains' reports)
    for i, (g, j, n, at) in enumerate(zip(t.gen, t.chain, t.links, t.starts)):
        ch, labels = chains[j], chains[j].labels
        if present[i]:
            terms = [*left[at:at + n], right[at + n - 1]]
            fields = dict(
                chain=tuple(zip(labels, terms)), slacks=tuple(slack[at:at + n]),
                link_verdicts=tuple(_VERDICTS[v] for v in codes[at:at + n]), status=_STATUSES[status[i]],
                # A link holds with equality if it passes with a slack within
                # EQUALITY_TOL * max(1, |right|) of zero.
                flags=(*(name for name, on in ch.flags if on[row, g]),
                       *(f"equality:{labels[k]}={labels[k + 1]}" for k in range(n) if codes[at + k] == 0
                         and abs(slack[at + k]) <= EQUALITY_TOL * max(1.0, abs(terms[k + 1])))))
        elif ch.note:
            fields = dict(chain=((labels[0], left[at]),), slacks=(), link_verdicts=(), status="skipped",
                          note=ch.note)
        else:
            continue
        fields.update(check=ch.check, generator=generators[g].spec, dim=b.dim, r=r, R=R)
        if ch.sub:
            groups[g][-1][1].append(BoundChainReport(**fields))
        else:
            groups[g].append((fields, []))
    return [[BoundChainReport(**fields, subchains=tuple(subs)) for fields, subs in group] for group in groups]


class _Block:
    """The invariants of a block of B (Q, P) pairs, one (B, 1) column each:
    window [r, R], V, K, chi, thm3's tightness (every occupied ratio at an
    end of the window); and the stacks they come from: states q, p and
    their decompositions from densities, joint_spectra's fields.  chi,
    which thm2 reads on every block, is computed with the block; the
    swapped chi-square, which only neg-log's oracle reads, once it is read.
    Both raise the first error (which only a spectrum not built from its
    own pair can have).  The spectra share one threshold, eps."""

    def __init__(self, q, qdec, p, pdec, fields: dict, eps: float):
        self.q, self.qdec, self.p, self.pdec, self.eps = q, qdec, p, pdec, eps
        lam, mu, w, ratio, self.wt, r, R = (fields[name] for name in ("lam", "mu", "w", "ratio", "wt", "r", "R"))
        self.ratio, occupied, self.dim = ratio, self.wt > WEIGHT_FLOOR, lam.shape[1]
        v = (w * np.abs(lam[:, :, np.newaxis] - mu[:, np.newaxis, :])).reshape(len(r), -1).sum(axis=1)
        r3, R3 = r[:, np.newaxis, np.newaxis], R[:, np.newaxis, np.newaxis]
        at_ends = (np.abs(ratio - r3) <= 1e-12 * np.maximum(1.0, r3)) | (np.abs(ratio - R3) <= 1e-12 * R3)
        tight = occupied.any(axis=(1, 2)) & (at_ends | ~occupied).all(axis=(1, 2))
        # thm4 and thm5 need the strict window R > 1 > r.
        strict = (R - 1.0 > DEGENERATE_WINDOW_TOL) & (1.0 - r > DEGENERATE_WINDOW_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (R - 1.0) * (1.0 - r) / (R - r)
        q_invertible = qdec.eigenvalues[:, 0] >= eps
        chi = np.sqrt(np.maximum(chi_squares(q, pdec, eps), 0.0))
        self.r, self.R, self.v, self.chi, self.tight, self.window, self.strict, self.k, self.quarter, \
            self.q_invertible = (np.array(x)[:, np.newaxis] for x in (
                r, R, v, chi, tight, R - r > DEGENERATE_WINDOW_TOL, strict, k, 0.25 * (R - r), q_invertible))

    @functools.cached_property
    def chi_swapped(self) -> np.ndarray:
        """chi-square(P, Q) for each pair whose Q is invertible at eps."""
        out, rows = np.full((len(self.q), 1), math.nan), np.flatnonzero(self.q_invertible)
        if rows.size:
            out[rows, 0] = chi_squares(self.p[rows], self.qdec[rows], self.eps)
        return out


def _pair(q, p, js: JointSpectrum, eps: float) -> _Block:
    """One pair as a block of one; a supplied joint spectrum brings its own
    invertibility threshold, which then replaces eps."""
    qd, pd = _density_pair(q, p)
    js = joint_spectrum(qd, pd, eps) if js is None else js
    return _Block(qd.matrix[np.newaxis], qd.dec[np.newaxis], pd.matrix[np.newaxis], pd.dec[np.newaxis],
                  {name: np.array([getattr(js, name)]) for name in vars(js)}, js.eps)


# The generators' quantities on a block, one (B, G) array each: S_f and its SUM_FLAGS
# code, the derivative-gap right side (read for a smooth f only), sup Psi (NaN off a
# strict window), f(r), f(R), f((r + R)/2), f'_+(r), f'_-(R) and Psi(1) from _window_ends,
# D = f'_-(R) - f'_+(r) (+inf if one diverges), the secant value on [r, R] and all True;
# f's smoothness (1, G), and a (G,) mask per family present with closed forms.
_Terms = collections.namedtuple(
    "_Terms", "sf sf_flags slope_gap sup fr fR fmid dr dR gap psi1 secant every smooth families")


def _terms(b: _Block, generators) -> _Terms:
    """The generators' _Terms on block b, term by term over all generators:
    _window_ends, on as many at a time as quantum.STACK_POINTS allows, gives
    the windows' endpoint values, Psi(1) among them, and, summed by
    weighted_sums, S_f and the derivative-gap sums sum wt (t - 1) f'_+(t)
    (value -f'(0+) at t = 0) over the block's stacked spectra; then sup Psi
    in one psi_sups pass."""
    strict, r, R = b.strict[:, 0], b.r[:, 0], b.R[:, 0]
    fr, fR, fmid, dr, dR, psi1 = ends = np.empty((6, len(r), len(generators)))
    ratios, step = b.ratio.reshape(-1), max(1, quantum.STACK_POINTS // b.ratio.size)
    sums, codes = (np.concatenate(x) for x in zip(*(
        weighted_sums(b.wt, _window_ends(generators[g:g + step], r, R, ends[..., g:g + step], ratios))
        for g in range(0, len(generators), step))))
    sup = np.full(fr.shape, math.nan)
    sup[strict] = psi_sups(generators, r[strict], R[strict], ends=[x[strict] for x in (fr, fR, dr, dR, psi1)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # r = R gives 0/0
        gap = np.where(np.isfinite(dR) & np.isfinite(dr), dR - dr, INF)
        secant = secant_value(b.r, b.R, fr, fR)
    return _Terms(sums[0::2].T, codes[0::2].T, sums[1::2].T, sup, fr, fR, fmid, dr, dR, gap, psi1, secant,
                  np.ones(fr.shape, dtype=bool), *_columns(tuple((f.name, f.smooth) for f in generators)))


@functools.lru_cache(maxsize=64)
def _columns(shape: tuple) -> tuple:
    """_Terms.smooth and _Terms.families of the generators whose (name,
    smooth) pairs, all they read, are `shape`: once per such tuple."""
    names = [name for name, _ in shape]
    return (np.array([[smooth for _, smooth in shape]]),
            {n: np.array([m == n for m in names]) for n in set(_FAMILY.values()).intersection(names)})


# ---------------------------------------------------------------------------
# chain producers
#
# Each producer returns one check's chains for all pairs and generators of
# a block, in report order: its own chain (with the reason it is skipped on
# the entries its hypotheses exclude), then its subchains.  The list
# depends only on the generators, not on the block: a closed form is
# listed whenever its family is, with no entries where the block excludes
# it.  _shaped relies on this, working a chain list's links out once.


_DEGENERATE = "degenerate window: r = R"
_NOT_STRICT = "window must satisfy R > 1 > r strictly"


def _with_closed_form(b: _Block, gens: tuple, e: _Terms, check: str, labels: tuple,
                      values: tuple, rows, flags=(), subs=(), skip: str = "") -> list:
    """The chain of `check` on the entries `rows` (skipped on the others,
    for the reason skip), its subchains `subs`, then the closed forms of
    the generators' families from _CLOSED_FORMS on their entries (none on
    a block whose rows exclude them)."""
    closed = []
    for family, (name, sub_labels, terms) in _CLOSED_FORMS[check].items():
        if family in e.families:
            sub_values, sub_rows, more = terms(b, gens, e, rows & e.families[family])
            flags = (*flags, *more)
            closed.append(_Chain(name, sub_labels, sub_values, sub_rows, sub=True))
    return [_Chain(check, labels, values, rows, flags, skip), *subs, *closed]


def _nonneg(b: _Block, gens: tuple, e: _Terms) -> list:
    """Chain [0, S_f]: the divergence of a normalized generator is nonnegative."""
    return [_Chain("nonneg", ("zero", "value"), (0.0, e.sf), e.every)]


def _derivative_gap(b: _Block, gens: tuple, e: _Terms) -> list:
    """Chain [S_f, sum of weights * (t - 1) f'(t)] for differentiable f.

    For f = -ln t the right side collapses to the chi-square distance
    with the states swapped; when Q is invertible that closed form is
    attached as an oracle subchain.
    """
    return _with_closed_form(b, gens, e, "derivative-gap", ("value", "slope-weighted-gap"),
                             (e.sf, e.slope_gap), e.every & e.smooth,
                             skip="generator has a derivative kink; chain needs a continuous derivative")


def _thm2(b: _Block, gens: tuple, e: _Terms) -> list:
    """Four-term chain through the variational quantity and chi.

    [S_f, D/2 * V, D/2 * chi, (R-r)/4 * D] with D = f'_-(R) - f'_+(r),
    V the variational quantity, and chi = sqrt of the chi-square
    distance: the closed forms' shape (_thm2_form) with coefficient D/2,
    whose halving and quartering are exact.  Closed-form specializations
    are attached for the chi2, kl, neg-log, and tsallis generators.
    Skipped on a degenerate window, R - r <= DEGENERATE_WINDOW_TOL, where
    every window term vanishes and only rounding is left.
    """
    rows = b.window & e.every
    values, _, _ = _thm2_form(lambda *_: 0.5 * e.gap)(b, gens, e, rows)
    return _with_closed_form(b, gens, e, "thm2", (
        "value", "half-gap-variation", "half-gap-chi", "quarter-window-gap"), values, rows,
        skip=_DEGENERATE)


def _thm3(b: _Block, gens: tuple, e: _Terms) -> list:
    """Two-term chain [S_f, secant value at the window endpoints]; skipped
    on a degenerate window, as thm2 is."""
    rows = b.window & e.every
    return _with_closed_form(b, gens, e, "thm3", ("value", "secant"),
                             (e.sf, e.secant), rows,
                             flags=(("tight:ratios-at-endpoints", rows & b.tight),), skip=_DEGENERATE)


def _thm4(b: _Block, gens: tuple, e: _Terms) -> list:
    """Five-term chain through the double-slope gap Psi.

    Main chain: [S_f, K Psi(1), K sup Psi, K D, (R-r)/4 * D] with
    K = (R-1)(1-r)/(R-r) and D = f'_-(R) - f'_+(r).  The alternate
    routing through (R-r)/4 * Psi(1) is attached as a subchain, as are
    the chi2 / inv / neg-log / kl closed forms.  Requires the strict
    window R > 1 > r.
    """
    strict, k, quarter, sf, sup, d, psi1 = b.strict & e.every, b.k, b.quarter, e.sf, e.sup, e.gap, e.psi1
    k_psi1, sec = k * psi1, e.secant
    matches = (np.isfinite(sec) & np.isfinite(psi1)
               & (np.abs(k_psi1 - sec) <= 1e-9 * np.maximum(1.0, np.abs(sec))))
    alternate = _Chain("thm4:alternate", (
        "value", "window-psi-at-one", "quarter-range-psi-at-one", "quarter-range-psi-sup",
        "quarter-range-derivative-gap"), (sf, k_psi1, quarter * psi1, quarter * sup, quarter * d),
        strict, sub=True)
    return _with_closed_form(b, gens, e, "thm4", (
        "value", "window-psi-at-one", "window-psi-sup", "window-derivative-gap",
        "quarter-range-derivative-gap"), (sf, k_psi1, k * sup, k * d, quarter * d), strict,
        flags=(("matches-secant", matches),), subs=[alternate], skip=_NOT_STRICT)


def _thm5(b: _Block, gens: tuple, e: _Terms) -> list:
    """Two-term chain [S_f, midpoint Jensen gap bound] on a strict window."""
    return _with_closed_form(b, gens, e, "thm5", ("value", "midpoint-gap-bound"),
                             (e.sf, jensen_gap_value(e.fr, e.fR, e.fmid)), b.strict & e.every,
                             skip=_NOT_STRICT)


_CHAINS = (_nonneg, _derivative_gap, _thm2, _thm3, _thm4, _thm5)


def _chains(b: _Block, generators, producers=_CHAINS, sf: float = None) -> tuple:
    """The generators' _Terms on block b (with S_f replaced by sf, when
    given) and the chains of `producers`, in report order."""
    if not generators:
        return None, []
    e = _terms(b, generators)
    if sf is not None:
        e = e._replace(sf=np.full(e.sf.shape, float(sf)))
    with np.errstate(all="ignore"):
        return e, [ch for chains in producers for ch in chains(b, generators, e)]


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
# closed-form specializations, by check, then by generator family
#
# An entry names the subchain, labels its terms and computes them as
# terms(block, generators, _Terms, the family's entries with the check's
# chain) -> (values, entries with the subchain, flags for the check's chain).
# Each value is a formula of the block's r and R columns (and the generators'
# parameters), kept as the (B, 1) column it comes out as, and read on the
# subchain's entries.


def _swap_oracle(b, gens, e, rows):
    # For f = -ln t the slope-weighted gap is the swapped chi-square distance.
    singular, rows = rows & ~b.q_invertible, rows & b.q_invertible
    swapped = b.chi_swapped
    equal = rows & np.isfinite(e.slope_gap) & (
        np.abs(e.slope_gap - swapped) <= 1e-8 * np.maximum(1.0, np.abs(swapped)))
    return (0.0, e.sf, swapped), rows, (
        ("swap-oracle-unavailable:singular-q", singular),
        ("oracle:slope-gap-equals-swapped-chi-square", equal))


def _thm2_form(coeff, final=None):
    """thm2 with the family coefficient coeff(r, R, generators) in
    place of D/2 and last term final(r, R), by default (R - r)/2 times
    coeff."""

    def terms(b, gens, e, rows):
        co = coeff(b.r, b.R, gens)
        finite = np.isfinite(co)
        last = final(b.r, b.R) if final else np.where(finite, 0.5 * (b.R - b.r) * co, INF)
        return (e.sf, np.where(finite, co * b.v, INF), np.where(finite, co * b.chi, INF), last), rows, ()

    return terms


def _tsallis_coeff(r, R, gens):
    # q is NaN off the tsallis columns, whose entries the subchain never has.
    qq = np.array([[f.params["q"] if f.name == "tsallis" else math.nan for f in gens]])
    return np.where(r > 0.0, qq * (R ** (1.0 - qq) - r ** (1.0 - qq))
                    / (2.0 * (1.0 - qq) * (R * r) ** (1.0 - qq)), INF)


def _window(*bounds):
    """A closed form [S_f, *(bound(r, R) for bound in bounds)]."""
    return lambda b, gens, e, rows: ((e.sf, *(bound(b.r, b.R) for bound in bounds)), rows, ())


def _kl_log_mix(r, R):
    """The secant value of t ln t on [r, R]."""
    return ((R - 1.0) * np.where(r > 0.0, r * np.log(r), 0.0) + (1.0 - r) * R * np.log(R)) / (R - r)


def _neg_log_log_mix(r, R):
    """The secant value of -ln t on [r, R]."""
    return np.where(r > 0.0, ((1.0 - R) * np.log(r) + (r - 1.0) * np.log(R)) / (R - r), INF)


def _product_ratio(r, R):
    return np.where(r > 0.0, (R - 1.0) * (1.0 - r) / (R * r), INF)


def _chi2_thm4(b, gens, e, rows):
    chord, secant = (coeff.formula(b.r, b.R) for coeff in (chi_square_chord_coeff, chi_square_secant_coeff))
    return (e.sf, chord), rows, (("sharper-than-secant-polynomial", rows & (chord < secant)),)


_CLOSED_FORMS = {
    "derivative-gap": {"neg-log": (
        "derivative-gap:swap", ("zero", "value", "chi-square-swapped"), _swap_oracle)},
    "thm2": {
        "chi2": (
            "thm2:chi2", ("value", "half-window-variation", "half-window-chi", "quarter-window-sq"),
            _thm2_form(lambda r, R, *_: 0.5 * (R - r), lambda r, R: 0.25 * (R - r) ** 2)),
        "kl-quantum": (
            "thm2:kl-quantum", ("value", "half-log-variation", "half-log-chi", "quarter-window-log"),
            _thm2_form(lambda r, R, *_: np.where(r > 0.0, 0.5 * np.log(R / r), INF))),
        "neg-log": (
            "thm2:neg-log", ("value", "half-ratio-variation", "half-ratio-chi", "quarter-window-ratio"),
            _thm2_form(lambda r, R, *_: np.where(r > 0.0, (R - r) / (2.0 * r * R), INF),
                       neg_log_range_coeff.formula)),
        "tsallis": (
            "thm2:tsallis", ("value", "half-power-variation", "half-power-chi", "quarter-window-power"),
            _thm2_form(_tsallis_coeff)),
    },
    "thm3": {
        "chi2": ("thm3:chi2", ("value", "window-polynomial"), _window(chi_square_secant_coeff.formula)),
        "kl-quantum": ("thm3:kl-quantum", ("value", "window-log-mix"), _window(_kl_log_mix)),
        "neg-log": ("thm3:neg-log", ("value", "window-log-mix"), _window(_neg_log_log_mix)),
    },
    "thm4": {
        "chi2": ("thm4:chi2", ("value", "window-product"), _chi2_thm4),
        "inv-minus-one": ("thm4:inv-minus-one", ("value", "window-product-ratio"), _window(_product_ratio)),
        "neg-log": ("thm4:neg-log", ("value", "window-log-mix", "window-product-ratio"),
                    _window(_neg_log_log_mix, _product_ratio)),
        "kl-quantum": (
            "thm4:kl-quantum", ("value", "window-log-mix", "window-product-log"),
            _window(_kl_log_mix, lambda r, R: np.where(
                r > 0.0, (R - 1.0) * (1.0 - r) * np.log(R / r) / (R - r), INF))),
    },
    "thm5": {
        "chi2": ("thm5:chi2", ("value", "half-range-sq"), _window(lambda r, R: 0.5 * (R - r) ** 2)),
        "inv-minus-one": ("thm5:inv-minus-one", ("value", "range-sq-ratio"),
                          _window(lambda r, R: np.where(r > 0.0, (R - r) ** 2 / (r * R * (r + R)), INF))),
        "neg-log": ("thm5:neg-log", ("value", "log-midpoint-gap", "quarter-range-ratio"),
                    _window(neg_log_jensen_coeff.formula, neg_log_range_coeff.formula)),
    },
}
# Each closed-form subchain's family, on whose generator columns alone it exists.
_FAMILY = {name: family for forms in _CLOSED_FORMS.values() for family, (name, _, _) in forms.items()}


# ---------------------------------------------------------------------------
# individual chains


def _public(chains, name: str):
    """The public check function around the chain producer `chains`."""

    def check(q, p, f: Generator, js: JointSpectrum = None, tol: float = DEFAULT_TOL,
              eps: float = DEFAULT_INVERTIBILITY_EPS, sf: float = None) -> BoundChainReport:
        tol = _positive(tol, "tolerance")
        b = _pair(q, p, js, eps)
        _, made = _chains(b, (f,), (chains,), sf)
        return _reports(made, _link_eval(made, (f,), tol), 0, b, (f,))[0][0]

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
            eps: float = DEFAULT_INVERTIBILITY_EPS) -> list:
    """All six chains for each generator on one pair, sharing the pair's
    invariants and judged in one pass.  Returns, per generator, its S_f
    (a DivergenceValue) and its six reports."""
    tol = _positive(tol, "tolerance")
    b, generators = _pair(q, p, js, eps), tuple(generators)
    if not generators:
        return []
    e, chains = _chains(b, generators)
    reports = _reports(chains, _link_eval(chains, generators, tol), 0, b, generators)
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
    dim = _whole(dim, "dimension")
    if dim < 1:
        raise InputFormatError(f"dimension must be >= 1, got {dim}")
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
        generators = default_catalog().generators if self.generators is None else tuple(self.generators)
        if bad := [f for f in generators if not isinstance(f, Generator)]:
            raise InputFormatError(f"generators must hold Generator instances, got {bad[0]!r}")
        # dim checked, and the floor checked, or its default 1e-6 / dim once dim is.
        _, dim, floor = _check_sampler_args(self.sampler, self.dim, self.floor)
        for name, value in (("generators", generators), ("dim", dim), ("floor", floor),
                            ("trials", _whole(self.trials, "trials")), ("seed", _whole(self.seed, "seed")),
                            ("jobs", _whole(self.jobs, "jobs")), ("tol", _positive(self.tol, "tolerance")),
                            ("eps", _positive(self.eps, "invertibility threshold"))):
            object.__setattr__(self, name, value)
        if self.trials < 1:
            raise InputFormatError(f"trials must be >= 1, got {self.trials}")
        if self.jobs < 1:
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
    key = np.array([seed % (2**64), trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, seed: int, trial: int) -> np.random.Generator:
    """rng, whose bit generator is a Philox, set to the state _trial_rng(seed,
    trial) starts in: counter 0, key (seed mod 2**64, trial), an empty
    buffer.  Setting a state is several times cheaper than building a
    Generator."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed % (2**64), trial], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


class _Tally:
    """fuzz's aggregates, fed one block of trials at a time in trial order,
    read from _link_eval's (pairs, entries) arrays and _Table, worked out
    once per process for a generator set."""

    def __init__(self, config: FuzzConfig):
        self.config, self.violations, self.checks, self.counts = config, [], [], ()
        self.near_tight, self.near_tight_total, self.min_slack = [], 0, None

    def add(self, trials: list, b: _Block) -> None:
        """Evaluate every chain of block b, whose pairs are the trials
        `trials`, judge all its links in one pass, and aggregate them."""
        config, gens = self.config, self.config.generators
        _, chains = _chains(b, gens)
        if not chains:
            return
        judged = _link_eval(chains, gens, config.tol)
        t, self.checks = judged.table, judged.table.checks
        if not self.counts:
            self.counts = tuple(np.zeros((len(self.checks), len(names)), dtype=np.int64)
                                for names in (_STATUSES, _SLACK_BUCKETS))
        linked = judged.present[:, t.owner]  # (B, entries)
        # Outside its rows a chain with a note counts as its check skipped.
        counted = judged.present | t.noted
        for counts, ids, code, on in zip(self.counts, (t.check, t.check[t.owner]), (judged.status, judged.buckets),
                                         (counted, linked)):
            counts += np.bincount((ids * counts.shape[1] + code)[on],
                                  minlength=counts.size).reshape(counts.shape)

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
        entries = [{"trial": trials[row], "check": t.names[k][0], "generator": gens[t.entry_gen[k]].spec,
                    "link": t.names[k][1], "slack": value}
                   for row, k, value in zip(rows.tolist(), links.tolist(), slack.ravel()[at].tolist())]
        if lowest:
            low = entries.pop(0)
            if self.min_slack is None or low["slack"] < self.min_slack["slack"]:
                self.min_slack = {key: low[key] for key in ("slack", "check", "generator", "trial", "link")}
        self.near_tight.extend(entries)

        for row in np.flatnonzero((linked & (judged.codes == 2)).any(axis=1)).tolist():
            qd, pd = _member(b.q, b.qdec, row), _member(b.p, b.pdec, row)
            for top in itertools.chain.from_iterable(_reports(chains, judged, row, b, gens)):
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
        fields, errors = joint_spectra(dec[0::2], dec[1::2], config.eps)
        skipped_trials.extend({"trial": t, "reason": str(exc)} for t, exc in zip(numbers, errors) if exc)
        kept = np.flatnonzero([exc is None for exc in errors])
        if kept.size:
            tally.add([numbers[k] for k in kept.tolist()], _Block(
                sym[0::2][kept], dec[0::2][kept], sym[1::2][kept], dec[1::2][kept],
                {name: x[kept] for name, x in fields.items()}, config.eps))
    return FuzzResult(config=config, violations=tuple(tally.violations),
                      summary=tally.summary(skipped_trials))

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
formed, checked and diagonalized (one eigh call) as one stack.  The
chains are columnar: each term is computed over the block for all
generators at once, and one producer per check (closed forms from a
table keyed by check and family) emits its chains for all of them,
as (pairs, generators) arrays.  One vectorized pass judges all links,
fuzz tallies them with bincount, and reports are built only where read:
by certify, run_all_checks and check_*, and for a failed fuzz trial.

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
    psi_sups,
    psi_value,
    secant_value,
)
from .hermitian import MAX_DIM, matrix_to_json
from .quantum import (
    WEIGHT_FLOOR,
    DensityMatrix,
    DivergenceValue,
    JointSpectrum,
    as_density,
    chi_squares,
    densities,
    joint_spectra,
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
    "sample_pairs",
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


def _check_tol(tol) -> float:
    tol = float(tol)
    if not 0.0 < tol < INF:
        raise InputFormatError(f"tolerance must be positive and finite, got {tol}")
    return tol


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
    """One chain over a block of B pairs and G generators: a (B, G) array per
    term, the entries that have it (rows), its flags as (name, entries set
    on), and whether it is a subchain of the top-level chain before it."""

    check: str
    labels: tuple
    values: tuple
    rows: np.ndarray
    flags: tuple = ()
    note: str = ""
    sub: bool = False


# Verdicts and statuses by code.  A chain's status is the worst verdict
# among its links; a chain without links was skipped.
_VERDICTS = ("pass", "vacuous", "fail")
_STATUSES = ("pass", "vacuous-pass", "fail", "skipped")
_SLACK_BUCKETS = ("negative", "<1e-9", "<1e-6", "<1e-3", "<1", ">=1", "vacuous")
_BUCKET_EDGES = np.array([0.0, 1e-9, 1e-6, 1e-3, 1.0])


def _link_eval(chains, tol: float) -> tuple:
    """Judge every link of `chains` in one vectorized pass: each chain's
    status code per entry and link count, then per entry and link (in
    chain order) the verdict code, slack, slack bucket and equality flag.
    An infinite right side makes a link vacuous; an infinite left side
    under a finite one fails."""
    sizes = np.array([len(ch.labels) for ch in chains], dtype=np.intp)
    values = (np.moveaxis(np.array([col for ch in chains for col in ch.values]), 0, -1)
              if chains else np.zeros((0, 0)))
    at = np.delete(np.arange(values.shape[-1]), np.cumsum(sizes) - 1)  # left ends of links
    left, right = values[..., at], values[..., at + 1]

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
    status = np.full((*values.shape[:-1], len(chains)), 3)
    linked = nlinks > 0
    if at.size:
        status[..., linked] = np.maximum.reduceat(codes, (np.cumsum(nlinks) - nlinks)[linked], axis=-1)
    return status, nlinks, codes, slack, buckets, equal


def _reports(chains, judged, row: int, js: JointSpectrum, generators) -> list:
    """Per generator, the reports of pair `row` from the block's chains and
    their _link_eval: one per top-level chain, with its subchains."""
    if not chains:
        return []
    status, codes, slack, equal = (judged[i][row].tolist() for i in (0, 2, 3, 5))
    values = np.array([col[row] for ch in chains for col in ch.values]).T.tolist()
    has = np.array([ch.rows[row] for ch in chains]).T.tolist()
    firsts = list(itertools.accumulate((len(ch.labels) for ch in chains), initial=0))
    out = []
    for g, f in enumerate(generators):
        groups = []  # (a top-level chain's fields, its subchains' reports)
        for j, (ch, first) in enumerate(zip(chains, firsts)):
            if not has[g][j]:
                continue
            labels, n, at = ch.labels, len(ch.labels) - 1, first - j  # first term, first link
            fields = dict(
                check=ch.check, chain=tuple(zip(labels, values[g][first:first + n + 1])),
                slacks=tuple(slack[g][at:at + n]),
                link_verdicts=tuple(_VERDICTS[v] for v in codes[g][at:at + n]),
                status=_STATUSES[status[g][j]], generator=f.spec, dim=js.dim, r=js.r, R=js.R,
                flags=(*(name for name, on in ch.flags if on[row, g]),
                       *(f"equality:{labels[i]}={labels[i + 1]}"
                         for i in range(n) if equal[g][at + i])),
                note=ch.note)
            if ch.sub:
                groups[-1][1].append(BoundChainReport(**fields))
            else:
                groups.append((fields, []))
        out.append([BoundChainReport(**fields, subchains=tuple(subs)) for fields, subs in groups])
    return out


def _raise_first(results: list) -> list:
    """Per-pair results, after raising the first error among them."""
    for x in results:
        if isinstance(x, Exception):
            raise x
    return results


class _Block:
    """The invariants of a block of B (Q, P) pairs, one (B, 1) column each:
    window [r, R], V, K, thm3's tightness (every occupied ratio at an end
    of the window); and the stacked weights and ratios.  chi and the
    swapped chi-square are computed for the block once a pair needs them,
    raising the first error (which only a spectrum not built from its own
    pair can have).  The spectra share one threshold, eps."""

    def __init__(self, qds: list, pds: list, spectra: list):
        self.qds, self.pds, self.spectra, self.eps = qds, pds, spectra, spectra[0].eps
        lam, mu, w, ratio, self.wt = (np.stack([getattr(js, name) for js in spectra])
                                      for name in ("lam", "mu", "w", "ratio", "wt"))
        self.ratio, occupied = ratio, self.wt > WEIGHT_FLOOR
        self.rs, self.Rs = [js.r for js in spectra], [js.R for js in spectra]  # for per_pair
        r, R = np.array(self.rs), np.array(self.Rs)
        v = (w * np.abs(lam[:, :, np.newaxis] - mu[:, np.newaxis, :])).reshape(len(r), -1).sum(axis=1)
        r3, R3 = r[:, np.newaxis, np.newaxis], R[:, np.newaxis, np.newaxis]
        at_ends = (np.abs(ratio - r3) <= 1e-12 * np.maximum(1.0, r3)) | (np.abs(ratio - R3) <= 1e-12 * R3)
        tight = occupied.any(axis=(1, 2)) & (at_ends | ~occupied).all(axis=(1, 2))
        # thm4 and thm5 need the strict window R > 1 > r.
        strict = (R - 1.0 > DEGENERATE_WINDOW_TOL) & (1.0 - r > DEGENERATE_WINDOW_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (R - 1.0) * (1.0 - r) / (R - r)
        q_invertible = [qd.min_eigenvalue >= self.eps for qd in qds]
        self.r, self.R, self.v, self.tight, self.window, self.strict, self.k, self.quarter, \
            self.q_invertible = (np.array(x)[:, np.newaxis] for x in (
                r, R, v, tight, r < R, strict, k, 0.25 * (R - r), q_invertible))

    @functools.cached_property
    def _chi(self) -> np.ndarray:
        return np.array([[math.sqrt(max(value, 0.0))] for value in _raise_first(
            chi_squares(self.qds, self.pds, self.eps))])

    @functools.cached_property
    def _chi_swapped(self) -> np.ndarray:
        """chi-square(P, Q) for each pair whose Q is invertible at eps."""
        out, rows = np.full((len(self.qds), 1), math.nan), np.flatnonzero(self.q_invertible)
        out[rows, 0] = _raise_first(chi_squares([self.pds[k] for k in rows],
                                                [self.qds[k] for k in rows], self.eps))
        return out

    def chi(self, rows, swapped: bool = False) -> np.ndarray:
        """chi per pair, or chi-square(P, Q) if swapped, once an entry of rows needs it."""
        return (self._chi_swapped if swapped else self._chi) if rows.any() else np.zeros_like(self.r)

    def per_pair(self, rows, generators, bound) -> np.ndarray:
        """bound(f, r, R) per (pair, generator) entry of `rows`, one float call
        each (numpy's log and power can differ from math's); NaN elsewhere."""
        out, (ks, gs) = np.full(rows.shape, math.nan), np.nonzero(rows)
        out[ks, gs] = [bound(generators[g], self.rs[k], self.Rs[k])
                       for k, g in zip(ks.tolist(), gs.tolist())]
        return out


def _pair(q, p, js: JointSpectrum, eps: float) -> _Block:
    """One pair as a block of one; a supplied joint spectrum brings its own
    invertibility threshold, which then replaces eps."""
    qd, pd = as_density(q), as_density(p)
    return _Block([qd], [pd], [joint_spectrum(qd, pd, eps) if js is None else js])


# The generators' quantities on a block, one (B, G) array each: S_f, the derivative-gap
# right side (NaN for a kinked f), sup Psi (NaN off a strict window), f(r), f(R),
# f((r + R)/2), f'_+(r) and f'_-(R) from one scalar call each, D = f'_-(R) - f'_+(r) (+inf
# if one diverges) and all True; f(1) and f's smoothness (1, G); and the DivergenceValue
# of each (pair, generator) whose S_f was evaluated on its own.
_Terms = collections.namedtuple("_Terms", "sf slope_gap sup fr fR fmid dr dR gap every f1 smooth dvs")


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


def _terms(b: _Block, generators) -> _Terms:
    """The generators' _Terms on block b, term by term over all generators:
    S_f and the derivative-gap sums of every generator in one
    weighted_sums pass over the block's stacked spectra (a pair they
    leave out, with a zero ratio or an infinite value, on its own), sup
    Psi in one psi_sups pass over every (strict window, generator) entry."""
    dvs, strict, G = {}, b.strict[:, 0], len(generators)
    fr, fR, fmid, dr, dR = np.moveaxis(np.array(
        [[(f(r), f(R), f(0.5 * (r + R)), f.deriv_right(r), f.deriv_left(R)) for f in generators]
         for r, R in zip(b.rs, b.Rs)]), -1, 0)
    smooth = [g for g, f in enumerate(generators) if f.smooth]
    sums, held = weighted_sums(b.ratio, b.wt, [f.fn for f in generators] + [
        lambda t, f=generators[g]: (t - 1.0) * f.deriv_right_fn(t) for g in smooth])
    sf, gaps = sums[:G].T.copy(), np.full(fr.shape, math.nan)
    gaps[:, smooth] = sums[G:].T
    for g, k in zip(*(x.tolist() for x in np.nonzero(~held[:G]))):
        dvs[k, g] = s_f_from_spectrum(b.spectra[k], generators[g])
        sf[k, g] = dvs[k, g].value
    for i, k in zip(*(x.tolist() for x in np.nonzero(~held[G:]))):
        gaps[k, smooth[i]] = _slope_gap(b.spectra[k], generators[smooth[i]])
    sup = np.full(fr.shape, math.nan)
    sup[strict] = psi_sups(generators, b.r[strict, 0], b.R[strict, 0],
                           ends=(fr[strict], fR[strict], dr[strict], dR[strict]))
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.where(np.isfinite(dR) & np.isfinite(dr), dR - dr, INF)
    return _Terms(sf, gaps, sup, fr, fR, fmid, dr, dR, gap, np.ones(sf.shape, dtype=bool),
                  np.array([[f(1.0) for f in generators]]),
                  np.array([[f.smooth for f in generators]]), dvs)


# ---------------------------------------------------------------------------
# chain producers
#
# Each producer returns one check's chains for all pairs and generators of
# a block, in report order: a skipped chain (for the entries its
# hypotheses exclude), its own chain, then its subchains.  The list
# depends only on the generators, not on the block.


_DEGENERATE = "degenerate window: r = R"
_NOT_STRICT = "window must satisfy R > 1 > r strictly"


def _with_closed_form(b: _Block, gens: tuple, e: _Terms, check: str, labels: tuple,
                      values: tuple, rows, flags=(), subs=(), skip: str = None) -> list:
    """The chain of `check` on the entries `rows` (skipped on the others,
    for the reason skip), its subchains `subs`, then the closed forms of
    the generators' families from _CLOSED_FORMS on their entries."""
    skipped = [_Chain(check, ("value",), (e.sf,), ~rows, note=skip)] if skip else []
    closed = []
    for (of, family), (name, sub_labels, terms) in _CLOSED_FORMS.items():
        ours = rows & np.array([f.name == family for f in gens]) if of == check else None
        if ours is not None and ours.any():
            sub_values, sub_rows, more = terms(b, gens, e, ours)
            flags = (*flags, *more)
            closed.append(_Chain(name, sub_labels, sub_values, sub_rows, sub=True))
    return [*skipped, _Chain(check, labels, values, rows, flags), *subs, *closed]


def _nonneg(b: _Block, gens: tuple, e: _Terms) -> list:
    """Chain [0, S_f]: the divergence of a normalized generator is nonnegative."""
    return [_Chain("nonneg", ("zero", "value"), (np.zeros(e.sf.shape), e.sf), e.every)]


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
    distance.  Closed-form specializations are attached for the chi2,
    kl, neg-log, and tsallis generators.  Skipped on a degenerate window
    r = R, where every window term vanishes and only rounding is left.
    """
    d, rows = e.gap, b.window & e.every
    finite = ~np.isinf(d)
    chi = b.chi(rows & finite)
    values = (e.sf, *(np.where(finite, x, INF) for x in (0.5 * d * b.v, 0.5 * d * chi, b.quarter * d)))
    return _with_closed_form(b, gens, e, "thm2", (
        "value", "half-gap-variation", "half-gap-chi", "quarter-window-gap"), values, rows,
        skip=_DEGENERATE)


def _thm3(b: _Block, gens: tuple, e: _Terms) -> list:
    """Two-term chain [S_f, secant value at the window endpoints]."""
    rows = b.window & e.every
    return _with_closed_form(b, gens, e, "thm3", ("value", "secant"),
                             (e.sf, secant_value(b.r, b.R, e.fr, e.fR)), rows,
                             flags=(("tight:ratios-at-endpoints", rows & b.tight),), skip=_DEGENERATE)


def _thm4(b: _Block, gens: tuple, e: _Terms) -> list:
    """Five-term chain through the double-slope gap Psi.

    Main chain: [S_f, K Psi(1), K sup Psi, K D, (R-r)/4 * D] with
    K = (R-1)(1-r)/(R-r) and D = f'_-(R) - f'_+(r).  The alternate
    routing through (R-r)/4 * Psi(1) is attached as a subchain, as are
    the chi2 / inv / neg-log / kl closed forms.  Requires the strict
    window R > 1 > r.
    """
    strict, k, quarter, sf, sup, d = b.strict & e.every, b.k, b.quarter, e.sf, e.sup, e.gap
    psi1 = np.full(sf.shape, INF)
    finite = strict & ~np.isinf(e.fr)
    psi1[finite] = psi_value(1.0, *(np.broadcast_to(x, sf.shape)[finite]
                                    for x in (b.r, b.R, e.f1, e.fr, e.fR)))
    k_psi1 = k * psi1
    sec = secant_value(b.r, b.R, e.fr, e.fR)
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


def _check_open_window(r: float, R: float, closed: bool = False) -> tuple:
    """(r, R) as floats with 0 <= r < 1 < R, or thm3's 0 <= r <= 1 <= R, r < R if closed."""
    r, R = float(r), float(R)
    if not (0.0 <= r <= 1.0 <= R and r < R if closed else 0.0 <= r < 1.0 < R):
        need = "0 <= r <= 1 <= R with r < R" if closed else "0 <= r < 1 < R"
        raise PreconditionError(f"need {need}, got r={r}, R={R}")
    return r, R


def chi_square_secant_coeff(r: float, R: float) -> float:
    """(R-1)(1-r)(R+r+2)/(R-r): the chi-square secant-route bound, on
    thm3's window 0 <= r <= 1 <= R with r < R."""
    r, R = _check_open_window(r, R, closed=True)
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
# closed-form specializations, keyed by (check, generator family)
#
# An entry names the subchain, labels its terms and computes them as
# terms(block, generators, _Terms, the family's entries with the check's
# chain) -> (values, entries with the subchain, flags for the check's chain).


def _swap_oracle(b, gens, e, rows):
    # For f = -ln t the slope-weighted gap is the swapped chi-square distance.
    singular, rows = rows & ~b.q_invertible, rows & b.q_invertible
    swapped = np.broadcast_to(b.chi(rows, swapped=True), rows.shape)
    equal = rows & np.isfinite(e.slope_gap) & (
        np.abs(e.slope_gap - swapped) <= 1e-8 * np.maximum(1.0, np.abs(swapped)))
    return (np.zeros(rows.shape), e.sf, swapped), rows, (
        ("swap-oracle-unavailable:singular-q", singular),
        ("oracle:slope-gap-equals-swapped-chi-square", equal))


def _thm2_form(coeff, final=None):
    """thm2 with the family coefficient coeff(f, r, R) in place of D/2 and
    last term final(r, R), by default (R - r)/2 times the coefficient."""

    def terms(b, gens, e, rows):
        co = b.per_pair(rows, gens, coeff)
        finite = np.isfinite(co)
        last = (b.per_pair(rows, gens, lambda f, r, R: final(r, R)) if final
                else np.where(finite, 0.5 * (b.R - b.r) * co, INF))
        chi = b.chi(rows & finite)
        return (e.sf, np.where(finite, co * b.v, INF), np.where(finite, co * chi, INF), last), rows, ()

    return terms


def _tsallis_coeff(f, r, R):
    qq = f.params["q"]
    return qq * (R ** (1.0 - qq) - r ** (1.0 - qq)) / (2.0 * (1.0 - qq) * (R * r) ** (1.0 - qq))


def _window(*bounds):
    """A closed form [S_f, *(bound(r, R) for bound in bounds)]."""
    return lambda b, gens, e, rows: ((e.sf, *(b.per_pair(rows, gens, lambda f, r, R, bound=bound:
                                                          bound(r, R)) for bound in bounds)), rows, ())


def _kl_log_mix(r: float, R: float) -> float:
    """The secant value of t ln t on [r, R]."""
    return ((R - 1.0) * (r * math.log(r) if r > 0.0 else 0.0) + (1.0 - r) * R * math.log(R)) / (R - r)


def _neg_log_log_mix(r: float, R: float) -> float:
    """The secant value of -ln t on [r, R]."""
    return ((1.0 - R) * math.log(r) + (r - 1.0) * math.log(R)) / (R - r) if r > 0.0 else INF


def _chi2_thm4(b, gens, e, rows):
    chord, secant = (b.per_pair(rows, gens, lambda f, r, R, coeff=coeff: coeff(r, R))
                     for coeff in (chi_square_chord_coeff, chi_square_secant_coeff))
    return (e.sf, chord), rows, (("sharper-than-secant-polynomial", rows & (chord < secant)),)


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
        "thm3:chi2", ("value", "window-polynomial"), _window(chi_square_secant_coeff)),
    ("thm3", "kl-quantum"): ("thm3:kl-quantum", ("value", "window-log-mix"), _window(_kl_log_mix)),
    ("thm3", "neg-log"): ("thm3:neg-log", ("value", "window-log-mix"), _window(_neg_log_log_mix)),
    ("thm4", "chi2"): ("thm4:chi2", ("value", "window-product"), _chi2_thm4),
    ("thm4", "inv-minus-one"): (
        "thm4:inv-minus-one", ("value", "window-product-ratio"),
        _window(lambda r, R: (R - 1.0) * (1.0 - r) / (R * r) if r > 0.0 else INF)),
    ("thm4", "neg-log"): (
        "thm4:neg-log", ("value", "window-log-mix", "window-product-ratio"),
        _window(_neg_log_log_mix, lambda r, R: (R - 1.0) * (1.0 - r) / (r * R) if r > 0.0 else INF)),
    ("thm4", "kl-quantum"): (
        "thm4:kl-quantum", ("value", "window-log-mix", "window-product-log"),
        _window(_kl_log_mix, lambda r, R: (
            (R - 1.0) * (1.0 - r) * math.log(R / r) / (R - r) if r > 0.0 else INF))),
    ("thm5", "chi2"): ("thm5:chi2", ("value", "half-range-sq"), _window(lambda r, R: 0.5 * (R - r) ** 2)),
    ("thm5", "inv-minus-one"): (
        "thm5:inv-minus-one", ("value", "range-sq-ratio"),
        _window(lambda r, R: (R - r) ** 2 / (r * R * (r + R)) if r > 0.0 else INF)),
    ("thm5", "neg-log"): (
        "thm5:neg-log", ("value", "log-midpoint-gap", "quarter-range-ratio"),
        _window(neg_log_jensen_coeff, neg_log_range_coeff)),
}


# ---------------------------------------------------------------------------
# individual chains


def _public(chains, name: str):
    """The public check function around the chain producer `chains`."""

    def check(q, p, f: Generator, js: JointSpectrum = None, tol: float = DEFAULT_TOL,
              eps: float = 1e-12, sf: float = None) -> BoundChainReport:
        tol = _check_tol(tol)
        b = _pair(q, p, js, eps)
        _, made = _chains(b, (f,), (chains,), sf)
        return _reports(made, _link_eval(made, tol), 0, b.spectra[0], (f,))[0][0]

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
    tol = _check_tol(tol)
    b, generators = _pair(q, p, js, eps), tuple(generators)
    e, chains = _chains(b, generators)
    reports = _reports(chains, _link_eval(chains, tol), 0, b.spectra[0], generators)
    return [(e.dvs.get((0, g)) or DivergenceValue(value=float(e.sf[0, g]), generator=f.spec),
             tuple(reports[g])) for g, f in enumerate(generators)]


def run_all_checks(q, p, f: Generator, js: JointSpectrum = None,
                   tol: float = DEFAULT_TOL, eps: float = 1e-12) -> tuple:
    """All six chains for one generator, sharing one joint spectrum."""
    return certify(q, p, (f,), js=js, tol=tol, eps=eps)[0][1]


# ---------------------------------------------------------------------------
# sampling


def _check_sampler_args(kind: str, dim: int, floor: float = None) -> tuple:
    """(kind, dim, floor) checked; floor defaults to 1e-6 / dim."""
    if kind not in SAMPLER_KINDS:
        raise InputFormatError(f"unknown sampler {kind!r}; choose from {SAMPLER_KINDS}")
    dim = int(dim)
    if dim < 1:
        raise InputFormatError(f"dimension must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise InputFormatError(f"dimension must be at most {MAX_DIM}, got {dim}")
    floor = 1e-6 / dim if floor is None else float(floor)
    if not 0.0 <= floor < 1.0 / dim:
        raise InputFormatError(f"floor must lie in [0, 1/dim), got {floor} at dim {dim}")
    return kind, dim, floor


def _draw(kind: str, dim: int, rng: np.random.Generator, states: int) -> tuple:
    """The random numbers of `states` states from one stream, in the order
    sampling one state at a time draws them: standard normals as (real,
    imaginary) pairs of (dim, dim) arrays, and Dirichlet weights (None for
    ginibre).  The states of the commuting ensemble share one basis."""
    if kind == "ginibre":
        return rng.standard_normal((2 * states, dim, dim)), None
    if kind == "commuting":
        return rng.standard_normal((2, dim, dim)), rng.dirichlet(np.ones(dim), size=states)
    draws = [(rng.standard_normal((2, dim, dim)), rng.dirichlet(np.ones(dim)))
             for _ in range(states)]
    return np.concatenate([g for g, _ in draws]), np.stack([w for _, w in draws])


def _states(kind: str, dim: int, floor: float, rngs: list, states: int) -> np.ndarray:
    """The (len(rngs) * states, dim, dim) stack of sampled states (see
    sample_density), `states` from each stream in turn, formed from the
    draws in one stacked pass and made exactly Hermitian."""
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
    return (rho + rho.conj().swapaxes(1, 2)) / 2.0


def sample_density(kind: str, dim: int, floor: float, rng: np.random.Generator) -> DensityMatrix:
    """One random density matrix of the given ensemble.

    kinds: "ginibre" (Wishart-normalized), "commuting" (random spectrum
    on a Haar basis), "mixture" (Dirichlet-weighted rank-one states).
    floor in [0, 1/dim) mixes in floor * I/dim and renormalizes, keeping
    the smallest eigenvalue away from zero.
    """
    kind, dim, floor = _check_sampler_args(kind, dim, floor)
    return densities(_states(kind, dim, floor, [rng], 1))[0]


def sample_pair(kind: str, dim: int, floor: float, rng: np.random.Generator) -> tuple:
    """A (Q, P) pair; the commuting ensemble shares one eigenbasis."""
    return sample_pairs(kind, dim, floor, [rng])[0]


def sample_pairs(kind: str, dim: int, floor: float, rngs) -> list:
    """sample_pair for each stream of a block, bit for bit: the draws are
    made stream by stream, everything after them over the stacked block
    (one eigh call for all states).  The first state in (stream, Q before
    P) order that fails a density check raises."""
    kind, dim, floor = _check_sampler_args(kind, dim, floor)
    states = densities(_states(kind, dim, floor, list(rngs), 2))
    return list(zip(states[0::2], states[1::2]))


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
        object.__setattr__(self, "generators", default_catalog().generators
                           if self.generators is None else tuple(self.generators))
        if self.floor is None:  # its default, 1e-6 / dim, once dim is checked
            object.__setattr__(self, "floor", _check_sampler_args(self.sampler, self.dim)[2])
        _check_sampler_args(self.sampler, self.dim, self.floor)
        if int(self.trials) < 1:
            raise InputFormatError(f"trials must be >= 1, got {self.trials}")
        _check_tol(self.tol)
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
        """The fields in order (q_json as q, p_json as p), infinite sides as repr."""
        doc = {field.name.removesuffix("_json"): getattr(self, field.name)
               for field in dataclasses.fields(self)}
        return {**doc, "link": list(self.link),
                **{side: repr(doc[side]) for side in ("left", "right") if math.isinf(doc[side])}}


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


class _Tally:
    """fuzz's aggregates, fed one block of trials at a time in trial order;
    the check and link of each judged column are worked out once."""

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
        judged = status, nlinks, codes, slack, bucket, _ = _link_eval(chains, config.tol)
        if not self.checks:
            self.checks = sorted({ch.check for ch in chains})
            ids = np.array([self.checks.index(ch.check) for ch in chains])
            self.ids = (ids, np.repeat(ids, nlinks))
            self.counts = tuple(np.zeros((len(self.checks), len(names)), dtype=np.int64)
                                for names in (_STATUSES, _SLACK_BUCKETS))
            self.links = [(ch.check, f"{ch.labels[i]}<={ch.labels[i + 1]}")
                          for ch in chains for i in range(len(ch.labels) - 1)]
        present = np.moveaxis(np.array([ch.rows for ch in chains]), 0, -1)  # (B, G, chains)
        linked = np.repeat(present, nlinks, axis=-1)  # (B, G, links)
        for counts, ids, code, on in zip(self.counts, self.ids, (status, bucket), (present, linked)):
            counts += np.bincount((ids * counts.shape[1] + code)[on],
                                  minlength=counts.size).reshape(counts.shape)

        def where(i):
            (row, g), (check, link) = (divmod(int(i) // len(self.links), len(gens)),
                                       self.links[int(i) % len(self.links)])
            return (trials[row], check, gens[g].spec, link), float(slack.flat[i])

        finite = linked & np.isfinite(slack)
        if finite.any():
            (trial, check, spec, link), value = where(np.argmin(np.where(finite, slack, INF)))
            if self.min_slack is None or value < self.min_slack["slack"]:
                self.min_slack = {"slack": value, "check": check, "generator": spec,
                                  "trial": trial, "link": link}
        tight = np.flatnonzero(finite & (slack >= 0.0) & (slack < NEAR_TIGHT_SLACK))
        self.near_tight_total += tight.size
        for i in tight[:max(0, 100 - len(self.near_tight))]:
            (trial, check, spec, link), value = where(i)
            self.near_tight.append({"trial": trial, "check": check, "generator": spec,
                                    "link": link, "slack": value})

        for row in np.flatnonzero((linked & (codes == 2)).any(axis=(1, 2))).tolist():
            for top in itertools.chain.from_iterable(_reports(chains, judged, row, b.spectra[row], gens)):
                self.violations.extend(collect_violations(
                    top, config.seed, trials[row], b.qds[row], b.pds[row]))

    def summary(self, skipped_trials: list) -> dict:
        config = self.config
        seen = [(check, statuses, buckets) for check, statuses, buckets in
                zip(self.checks, *(counts.tolist() for counts in self.counts)) if any(statuses)]
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
    its joint spectra, V and chi computed, over stacked arrays; then each
    term is evaluated in one pass over the block for all generators, and
    the block is aggregated in trial order.  The output is the same as one trial at a
    time would give.  config.jobs is validated but does not change how
    the run executes.  A pair that joint_spectrum rejects (singular P,
    lost double stochasticity) is recorded as a skipped trial with the
    reason.
    """
    tally = _Tally(config)
    skipped_trials = []
    trials = int(config.trials)
    for first in range(0, trials, FUZZ_BLOCK):
        numbers = range(first, min(first + FUZZ_BLOCK, trials))
        pairs = sample_pairs(config.sampler, config.dim, config.floor,
                             [_trial_rng(config.seed, trial) for trial in numbers])
        spectra = joint_spectra([qd for qd, _ in pairs], [pd for _, pd in pairs], config.eps)
        kept = []
        for k, (trial, js) in enumerate(zip(numbers, spectra)):
            if isinstance(js, Exception):
                skipped_trials.append({"trial": trial, "reason": str(js)})
            else:
                kept.append(k)
        if kept:
            tally.add([numbers[k] for k in kept], _Block(
                [pairs[k][0] for k in kept], [pairs[k][1] for k in kept], [spectra[k] for k in kept]))
    return FuzzResult(config=config, violations=tuple(tally.violations),
                      summary=tally.summary(skipped_trials))

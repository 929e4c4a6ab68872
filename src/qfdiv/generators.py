"""Convex generator functions and their scalar bound ingredients.

Each divergence is induced by a convex function f on [0, infinity) with
f(1) = 0.  A Generator bundles the function with the analytic metadata
the bound machinery needs: the limit f(0+), the conjugate's limit
f*(0+) = lim f(v)/v, closed-form one-sided derivatives, and the limit
of f' at 0+.  The module also provides the scalar bound ingredients:
secant (chord) values, the double-slope gap Psi, its supremum over an
interval, and the midpoint Jensen gap.

Catalog families (all normalized to f(1) = 0):

    chi_alpha      |u - 1|^alpha, alpha >= 1
    dichotomy      [alpha u + 1 - alpha - u^alpha] / (alpha (1 - alpha))
    matsushita     |1 - u^alpha|^(1/alpha), 0 < alpha <= 1
    puri_vincze    |1 - u|^alpha / (u + 1)^(alpha - 1), alpha >= 1
    arimoto        (alpha/(alpha-1)) [(1 + u^alpha)^(1/alpha) - 2^(1/alpha - 1) (1 + u)]
    kl_quantum     u ln u
    neg_log        -ln u
    tv             |u - 1|
    chi2           u^2 - 1
    tsallis        (1 - u^q) / (1 - q), 0 < q < 1
    hellinger      (1/2)(sqrt(u) - 1)^2
    inv_minus_one  1/u - 1

Generators are immutable; evaluation is pure and safe to call from
concurrent workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, PreconditionError

__all__ = [
    "Generator",
    "GeneratorCatalog",
    "chi_alpha",
    "dichotomy",
    "matsushita",
    "puri_vincze",
    "arimoto",
    "kl_quantum",
    "neg_log",
    "tv",
    "chi2",
    "tsallis",
    "hellinger",
    "inv_minus_one",
    "conjugate",
    "shift",
    "secant_bound",
    "psi",
    "psi_sup",
    "jensen_gap_bound",
    "from_callable",
    "parse_generator_spec",
    "default_catalog",
]

INF = math.inf

PSI_GRID_POINTS = 10001
PSI_STEPS = PSI_GRID_POINTS - 1
PSI_EDGE_FRACTION = 1e-6
# psi_sup bounds its grid cell by cell; a cell spans this many grid steps.
PSI_CELL = 100
# Rounding pad of a cell bound, relative to the size of f on the window
# (at least 1), about 4e6 ulps.  The catalog's formulas cancel inside
# (dichotomy at alpha = 0.01 loses a factor ~100 to it), and the pad
# still sits far below the spread of the cell bounds.
PSI_PAD = 2.0**-30
# A negative second difference -n of f in the edge cells means f-values err
# by at least n/4; psi_sup pads for PSI_NOISE / 4 times that error.
PSI_NOISE = 16.0

# Finite-difference step for generators built from a bare callable.
FD_STEP = 1e-7


def _fmt_param(v: float) -> str:
    s = format(float(v), "g")
    return s if float(s) == float(v) else repr(float(v))


@dataclass(frozen=True, eq=False)
class Generator:
    """A convex generator f with closed-form analytic metadata.

    Attributes:
        name: family identifier, hyphenated (e.g. "chi-alpha").
        params: family parameters by name.
        fn: f on (0, infinity); accepts floats or positive ndarrays.
        deriv_left_fn / deriv_right_fn: one-sided derivatives on (0, inf).
        value_at_zero: lim f(u) as u -> 0+ (may be +inf).
        star_at_zero: lim f(v)/v as v -> inf, i.e. the conjugate's value
            at 0 (may be +inf).
        deriv_at_zero: lim of f'_+(u) as u -> 0+ (may be -inf).
        normalized: f(1) = 0.
        smooth: no derivative kink anywhere on (0, infinity).
        approx: metadata came from finite differences, not closed form.
    """

    name: str
    fn: object
    deriv_left_fn: object
    deriv_right_fn: object
    value_at_zero: float
    star_at_zero: float
    deriv_at_zero: float
    params: dict = field(default_factory=dict)
    normalized: bool = True
    smooth: bool = True
    approx: bool = False

    @functools.cached_property
    def spec(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"

    def __repr__(self) -> str:
        return f"Generator({self.spec!r})"

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            if t.size and float(t.min()) <= 0.0:
                raise PreconditionError("array evaluation requires strictly positive points")
            return np.asarray(self.fn(t), dtype=np.float64)
        t = float(t)
        if t < 0.0:
            raise PreconditionError(f"generator argument must be >= 0, got {t}")
        if t == 0.0:
            return self.value_at_zero
        return float(self.fn(t))

    def deriv_left(self, t: float) -> float:
        t = float(t)
        if t <= 0.0:
            raise PreconditionError("left derivative needs t > 0")
        return float(self.deriv_left_fn(t))

    def deriv_right(self, t: float) -> float:
        t = float(t)
        if t < 0.0:
            raise PreconditionError("right derivative needs t >= 0")
        if t == 0.0:
            return self.deriv_at_zero
        return float(self.deriv_right_fn(t))


@dataclass(frozen=True)
class GeneratorCatalog:
    """Fixed, ordered collection of Generator instances."""

    generators: tuple

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    def get(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise InputFormatError(f"no generator named {name!r} in catalog")


def _sgn(t):
    return np.sign(t - 1.0)


def chi_alpha(alpha: float = 2.0) -> Generator:
    """|u - 1|^alpha for alpha >= 1; alpha = 1 is total variation,
    alpha = 2 is the chi-square generator shifted to pass through 0."""
    alpha = float(alpha)
    if not alpha >= 1.0:
        raise InputFormatError(f"chi-alpha needs alpha >= 1, got {alpha}")

    def fn(t):
        return np.abs(t - 1.0) ** alpha

    if alpha == 1.0:
        dl = lambda t: -1.0 if t <= 1.0 else 1.0
        dr = lambda t: -1.0 if t < 1.0 else 1.0
    else:
        dl = dr = lambda t: alpha * _sgn(t) * np.abs(t - 1.0) ** (alpha - 1.0)
    return Generator(
        name="chi-alpha",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=dl,
        deriv_right_fn=dr,
        value_at_zero=1.0,
        star_at_zero=INF if alpha > 1.0 else 1.0,
        deriv_at_zero=-alpha,
        smooth=alpha > 1.0,
    )


def dichotomy(alpha: float = 0.5) -> Generator:
    """The one-parameter family spanning u - 1 - ln u (alpha = 0),
    2(sqrt(u) - 1)^2 (alpha = 1/2), and 1 - u + u ln u (alpha = 1)."""
    alpha = float(alpha)
    if alpha == 0.0:
        return Generator(
            name="dichotomy",
            params={"alpha": 0.0},
            fn=lambda t: t - 1.0 - np.log(t),
            deriv_left_fn=lambda t: 1.0 - 1.0 / t,
            deriv_right_fn=lambda t: 1.0 - 1.0 / t,
            value_at_zero=INF,
            star_at_zero=1.0,
            deriv_at_zero=-INF,
        )
    if alpha == 1.0:
        return Generator(
            name="dichotomy",
            params={"alpha": 1.0},
            fn=lambda t: 1.0 - t + t * np.log(t),
            deriv_left_fn=np.log,
            deriv_right_fn=np.log,
            value_at_zero=1.0,
            star_at_zero=INF,
            deriv_at_zero=-INF,
        )

    denom = alpha * (1.0 - alpha)

    def fn(t):
        return (alpha * t + 1.0 - alpha - t**alpha) / denom

    def deriv(t):
        return (1.0 - t ** (alpha - 1.0)) / (1.0 - alpha)

    return Generator(
        name="dichotomy",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=1.0 / alpha if alpha > 0.0 else INF,
        star_at_zero=1.0 / (1.0 - alpha) if alpha < 1.0 else INF,
        deriv_at_zero=1.0 / (1.0 - alpha) if alpha > 1.0 else -INF,
    )


def matsushita(alpha: float = 0.5) -> Generator:
    """|1 - u^alpha|^(1/alpha) for 0 < alpha <= 1; self-conjugate."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InputFormatError(f"matsushita needs 0 < alpha <= 1, got {alpha}")

    def fn(t):
        return np.abs(1.0 - t**alpha) ** (1.0 / alpha)

    if alpha == 1.0:
        dl = lambda t: -1.0 if t <= 1.0 else 1.0
        dr = lambda t: -1.0 if t < 1.0 else 1.0
    else:
        dl = dr = lambda t: _sgn(t) * t ** (alpha - 1.0) * np.abs(1.0 - t**alpha) ** (1.0 / alpha - 1.0)
    return Generator(
        name="matsushita",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=dl,
        deriv_right_fn=dr,
        value_at_zero=1.0,
        star_at_zero=1.0,
        deriv_at_zero=-1.0 if alpha == 1.0 else -INF,
        smooth=alpha < 1.0,
    )


def puri_vincze(alpha: float = 2.0) -> Generator:
    """|1 - u|^alpha / (u + 1)^(alpha - 1) for alpha >= 1; self-conjugate.
    alpha = 2 is half the triangular discrimination."""
    alpha = float(alpha)
    if not alpha >= 1.0:
        raise InputFormatError(f"puri-vincze needs alpha >= 1, got {alpha}")

    def fn(t):
        return np.abs(1.0 - t) ** alpha / (t + 1.0) ** (alpha - 1.0)

    if alpha == 1.0:
        dl = lambda t: -1.0 if t <= 1.0 else 1.0
        dr = lambda t: -1.0 if t < 1.0 else 1.0
    else:

        def deriv(t):
            a = alpha * _sgn(t) * np.abs(1.0 - t) ** (alpha - 1.0) * (t + 1.0) ** (1.0 - alpha)
            b = (1.0 - alpha) * np.abs(1.0 - t) ** alpha * (t + 1.0) ** (-alpha)
            return a + b

        dl = dr = deriv
    return Generator(
        name="puri-vincze",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=dl,
        deriv_right_fn=dr,
        value_at_zero=1.0,
        star_at_zero=1.0,
        deriv_at_zero=1.0 - 2.0 * alpha,
        smooth=alpha > 1.0,
    )


def arimoto(alpha: float = 2.0) -> Generator:
    """The Arimoto family; self-conjugate for every alpha.

    alpha = 1 and alpha = inf are the closures of the generic form:
    (1+u) ln 2 + u ln u - (1+u) ln(1+u), and |1-u|/2.
    """
    alpha = float(alpha)
    if math.isinf(alpha):
        return Generator(
            name="arimoto",
            params={"alpha": INF},
            fn=lambda t: 0.5 * np.abs(1.0 - t),
            deriv_left_fn=lambda t: -0.5 if t <= 1.0 else 0.5,
            deriv_right_fn=lambda t: -0.5 if t < 1.0 else 0.5,
            value_at_zero=0.5,
            star_at_zero=0.5,
            deriv_at_zero=-0.5,
            smooth=False,
        )
    if not alpha > 0.0:
        raise InputFormatError(f"arimoto needs alpha > 0 or alpha = inf, got {alpha}")
    if alpha == 1.0:
        ln2 = math.log(2.0)
        return Generator(
            name="arimoto",
            params={"alpha": 1.0},
            fn=lambda t: (1.0 + t) * ln2 + t * np.log(t) - (1.0 + t) * np.log(1.0 + t),
            deriv_left_fn=lambda t: np.log(2.0 * t / (1.0 + t)),
            deriv_right_fn=lambda t: np.log(2.0 * t / (1.0 + t)),
            value_at_zero=ln2,
            star_at_zero=ln2,
            deriv_at_zero=-INF,
        )

    c = alpha / (alpha - 1.0)
    k = 2.0 ** (1.0 / alpha - 1.0)

    def fn(t):
        return c * ((1.0 + t**alpha) ** (1.0 / alpha) - k * (1.0 + t))

    def deriv(t):
        return c * (t ** (alpha - 1.0) * (1.0 + t**alpha) ** (1.0 / alpha - 1.0) - k)

    return Generator(
        name="arimoto",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=c * (1.0 - k),
        star_at_zero=c * (1.0 - k),
        deriv_at_zero=-c * k if alpha > 1.0 else -INF,
    )


def kl_quantum() -> Generator:
    """u ln u: the relative-entropy generator."""
    return Generator(
        name="kl-quantum",
        fn=lambda t: t * np.log(t),
        deriv_left_fn=lambda t: np.log(t) + 1.0,
        deriv_right_fn=lambda t: np.log(t) + 1.0,
        value_at_zero=0.0,
        star_at_zero=INF,
        deriv_at_zero=-INF,
    )


def neg_log() -> Generator:
    """-ln u: the reversed relative-entropy generator."""
    return Generator(
        name="neg-log",
        fn=lambda t: -np.log(t),
        deriv_left_fn=lambda t: -1.0 / t,
        deriv_right_fn=lambda t: -1.0 / t,
        value_at_zero=INF,
        star_at_zero=0.0,
        deriv_at_zero=-INF,
    )


def tv() -> Generator:
    """|u - 1|: total variation."""
    return Generator(
        name="tv",
        fn=lambda t: np.abs(t - 1.0),
        deriv_left_fn=lambda t: -1.0 if t <= 1.0 else 1.0,
        deriv_right_fn=lambda t: -1.0 if t < 1.0 else 1.0,
        value_at_zero=1.0,
        star_at_zero=1.0,
        deriv_at_zero=-1.0,
        smooth=False,
    )


def chi2() -> Generator:
    """u^2 - 1: the chi-square generator."""
    return Generator(
        name="chi2",
        fn=lambda t: t * t - 1.0,
        deriv_left_fn=lambda t: 2.0 * t,
        deriv_right_fn=lambda t: 2.0 * t,
        value_at_zero=-1.0,
        star_at_zero=INF,
        deriv_at_zero=0.0,
    )


def tsallis(q: float = 0.5) -> Generator:
    """(1 - u^q)/(1 - q) for 0 < q < 1."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise InputFormatError(f"tsallis needs 0 < q < 1, got {q}")

    def fn(t):
        return (1.0 - t**q) / (1.0 - q)

    def deriv(t):
        return -q * t ** (q - 1.0) / (1.0 - q)

    return Generator(
        name="tsallis",
        params={"q": q},
        fn=fn,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=1.0 / (1.0 - q),
        star_at_zero=0.0,
        deriv_at_zero=-INF,
    )


def hellinger() -> Generator:
    """(1/2)(sqrt(u) - 1)^2: squared Hellinger generator; self-conjugate."""
    return Generator(
        name="hellinger",
        fn=lambda t: 0.5 * (np.sqrt(t) - 1.0) ** 2,
        deriv_left_fn=lambda t: 0.5 * (1.0 - 1.0 / np.sqrt(t)),
        deriv_right_fn=lambda t: 0.5 * (1.0 - 1.0 / np.sqrt(t)),
        value_at_zero=0.5,
        star_at_zero=0.5,
        deriv_at_zero=-INF,
    )


def inv_minus_one() -> Generator:
    """1/u - 1: the conjugate of the chi-square generator's direction swap."""
    return Generator(
        name="inv-minus-one",
        fn=lambda t: 1.0 / t - 1.0,
        deriv_left_fn=lambda t: -1.0 / (t * t),
        deriv_right_fn=lambda t: -1.0 / (t * t),
        value_at_zero=INF,
        star_at_zero=0.0,
        deriv_at_zero=-INF,
    )


# name -> (factory, allowed parameter names)
_FAMILIES = {
    "chi-alpha": (chi_alpha, ("alpha",)),
    "dichotomy": (dichotomy, ("alpha",)),
    "matsushita": (matsushita, ("alpha",)),
    "puri-vincze": (puri_vincze, ("alpha",)),
    "arimoto": (arimoto, ("alpha",)),
    "kl-quantum": (kl_quantum, ()),
    "neg-log": (neg_log, ()),
    "tv": (tv, ()),
    "chi2": (chi2, ()),
    "tsallis": (tsallis, ("q",)),
    "hellinger": (hellinger, ()),
    "inv-minus-one": (inv_minus_one, ()),
}

_ALIASES = {"kl": "kl-quantum"}

DEFAULT_SPECS = (
    "chi-alpha:alpha=2",
    "dichotomy:alpha=0.5",
    "matsushita:alpha=0.5",
    "puri-vincze:alpha=2",
    "arimoto:alpha=2",
    "kl-quantum",
    "neg-log",
    "tv",
    "chi2",
    "tsallis:q=0.5",
    "hellinger",
    "inv-minus-one",
)


def parse_generator_spec(spec: str) -> Generator:
    """Build a catalog generator from a spec string ``name[:param=value,...]``.

    Names are case-insensitive; underscores and hyphens are
    interchangeable.  "kl" is accepted for "kl-quantum".  Parameter
    values go through float(), so "inf" is a valid arimoto alpha.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise InputFormatError("generator spec must be a non-empty string")
    head, _, tail = spec.partition(":")
    name = head.strip().lower().replace("_", "-")
    name = _ALIASES.get(name, name)
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InputFormatError(f"unknown generator {head.strip()!r}; known: {known}")
    factory, allowed = _FAMILIES[name]
    kwargs = {}
    if tail.strip():
        for part in tail.split(","):
            key, eq, val = part.partition("=")
            key = key.strip().lower().replace("-", "_")
            if not eq or key not in allowed:
                raise InputFormatError(
                    f"bad parameter {part.strip()!r} for {name}; allowed: {allowed or '()'}"
                )
            try:
                kwargs[key] = float(val)
            except ValueError as exc:
                raise InputFormatError(f"non-numeric value in {part.strip()!r}") from exc
    return factory(**kwargs)


def default_catalog() -> GeneratorCatalog:
    """The twelve catalog families at their default parameters."""
    return GeneratorCatalog(tuple(parse_generator_spec(s) for s in DEFAULT_SPECS))


def conjugate(f: Generator) -> Generator:
    """The *-conjugate f*(u) = u f(1/u).

    Swaps value_at_zero and star_at_zero and mirrors the one-sided
    derivatives: (f*)'_(+/-)(u) = f(1/u) - (1/u) f'_(-/+)(1/u).
    """

    def fn(u):
        return u * f.fn(1.0 / u)

    def dl(u):
        inv = 1.0 / u
        return float(f.fn(inv)) - inv * f.deriv_right(inv)

    def dr(u):
        inv = 1.0 / u
        return float(f.fn(inv)) - inv * f.deriv_left(inv)

    # lim_{u->0+} (f*)'(u) = lim_{v->inf} [f(v) - v f'_-(v)], the tangent
    # intercept at 0, which is non-increasing in v.  Probe two decades.
    with np.errstate(over="ignore", invalid="ignore"):
        a = float(f.fn(1e9)) - 1e9 * f.deriv_left(1e9)
        b = float(f.fn(1e12)) - 1e12 * f.deriv_left(1e12)
    if math.isfinite(a) and math.isfinite(b) and abs(a - b) <= 1e-6 * max(1.0, abs(b)):
        d0 = b
    else:
        d0 = -INF
    return Generator(
        name=f"{f.name}*",
        params=dict(f.params),
        fn=fn,
        deriv_left_fn=dl,
        deriv_right_fn=dr,
        value_at_zero=f.star_at_zero,
        star_at_zero=f.value_at_zero,
        deriv_at_zero=d0,
        normalized=f.normalized,
        smooth=f.smooth,
        approx=f.approx,
    )


def shift(f: Generator, c: float) -> Generator:
    """f(u) + c (u - 1): same induced divergence, shifted generator."""
    c = float(c)
    if c == 0.0:
        return f
    return Generator(
        name=f"shift({f.spec},{_fmt_param(c)})",
        params={},
        fn=lambda t: f.fn(t) + c * (t - 1.0),
        deriv_left_fn=lambda t: f.deriv_left(t) + c,
        deriv_right_fn=lambda t: f.deriv_right(t) + c,
        value_at_zero=f.value_at_zero - c,
        star_at_zero=f.star_at_zero + c,
        deriv_at_zero=f.deriv_at_zero + c,
        normalized=f.normalized,
        smooth=f.smooth,
        approx=f.approx,
    )


def _check_window(r: float, R: float) -> tuple:
    r, R = float(r), float(R)
    if not (r < R and math.isfinite(r) and math.isfinite(R)):
        raise PreconditionError(f"need finite r < R, got r={r}, R={R}")
    return r, R


def secant_bound(f: Generator, r: float, R: float) -> float:
    """Chord value [(R-1) f(r) + (1-r) f(R)] / (R - r).

    Requires 0 <= r <= 1 <= R with r < R.  Returns +inf when f(r) is
    infinite (e.g. -ln at r = 0).
    """
    r, R = _check_window(r, R)
    if not (0.0 <= r <= 1.0 <= R):
        raise PreconditionError(f"need 0 <= r <= 1 <= R, got r={r}, R={R}")
    return secant_value(r, R, f(r), f(R))


def secant_value(r: float, R: float, fr: float, fR: float) -> float:
    """secant_bound from the values fr = f(r) and fR = f(R)."""
    if math.isinf(fr) or math.isinf(fR):
        return INF
    return ((R - 1.0) * fr + (1.0 - r) * fR) / (R - r)


def psi(f: Generator, t: float, r: float, R: float) -> float:
    """Double-slope gap (f(R)-f(t))/(R-t) - (f(t)-f(r))/(t-r), r < t < R."""
    r, R = _check_window(r, R)
    t = float(t)
    if not r < t < R:
        raise PreconditionError(f"need r < t < R, got t={t} outside ({r}, {R})")
    return psi_value(t, r, R, f(t), f(r), f(R))


def psi_value(t: float, r: float, R: float, ft: float, fr: float, fR: float) -> float:
    """psi from the values ft = f(t), fr = f(r) and fR = f(R)."""
    if math.isinf(fr) or math.isinf(fR) or math.isinf(ft):
        raise PreconditionError("psi needs f finite at r, t, R")
    return (fR - ft) / (R - t) - (ft - fr) / (t - r)


def psi_sup(f: Generator, r, R, ends=None):
    """Supremum of the double-slope gap over t in (r, R).

    The value is the max of the gap over a uniform 10001-point grid,
    pulled in from the endpoints by the fraction 1e-6 of the width,
    together with t = 1 when interior and the two endpoint limits

        Psi(r+) = slope(r, R) - f'_+(r),
        Psi(R-) = f'_-(R) - slope(r, R).

    Returns +inf when f(r) is infinite or a one-sided derivative at an
    endpoint diverges.  Never exceeds f'_-(R) - f'_+(r) when that gap is
    finite.

    r and R may also be equal-length arrays, a block of windows; the
    result is then an array with one value per window.  ends, when
    given, holds the scalar values f(r), f(R), f'_+(r) and f'_-(R), one
    sequence each, so a caller that already has them need not evaluate
    them again.

    Most of the grid is never evaluated, and the value is still the
    full grid's max bit for bit.  f is evaluated at every 100th grid
    point, at t = 1, and on the grid's first and last 100-step cells,
    where the edge pull-in makes rounding large.  For convex f, chord
    slopes are nondecreasing in each endpoint (the three-chord lemma),
    so on a cell [a, b] the gap is at most slope(b, R) - slope(r, a).
    A cell whose bound, padded for rounding (from the size of f and
    from the rounding noise the edge cells show), stays below the
    largest value found so far cannot hold the max and is skipped; the
    other cells are evaluated in full.  A window evaluates its whole grid
    when most cells stay live (chi2, whose gap is constant), and always
    for an approx generator, which need not be convex.
    """
    scalar = np.ndim(r) == 0 and np.ndim(R) == 0
    r, R = np.broadcast_arrays(np.atleast_1d(np.asarray(r, dtype=np.float64)),
                               np.atleast_1d(np.asarray(R, dtype=np.float64)))
    bad = ~((r < R) & np.isfinite(r) & np.isfinite(R))
    if bad.any():
        i = int(np.argmax(bad))
        _check_window(r[i], R[i])
    if ends is None:
        ends = ([f(x) for x in r], [f(x) for x in R],
                [f.deriv_right(x) for x in r], [f.deriv_left(x) for x in R])
    fr, fR, dr, dR = (np.asarray(e, dtype=np.float64).reshape(r.shape) for e in ends)

    out = np.full(r.shape, INF)
    ok = ~(np.isinf(fr) | np.isinf(fR) | (dr == -INF) | (dR == INF))
    if ok.any():
        out[ok] = _PsiGrid(r[ok], R[ok], fr[ok], fR[ok], dr[ok], dR[ok]).sup(f)
    return float(out[0]) if scalar else out


def _index(*parts) -> np.ndarray:
    idx = np.concatenate(parts).astype(np.float64)
    idx.flags.writeable = False
    return idx


# Grid indices psi_sup evaluates first, in grid order: the whole first
# cell, the inner cell edges, the whole last cell.
_PROBE_IDX = _index(np.arange(0, PSI_CELL + 1), np.arange(2 * PSI_CELL, PSI_STEPS - PSI_CELL, PSI_CELL),
                    np.arange(PSI_STEPS - PSI_CELL, PSI_STEPS + 1))
_FIRST_CELL = slice(0, PSI_CELL + 1)  # columns of _PROBE_IDX
_LAST_CELL = slice(-PSI_CELL - 1, None)
_INNER_EDGES = slice(PSI_CELL, PSI_CELL + PSI_STEPS // PSI_CELL - 1)
_CELL_IDX = _index(np.arange(1, PSI_CELL))


class _PsiGrid:
    """psi_sup's grids for a block of windows, formed point by point.

    Point i of a window is i * step + start and its last point is stop,
    with (i / steps) * delta + start where the step is zero: exactly how
    np.linspace(start, stop, PSI_GRID_POINTS) forms its points.  Window
    data is indexed by w, an int or a column of window numbers, which
    broadcasts against a row of grid indices.
    """

    def __init__(self, r, R, fr, fR, dr, dR):
        slope = (fR - fr) / (R - r)
        self.lim_r, self.lim_R = slope - dr, dR - slope
        h = (R - r) * PSI_EDGE_FRACTION
        start, stop = r + h, R - h
        if (start <= 0.0).any():
            raise PreconditionError("array evaluation requires strictly positive points")
        delta = stop - start
        self.step = delta / PSI_STEPS
        self.interior = (r < 1.0) & (1.0 < R)
        self.scale = np.maximum(np.maximum(np.abs(fr), np.abs(fR)), 1.0)
        self.r, self.R, self.fr, self.fR = r, R, fr, fR
        self.start, self.stop, self.delta = start, stop, delta

    def points(self, w, idx):
        """Grid points idx of windows w."""
        step, start = self.step[w], self.start[w]
        if np.all(step != 0.0):
            t = idx * step
            t += start
        else:
            t = np.where(step != 0.0, idx * step + start, idx / PSI_STEPS * self.delta[w] + start)
        if idx.ndim == 1 and idx[-1] == PSI_STEPS:
            t[..., -1:] = self.stop[w]
        return t

    def gaps(self, w, t, ft):
        """The double-slope gap at points t of windows w, where f(t) = ft:
        (f(R) - ft) / (R - t) - (ft - f(r)) / (t - r), with few temporaries."""
        gaps = self.fR[w] - ft
        gaps /= self.R[w] - t
        left = ft - self.fr[w]
        left /= t - self.r[w]
        gaps -= left
        return gaps

    def full(self, f, w: int) -> float:
        """Window w's value from its whole grid."""
        ts = self.points(w, np.arange(PSI_GRID_POINTS, dtype=np.float64))
        if self.interior[w]:
            ts = np.append(ts, 1.0)
        gaps = self.gaps(w, ts, np.asarray(f.fn(ts), dtype=np.float64))
        best = float(gaps.max())
        if not math.isfinite(best):  # below a width of ~1e-10 an endpoint lands on the grid: 0/0
            best = float(np.max(gaps, where=np.isfinite(gaps), initial=-INF))
        return max(best, float(self.lim_r[w]), float(self.lim_R[w]))

    def sup(self, f) -> np.ndarray:
        n = self.lim_r.size
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if f.approx:
                return np.array([self.full(f, w) for w in range(n)])
            rows = np.arange(n)[:, np.newaxis]
            # t = 1 first (masked out where it is not interior), then the probe.
            t = np.concatenate([np.ones((n, 1)), self.points(rows, _PROBE_IDX)], axis=1)
            ft = np.asarray(f.fn(t), dtype=np.float64)
            gaps = self.gaps(rows, t, ft)
            gaps[~self.interior, 0] = -INF
            best = np.where(np.isfinite(gaps), gaps, -INF).max(axis=1)
            found = np.fmax(np.fmax(best, self.lim_r), self.lim_R)[:, np.newaxis]

            # Bound the cells between the first and the last.
            t, ft = t[:, 1:], ft[:, 1:]
            edge, fedge = t[:, _INNER_EDGES], ft[:, _INNER_EDGES]
            a, b, fa, fb = edge[:, :-1], edge[:, 1:], fedge[:, :-1], fedge[:, 1:]
            to_R, from_r = self.R[rows] - b, a - self.r[rows]
            bound = (self.fR[rows] - fb) / to_R - (fa - self.fr[rows]) / from_r
            # Pad for rounding: f-values of size `scale` err by about PSI_PAD
            # times it, and each slope divides that by a distance to an end.
            # A formula that cancels more shows it in the edge cells: f is
            # convex, so a negative second difference there is rounding.
            scale = np.maximum(np.abs(ft).max(axis=1), self.scale)
            noise = -np.minimum(np.diff(ft[:, _FIRST_CELL], 2).min(axis=1),
                                np.diff(ft[:, _LAST_CELL], 2).min(axis=1))
            err = (PSI_PAD * scale + PSI_NOISE * np.maximum(noise, 0.0))[:, np.newaxis]
            top = bound + err * (1.0 / to_R + 1.0 / from_r) + PSI_PAD * np.abs(bound)
            live = ~(np.isfinite(top) & (top < found))
            whole = live.sum(axis=1) > live.shape[1] // 2

            w, j = np.nonzero(live & ~whole[:, np.newaxis])
            if w.size:
                w = w[:, np.newaxis]
                pts = self.points(w, (PSI_CELL * (j + 1.0))[:, np.newaxis] + _CELL_IDX)
                cell = self.gaps(w, pts, np.asarray(f.fn(pts), dtype=np.float64))
                np.maximum.at(best, w[:, 0], np.where(np.isfinite(cell), cell, -INF).max(axis=1))

            out = np.where(self.lim_r > best, self.lim_r, best)
            out = np.where(self.lim_R > out, self.lim_R, out)
            for i in np.flatnonzero(whole):
                out[i] = self.full(f, i)
        return out


def jensen_gap_bound(f: Generator, r: float, R: float) -> float:
    """Twice the midpoint Jensen gap: 2[(f(r)+f(R))/2 - f((r+R)/2)].

    Returns +inf when f(r) or f(R) is infinite.
    """
    r, R = _check_window(r, R)
    fr = f(r)
    fR = f(R)
    if math.isinf(fr) or math.isinf(fR):
        return INF
    return jensen_gap_value(fr, fR, f(0.5 * (r + R)))


def jensen_gap_value(fr: float, fR: float, fmid: float) -> float:
    """jensen_gap_bound from f(r), f(R) and f((r + R)/2)."""
    if math.isinf(fr) or math.isinf(fR):
        return INF
    return 2.0 * (0.5 * (fr + fR) - fmid)


def from_callable(name: str, fn, *, value_at_zero: float = None,
                  star_at_zero: float = None, deriv_at_zero: float = None,
                  smooth: bool = True, params: dict = None) -> Generator:
    """Wrap a bare convex callable as a Generator.

    One-sided derivatives come from one-sided finite differences with
    step 1e-7; limit metadata not supplied explicitly is estimated from
    probe points.  The result is flagged approx.
    """

    def ev(t):
        if isinstance(t, np.ndarray):
            flat = np.asarray([float(fn(x)) for x in t.ravel()], dtype=np.float64)
            return flat.reshape(t.shape)
        return float(fn(t))

    def dl(t):
        h = np.minimum(FD_STEP, 0.5 * np.asarray(t, dtype=np.float64))
        out = (ev(t) - ev(t - h)) / h
        return out if isinstance(t, np.ndarray) else float(out)

    def dr(t):
        return (ev(t + FD_STEP) - ev(t)) / FD_STEP

    if value_at_zero is None:
        a, b = float(fn(1e-8)), float(fn(1e-10))
        value_at_zero = b if abs(a - b) <= 1e-4 * max(1.0, abs(a), abs(b)) else INF
    if star_at_zero is None:
        a, b = float(fn(1e8)) / 1e8, float(fn(1e10)) / 1e10
        star_at_zero = b if abs(a - b) <= 1e-4 * max(1.0, abs(a), abs(b)) else INF
    if deriv_at_zero is None:
        a, b = dr(1e-6), dr(1e-8)
        deriv_at_zero = b if abs(a - b) <= 1e-4 * max(1.0, abs(a), abs(b)) else -INF
    return Generator(
        name=name,
        params=dict(params or {}),
        fn=ev,
        deriv_left_fn=dl,
        deriv_right_fn=dr,
        value_at_zero=float(value_at_zero),
        star_at_zero=float(star_at_zero),
        deriv_at_zero=float(deriv_at_zero),
        normalized=abs(float(fn(1.0))) <= 1e-14,
        smooth=smooth,
        approx=True,
    )

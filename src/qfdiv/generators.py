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
    "psi_sups",
    "jensen_gap_bound",
    "from_callable",
    "parse_generator_spec",
    "default_catalog",
]

INF = math.inf

PSI_GRID_POINTS = 10001
PSI_STEPS = PSI_GRID_POINTS - 1
PSI_EDGE_FRACTION = 1e-6
# psi_sups bounds its grid cell by cell; a cell spans this many grid steps.
PSI_CELL = 100
# Rounding pad of a cell bound, relative to the size of f on the window
# (at least 1), about 4e6 ulps.  The catalog's formulas cancel inside
# (dichotomy at alpha = 0.01 loses a factor ~100 to it), and the pad
# still sits far below the spread of the cell bounds.
PSI_PAD = 2.0**-30
# A negative second difference -n of f in the edge cells means f-values err
# by at least n/4; psi_sups pads for PSI_NOISE / 4 times that error.
PSI_NOISE = 16.0

# The largest stacked temporary, in points, of psi_sups and weighted_sums.
STACK_POINTS = 2**14

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


def _kink(c: float) -> tuple:
    """The one-sided derivatives of c |t - 1| at a scalar t."""
    return (lambda t: -c if t <= 1.0 else c), (lambda t: -c if t < 1.0 else c)


def chi_alpha(alpha: float = 2.0) -> Generator:
    """|u - 1|^alpha for alpha >= 1; alpha = 1 is total variation,
    alpha = 2 is the chi-square generator shifted to pass through 0."""
    alpha = float(alpha)
    if not alpha >= 1.0:
        raise InputFormatError(f"chi-alpha needs alpha >= 1, got {alpha}")

    def fn(t):
        return np.abs(t - 1.0) ** alpha

    deriv = lambda t: alpha * _sgn(t) * np.abs(t - 1.0) ** (alpha - 1.0)
    dl, dr = _kink(1.0) if alpha == 1.0 else (deriv, deriv)
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

    deriv = lambda t: _sgn(t) * t ** (alpha - 1.0) * np.abs(1.0 - t**alpha) ** (1.0 / alpha - 1.0)
    dl, dr = _kink(1.0) if alpha == 1.0 else (deriv, deriv)
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

    def deriv(t):
        a = alpha * _sgn(t) * np.abs(1.0 - t) ** (alpha - 1.0) * (t + 1.0) ** (1.0 - alpha)
        b = (1.0 - alpha) * np.abs(1.0 - t) ** alpha * (t + 1.0) ** (-alpha)
        return a + b

    dl, dr = _kink(1.0) if alpha == 1.0 else (deriv, deriv)
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
            deriv_left_fn=_kink(0.5)[0],
            deriv_right_fn=_kink(0.5)[1],
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
        deriv_left_fn=_kink(1.0)[0],
        deriv_right_fn=_kink(1.0)[1],
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

    # Like every generator's one-sided derivatives, these take scalars or
    # arrays of positive points.
    def dl(u):
        inv = 1.0 / u
        return f.fn(inv) - inv * f.deriv_right_fn(inv)

    def dr(u):
        inv = 1.0 / u
        return f.fn(inv) - inv * f.deriv_left_fn(inv)

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
        deriv_left_fn=lambda t: f.deriv_left_fn(t) + c,
        deriv_right_fn=lambda t: f.deriv_right_fn(t) + c,
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


def secant_value(r, R, fr, fR):
    """secant_bound from fr = f(r) and fR = f(R), elementwise on arrays."""
    value = np.where(np.isinf(fr) | np.isinf(fR), INF, ((R - 1.0) * fr + (1.0 - r) * fR) / (R - r))
    return value if value.ndim else float(value)


def psi(f: Generator, t: float, r: float, R: float) -> float:
    """Double-slope gap (f(R)-f(t))/(R-t) - (f(t)-f(r))/(t-r), r < t < R."""
    r, R = _check_window(r, R)
    t = float(t)
    if not r < t < R:
        raise PreconditionError(f"need r < t < R, got t={t} outside ({r}, {R})")
    return psi_value(t, r, R, f(t), f(r), f(R))


def psi_value(t, r, R, ft, fr, fR):
    """psi from ft = f(t), fr = f(r) and fR = f(R), elementwise on arrays."""
    if np.isinf(fr).any() or np.isinf(fR).any() or np.isinf(ft).any():
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
    finite.  r and R may also be equal-length arrays, a block of windows,
    giving one value per window.  ends, when given, holds the scalar
    values f(r), f(R), f'_+(r) and f'_-(R), one sequence each.  This is
    psi_sups with the one generator f.
    """
    scalar = np.ndim(r) == 0 and np.ndim(R) == 0
    out = psi_sups((f,), r, R, None if ends is None else [np.reshape(e, (-1, 1)) for e in ends])[:, 0]
    return float(out[0]) if scalar else out


def psi_sups(generators, r, R, ends=None) -> np.ndarray:
    """psi_sup of each generator on each window, a (windows, generators)
    array; ends, when given, holds f(r), f(R), f'_+(r) and f'_-(R) as
    (windows, generators) arrays of scalar-call values.

    Most of the grid is never evaluated, and each value is still the full
    grid's max bit for bit.  f is evaluated at every 100th grid point, at
    t = 1, and on the first and last 100-step cells, where the edge
    pull-in makes rounding large.  For convex f, chord slopes are
    nondecreasing in each endpoint (the three-chord lemma), so on a cell
    [a, b] the gap is at most slope(b, R) - slope(r, a).  A cell whose
    bound, padded for rounding, stays below the largest value found so
    far is skipped; the others are evaluated in full.  An entry takes its
    whole grid when most cells stay live (chi2, whose gap is constant),
    and always for an approx generator, which need not be convex.  All
    entries are probed, and their live cells evaluated, together: in chunks
    of about STACK_POINTS points, one f.fn call per generator and chunk.
    """
    r, R = np.broadcast_arrays(np.atleast_1d(np.asarray(r, dtype=np.float64)),
                               np.atleast_1d(np.asarray(R, dtype=np.float64)))
    bad = ~((r < R) & np.isfinite(r) & np.isfinite(R))
    if bad.any():
        i = int(np.argmax(bad))
        _check_window(r[i], R[i])
    if ends is None:
        ends = [[[end(f, x) for f in generators] for x in xs] for end, xs in (
            (Generator.__call__, r), (Generator.__call__, R), (Generator.deriv_right, r),
            (Generator.deriv_left, R))]
    fr, fR, dr, dR = (np.asarray(e, dtype=np.float64).reshape(r.size, len(generators)) for e in ends)

    out = np.full(fr.shape, INF)
    # The entries with finite ends, generator by generator.
    gen, win = np.nonzero((~(np.isinf(fr) | np.isinf(fR) | (dr == -INF) | (dR == INF))).T)
    if gen.size:
        at = (win, gen)
        out[at] = _PsiGrid(generators, gen, win, r[win], R[win], fr[at], fR[at], dr[at], dR[at]).sup()
    return out


def _index(*parts) -> np.ndarray:
    idx = np.concatenate(parts).astype(np.float64)
    idx.flags.writeable = False
    return idx


# Grid indices psi_sups evaluates first, in grid order: the whole first
# cell, the inner cell edges, the whole last cell.
_PROBE_IDX = _index(np.arange(0, PSI_CELL + 1), np.arange(2 * PSI_CELL, PSI_STEPS - PSI_CELL, PSI_CELL),
                    np.arange(PSI_STEPS - PSI_CELL, PSI_STEPS + 1))
_FIRST_CELL = slice(0, PSI_CELL + 1)  # columns of _PROBE_IDX
_LAST_CELL = slice(-PSI_CELL - 1, None)
_INNER_EDGES = slice(PSI_CELL, PSI_CELL + PSI_STEPS // PSI_CELL - 1)
_CELL_IDX = _index(np.arange(1, PSI_CELL))
_GRID_IDX = _index(np.arange(PSI_GRID_POINTS))


def _gaps(ft, fr, fR, to_R, from_r):
    """The double-slope gap (fR - ft) / to_R - (ft - fr) / from_r, with few
    temporaries."""
    gaps = fR - ft
    gaps /= to_R
    left = ft - fr
    left /= from_r
    gaps -= left
    return gaps


class _PsiGrid:
    """psi_sups' grids for a block of entries, formed point by point.

    Point i of an entry is i * step + start and its last point is stop,
    with (i / steps) * delta + start where the step is zero: exactly how
    np.linspace(start, stop, PSI_GRID_POINTS) forms its points.  Entry
    data is indexed by w, an int or a column of entry numbers, which
    broadcasts against a row of grid indices.  gen and win number each
    entry's generator and window; the entries are sorted by generator.
    """

    def __init__(self, generators, gen, win, r, R, fr, fR, dr, dR):
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
        self.generators, self.gen, self.win = generators, gen, win
        self.r, self.R, self.fr, self.fR = r, R, fr, fR
        self.start, self.stop, self.delta = start, stop, delta

    def points(self, w, idx):
        """Grid points idx of entries w."""
        step, start = self.step[w], self.start[w]
        if np.all(step != 0.0):
            t = idx * step
            t += start
        else:
            t = np.where(step != 0.0, idx * step + start, idx / PSI_STEPS * self.delta[w] + start)
        if idx.ndim == 1 and idx[-1] == PSI_STEPS:
            t[..., -1:] = self.stop[w]
        return t

    def evaluate(self, w, t) -> tuple:
        """f and the gap at points t of the entries of column w (sorted), with
        one f.fn call per generator, on its rows."""
        ft, gen = np.empty_like(t), self.gen[w[:, 0]]
        cuts = [0, *(np.flatnonzero(np.diff(gen)) + 1).tolist(), len(gen)]
        for a, b in zip(cuts, cuts[1:]):
            ft[a:b] = self.generators[gen[a]].fn(t[a:b])
        return ft, _gaps(ft, self.fr[w], self.fR[w], self.R[w] - t, t - self.r[w])

    def full(self, entries: list) -> list:
        """The values of `entries`, all of one window, from its whole grid (and
        R - t, t - r), formed once for them all."""
        w = entries[0]
        ts = self.points(w, _GRID_IDX)
        if self.interior[w]:
            ts = np.append(ts, 1.0)
        to_R, from_r, out = self.R[w] - ts, ts - self.r[w], []
        for e in entries:
            gaps = _gaps(np.asarray(self.generators[self.gen[e]].fn(ts), dtype=np.float64),
                         self.fr[e], self.fR[e], to_R, from_r)
            best = float(gaps.max())
            if not math.isfinite(best):  # below a width of ~1e-10 an endpoint lands on the grid: 0/0
                best = float(np.max(gaps, where=np.isfinite(gaps), initial=-INF))
            out.append(max(best, float(self.lim_r[e]), float(self.lim_R[e])))
        return out

    def probe(self, rows):
        """Probe the entries `rows` (sorted): their best value so far, whether
        each needs its whole grid, and their live cells (entry, cell number)."""
        col = rows[:, np.newaxis]
        # t = 1 first (masked out where it is not interior), then the probe.
        t = np.concatenate([np.ones((rows.size, 1)), self.points(col, _PROBE_IDX)], axis=1)
        ft, gaps = self.evaluate(col, t)
        gaps[~self.interior[rows], 0] = -INF
        best = np.where(np.isfinite(gaps), gaps, -INF).max(axis=1)
        found = np.fmax(np.fmax(best, self.lim_r[rows]), self.lim_R[rows])[:, np.newaxis]

        # Bound the cells between the first and the last.
        t, ft = t[:, 1:], ft[:, 1:]
        edge, fedge = t[:, _INNER_EDGES], ft[:, _INNER_EDGES]
        a, b, fa, fb = edge[:, :-1], edge[:, 1:], fedge[:, :-1], fedge[:, 1:]
        to_R, from_r = self.R[col] - b, a - self.r[col]
        bound = (self.fR[col] - fb) / to_R - (fa - self.fr[col]) / from_r
        # Pad for rounding: f-values of size `scale` err by about PSI_PAD
        # times it, and each slope divides that by a distance to an end.
        # A formula that cancels more shows it in the edge cells: f is
        # convex, so a negative second difference there is rounding.
        scale = np.maximum(np.abs(ft).max(axis=1), self.scale[rows])
        noise = -np.minimum(np.diff(ft[:, _FIRST_CELL], 2).min(axis=1),
                            np.diff(ft[:, _LAST_CELL], 2).min(axis=1))
        err = (PSI_PAD * scale + PSI_NOISE * np.maximum(noise, 0.0))[:, np.newaxis]
        top = bound + err * (1.0 / to_R + 1.0 / from_r) + PSI_PAD * np.abs(bound)
        live = ~(np.isfinite(top) & (top < found))
        whole = live.sum(axis=1) > live.shape[1] // 2
        w, j = np.nonzero(live & ~whole[:, np.newaxis])
        return best, whole, rows[w], j

    def sup(self) -> np.ndarray:
        """The value of every entry."""
        best = np.full(self.gen.size, -INF)
        whole = np.array([f.approx for f in self.generators])[self.gen]
        probed, cells = np.flatnonzero(~whole), []
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            step = max(1, STACK_POINTS // (_PROBE_IDX.size + 1))
            for lo in range(0, probed.size, step):
                rows = probed[lo:lo + step]
                best[rows], whole[rows], *live = self.probe(rows)
                cells.append(live)

            w, j = (np.concatenate(x) for x in zip(*cells)) if cells else ((), ())
            step = STACK_POINTS // _CELL_IDX.size
            for lo in range(0, len(w), step):
                col, first = w[lo:lo + step, np.newaxis], PSI_CELL * (j[lo:lo + step, np.newaxis] + 1.0)
                _, cell = self.evaluate(col, self.points(col, first + _CELL_IDX))
                np.maximum.at(best, col[:, 0], np.where(np.isfinite(cell), cell, -INF).max(axis=1))

            out = np.where(self.lim_r > best, self.lim_r, best)
            out = np.where(self.lim_R > out, self.lim_R, out)
            windows = {}
            for e in np.flatnonzero(whole).tolist():
                windows.setdefault(self.win[e], []).append(e)
            for entries in windows.values():
                out[entries] = self.full(entries)
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


def jensen_gap_value(fr, fR, fmid):
    """jensen_gap_bound from f(r), f(R) and f((r + R)/2), elementwise on
    arrays."""
    value = np.where(np.isinf(fr) | np.isinf(fR), INF, 2.0 * (0.5 * (fr + fR) - fmid))
    return value if value.ndim else float(value)


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

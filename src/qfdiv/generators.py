"""Convex generator functions and their scalar bound ingredients.

Each divergence is induced by a convex function f on [0, infinity) with
f(1) = 0.  A Generator bundles the function with the analytic metadata
the bound machinery needs: the limit f(0+), the conjugate's limit
f*(0+) = lim f(v)/v, closed-form one-sided derivatives, and the limit
of f' at 0+.  The module also provides the scalar bound ingredients:
secant (chord) values, the double-slope gap Psi, its supremum over an
interval, and the midpoint Jensen gap.

Catalog families (all normalized to f(1) = 0):

    chi_alpha      |u - 1|^alpha, finite alpha >= 1
    dichotomy      [alpha u + 1 - alpha - u^alpha] / (alpha (1 - alpha)), finite alpha
    matsushita     |1 - u^alpha|^(1/alpha), 0 < alpha <= 1
    puri_vincze    |1 - u|^alpha / (u + 1)^(alpha - 1), finite alpha >= 1
    arimoto        (alpha/(alpha-1)) [(1 + u^alpha)^(1/alpha) - 2^(1/alpha - 1) (1 + u)]
    kl_quantum     u ln u
    neg_log        -ln u
    tv             |u - 1|
    chi2           u^2 - 1
    tsallis        (1 - u^q) / (1 - q), 0 < q < 1
    hellinger      (1/2)(sqrt(u) - 1)^2
    inv_minus_one  1/u - 1

Generators are immutable, and evaluation is pure.  Points reach f and
its derivatives only through _at, for one generator or a block's many:
a zero point takes f(0+) or f'(0+), and f'_-(0) or a negative point raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, PreconditionError
from .hermitian import _real

__all__ = [
    "Generator",
    "conjugate",
    "shift",
    "secant_bound",
    "psi",
    "psi_sup",
    "jensen_gap_bound",
    "from_callable",
    "parse_generator_spec",
    "default_catalog",
    "DEFAULT_SPECS",
]

INF = math.inf

PSI_GRID_POINTS = 10001
PSI_EDGE_FRACTION = 1e-6

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
        quadratic: the t^2 coefficient a of a quadratic f, whose Psi is
            a (R - r) on every window; None for every other f.
        psi_peak: where the double-slope gap Psi attains its sup on every
            window (psi_sups): "r" at r+, "1" at t = 1, "R" at R-; None
            where that is not known, and psi_sups takes a grid.
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
    quadratic: float = None
    psi_peak: str = None

    @functools.cached_property
    def spec(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"

    @functools.cached_property
    def value_at_one(self) -> float:
        """f(1), evaluated once."""
        return self(1.0)

    def __repr__(self) -> str:
        return f"Generator({self.spec!r})"

    def __call__(self, t):
        return _at((self.fn,), t, (self.value_at_zero,), _NEGATIVE)[0]

    def deriv_left(self, t: float) -> float:
        return _at((self.deriv_left_fn,), t, None, "left derivative needs t > 0")[0]

    def deriv_right(self, t: float) -> float:
        return _at((self.deriv_right_fn,), t, (self.deriv_at_zero,), "right derivative needs t >= 0")[0]


_NEGATIVE = "generator argument must be >= 0, got {t}"


def _at(fns, t, at_zero, need: str):
    """Each function of fns at t, a number or an ndarray, evaluated the same
    for both and as a block evaluates it: a value that diverges (1/t^2
    underflowing, t^-0.99 overflowing) is infinite.  The one rule for 0: a
    zero point takes the function's entry of at_zero, or, if that is None,
    is the error `need` (with t) that a negative one is.  Row k, for fns[k],
    is an array of t's shape or a float for a number."""
    x = np.asarray(t if isinstance(t, np.ndarray) else [float(t)], dtype=np.float64)
    zero = x <= 0.0
    if edge := bool(zero.any()):  # one check when every point is positive
        bad = zero if at_zero is None else x < 0.0
        if bad.any():
            raise PreconditionError(need.format(t=float(x[bad][0])))
        x = np.where(zero, 1.0, x)
    out = np.empty((len(fns), *x.shape))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k, fn in enumerate(fns):
            out[k] = fn(x)
    if edge:
        out[:, zero] = np.reshape(at_zero, (-1, 1))
    return out if isinstance(t, np.ndarray) else out[:, 0].tolist()


def _generators(generators) -> tuple:
    """generators as a tuple; an InputFormatError unless each is a Generator."""
    generators = tuple(generators)
    if bad := [f for f in generators if not isinstance(f, Generator)]:
        raise InputFormatError(f"generators must hold Generator instances, got {bad[0]!r}")
    return generators


def _sgn(t):
    return np.sign(t - 1.0)


def _abs_gap(name: str, params: dict, c: float) -> Generator:
    """c |t - 1|, to which tv (c = 1), chi-alpha, matsushita and puri-vincze
    at alpha = 1 (c = 1) and arimoto at alpha = inf (c = 1/2) reduce exactly:
    t**1.0 = t, x**1.0 = x and (t + 1)**0.0 = 1.  Psi rises up to t = 1 and
    falls after it, so it peaks there."""
    return Generator(
        name=name,
        params=params,
        fn=lambda t: c * np.abs(t - 1.0),
        deriv_left_fn=lambda t: np.where(t <= 1.0, -c, c),
        deriv_right_fn=lambda t: np.where(t < 1.0, -c, c),
        value_at_zero=c,
        star_at_zero=c,
        deriv_at_zero=-c,
        smooth=False,
        psi_peak="1",
    )


def chi_alpha(alpha: float = 2.0) -> Generator:
    """|u - 1|^alpha for alpha >= 1; alpha = 1 is total variation,
    alpha = 2 is the chi-square generator shifted to pass through 0."""
    alpha = _real(alpha, "chi-alpha alpha")
    if not 1.0 <= alpha < INF:
        raise InputFormatError(f"chi-alpha needs finite alpha >= 1, got {alpha}")
    if alpha == 1.0:
        return _abs_gap("chi-alpha", {"alpha": alpha}, 1.0)

    def fn(t):
        return np.abs(t - 1.0) ** alpha

    deriv = lambda t: alpha * _sgn(t) * np.abs(t - 1.0) ** (alpha - 1.0)
    return Generator(
        name="chi-alpha",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=1.0,
        star_at_zero=INF,
        deriv_at_zero=-alpha,
        quadratic=1.0 if alpha == 2.0 else None,
        psi_peak="r" if alpha == 2.0 else None,
    )


def dichotomy(alpha: float = 0.5) -> Generator:
    """The one-parameter family spanning u - 1 - ln u (alpha = 0),
    2(sqrt(u) - 1)^2 (alpha = 1/2), and 1 - u + u ln u (alpha = 1)."""
    alpha = _real(alpha, "dichotomy alpha")
    if not math.isfinite(alpha):
        raise InputFormatError(f"dichotomy needs finite alpha, got {alpha}")
    if alpha == 0.0:
        fn, deriv = (lambda t: t - 1.0 - np.log(t)), (lambda t: 1.0 - 1.0 / t)
    elif alpha == 1.0:
        fn, deriv = (lambda t: 1.0 - t + t * np.log(t)), np.log
    else:
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
        quadratic=0.5 if alpha == 2.0 else None,  # (t - 1)^2 / 2
        psi_peak="r" if alpha <= 2.0 else "R",  # f'' = t^(alpha - 2)
    )


def matsushita(alpha: float = 0.5) -> Generator:
    """|1 - u^alpha|^(1/alpha) for 0 < alpha <= 1; self-conjugate."""
    alpha = _real(alpha, "matsushita alpha")
    if not 0.0 < alpha <= 1.0:
        raise InputFormatError(f"matsushita needs 0 < alpha <= 1, got {alpha}")
    if alpha == 1.0:
        return _abs_gap("matsushita", {"alpha": alpha}, 1.0)

    def fn(t):
        return np.abs(1.0 - t**alpha) ** (1.0 / alpha)

    deriv = lambda t: _sgn(t) * t ** (alpha - 1.0) * np.abs(1.0 - t**alpha) ** (1.0 / alpha - 1.0)
    return Generator(
        name="matsushita",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=1.0,
        star_at_zero=1.0,
        deriv_at_zero=-INF,
        psi_peak="r" if alpha == 0.5 else None,  # (1 - sqrt(t))^2
    )


def puri_vincze(alpha: float = 2.0) -> Generator:
    """|1 - u|^alpha / (u + 1)^(alpha - 1) for alpha >= 1; self-conjugate.
    alpha = 2 is half the triangular discrimination."""
    alpha = _real(alpha, "puri-vincze alpha")
    if not 1.0 <= alpha < INF:
        raise InputFormatError(f"puri-vincze needs finite alpha >= 1, got {alpha}")
    if alpha == 1.0:
        return _abs_gap("puri-vincze", {"alpha": alpha}, 1.0)

    def fn(t):
        return np.abs(1.0 - t) ** alpha / (t + 1.0) ** (alpha - 1.0)

    def deriv(t):
        a = alpha * _sgn(t) * np.abs(1.0 - t) ** (alpha - 1.0) * (t + 1.0) ** (1.0 - alpha)
        b = (1.0 - alpha) * np.abs(1.0 - t) ** alpha * (t + 1.0) ** (-alpha)
        return a + b

    return Generator(
        name="puri-vincze",
        params={"alpha": alpha},
        fn=fn,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=1.0,
        star_at_zero=1.0,
        deriv_at_zero=1.0 - 2.0 * alpha,
        psi_peak="r" if alpha == 2.0 else None,  # f'' = 8 / (t + 1)^3
    )


def arimoto(alpha: float = 2.0) -> Generator:
    """The Arimoto family; self-conjugate for every alpha.

    alpha = 1 and alpha = inf are the closures of the generic form:
    (1+u) ln 2 + u ln u - (1+u) ln(1+u), and |1-u|/2.
    """
    alpha = _real(alpha, "arimoto alpha")
    if alpha == INF:
        return _abs_gap("arimoto", {"alpha": INF}, 0.5)
    if not alpha > 0.0:
        raise InputFormatError(f"arimoto needs alpha > 0 or alpha = inf, got {alpha}")
    if not 1.0 / alpha < 1024.0:  # 2 ** (1/alpha), f(1)'s first term, would overflow
        raise InputFormatError(f"arimoto needs alpha > 1/1024, where 2**(1/alpha) is finite, got {alpha}")
    if alpha == 1.0:
        ln2 = zero = math.log(2.0)
        fn = lambda t: (1.0 + t) * ln2 + t * np.log(t) - (1.0 + t) * np.log(1.0 + t)
        deriv, deriv_at_zero = (lambda t: np.log(2.0 * t / (1.0 + t))), -INF
    else:
        c = alpha / (alpha - 1.0)
        k = 2.0 ** (1.0 / alpha - 1.0)
        zero, deriv_at_zero = c * (1.0 - k), -c * k if alpha > 1.0 else -INF

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
        value_at_zero=zero,
        star_at_zero=zero,
        deriv_at_zero=deriv_at_zero,
        # f'' is t^(alpha - 2) (1 + t^alpha)^(1/alpha - 2) times a positive
        # constant, nonincreasing for alpha <= 2.
        psi_peak="r" if alpha <= 2.0 else None,
    )


def kl_quantum() -> Generator:
    """u ln u: the relative-entropy generator."""
    deriv = lambda t: np.log(t) + 1.0
    return Generator(
        name="kl-quantum",
        fn=lambda t: t * np.log(t),
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=0.0,
        star_at_zero=INF,
        deriv_at_zero=-INF,
        psi_peak="r",
    )


def neg_log() -> Generator:
    """-ln u: the reversed relative-entropy generator."""
    deriv = lambda t: -1.0 / t
    return Generator(
        name="neg-log",
        fn=lambda t: -np.log(t),
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=INF,
        star_at_zero=0.0,
        deriv_at_zero=-INF,
        psi_peak="r",
    )


def tv() -> Generator:
    """|u - 1|: total variation."""
    return _abs_gap("tv", {}, 1.0)


def chi2() -> Generator:
    """u^2 - 1: the chi-square generator."""
    deriv = lambda t: 2.0 * t
    return Generator(
        name="chi2",
        fn=lambda t: t * t - 1.0,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=-1.0,
        star_at_zero=INF,
        deriv_at_zero=0.0,
        quadratic=1.0,
        psi_peak="r",
    )


def tsallis(q: float = 0.5) -> Generator:
    """(1 - u^q)/(1 - q) for 0 < q < 1."""
    q = _real(q, "tsallis q")
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
        psi_peak="r",
    )


def hellinger() -> Generator:
    """(1/2)(sqrt(u) - 1)^2: squared Hellinger generator; self-conjugate."""
    deriv = lambda t: 0.5 * (1.0 - 1.0 / np.sqrt(t))
    return Generator(
        name="hellinger",
        fn=lambda t: 0.5 * (np.sqrt(t) - 1.0) ** 2,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=0.5,
        star_at_zero=0.5,
        deriv_at_zero=-INF,
        psi_peak="r",
    )


def inv_minus_one() -> Generator:
    """1/u - 1: the conjugate of the chi-square generator's direction swap."""
    deriv = lambda t: -1.0 / (t * t)
    return Generator(
        name="inv-minus-one",
        fn=lambda t: 1.0 / t - 1.0,
        deriv_left_fn=deriv,
        deriv_right_fn=deriv,
        value_at_zero=INF,
        star_at_zero=0.0,
        deriv_at_zero=-INF,
        psi_peak="r",
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


def parse_generator_spec(spec: str) -> Generator:
    """The catalog generator of a spec string ``name[:param=value,...]``.

    Names are case-insensitive; underscores and hyphens are
    interchangeable.  "kl" is accepted for "kl-quantum".  Parameter
    values go through float(), so "inf" is a valid arimoto alpha; a
    parameter given twice is an error.  Each call builds a new Generator
    from the family's factory; default_catalog's are built once.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise InputFormatError("generator spec must be a non-empty string")
    head, _, tail = spec.partition(":")
    name = head.strip().lower().replace("_", "-")
    name = _ALIASES.get(name, name)
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InputFormatError(f"unknown generator {head.strip()!r}; known: {known}")
    allowed = _FAMILIES[name][1]
    kwargs = {}
    if tail.strip():
        for part in tail.split(","):
            key, eq, val = part.partition("=")
            key = key.strip().lower().replace("-", "_")
            if not eq or key not in allowed:
                raise InputFormatError(
                    f"bad parameter {part.strip()!r} for {name}; allowed: {allowed or '()'}"
                )
            if key in kwargs:
                raise InputFormatError(f"repeated parameter {key!r} in {spec.strip()!r}")
            try:
                kwargs[key] = float(val)
            except ValueError as exc:
                raise InputFormatError(f"non-numeric value in {part.strip()!r}") from exc
    return _FAMILIES[name][0](**kwargs)


_DEFAULT_CATALOG = tuple(factory() for factory, _ in _FAMILIES.values())


def default_catalog() -> tuple:
    """The twelve catalog families at their default parameters, in the order
    of _FAMILIES: one tuple, built at import, that every call returns (do
    not mutate its generators' params); parse_generator_spec builds anew."""
    return _DEFAULT_CATALOG


DEFAULT_SPECS = tuple(f.spec for f in _DEFAULT_CATALOG)


def conjugate(f: Generator) -> Generator:
    """The *-conjugate f*(u) = u f(1/u).

    Swaps value_at_zero and star_at_zero and mirrors the one-sided
    derivatives: (f*)'_(+/-)(u) = f(1/u) - (1/u) f'_(-/+)(1/u).
    """
    _generators((f,))

    def fn(u):
        return u * f.fn(1.0 / u)

    def dl(u):
        inv = 1.0 / u
        return f.fn(inv) - inv * f.deriv_right_fn(inv)

    def dr(u):
        inv = 1.0 / u
        return f.fn(inv) - inv * f.deriv_left_fn(inv)

    # lim_{u->0+} (f*)'(u) = lim_{v->inf} [f(v) - v f'_-(v)], the tangent
    # intercept at 0, which is non-increasing in v.  Probe two decades.
    a, b = (f(v) - v * f.deriv_left(v) for v in (1e9, 1e12))
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
    """f(u) + c (u - 1): same induced divergence, shifted generator; c
    must be finite."""
    _generators((f,))
    c = _real(c, "shift constant")
    if not math.isfinite(c):
        raise InputFormatError(f"shift constant must be finite, got {c}")
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
        quadratic=f.quadratic,
        psi_peak=f.psi_peak,
    )


def _check_window(r: float, R: float) -> tuple:
    r, R = float(r), float(R)
    if not (r < R and math.isfinite(r) and math.isfinite(R)):
        raise PreconditionError(f"need finite r < R, got r={r}, R={R}")
    return r, R


def _check_open_window(r: float, R: float, closed: bool = False) -> tuple:
    """(r, R) as finite floats with 0 <= r < 1 < R, or thm3's 0 <= r <= 1 <= R,
    r < R if closed."""
    r, R = _check_window(r, R)
    if not (0.0 <= r <= 1.0 <= R and r < R if closed else 0.0 <= r < 1.0 < R):
        need = "0 <= r <= 1 <= R with r < R" if closed else "0 <= r < 1 < R"
        raise PreconditionError(f"need {need}, got r={r}, R={R}")
    return r, R


def secant_bound(f: Generator, r: float, R: float) -> float:
    """Chord value [(R-1) f(r) + (1-r) f(R)] / (R - r).

    Requires 0 <= r <= 1 <= R with r < R.  Returns +inf when f(r) is
    infinite (e.g. -ln at r = 0).
    """
    _generators((f,))
    r, R = _check_open_window(r, R, closed=True)
    return secant_value(r, R, f(r), f(R))


def secant_value(r, R, fr, fR):
    """secant_bound from fr = f(r) and fR = f(R), elementwise on arrays."""
    value = np.where(np.isinf(fr) | np.isinf(fR), INF, ((R - 1.0) * fr + (1.0 - r) * fR) / (R - r))
    return value if value.ndim else float(value)


def psi(f: Generator, t: float, r: float, R: float) -> float:
    """Double-slope gap (f(R)-f(t))/(R-t) - (f(t)-f(r))/(t-r), r < t < R."""
    _generators((f,))
    r, R = _check_window(r, R)
    t = float(t)
    if not r < t < R:
        raise PreconditionError(f"need r < t < R, got t={t} outside ({r}, {R})")
    ft, fr, fR = f(t), f(r), f(R)
    if math.isinf(fr) or math.isinf(fR) or math.isinf(ft):
        raise PreconditionError("psi needs f finite at r, t, R")
    return psi_value(t, r, R, ft, fr, fR)


def psi_value(t, r, R, ft, fr, fR):
    """psi from ft = f(t), fr = f(r) and fR = f(R), elementwise on arrays."""
    return (fR - ft) / (R - t) - (ft - fr) / (t - r)


def psi_sup(f: Generator, r: float, R: float) -> float:
    """Supremum of the double-slope gap over t in (r, R).

    The value is the max of the two endpoint limits

        Psi(r+) = slope(r, R) - f'_+(r),
        Psi(R-) = f'_-(R) - slope(r, R),

    and the gap Psi(1) at t = 1 when interior, taken for every f.  That is
    the sup itself for a generator that declares where Psi peaks
    (f.psi_peak, every catalog default), with a (R - r) added for a
    quadratic f (its gap everywhere).  For any other f the gap's max over
    a uniform 10001-point grid, pulled in from the endpoints by the
    fraction 1e-6 of the width, is added: one f.fn call on the grid.  Returns
    +inf when f(r) is infinite or a one-sided derivative at an endpoint
    diverges.  Never exceeds f'_-(R) - f'_+(r) when that gap is finite.
    This is psi_sups with one generator and window.
    """
    return float(psi_sups(_generators((f,)), float(r), float(R))[0, 0])


def _window_ends(generators, r, R, out, ratios=np.empty(0)) -> np.ndarray:
    """weighted_sums' terms f and (t - 1) f'_+(t) at the ratios, rows 2g and
    2g + 1 of one array; out, (6, windows, generators), takes f(r), f(R),
    f((r + R)/2), f'_+(r), f'_-(R) and Psi(1) (+inf where 1 is not interior
    or f(r) or f(R) is infinite)."""
    m, n, ng = ratios.size, r.size, len(generators)
    points = np.concatenate([ratios, r, R, 0.5 * (r + R)])
    # f and f'_+ of every generator in one call (f'_+ at the midpoints unread).
    at = _at([fn for f in generators for fn in (f.fn, f.deriv_right_fn)], points,
             [v for f in generators for v in (f.value_at_zero, f.deriv_at_zero)], _NEGATIVE).reshape(ng, 2, m + 3 * n)
    if kinked := [g for g, f in enumerate(generators) if f.deriv_left_fn is not f.deriv_right_fn]:
        at[kinked, 1, m + n:m + 2 * n] = _at([generators[g].deriv_left_fn for g in kinked], R, None, _NEGATIVE)
    out[:3] = at[:, 0, m:].reshape(ng, 3, n).transpose(1, 2, 0)
    out[3:5] = at[:, 1, m:m + 2 * n].reshape(ng, 2, n).transpose(1, 2, 0)
    r, R, f1 = r[:, np.newaxis], R[:, np.newaxis], np.array([f.value_at_one for f in generators])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        at[:, 1, :m] *= ratios - 1.0
        out[5] = np.where((r < 1.0) & (1.0 < R) & ~np.isinf(out[0]) & ~np.isinf(out[1]),
                          psi_value(1.0, r, R, f1, out[0], out[1]), INF)
    return at[:, :, :m].reshape(2 * ng, m)


def psi_sups(generators, r, R, ends=None) -> np.ndarray:
    """psi_sup of each generator on each window, a (windows, generators)
    array; ends holds f(r), f(R), f'_+(r), f'_-(R) and Psi(1) as (windows,
    generators) arrays, by default from _window_ends.

    Every entry takes max(Psi(1) when r < 1 < R, Psi(r+), Psi(R-)), plus
    a (R - r) for a quadratic f (f.quadratic = a).  Psi(1) is the one
    check_thm4 reads, so K Psi(1) <= K sup Psi holds after rounding for
    every generator.  A generator that declares f.psi_peak has no grid:
    that max is its sup.  For r < t < R, Taylor's formula with integral
    remainder gives

        Psi'(t) = int_0^1 (1 - s) [f''(t + s (R - t)) - f''(t - s (t - r))] ds.

    If f'' is nonincreasing, so is Psi, and sup Psi = Psi(r+) (psi_peak
    "r"); if it is nondecreasing, sup Psi = Psi(R-) ("R").  For c |t - 1|
    plus a linear term ("1"), Psi rises up to t = 1 and falls after it,
    so sup Psi = Psi(1), or 0 = Psi(r+) where 1 is not interior.

    The other generators (conjugates, from_callable generators and the
    catalog parameters without a declared peak) add the gap's max over a
    grid (_grid_sups): PSI_GRID_POINTS points pulled in from the endpoints
    by PSI_EDGE_FRACTION of the width, in one f.fn call per (window,
    generator) entry.
    """
    r, R = np.broadcast_arrays(np.atleast_1d(np.asarray(r, dtype=np.float64)),
                               np.atleast_1d(np.asarray(R, dtype=np.float64)))
    bad = np.flatnonzero(~((r < R) & np.isfinite(r) & np.isfinite(R)))
    if bad.size:
        _check_window(r[bad[0]], R[bad[0]])
    if ends is None:
        out = np.empty((6, r.size, len(generators)))
        _window_ends(generators, r, R, out)  # no ratios: run for out alone
        ends = out[[0, 1, 3, 4, 5]]
    fr, fR, dr, dR, at_one = (np.asarray(e, dtype=np.float64).reshape(r.size, len(generators)) for e in ends)
    finite = ~(np.isinf(fr) | np.isinf(fR) | (dr == -INF) | (dR == INF))
    a = np.array([-INF if f.quadratic is None else f.quadratic for f in generators])
    r2, R2 = r[:, np.newaxis], R[:, np.newaxis]
    with np.errstate(invalid="ignore", over="ignore"):  # entries with an infinite end, +inf below
        slope = (fR - fr) / (R2 - r2)
        # Psi(1), and the constant gap a (R - r) of a quadratic f, which Psi(1)
        # and the limits can round below or above.
        best = np.maximum(a * (R2 - r2), np.where((r2 < 1.0) & (1.0 < R2), at_one, -INF))
        gen, win = np.nonzero((finite & np.array([f.psi_peak is None for f in generators], dtype=bool)).T)
        if gen.size:
            best[win, gen] = np.maximum(best[win, gen], _grid_sups(
                generators, gen, r[win], R[win], fr[win, gen], fR[win, gen]))
        for limit in (slope - dr, dR - slope):
            best = np.where(limit > best, limit, best)
    return np.where(finite, best, INF)


def _grid_sups(generators, gen, r, R, fr, fR) -> np.ndarray:
    """The double-slope gap's max over the grid of each entry, entry e
    being generator gen[e] on the window [r[e], R[e]]: np.linspace(r + h,
    R - h, PSI_GRID_POINTS) with h = PSI_EDGE_FRACTION (R - r), in one f
    call (a point that underflows to 0 takes f(0+)).  psi_sups adds Psi(1)."""
    h = (R - r) * PSI_EDGE_FRACTION
    best = np.empty(gen.size)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for e, g in enumerate(gen.tolist()):
            ts = np.linspace(r[e] + h[e], R[e] - h[e], PSI_GRID_POINTS)
            gaps = psi_value(ts, r[e], R[e], generators[g](ts), fr[e], fR[e])
            best[e] = gaps.max()
            if not math.isfinite(best[e]):  # below a width of ~1e-10 an endpoint lands on the grid: 0/0
                best[e] = np.max(gaps, where=np.isfinite(gaps), initial=-INF)
    return best


def jensen_gap_bound(f: Generator, r: float, R: float) -> float:
    """Twice the midpoint Jensen gap: 2[(f(r)+f(R))/2 - f((r+R)/2)].

    Returns +inf when f(r) or f(R) is infinite.
    """
    _generators((f,))
    r, R = _check_window(r, R)
    return jensen_gap_value(f(r), f(R), f(0.5 * (r + R)))


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
        t = np.asarray(t, dtype=np.float64)
        return np.array([float(fn(x)) for x in t.ravel()]).reshape(t.shape)

    def dl(t):
        h = np.minimum(FD_STEP, 0.5 * np.asarray(t, dtype=np.float64))
        return (ev(t) - ev(t - h)) / h

    def dr(t):
        return (ev(t + FD_STEP) - ev(t)) / FD_STEP

    def settled(a, b, otherwise):  # b, where the probes a and b agree to 1e-4
        return b if abs(a - b) <= 1e-4 * max(1.0, abs(a), abs(b)) else otherwise

    if value_at_zero is None:
        value_at_zero = settled(float(fn(1e-8)), float(fn(1e-10)), INF)
    if star_at_zero is None:
        star_at_zero = settled(float(fn(1e8)) / 1e8, float(fn(1e10)) / 1e10, INF)
    if deriv_at_zero is None:
        deriv_at_zero = settled(float(dr(1e-6)), float(dr(1e-8)), -INF)
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

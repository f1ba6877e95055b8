"""Chebyshev lowpass prototype synthesis from a bandpass specification.

Implements the insertion-loss method: ripple and attenuation heights, the
bandpass-to-lowpass frequency mapping, the minimum-order estimate, and the
normalized ladder element values (g-values) via the standard recursion
(Matthaei/Young/Jones form) rather than lookup tables, so any order and
ripple level is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_ORDER = 20  # the highest prototype order required_order grants


class UnsatisfiableSpec(ValueError):
    """The requested passband/stopband combination cannot be met."""


def intervals(table: dict[str, str]) -> dict[str, tuple]:
    """A ``RANGES`` table: each field's interval "[lo, hi]", "(" or ")" at an open
    end, as (lo, hi, text), an open end moved one double inward: a value lies in
    it when lo <= value <= hi. NaN lies in none, inf or -inf only in one closed at it."""
    parsed = {}
    for name, text in table.items():
        lo, hi = map(float, text[1:-1].split(","))
        parsed[name] = (math.nextafter(lo, math.inf) if text[0] == "(" else lo,
                        math.nextafter(hi, -math.inf) if text[-1] == ")" else hi, text)
    return parsed


def check_ranges(table: dict[str, tuple], values: dict) -> None:
    """The one range check: a ValueError naming the first value of ``values``
    (each entry of a tuple as ``name[i]``) outside its interval in ``table``,
    or one that is not a real number. A value left out, or None (a
    ``FilterSpec`` without f0), is not checked."""
    for name, (lo, hi, text) in table.items():
        value = values.get(name)
        try:
            if isinstance(value, (tuple, list)):
                for i, v in enumerate(value):
                    if not lo <= v <= hi:
                        raise ValueError(f"{name}[{i}] = {v} must lie in {text}")
            elif value is not None and not lo <= value <= hi:
                raise ValueError(f"{name} = {value} must lie in {text}")
        except TypeError:  # a str or a complex does not compare with a float
            what = "hold real numbers" if isinstance(value, (tuple, list)) else "be a real number"
            raise ValueError(f"{name} = {value!r} must {what} in {text}") from None


@dataclass(frozen=True)
class FilterSpec:
    """User intent for a bandpass filter.

    Frequencies are in GHz, ripple/attenuation in dB, impedance in ohms.
    ``f0`` left out (``None``) is the geometric mean of the band edges; it
    may be pinned explicitly (e.g. to quote a round mid-band number). Construction
    checks form only; ``required_order`` decides satisfiability.
    """

    f_lower: float
    f_upper: float
    ripple_db: float
    stop_freq: float
    stop_atten_db: float
    z0: float = 50.0
    f0: float | None = None

    # each positive and finite; f0 also lies inside the passband
    RANGES = intervals(dict.fromkeys(
        ("f_lower", "f_upper", "ripple_db", "stop_freq", "stop_atten_db", "z0", "f0"), "(0, inf)"))

    def __post_init__(self):
        check_ranges(self.RANGES, vars(self))
        if not self.f_lower < self.f_upper:
            raise ValueError("need 0 < f_lower < f_upper")
        if self.f0 is None:
            object.__setattr__(self, "f0", math.sqrt(self.f_lower * self.f_upper))
        if not (self.f_lower < self.f0 < self.f_upper):
            raise ValueError("f0 must lie inside the passband")
        if not (0 < self.fbw() < 1):
            raise ValueError("fractional bandwidth must be in (0, 1)")

    def fbw(self) -> float:
        """Fractional bandwidth (f_upper - f_lower) / f0."""
        return (self.f_upper - self.f_lower) / self.f0


@dataclass(frozen=True)
class ChebyshevPrototype:
    """Lowpass prototype: order ``n`` plus the n+2 ladder values g0..g_{n+1}."""

    n: int
    ripple_db: float
    g: tuple[float, ...]

    RANGES = intervals({"n": "[1, inf)", "ripple_db": "(0, inf)", "g": "(0, inf)"})

    def __post_init__(self):
        check_ranges(self.RANGES, vars(self))
        if len(self.g) != self.n + 2:
            raise ValueError("g must have n+2 entries")
        if self.g[0] != 1.0:
            raise ValueError("g0 must be exactly 1")


def ripple_height(ripple_db: float) -> float:
    """Squared ripple height a_m^2 = 10^(ripple/10) - 1 of an equal-ripple response;
    math.inf above about 3082.5 dB, where it overflows a double."""
    check_ranges(ChebyshevPrototype.RANGES, {"ripple_db": ripple_db})
    try:
        return 10.0 ** (ripple_db / 10.0) - 1.0
    except OverflowError:
        return math.inf


def attenuation_height(stop_atten_db: float, ripple_height_sq: float) -> float:
    """Attenuation height a = sqrt((10^(L_As/10) - 1) / a_m^2).

    ``a`` is the value the Chebyshev polynomial must reach at the normalized
    stopband frequency (see ``required_order``).
    """
    if not stop_atten_db > 0:
        raise ValueError("stop_atten_db must be positive")
    if not ripple_height_sq > 0:
        raise ValueError("ripple height must be positive")
    return math.sqrt((10.0 ** (stop_atten_db / 10.0) - 1.0) / ripple_height_sq)


def bandpass_to_lowpass(f, f0: float, fbw: float):
    """Bandpass frequency to prototype axis: (1/FBW)(f/f0 - f0/f).

    Maps f0 to 0 and the band edges to roughly +/-1 (exactly so when f0 is
    the geometric edge mean; asymmetric by O(FBW^2) otherwise). ``f`` may
    be an array of positive frequencies; a scalar must be positive.
    """
    if isinstance(f, (int, float)) and not f > 0:
        raise ValueError("frequency must be positive")
    return (f / f0 - f0 / f) / fbw


def required_order(spec: FilterSpec) -> int:
    """Minimum Chebyshev order meeting the requirement: ceil(acosh(a) / acosh(|Omega_s|)).

    The one satisfiability check: raises UnsatisfiableSpec unless the
    stopband point lies outside [f_lower, f_upper] and maps outside the
    prototype passband (|Omega_s| > 1), the attenuation height a exceeds 1,
    and the order is at most MAX_ORDER. An attenuation height beyond a
    double counts as above MAX_ORDER, and a ripple above g_values' domain
    (about 331 dB) is unsatisfiable too.
    """
    omega_s = abs(bandpass_to_lowpass(spec.stop_freq, spec.f0, spec.fbw()))
    if omega_s <= 1.0 or spec.f_lower <= spec.stop_freq <= spec.f_upper:
        raise UnsatisfiableSpec(
            "stopband point lies inside the passband; "
            "selectivity requirement cannot be met at any order"
        )
    am2 = ripple_height(spec.ripple_db)
    try:
        a = attenuation_height(spec.stop_atten_db, am2) if am2 > 0 else math.inf
    except OverflowError:
        a = math.inf
    if not a > 1.0:
        raise UnsatisfiableSpec("stopband attenuation must exceed the passband ripple level")
    order = math.acosh(a) / math.acosh(omega_s)
    if not order <= MAX_ORDER:
        raise UnsatisfiableSpec(f"the requirement needs an order above MAX_ORDER = {MAX_ORDER}")
    if _beta(spec.ripple_db) == 0.0:
        raise UnsatisfiableSpec(f"ripple_db = {spec.ripple_db:g} is above the prototype's "
                                f"limit of about 331 dB")
    return max(1, math.ceil(order))


def _beta(ripple_db: float) -> float:
    """g_values' beta = ln(coth(L_Ar / 17.37)); 0 above about 331 dB, where tanh rounds to 1."""
    return math.log(1.0 / math.tanh(ripple_db / 17.37))


def g_values(n: int, ripple_db: float) -> ChebyshevPrototype:
    """Ladder element values for an order-``n`` equal-ripple lowpass prototype.

    Standard recursion:
        beta  = ln(coth(L_Ar / 17.37))
        gamma = sinh(beta / 2n)
        a_k   = sin((2k-1) pi / 2n)
        b_k   = gamma^2 + sin^2(k pi / n)
        g_1   = 2 a_1 / gamma
        g_k   = 4 a_{k-1} a_k / (b_{k-1} g_{k-1})
        g_{n+1} = 1 for odd n, coth^2(beta/4) for even n
    Above about 331 dB tanh rounds to 1, so gamma is 0: a ValueError naming ripple_db.
    """
    check_ranges(ChebyshevPrototype.RANGES, {"n": n, "ripple_db": ripple_db})
    beta = _beta(ripple_db)
    gamma = math.sinh(beta / (2.0 * n))
    if gamma == 0.0:
        raise ValueError(f"ripple_db = {ripple_db} is above the prototype's limit of "
                         f"about 331 dB (gamma is 0)")
    a = [math.sin((2 * k - 1) * math.pi / (2 * n)) for k in range(1, n + 1)]
    b = [gamma**2 + math.sin(k * math.pi / n) ** 2 for k in range(1, n + 1)]
    g = [1.0, 2.0 * a[0] / gamma]
    for k in range(2, n + 1):
        g.append(4.0 * a[k - 2] * a[k - 1] / (b[k - 2] * g[-1]))
    if n % 2:
        g.append(1.0)
    else:
        g.append(1.0 / math.tanh(beta / 4.0) ** 2)
    return ChebyshevPrototype(n=n, ripple_db=ripple_db, g=tuple(g))


def design_prototype(spec: FilterSpec) -> ChebyshevPrototype:
    """Order selection plus g-values for a full specification."""
    return g_values(required_order(spec), spec.ripple_db)


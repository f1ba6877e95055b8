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


class UnsatisfiableSpec(ValueError):
    """The requested passband/stopband combination cannot be met."""


@dataclass(frozen=True)
class FilterSpec:
    """User intent for a bandpass filter.

    Frequencies are in GHz, ripple/attenuation in dB, impedance in ohms.
    ``f0`` defaults to the geometric mean of the band edges but may be
    pinned explicitly (e.g. to quote a round mid-band number).
    """

    f_lower: float
    f_upper: float
    ripple_db: float
    stop_freq: float
    stop_atten_db: float
    z0: float = 50.0
    f0: float = 0.0

    def __post_init__(self):
        for name in (
            "f_lower", "f_upper", "ripple_db", "stop_freq", "stop_atten_db", "z0", "f0"
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0 < self.f_lower < self.f_upper):
            raise ValueError("need 0 < f_lower < f_upper")
        if self.ripple_db <= 0:
            raise ValueError("ripple_db must be positive")
        if self.stop_atten_db <= self.ripple_db:
            raise UnsatisfiableSpec(
                "stopband attenuation must exceed the passband ripple"
            )
        if self.z0 <= 0:
            raise ValueError("z0 must be positive")
        if self.f_lower <= self.stop_freq <= self.f_upper:
            raise ValueError("stop_freq must lie outside the passband")
        if self.f0 == 0.0:
            object.__setattr__(
                self, "f0", math.sqrt(self.f_lower * self.f_upper)
            )
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

    def __post_init__(self):
        if len(self.g) != self.n + 2:
            raise ValueError("g must have n+2 entries")
        if self.g[0] != 1.0:
            raise ValueError("g0 must be exactly 1")
        if any(gk <= 0 for gk in self.g):
            raise ValueError("all g-values must be positive")


def ripple_height(ripple_db: float) -> float:
    """Squared ripple height a_m^2 = 10^(ripple/10) - 1 of an equal-ripple response."""
    if ripple_db <= 0:
        raise ValueError("ripple_db must be positive")
    return 10.0 ** (ripple_db / 10.0) - 1.0


def attenuation_height(stop_atten_db: float, ripple_height_sq: float) -> float:
    """Attenuation height a = sqrt((10^(L_As/10) - 1) / a_m^2).

    ``a`` is the value the Chebyshev polynomial must reach at the normalized
    stopband frequency; it must exceed 1 or the ripple level already violates
    the stopband requirement.
    """
    if stop_atten_db <= 0:
        raise ValueError("stop_atten_db must be positive")
    if ripple_height_sq <= 0:
        raise ValueError("ripple height must be positive")
    a = math.sqrt((10.0 ** (stop_atten_db / 10.0) - 1.0) / ripple_height_sq)
    if a < 1.0:
        raise UnsatisfiableSpec(
            "stopband attenuation is below the passband ripple level"
        )
    return a


def bandpass_to_lowpass(f: float, f0: float, fbw: float) -> float:
    """Bandpass frequency to prototype axis: (1/FBW)(f/f0 - f0/f).

    Maps f0 to 0 and the band edges to roughly +/-1 (exactly so when f0 is
    the geometric edge mean; asymmetric by O(FBW^2) otherwise).
    """
    if f <= 0:
        raise ValueError("frequency must be positive")
    return (f / f0 - f0 / f) / fbw


def normalized_stopband(spec: FilterSpec) -> float:
    """Map the stopband frequency to the lowpass prototype axis.

    Omega_s = (f0 / (f_upper - f_lower)) * (f_x/f0 - f0/f_x); negative when
    the stopband point sits below the passband.
    """
    return bandpass_to_lowpass(spec.stop_freq, spec.f0, spec.fbw())


def required_order(spec: FilterSpec) -> int:
    """Minimum Chebyshev order meeting the requirement: ceil(acosh(a) / acosh(|Omega_s|))."""
    am2 = ripple_height(spec.ripple_db)
    a = attenuation_height(spec.stop_atten_db, am2)
    omega_s = abs(normalized_stopband(spec))
    if omega_s <= 1.0:
        raise UnsatisfiableSpec(
            "stopband point maps inside the prototype passband; "
            "selectivity requirement cannot be met at any order"
        )
    if a <= 1.0:
        raise UnsatisfiableSpec("attenuation height must exceed 1")
    return max(1, math.ceil(math.acosh(a) / math.acosh(omega_s)))


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
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if ripple_db <= 0:
        raise ValueError("ripple_db must be positive")
    beta = math.log(1.0 / math.tanh(ripple_db / 17.37))
    gamma = math.sinh(beta / (2.0 * n))
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


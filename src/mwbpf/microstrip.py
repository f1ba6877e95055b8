"""Quasi-static microstrip models and coupled-line dimension synthesis.

Single lines use the Hammerstad-Jensen closed forms (the qucs/ADS lineage).
Coupled pairs use the Kirschning-Jansen static even/odd-mode fits, which
reduce to the same single-line forms as the gap opens. Synthesis inverts
the coupled model with a damped 2-D Newton iteration in log space.
The models are pure; ``check_fit_range`` is the separate validity step.

Dimensions are millimeters at every interface; frequencies GHz.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

C0 = 299_792_458.0  # m/s
ETA0 = 376.73031366686166  # ohm, free-space impedance

# published fit range of the coupled-line model
VALID_U = (0.1, 10.0)
VALID_G = (0.1, 5.0)
GAP_FLOOR_MM = 0.1  # typical PCB fabrication floor
GAP_HARD_MIN_MM = 1e-3
WIDTH_RANGE_H = (0.02, 40.0)  # strip widths synthesis searches, in substrate heights


class NoConvergence(RuntimeError):
    """Dimension synthesis exhausted its iteration budget."""


class CouplingUnreachable(ValueError):
    """Requested mode split exceeds what the model can give at any gap."""


class GapTooSmallWarning(UserWarning):
    """A coupled pair's gap is below the fabrication floor."""


class ModelValidityWarning(UserWarning):
    """Geometry lies outside the published fit range of the model."""


@dataclass(frozen=True)
class Substrate:
    name: str
    eps_r: float
    tan_d: float
    h: float  # substrate height, mm
    t: float = 0.035  # conductor thickness, mm
    conductivity: float = 5.8e7  # S/m

    def __post_init__(self):
        for name in ("eps_r", "tan_d", "h", "t", "conductivity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eps_r < 1:
            raise ValueError("eps_r must be >= 1")
        if self.tan_d < 0:
            raise ValueError("tan_d must be >= 0")
        if self.h <= 0:
            raise ValueError("substrate height must be positive")
        if self.t < 0:
            raise ValueError("conductor thickness must be >= 0")
        if self.conductivity <= 0:
            raise ValueError("conductivity must be positive")


@dataclass(frozen=True)
class CoupledSectionDims:
    w: float  # strip width, mm
    s: float  # gap, mm
    l: float  # section length, mm

    def __post_init__(self):
        for name in ("w", "s", "l"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.w <= 0 or self.s <= 0 or self.l <= 0:
            raise ValueError("dimensions must be positive")


@dataclass(frozen=True)
class ModeParams:
    """Electrical parameters of one coupled section (attenuation in Np/m)."""

    z0e: float
    z0o: float
    eps_eff_e: float
    eps_eff_o: float
    alpha_e: float = 0.0
    alpha_o: float = 0.0


# --- Hammerstad-Jensen single line -----------------------------------------

def _hj_a(u: float) -> float:
    return (
        1.0
        + math.log((u**4 + (u / 52.0) ** 2) / (u**4 + 0.432)) / 49.0
        + math.log(1.0 + (u / 18.1) ** 3) / 18.7
    )


def _hj_b(er: float) -> float:
    return 0.564 * ((er - 0.9) / (er + 3.0)) ** 0.053


def _z01(u: float) -> float:
    # homogeneous (air) impedance of the strip
    fu = 6.0 + (2.0 * math.pi - 6.0) * math.exp(-((30.666 / u) ** 0.7528))
    return ETA0 / (2.0 * math.pi) * math.log(fu / u + math.sqrt(1.0 + (2.0 / u) ** 2))


def _eps_eff_static(u: float, er: float) -> float:
    return (er + 1.0) / 2.0 + (er - 1.0) / 2.0 * (1.0 + 10.0 / u) ** (
        -_hj_a(u) * _hj_b(er)
    )


def analyze_single(w: float, sub: Substrate) -> tuple[float, float]:
    """Quasi-static characteristic impedance and effective permittivity of a
    single strip."""
    if w <= 0:
        raise ValueError("width must be positive")
    u = w / sub.h
    ee = _eps_eff_static(u, sub.eps_r)
    return _z01(u) / math.sqrt(ee), ee


def synthesize_single_width(z0_target: float, sub: Substrate) -> float:
    """Width (mm) realizing a single-line impedance; bisection, z0 monotone in w."""
    if z0_target <= 0:
        raise ValueError("target impedance must be positive")
    lo, hi = WIDTH_RANGE_H[0] * sub.h, WIDTH_RANGE_H[1] * sub.h
    if analyze_single(lo, sub)[0] < z0_target:
        raise CouplingUnreachable(f"{z0_target} ohm is above the model range")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if analyze_single(mid, sub)[0] > z0_target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + 1e-13:
            break
    return math.sqrt(lo * hi)


# --- Kirschning-Jansen static coupled pair ----------------------------------

def analyze_coupled(w: float, s: float, sub: Substrate) -> ModeParams:
    """Even/odd-mode impedances and permittivities of a symmetric coupled pair.

    Pure: it does not check the fit range (see ``check_fit_range``).
    Attenuations are returned as 0; loss is attached per frequency by the
    sweep code. A pair whose fits overflow a double is a ValueError naming
    its w and s.
    """
    if w <= 0 or s <= 0:
        raise ValueError("width and gap must be positive")
    try:
        u = w / sub.h
        g = s / sub.h
        er = sub.eps_r
        z_s, ee_s = analyze_single(w, sub)

        # even-mode permittivity: single-line form at the mode's equivalent width
        v = u * (20.0 + g * g) / (10.0 + g * g) + g * math.exp(-g)
        ee_e = _eps_eff_static(v, er)

        # odd-mode permittivity
        bo = 0.747 * er / (0.15 + er)
        co = bo - (bo - 0.207) * math.exp(-0.414 * u)
        do = 0.593 + 0.694 * math.exp(-0.562 * u)
        ao = 0.7287 * (ee_s - (er + 1.0) / 2.0) * (1.0 - math.exp(-0.179 * u))
        ee_o = ((er + 1.0) / 2.0 + ao - ee_s) * math.exp(-co * g**do) + ee_s

        # mode impedances (q-polynomial fits)
        q1 = 0.8695 * u**0.194
        q2 = 1.0 + 0.7519 * g + 0.189 * g**2.31
        q3 = 0.1975 + (16.6 + (8.4 / g) ** 6) ** (-0.387) + math.log(
            g**10 / (1.0 + (g / 3.4) ** 10)
        ) / 241.0
        q4 = 2.0 * q1 / (q2 * (math.exp(-g) * u**q3 + (2.0 - math.exp(-g)) * u ** (-q3)))
        q5 = 1.794 + 1.14 * math.log(1.0 + 0.638 / (g + 0.517 * g**2.43))
        q6 = 0.2305 + math.log(g**10 / (1.0 + (g / 5.8) ** 10)) / 281.3 + math.log(
            1.0 + 0.598 * g**1.154
        ) / 5.1
        q7 = (10.0 + 190.0 * g * g) / (1.0 + 82.3 * g**3)
        q8 = math.exp(-6.5 - 0.95 * math.log(g) - (g / 0.15) ** 5)
        q9 = math.log(q7) * (q8 + 1.0 / 16.5)
        q10 = (q2 * q4 - q5 * math.exp(math.log(u) * q6 * u ** (-q9))) / q2
        z0e = z_s * math.sqrt(ee_s / ee_e) / (1.0 - math.sqrt(ee_s) * q4 * z_s / ETA0)
        z0o = z_s * math.sqrt(ee_s / ee_o) / (1.0 - math.sqrt(ee_s) * q10 * z_s / ETA0)
    except OverflowError:
        raise ValueError(f"coupled pair w={w:g} mm, s={s:g} mm overflows the model") from None

    return ModeParams(z0e=z0e, z0o=z0o, eps_eff_e=ee_e, eps_eff_o=ee_o)


def analyze_dims(dims, sub: Substrate) -> list[ModeParams]:
    """``analyze_coupled`` of each section; an error names it as ``dims_mm[i]``."""
    mps = []
    for i, d in enumerate(dims):
        try:
            mps.append(analyze_coupled(d.w, d.s, sub))
        except ValueError as exc:
            raise ValueError(f"dims_mm[{i}]: {exc}") from None
    return mps


def check_fit_range(w: float, s: float, sub: Substrate) -> None:
    """The validity step of a coupled pair: warn GapTooSmallWarning when the
    gap is below the GAP_FLOOR_MM fabrication floor, and ModelValidityWarning
    when the pair lies outside the published fit range 0.1 <= w/h <= 10,
    0.1 <= s/h <= 5 of the model."""
    if s < GAP_FLOOR_MM:
        warnings.warn(
            f"gap {s:.4f} mm is below the {GAP_FLOOR_MM} mm fabrication floor",
            GapTooSmallWarning,
            stacklevel=2,
        )
    u, g = w / sub.h, s / sub.h
    if not (VALID_U[0] <= u <= VALID_U[1]) or not (VALID_G[0] <= g <= VALID_G[1]):
        warnings.warn(
            f"w/h={u:.3g}, s/h={g:.3g} outside the coupled-model fit range",
            ModelValidityWarning,
            stacklevel=2,
        )


def synthesize_coupled(z0e: float, z0o: float, sub: Substrate) -> tuple[float, float]:
    """Width and gap (mm) realizing the requested even/odd-mode impedances.

    Damped Newton iteration on (ln w, ln s); a step where the model
    overflows or gives a non-positive impedance is rejected like one that
    does not reduce the residual. Converges to 1e-6 relative on both
    impedances. Otherwise raises CouplingUnreachable when the requested
    split exceeds the model's at the minimum gap, else NoConvergence.
    Pure: it warns nothing (see ``check_fit_range``).
    """
    if not (z0e > z0o > 0):
        raise ValueError("need z0e > z0o > 0")
    h = sub.h

    def residual(x: np.ndarray) -> np.ndarray | None:
        mp = _modes_or_none(math.exp(x[0]), math.exp(x[1]), sub)
        if mp is None:
            return None
        return np.array([math.log(mp.z0e / z0e), math.log(mp.z0o / z0o)])

    lo = np.array([math.log(WIDTH_RANGE_H[0] * h), math.log(GAP_HARD_MIN_MM)])
    hi = np.array([math.log(WIDTH_RANGE_H[1] * h), math.log(60.0 * h)])
    step = 1e-6
    w0 = synthesize_single_width(math.sqrt(z0e * z0o), sub)
    x = np.array([math.log(w0), math.log(h)])
    f = residual(x)
    for _ in range(200):
        if f is None:
            break
        if max(abs(f)) < 1e-6:
            return math.exp(x[0]), math.exp(x[1])
        cols = [residual(x + d) for d in step * np.eye(2)]
        if any(c is None for c in cols):
            break
        jac = np.column_stack([(c - f) / step for c in cols])
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam > 1e-8:
            cand = np.clip(x + lam * dx, lo, hi)
            fc = residual(cand)
            if fc is not None and np.linalg.norm(fc) < np.linalg.norm(f):
                break
            lam *= 0.5
        else:
            break
        x, f = cand, fc

    split = z0e - z0o
    mp = _modes_or_none(w0, GAP_HARD_MIN_MM, sub)
    if mp is None or mp.z0e - mp.z0o < split:
        raise CouplingUnreachable(
            f"mode split {split:.2f} ohm not reachable at the minimum gap"
        )
    raise NoConvergence(
        f"synthesis for (z0e={z0e:.3f}, z0o={z0o:.3f}) did not converge"
    )


def _modes_or_none(w, s, sub):
    # None where the fits overflow or give an impedance that is not
    # positive and finite
    try:
        mp = analyze_coupled(w, s, sub)
    except ValueError:
        return None
    if 0 < mp.z0e < math.inf and 0 < mp.z0o < math.inf:
        return mp
    return None


# --- derived quantities ------------------------------------------------------

def resonator_length(mp: ModeParams, f0: float) -> float:
    """Quarter-wave section length (mm) at f0 GHz, using the mode-average permittivity."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    eps_avg = (mp.eps_eff_e + mp.eps_eff_o) / 2.0
    return C0 / (4.0 * f0 * 1e9 * math.sqrt(eps_avg)) * 1e3


def dielectric_loss(sub: Substrate, eps_eff: float, f):
    """Dielectric attenuation (Np/m) of a quasi-TEM line at f GHz.

    ``f`` may be an array, giving one attenuation per frequency.
    alpha_d = (pi/lambda0) * er (eps_eff - 1) / (sqrt(eps_eff) (er - 1)) * tan_d,
    degenerating to the homogeneous-fill form as er -> 1.
    """
    if eps_eff < 1:
        raise ValueError("eps_eff must be >= 1")
    if not (np.asarray(f) > 0).all():
        raise ValueError("frequency must be positive")
    lam0 = C0 / (f * 1e9)
    er = sub.eps_r
    if er == 1.0:
        return math.pi / lam0 * math.sqrt(eps_eff) * sub.tan_d
    return (
        math.pi / lam0
        * er * (eps_eff - 1.0)
        / (math.sqrt(eps_eff) * (er - 1.0))
        * sub.tan_d
    )


def unloaded_q(sub: Substrate, eps_eff: float, f: float) -> float:
    """Unloaded resonator Q at f GHz from dielectric loss: Q = beta / (2 alpha)."""
    alpha = dielectric_loss(sub, eps_eff, f)
    if alpha == 0.0:
        return math.inf
    beta = 2.0 * math.pi * f * 1e9 * math.sqrt(eps_eff) / C0
    return beta / (2.0 * alpha)

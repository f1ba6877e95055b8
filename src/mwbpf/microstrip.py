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

from .prototype import check_ranges, intervals

C0 = 299_792_458.0  # m/s
ETA0 = 376.73031366686166  # ohm, free-space impedance

# published fit range of the coupled-line model
VALID_U = (0.1, 10.0)
VALID_G = (0.1, 5.0)
GAP_FLOOR_MM = 0.1  # typical PCB fabrication floor
GAP_HARD_MIN_MM = 1e-3
WIDTH_RANGE_H = (0.02, 40.0)  # strip widths synthesis searches, in substrate heights
# the Newton's stop, max(|ln(z0e_r / z0e)|, |ln(z0o_r / z0o)|) below it; synthesize_design
# reuses an earlier section's dimensions that meet a section's targets by the same test
_TOLERANCE = 1e-6


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

    RANGES = intervals({
        # vacuum to the densest microwave ceramics (titanates reach a few thousand);
        # far below the 1e300 at which dielectric_loss overflowed
        "eps_r": "[1, 10000]",
        # at 1 the loss per radian equals the stored energy (a dielectric Q of 1);
        # FR4's 0.025 is the lossiest listed laminate
        "tan_d": "[0, 1]",
        # mm, from a 1 um film to a 1 m block: far inside the heights at which every
        # searched width is a normal float, and short in the stackup records
        "h": "[0.001, 1000]",
        "t": "[0, 1000]",  # mm, 0 as in the zero-thickness line models, at most h's top
        "conductivity": "(0, inf)",  # S/m
    })

    def __post_init__(self):
        if "--" in self.name:
            # the SVG stackup record prints the name inside an XML comment
            raise ValueError("name must not contain '--'")
        check_ranges(self.RANGES, vars(self))


@dataclass(frozen=True)
class CoupledSectionDims:
    w: float  # strip width, mm
    s: float  # gap, mm
    l: float  # section length, mm

    # each positive and finite; analyze_dims bounds what the models read
    RANGES = intervals({"w": "(0, inf)", "s": "(0, inf)", "l": "(0, inf)"})

    def __post_init__(self):
        check_ranges(self.RANGES, vars(self))


@dataclass(frozen=True)
class ModeParams:
    """Electrical parameters of one coupled section."""

    z0e: float
    z0o: float
    eps_eff_e: float
    eps_eff_o: float


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
    if not w > 0:
        raise ValueError("width must be positive")
    u = w / sub.h
    ee = _eps_eff_static(u, sub.eps_r)
    return _z01(u) / math.sqrt(ee), ee


def synthesize_single_width(z0_target: float, sub: Substrate) -> float:
    """Width (mm) realizing a single-line impedance, by ``_search_width``'s
    bracketed secant over the searched width range; z0 decreases
    monotonically in w. A target above z0 at the narrowest width, or below
    z0 at the widest, raises CouplingUnreachable."""
    w, below = _search_width(z0_target, sub)
    if below:
        raise CouplingUnreachable(f"{z0_target} ohm is below the model range")
    return w


def _search_width(z0_target: float, sub: Substrate) -> tuple[float, bool]:
    """``synthesize_single_width``'s width, and whether the target lies below
    z0 at the widest searched width. Such a target gives the widest width,
    which seeds ``synthesize_coupled``.

    The search stops where ln z0 is within 1e-14 of the target's: at an end
    of the range, whose z0 also decides whether the target lies inside it,
    or at a secant step on (ln w, ln z0). The steps, the first from
    Hammerstad's closed-form width with a slope of -0.6, narrow the bracket
    with each model call; a step that leaves the bracket takes its midpoint."""
    if not z0_target > 0:
        raise ValueError("target impedance must be positive")
    lo, hi = WIDTH_RANGE_H[0] * sub.h, WIDTH_RANGE_H[1] * sub.h
    z_lo = analyze_single(lo, sub)[0]
    if z_lo < z0_target:
        raise CouplingUnreachable(f"{z0_target} ohm is above the model range")
    z_hi = analyze_single(hi, sub)[0]
    if z_hi > z0_target:
        return hi, True
    lt = math.log(z0_target)
    for end, z in ((lo, z_lo), (hi, z_hi)):
        if abs(math.log(z) - lt) < 1e-14:
            return end, False
    a, b = math.log(lo), math.log(hi)  # ln z0 is above the target's at a, not above at b
    x, x_prev, f_prev = math.log(sub.h) + _hammerstad_ln_u(z0_target, sub.eps_r), None, None
    for _ in range(200):
        if not a < x < b:  # NaN too: a slope that is not negative gives one
            x = (a + b) / 2.0
            if not a < x < b:  # a and b are adjacent doubles
                break
        w = math.exp(x)
        f = math.log(analyze_single(w, sub)[0]) - lt
        if abs(f) < 1e-14:
            break
        if f > 0:
            a = x
        else:
            b = x
        slope = -0.6 if x_prev is None else (f - f_prev) / (x - x_prev)
        x, x_prev, f_prev = (x - f / slope if slope < 0 else math.nan), x, f
    return w, False


def _hammerstad_ln_u(z0: float, er: float) -> float:
    """ln(w/h) of Hammerstad's closed-form synthesis of a strip of impedance
    z0 (E. Hammerstad, "Equations for microstrip circuit design", EuMC 1975):
    within 1 % of the model's root w/h over 0.02-40 and eps_r in
    ``Substrate.RANGES``, and finite or -inf for every positive z0 and er >= 1."""
    a = z0 / 60.0 * math.sqrt((er + 1.0) / 2.0) + (er - 1.0) / (er + 1.0) * (0.23 + 0.11 / er)
    if a > 1.52:  # w/h < 2: 8 e^a / (e^2a - 2)
        return math.log(8.0) - a - math.log1p(-2.0 * math.exp(-2.0 * a))
    # a B above 1e6 is a strip far wider than 40 h, the widest searched
    b = min(ETA0 * math.pi / (2.0 * z0 * math.sqrt(er)), 1e6)
    return math.log(2.0 / math.pi * (b - 1.0 - math.log(2.0 * b - 1.0) + (er - 1.0) / (2.0 * er)
                                     * (math.log(b - 1.0) + 0.39 - 0.61 / er)))


# --- Kirschning-Jansen static coupled pair ----------------------------------

# analyze_coupled's results by (w, s, eps_r, h), all that the model reads; the
# oldest of _MEMO_SIZE entries goes first, and a failing pair is not stored
_MEMO: dict[tuple[float, float, float, float], ModeParams] = {}
_MEMO_SIZE = 64


def _remember(key: tuple[float, float, float, float], mp: ModeParams) -> None:
    if len(_MEMO) >= _MEMO_SIZE:
        del _MEMO[next(iter(_MEMO))]
    _MEMO[key] = mp


def analyze_coupled(w: float, s: float, sub: Substrate) -> ModeParams:
    """Even/odd-mode impedances and permittivities of a symmetric coupled pair.

    Pure: it does not check the fit range (see ``check_fit_range``). A pair
    whose fits overflow a double, or underflow it (w/h or s/h is 0, or a
    power of it that a logarithm reads is), or give a mode impedance that is
    not positive and finite, is a ValueError naming its w and s. The model
    is the composition of its width-only terms, its gap-only terms and the
    mixed step ``_mode_step``. A pair evaluated before, here or at the end
    of ``synthesize_coupled``, is read from ``_MEMO``: the same bits.
    """
    if not (w > 0 and s > 0):
        raise ValueError("width and gap must be positive")
    key = (w, s, sub.eps_r, sub.h)
    mp = _MEMO.get(key)
    if mp is not None:
        return mp
    try:
        try:
            wt, gt = _width_terms(w, sub), _gap_terms(s, sub)
        except (ZeroDivisionError, ValueError):
            raise ValueError(f"coupled pair w={w:g} mm, s={s:g} mm underflows the model "
                             f"(w/h={w / sub.h:g}, s/h={s / sub.h:g})") from None
        z0e, z0o, ee_e, ee_o = _mode_step(wt, gt, sub.eps_r)
    except OverflowError:
        raise ValueError(f"coupled pair w={w:g} mm, s={s:g} mm overflows the model") from None
    mp = ModeParams(z0e=z0e, z0o=z0o, eps_eff_e=ee_e, eps_eff_o=ee_o)
    _remember(key, mp)
    return mp


def _width_terms(w: float, sub: Substrate) -> tuple:
    """The terms of the coupled model that depend on the width alone."""
    u = w / sub.h
    er = sub.eps_r
    z_s, ee_s = analyze_single(w, sub)
    bo = 0.747 * er / (0.15 + er)
    co = bo - (bo - 0.207) * math.exp(-0.414 * u)
    do = 0.593 + 0.694 * math.exp(-0.562 * u)
    ao = 0.7287 * (ee_s - (er + 1.0) / 2.0) * (1.0 - math.exp(-0.179 * u))
    # the odd-mode permittivity's amplitude, (er + 1) / 2 + ao - ee_s
    amp_o = (er + 1.0) / 2.0 + ao - ee_s
    q1 = 0.8695 * u**0.194
    return w, u, z_s, ee_s, co, do, amp_o, q1, math.log(u), math.sqrt(ee_s)


def _gap_terms(s: float, sub: Substrate) -> tuple:
    """The terms of the coupled model that depend on the gap alone.
    u (20 + g^2) / (10 + g^2) rounds left to right, so both sums are kept."""
    g = s / sub.h
    exp_g = math.exp(-g)
    q2 = 1.0 + 0.7519 * g + 0.189 * g**2.31
    q3 = 0.1975 + (16.6 + (8.4 / g) ** 6) ** (-0.387) + math.log(
        g**10 / (1.0 + (g / 3.4) ** 10)
    ) / 241.0
    q5 = 1.794 + 1.14 * math.log(1.0 + 0.638 / (g + 0.517 * g**2.43))
    q6 = 0.2305 + math.log(g**10 / (1.0 + (g / 5.8) ** 10)) / 281.3 + math.log(
        1.0 + 0.598 * g**1.154
    ) / 5.1
    q7 = (10.0 + 190.0 * g * g) / (1.0 + 82.3 * g**3)
    q8 = math.exp(-6.5 - 0.95 * math.log(g) - (g / 0.15) ** 5)
    q9 = math.log(q7) * (q8 + 1.0 / 16.5)
    return s, g, 20.0 + g * g, 10.0 + g * g, g * exp_g, exp_g, q2, q3, q5, q6, q9


def _mode_step(wt: tuple, gt: tuple, er: float) -> tuple[float, float, float, float]:
    """(z0e, z0o, eps_eff_e, eps_eff_o) of the width terms ``wt`` and the gap
    terms ``gt``. A mode impedance that is not positive and finite is a
    ValueError naming w and s; an overflow is an OverflowError."""
    w, u, z_s, ee_s, co, do, amp_o, q1, ln_u, root_ee_s = wt
    s, g, g20, g10, g_exp_g, exp_g, q2, q3, q5, q6, q9 = gt
    # even-mode permittivity: single-line form at the mode's equivalent width
    ee_e = _eps_eff_static(u * g20 / g10 + g_exp_g, er)
    ee_o = amp_o * math.exp(-co * g**do) + ee_s
    # mode impedances (q-polynomial fits)
    q4 = 2.0 * q1 / (q2 * (exp_g * u**q3 + (2.0 - exp_g) * u ** (-q3)))
    q10 = (q2 * q4 - q5 * math.exp(ln_u * q6 * u ** (-q9))) / q2
    z0e = z_s * math.sqrt(ee_s / ee_e) / (1.0 - root_ee_s * q4 * z_s / ETA0)
    z0o = z_s * math.sqrt(ee_s / ee_o) / (1.0 - root_ee_s * q10 * z_s / ETA0)
    if not (0 < z0e < math.inf and 0 < z0o < math.inf):
        raise ValueError(f"coupled pair w={w:g} mm, s={s:g} mm gives a mode impedance "
                         f"that is not positive and finite (z0e={z0e:g}, z0o={z0o:g} ohm)")
    return z0e, z0o, ee_e, ee_o


def analyze_dims(dims, sub: Substrate, f0: float) -> list[ModeParams]:
    """``analyze_coupled`` and the validity step ``check_fit_range`` of each
    section, an error naming it as ``dims_mm[i]``. Sections whose (w, s) are
    equal share one ``analyze_coupled`` result, so a failing pair is named
    at its first index. No model reads a length, so one above the free-space
    wavelength at ``f0`` GHz (eps_eff >= 1) is refused."""
    if not f0 > 0:
        raise ValueError("f0 must be positive")
    wavelength = C0 / (f0 * 1e9) * 1e3
    mps, analyzed = [], {}
    for i, d in enumerate(dims):
        if d.l > wavelength:
            raise ValueError(f"dims_mm[{i}].l = {d.l:g} mm is longer than the free-space "
                             f"wavelength {wavelength:g} mm at f0")
        if (d.w, d.s) not in analyzed:
            try:
                analyzed[d.w, d.s] = analyze_coupled(d.w, d.s, sub)
            except ValueError as exc:
                raise ValueError(f"dims_mm[{i}]: {exc}") from None
        mps.append(analyzed[d.w, d.s])
        check_fit_range(d.w, d.s, sub)
    return mps


def check_fit_range(w: float, s: float, sub: Substrate) -> None:
    """The validity step of a coupled pair: warn GapTooSmallWarning when the
    gap is below the GAP_FLOOR_MM fabrication floor, and ModelValidityWarning
    when the pair lies outside the published fit range 0.1 <= w/h <= 10,
    0.1 <= s/h <= 5 of the model. A warning's source is this function, not
    its caller, so an identical one is shown once per process."""
    if s < GAP_FLOOR_MM:
        warnings.warn(
            f"gap {s:.4f} mm is below the {GAP_FLOOR_MM} mm fabrication floor",
            GapTooSmallWarning,
        )
    u, g = w / sub.h, s / sub.h
    if not (VALID_U[0] <= u <= VALID_U[1]) or not (VALID_G[0] <= g <= VALID_G[1]):
        warnings.warn(
            f"w/h={u:.3g}, s/h={g:.3g} outside the coupled-model fit range",
            ModelValidityWarning,
        )


def synthesize_coupled(z0e: float, z0o: float, sub: Substrate) -> tuple[float, float]:
    """Width and gap (mm) realizing the requested even/odd-mode impedances.

    Damped Newton iteration on (ln w, ln s) in the box 0.02-40 h by 1 um-60 h,
    from the single-line width of sqrt(z0e) sqrt(z0o) (``_search_width``'s)
    and a gap of one substrate height. A trial point where the model
    overflows or gives a non-positive impedance is rejected like one that
    does not reduce the residual; a step ``_solve2`` refuses ends the
    iteration. It converges to 1e-6 relative on both impedances, or raises
    CouplingUnreachable when the requested split exceeds the model's at the
    minimum gap, else NoConvergence. Pure: it warns nothing.

    The iteration runs on Python floats and holds the width terms and the
    gap terms of its current point: the finite-difference column that steps
    the width reuses the gap terms, and the one that steps the gap reuses
    the width terms. The 2x2 step (``_solve2``) and the line-search norm
    (``_norm2``) are plain IEEE operations, each rounded on its own, so the
    dimensions are the same bits on every host. The converged point's
    ``ModeParams`` go into ``analyze_coupled``'s memo, so analysing the
    returned (w, s) on this substrate evaluates nothing.
    """
    if not (z0e > z0o > 0):
        raise ValueError("need z0e > z0o > 0")
    h, er = sub.h, sub.eps_r

    # for h and eps_r in Substrate.RANGES the width and gap terms cannot fail in the box,
    # where s/h is about 1e-6-60
    def modes(wt, gt) -> tuple[float, float, float, float] | None:
        try:
            return _mode_step(wt, gt, er)
        except (OverflowError, ValueError):  # the fits overflow, or an impedance is not positive
            return None

    def residual(wt, gt) -> tuple[float, float, tuple] | None:
        """The residual of the point, and its ``_mode_step`` result."""
        z = modes(wt, gt)
        return None if z is None else (math.log(z[0] / z0e), math.log(z[1] / z0o), z)

    lo_w, lo_s = math.log(WIDTH_RANGE_H[0] * h), math.log(GAP_HARD_MIN_MM)
    hi_w, hi_s = math.log(WIDTH_RANGE_H[1] * h), math.log(60.0 * h)
    step = 1e-6
    w0 = _search_width(math.sqrt(z0e) * math.sqrt(z0o), sub)[0]
    xw, xs = math.log(w0), math.log(h)
    wt, gt = _width_terms(math.exp(xw), sub), _gap_terms(math.exp(xs), sub)
    f = residual(wt, gt)
    for _ in range(200):
        if f is None:
            break
        fe, fo, z = f
        if max(abs(fe), abs(fo)) < _TOLERANCE:
            w, s = math.exp(xw), math.exp(xs)
            # analyze_coupled(w, s, sub) composes the same terms of the same w and s
            _remember((w, s, er, h), ModeParams(*z))
            return w, s
        cw = residual(_width_terms(math.exp(xw + step), sub), gt)
        cs = residual(wt, _gap_terms(math.exp(xs + step), sub))
        if cw is None or cs is None:
            break
        d = _solve2((cw[0] - fe) / step, (cs[0] - fe) / step,
                    (cw[1] - fo) / step, (cs[1] - fo) / step, -fe, -fo)
        if d is None:
            break
        dw, ds = d
        norm_f = _norm2(fe, fo)
        lam = 1.0
        while lam > 1e-8:
            tw = min(max(xw + lam * dw, lo_w), hi_w)  # clip to the box
            ts = min(max(xs + lam * ds, lo_s), hi_s)
            twt, tgt = _width_terms(math.exp(tw), sub), _gap_terms(math.exp(ts), sub)
            fc = residual(twt, tgt)
            if fc is not None and _norm2(fc[0], fc[1]) < norm_f:
                break
            lam *= 0.5
        else:
            break
        xw, xs, wt, gt, f = tw, ts, twt, tgt, fc

    split = z0e - z0o
    z = modes(_width_terms(w0, sub), _gap_terms(GAP_HARD_MIN_MM, sub))
    if z is None or z[0] - z[1] < split:
        raise CouplingUnreachable(f"mode split {split:.6g} ohm not reachable at the minimum gap")
    raise NoConvergence(f"synthesis for (z0e={z0e:.6g}, z0o={z0o:.6g}) did not converge")


def _norm2(a: float, b: float) -> float:
    """The Euclidean norm of (a, b), each operation rounded on its own."""
    return math.sqrt(a * a + b * b)


def _solve2(a00: float, a01: float, a10: float, a11: float,
            b0: float, b1: float) -> tuple[float, float] | None:
    """x of [[a00, a01], [a10, a11]] x = (b0, b1) by LU with partial pivoting
    in plain IEEE arithmetic, each operation rounded on its own; None where a
    pivot is an exact zero, an entry is not finite or x has a NaN. The pivot
    is the larger of |a00| and |a10|, the first row on a tie."""
    if not all(map(math.isfinite, (a00, a01, a10, a11, b0, b1))):
        return None
    if abs(a10) > abs(a00):
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
    if a00 == 0.0:
        return None
    l = a10 / a00
    u11 = a11 - a01 * l
    if u11 == 0.0:
        return None
    x1 = (b1 - b0 * l) / u11
    x0 = (b0 - x1 * a01) / a00  # NaN where x1 is, or where x1 overflows and a01 is 0
    return None if math.isnan(x0) else (x0, x1)


# --- derived quantities ------------------------------------------------------

def resonator_length(mp: ModeParams, f0: float) -> float:
    """Quarter-wave section length (mm) at f0 GHz, using the mode-average permittivity."""
    if not f0 > 0:
        raise ValueError("f0 must be positive")
    eps_avg = (mp.eps_eff_e + mp.eps_eff_o) / 2.0
    return C0 / (4.0 * f0 * 1e9 * math.sqrt(eps_avg)) * 1e3


def dielectric_loss(sub: Substrate, eps_eff, f):
    """Dielectric attenuation (Np/m) of a quasi-TEM line at f GHz.

    ``eps_eff`` and ``f`` may be arrays, broadcast together; scalars give a float.
    alpha_d = (pi/lambda0) * er (eps_eff - 1) / (sqrt(eps_eff) (er - 1)) * tan_d,
    degenerating to the homogeneous-fill form as er -> 1.
    """
    if not (np.asarray(eps_eff) >= 1).all():
        raise ValueError("eps_eff must be >= 1")
    if not (np.asarray(f) > 0).all():
        raise ValueError("frequency must be positive")
    lam0 = C0 / (f * 1e9)
    er = sub.eps_r
    root = np.sqrt(eps_eff) if np.ndim(eps_eff) else math.sqrt(eps_eff)
    if er == 1.0:
        return math.pi / lam0 * root * sub.tan_d
    return math.pi / lam0 * er * (eps_eff - 1.0) / (root * (er - 1.0)) * sub.tan_d


def unloaded_q(sub: Substrate, eps_eff: float, f: float) -> float:
    """Unloaded resonator Q at f GHz from dielectric loss: Q = beta / (2 alpha)."""
    alpha = dielectric_loss(sub, eps_eff, f)
    if alpha == 0.0:
        return math.inf
    beta = 2.0 * math.pi * f * 1e9 * math.sqrt(eps_eff) / C0
    return beta / (2.0 * alpha)

"""Circuit-level S-parameter engines and band-metric extraction.

Two simulators share the result type: a cascade of coupled-line two-ports
(the edge-coupled filter), and a normalized inline coupled-resonator model
(the multilayer hairpin response). Both are reciprocal by construction and
unitary when lossless.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingDesign, CouplingMatrixModel
from .microstrip import (
    C0,
    CoupledSectionDims,
    ModeParams,
    Substrate,
    analyze_dims,
    dielectric_loss,
    resonator_length,
)
from .prototype import bandpass_to_lowpass


class BandEdgeOutOfRange(ValueError):
    """The swept span does not contain the requested band edge."""


class SingularFrequencyWarning(UserWarning):
    """A section hit an exact multiple of pi; the point was nudged by 1 ppm."""


@dataclass(frozen=True, eq=False)
class SParamResult:
    """Two-port S-parameters over a frequency axis (scikit-rf's ``Network.s`` layout)."""

    frequencies: np.ndarray  # [F] GHz, strictly ascending
    s: np.ndarray  # [F, 2, 2] complex, so s[:, 1, 0] is S21
    z0: float

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if f.ndim != 1 or s.shape != (len(f), 2, 2):
            raise ValueError("need frequencies of shape [F] and s of shape [F, 2, 2]")
        if not (f[1:] > f[:-1]).all():
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "s", s)

    def s21_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.s[:, 1, 0]) + 1e-300)

    def s11_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.s[:, 0, 0]) + 1e-300)


@dataclass(frozen=True)
class BandMetrics:
    f_c: float  # GHz, midpoint of the -3 dB edges
    bw_3db: float  # MHz
    il_db: float  # |S21| in dB at f_c (<= 0)
    rl_db: float  # worst in-band |S11| in dB
    f_lower_3db: float
    f_upper_3db: float


# sweep points: 10^6 intervals, ten times a long end-to-end run's 10^5. The Touchstone
# emitter peaks at about 222 bytes a point and the sweep and its metrics hold about 90
# more, so a sweep at the bound peaks near 0.3 GB and writes about 165 MB of files
MAX_POINTS = 1_000_001


@dataclass(frozen=True)
class FrequencySweep:
    f_start: float = 2.0
    f_stop: float = 3.0
    n_points: int = 1001

    def __post_init__(self):
        for name in ("f_start", "f_stop"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_points < 2:
            raise ValueError("need at least 2 sweep points")
        if self.n_points > MAX_POINTS:
            raise ValueError(f"{self.n_points} sweep points exceed MAX_POINTS = {MAX_POINTS}")
        if not (0 < self.f_start < self.f_stop):
            raise ValueError("need 0 < f_start < f_stop")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.n_points)


# --- coupled-line cascade -----------------------------------------------------
# A two-port is its chain matrix [[A, B], [C, D]] (B ohm, C siemens), [..., 2, 2].

def _chain(a, b, c, d) -> np.ndarray:
    return np.stack((a, b, c, d), axis=-1).reshape(np.shape(a) + (2, 2))


def _entries(m: np.ndarray):
    return np.moveaxis(m.reshape(m.shape[:-2] + (4,)), -1, 0)  # a, b, c, d


def _product(m, n):
    """Entries of the chain product of two-ports given by their entries."""
    (a, b, c, d), (ma, mb, mc, md) = m, n
    return a * ma + b * mc, a * mb + b * md, c * ma + d * mc, c * mb + d * md


def _cmath(fn, z: np.ndarray) -> np.ndarray:
    # elementwise cmath: numpy's complex tan differs from cmath.tan in the
    # last ulp, enough to flip a 9-decimal Touchstone field
    return np.fromiter(map(fn, z.ravel().tolist()), complex, count=z.size).reshape(z.shape)


def _mode_angle(root_eps, alpha, l, f):
    """Complex electrical angle (beta - j alpha) l of a mode (l mm, f GHz)."""
    w_rad = 2.0 * math.pi * f * 1e9
    return (w_rad * root_eps / C0 - 1j * alpha) * (l * 1e-3)


def _trig(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin, tan) of angles [..., P] by cmath: one row, broadcast, when every
    row is bitwise equal to the first (``ideal`` mode). A sine that overflows is a ValueError."""
    shape, rows = theta.shape, theta.reshape(-1, theta.shape[-1])
    if all(row.tobytes() == rows[0].tobytes() for row in rows[1:]):
        theta = rows[0]
    try:
        return tuple(np.broadcast_to(_cmath(fn, theta), shape) for fn in (cmath.sin, cmath.tan))
    except OverflowError:
        raise ValueError("section attenuation overflows the sine; narrow the span") from None


def _singular(sin: np.ndarray) -> np.ndarray:
    return np.minimum(abs(sin[..., 0, :]), abs(sin[..., 1, :])) < 1e-9


def _cascade_rows(zm, sin, tan):
    """Entries (a, b, c, d) [P] of the cascade, from mode sines and tangents [n, 2, P]."""
    z_self = -0.5j * (zm[:, 0] / tan[:, 0] + zm[:, 1] / tan[:, 1])
    z_cross = -0.5j * (zm[:, 0] / sin[:, 0] - zm[:, 1] / sin[:, 1])
    # zero coupling: no transmission path; keep the matrix finite and small
    # enough that cascades of such sections stay finite too
    z_cross = np.where(abs(z_cross) < 1e-30, 1e-30, z_cross)
    a = z_self / z_cross
    m = a, (z_self * z_self - z_cross * z_cross) / z_cross, 1.0 / z_cross, a
    return functools.reduce(_product, ([x[i] for x in m] for i in range(len(a))))


def _cascade_block(zm, root_eps, alpha, l, f) -> np.ndarray:
    """Entries [4, P] of the cascade at the points f [P], in passes of up to
    ``_BLOCK`` angles: mode impedances ``zm`` and sqrt(eps_eff) ``root_eps``
    [n, 2, 1], attenuations ``alpha`` [n, 2, P], lengths ``l`` [n, 1, 1]. A
    pass with singular points is taken again with them at f (1 + 1e-6). A
    failing pass raises its first error, a ValueError: a sine that overflows,
    else a point still singular after the nudge. Each nudged section warns
    once, after the last pass, so a failing call warns nothing."""
    nudged, out = [[] for _ in l], np.empty((4, len(f)), complex)
    step = max(_BLOCK // (2 * len(l)), 1)
    for lo in range(0, len(f), step):
        p, fp = slice(lo, lo + step), f[lo:lo + step]
        sin, tan = _trig(_mode_angle(root_eps, alpha[:, :, p], l, fp))
        if (at := _singular(sin)).any():
            nudge = np.where(at, fp * (1.0 + 1e-6), fp)[:, None]
            sin, tan = _trig(_mode_angle(root_eps, alpha[:, :, p], l, nudge))
            if (still := _singular(sin).any(axis=0)).any():
                raise ValueError(f"section is a multiple of pi at {fp[still][0]} GHz "
                                 "and 1 ppm above it")
            for points, row in zip(nudged, at):
                points += fp[row].tolist()
        out[:, p] = _cascade_rows(zm, sin, tan)
        del sin, tan  # before the next pass allocates its own
    for points in filter(None, nudged):
        warnings.warn(f"section is an exact multiple of pi at {', '.join(map(str, points))} GHz; "
                      "nudging by 1 ppm", SingularFrequencyWarning)
    return out


def coupled_section_twoport(mp: ModeParams, l: float, f) -> np.ndarray:
    """Chain matrix of one edge-coupled section (length mm, frequencies GHz).

    ``f`` and the attenuations in ``mp`` may be arrays over one frequency
    axis. Built from the 4-port impedance matrix by even/odd superposition
    with per-mode complex angles theta_m = (beta_m - j alpha_m) l; the two
    unused diagonal ports are left open (their rows/columns drop out), which
    leaves
      Z11 = Z22 = -j (Z0e cot(th_e) + Z0o cot(th_o)) / 2
      Z12 = Z21 = -j (Z0e csc(th_e) - Z0o csc(th_o)) / 2
    A point where an angle is a multiple of pi is taken once at f (1 + 1e-6),
    with a warning. A sine that overflows, else a point still singular there,
    is a ValueError, raised by the first failing pass of 2048 points; a call
    that fails warns nothing. It is ``sweep_pcl``'s kernel for one section.
    """
    f = np.asarray(f, dtype=float)
    if l <= 0 or not (f > 0).all():
        raise ValueError("length and frequency must be positive")
    points = f.reshape(-1)
    alpha = np.stack(np.broadcast_arrays(mp.alpha_e, mp.alpha_o, points)[:2])[None]
    zm = np.array([[[mp.z0e], [mp.z0o]]])
    root_eps = np.array([[[math.sqrt(mp.eps_eff_e)], [math.sqrt(mp.eps_eff_o)]]])
    out = _cascade_block(zm, root_eps, alpha, np.array([[[l]]]), points)
    return _chain(*out).reshape(f.shape + (2, 2))


def cascade(sections) -> np.ndarray:
    """Ordered chain-matrix product of an iterable of two-ports [..., 2, 2]."""
    sections = iter(sections)
    out = next(sections, None)
    if out is None:
        raise ValueError("need at least one section")
    return functools.reduce(lambda m, n: _chain(*_product(_entries(m), _entries(n))), sections, out)


def abcd_to_s(m: np.ndarray, z0: float) -> np.ndarray:
    """Chain matrices [..., 2, 2] to scattering parameters in a real z0.

    Assumes a reciprocal network (a*d - b*c = 1, separately asserted by the
    invariant checks), so s21 = s12 = 2/den; multiplying out the determinant
    would overflow and cancel catastrophically in the zero-coupling limit.
    """
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    a, b, c, d = _entries(m)
    den = a + b / z0 + c * z0 + d
    if (den == 0).any():
        raise ZeroDivisionError("singular ABCD-to-S conversion")
    s21 = 2.0 / den
    return _chain(
        (a + b / z0 - c * z0 - d) / den, s21, s21, (-a + b / z0 - c * z0 + d) / den
    )


_BLOCK = 4096  # angles (sections x 2 modes x points) per pass: bounds the temporary arrays
_POINTS = 1024  # sweep points per block: each nudged section warns once per block


def sweep_pcl(
    design: CouplingDesign,
    f0: float,
    sweep: FrequencySweep,
    mode: str = "ideal",
    dims: tuple[CoupledSectionDims, ...] | None = None,
    substrate: Substrate | None = None,
    lossy: bool = False,
) -> SParamResult:
    """S-parameters of the cascaded edge-coupled filter.

    ``ideal`` mode evaluates the synthesis impedances directly with equal
    mode velocities (every section a quarter wave at f0); it ignores
    ``dims`` and ``substrate`` and is lossless, so ``lossy`` is a
    ValueError there. ``physical`` mode derives per-mode parameters from the
    dimensions (``analyze_dims``, which bounds their lengths and warns); with
    ``lossy`` it attaches the substrate's dielectric attenuation per frequency.

    A pass takes all sections and modes at once, [sections, 2, points]; an
    ``ideal`` pass, one angle in every row, holds one row of sines and
    tangents. A failing block of 1024 points raises its failing pass's first
    error (a sine that overflows, else a point still singular after the
    nudge) and warns nothing. A span whose angle at ``f_stop`` overflows is a
    ValueError, and so is a response that overflows a double (a section
    impedance of 1e300 ohm, squared).
    """
    if mode not in ("ideal", "physical"):
        raise ValueError("mode must be 'ideal' or 'physical'")
    if mode == "physical":
        if dims is None or substrate is None:
            raise ValueError("physical mode needs dims and a substrate")
        if len(dims) != len(design.sections):
            raise ValueError("dims count must match the section count")
        section_mps = analyze_dims(dims, substrate, f0)
        lengths = [d.l for d in dims]
    else:
        if lossy:
            raise ValueError("ideal mode is lossless and takes no lossy flag")
        # air-dielectric equivalents: every section exactly a quarter wave at f0
        section_mps = [
            ModeParams(z0e=s.z0e, z0o=s.z0o, eps_eff_e=1.0, eps_eff_o=1.0)
            for s in design.sections
        ]
        lengths = [resonator_length(mp, f0) for mp in section_mps]

    eps = np.array([(mp.eps_eff_e, mp.eps_eff_o) for mp in section_mps])[..., None]
    zm = np.array([(mp.z0e, mp.z0o) for mp in section_mps])[..., None]
    # a bound on every angle, at f_stop, must be a finite number before numpy sees one
    if not math.isfinite(_mode_angle(math.sqrt(eps.max()), 0.0, max(lengths), sweep.f_stop).real):
        raise ValueError(f"f_stop = {sweep.f_stop} GHz overflows the section angle")
    # and the free-space wavelength of the dielectric loss, at f_start
    if lossy and not math.isfinite(C0 / (sweep.f_start * 1e9)):
        raise ValueError(f"f_start = {sweep.f_start} GHz overflows the free-space wavelength")
    freqs, l = sweep.frequencies(), np.array(lengths)[:, None, None]
    s = np.empty((len(freqs), 2, 2), complex)
    for lo in range(0, len(freqs), _POINTS):
        f = freqs[lo:lo + _POINTS]
        # lossless: one zero attenuation, broadcast over every section, mode and point
        alpha = (dielectric_loss(substrate, eps, f) if lossy
                 else np.broadcast_to(0.0, eps.shape[:2] + f.shape))
        # an overflow leaves a non-finite S, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            out = _cascade_block(zm, np.sqrt(eps), alpha, l, f)
            s[lo:lo + _POINTS] = abcd_to_s(_chain(*out), design.z0)
    if not np.isfinite(s).all():
        raise ValueError("the sections' S-parameters overflow a double")
    return SParamResult(freqs, s, design.z0)


# --- coupled-resonator model ---------------------------------------------------

def sweep_coupling_matrix(
    model: CouplingMatrixModel, sweep: FrequencySweep, z0: float = 50.0
) -> SParamResult:
    """S-parameters of the normalized inline coupled-resonator network.

    Normalization (verified against the lossless anchors: midband |S21| = 1
    and ripple bandwidth = FBW * f0):

        Omega  = (1/FBW)(f/f0 - f0/f)
        A      = Omega I + M - j R,  M tridiagonal with m = k/FBW,
                 R diag with 1/(Qe FBW) at the ports plus 1/(Qu FBW) on all
                 resonators (0 when lossless, Qu = inf)
        S21    = -2j / sqrt(qe1 qen) [A^-1]_{n1}  (qe normalized Qe FBW)
        S11    = -1 - 2j / qe1 [A^-1]_{11}

    Eliminating the tridiagonal A down (pivots d) and up (pivots e) over
    the whole frequency axis gives [A^-1]_{nn} = 1/d_n, [A^-1]_{11} = 1/e_1
    and [A^-1]_{n1} = prod(-m_i / d_i) / d_n. No pivot vanishes: port
    loading > 0 and k > 0 keep every pivot's imaginary part negative.
    """
    n = model.n
    m = [k / model.fbw for k in model.k]
    qe1 = model.qe_in * model.fbw
    qen = model.qe_out * model.fbw
    r = np.zeros(n)
    r[0] += 1.0 / qe1  # += so that an order-1 resonator carries both port loadings
    r[-1] += 1.0 / qen
    r += 1.0 / (model.qu * model.fbw)

    # the prototype axis rises with f: finite at both ends before numpy sees the span
    for name, f in (("f_start", sweep.f_start), ("f_stop", sweep.f_stop)):
        if not math.isfinite(bandpass_to_lowpass(f, model.f0, model.fbw)):
            raise ValueError(f"{name} = {f} GHz overflows the prototype frequency axis")
    freqs = sweep.frequencies()
    omega = bandpass_to_lowpass(freqs, model.f0, model.fbw)
    d = omega - 1j * r[0]
    a_n1 = 1.0 / d
    for i in range(1, n):
        d = omega - 1j * r[i] - m[i - 1] ** 2 / d
        a_n1 = -m[i - 1] * a_n1 / d
    e = omega - 1j * r[-1]
    for i in range(n - 2, -1, -1):
        e = omega - 1j * r[i] - m[i] ** 2 / e
    s21 = -2j / math.sqrt(qe1 * qen) * a_n1
    s = _chain(-1.0 - 2j / qe1 / e, s21, s21, -1.0 - 2j / qen / d)
    return SParamResult(freqs, s, z0)


# --- metric extraction ----------------------------------------------------------

def _crossing(freqs, db, i, j, target) -> float:
    """Frequency where db, linear from point i to point j, equals target."""
    return float(freqs[i] + (target - db[i]) / (db[j] - db[i]) * (freqs[j] - freqs[i]))


def _edge_crossing(freqs, db, idx_inner, step, target):
    """First point outward from idx_inner with db below target; interpolate."""
    if step > 0:
        below = idx_inner + 1 + np.flatnonzero(db[idx_inner + 1:] < target)
    else:
        below = np.flatnonzero(db[:idx_inner] < target)[::-1]
    if not len(below):
        raise BandEdgeOutOfRange("no -3 dB crossing inside the swept span")
    j = int(below[0])
    return _crossing(freqs, db, j - step, j, target)


def extract_metrics(
    result: SParamResult, rl_band: tuple[float, float] | None = None
) -> BandMetrics:
    """Passband summary: -3 dB edges relative to the peak, band center, IL, RL.

    The band center is the midpoint of the -3 dB edges (equal-ripple
    responses attain their transmission maximum at several frequencies, so
    the peak location itself is not a usable center). Return loss is the
    worst |S11| over ``rl_band`` when given (e.g. the design passband);
    otherwise over the -3 dB band, where it sits near -3 dB by definition.
    """
    freqs = result.frequencies
    db21 = result.s21_db()
    peak_idx = int(np.argmax(db21))
    target = db21[peak_idx] - 3.0
    f_lo = _edge_crossing(freqs, db21, peak_idx, -1, target)
    f_hi = _edge_crossing(freqs, db21, peak_idx, +1, target)
    f_c = 0.5 * (f_lo + f_hi)
    il_db = float(np.interp(f_c, freqs, db21))
    band = rl_band if rl_band is not None else (f_lo, f_hi)
    in_band = (freqs >= band[0]) & (freqs <= band[1])
    if not in_band.any():
        raise BandEdgeOutOfRange("return-loss band lies outside the swept span")
    rl_db = float(np.max(result.s11_db()[in_band]))
    return BandMetrics(
        f_c=f_c,
        bw_3db=(f_hi - f_lo) * 1e3,
        il_db=il_db,
        rl_db=rl_db,
        f_lower_3db=f_lo,
        f_upper_3db=f_hi,
    )


def ripple_bandwidth(result: SParamResult, ripple_db: float) -> float:
    """Bandwidth (MHz) between the outermost crossings of peak - ripple_db."""
    freqs = result.frequencies
    db21 = result.s21_db()
    target = db21.max() - ripple_db
    above = np.where(db21 >= target)[0]
    if len(above) == 0 or above[0] == 0 or above[-1] == len(freqs) - 1:
        raise BandEdgeOutOfRange("ripple band extends beyond the swept span")
    lo, hi = above[0], above[-1]
    f_lo = _crossing(freqs, db21, lo - 1, lo, target)
    f_hi = _crossing(freqs, db21, hi, hi + 1, target)
    return (f_hi - f_lo) * 1e3

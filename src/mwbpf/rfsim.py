"""Circuit-level S-parameter engines and band-metric extraction.

Two simulators share the result type: a cascade of coupled-line two-ports
(the edge-coupled filter), and a normalized inline coupled-resonator model
(the multilayer hairpin response). Both are reciprocal by construction and
unitary when lossless.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .coupling import CouplingDesign, CouplingMatrixModel
from .prototype import bandpass_to_lowpass
from .microstrip import (
    C0,
    CoupledSectionDims,
    ModeParams,
    Substrate,
    analyze_coupled,
    dielectric_loss,
)


class BandEdgeOutOfRange(ValueError):
    """The swept span does not contain the requested band edge."""


class SingularFrequencyWarning(UserWarning):
    """A section hit an exact multiple of pi; the point was nudged by 1 ppm."""


@dataclass(frozen=True)
class TwoPortABCD:
    a: complex
    b: complex  # ohm
    c: complex  # siemens
    d: complex

    def det(self) -> complex:
        """a*d - b*c; 1 for reciprocal networks."""
        return self.a * self.d - self.b * self.c


IDENTITY = TwoPortABCD(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SMatrix2:
    s11: complex
    s12: complex
    s21: complex
    s22: complex


@dataclass(frozen=True)
class SParamResult:
    frequencies: tuple[float, ...]  # GHz, strictly ascending
    points: tuple[SMatrix2, ...]
    z0: float

    def __post_init__(self):
        if len(self.frequencies) != len(self.points):
            raise ValueError("frequencies and points must have equal length")
        if any(b <= a for a, b in zip(self.frequencies, self.frequencies[1:])):
            raise ValueError("frequencies must be strictly increasing")

    def s11_array(self) -> np.ndarray:
        return np.array([p.s11 for p in self.points])

    def s21_array(self) -> np.ndarray:
        return np.array([p.s21 for p in self.points])

    def s21_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.s21_array()) + 1e-300)

    def s11_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.s11_array()) + 1e-300)


@dataclass(frozen=True)
class BandMetrics:
    f_c: float  # GHz, midpoint of the -3 dB edges
    bw_3db: float  # MHz
    il_db: float  # |S21| in dB at f_c (<= 0)
    rl_db: float  # worst in-band |S11| in dB
    f_lower_3db: float
    f_upper_3db: float


@dataclass(frozen=True)
class FrequencySweep:
    f_start: float = 2.0
    f_stop: float = 3.0
    n_points: int = 1001

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("need at least 2 sweep points")
        if not (0 < self.f_start < self.f_stop):
            raise ValueError("need 0 < f_start < f_stop")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.n_points)


# --- coupled-line cascade -----------------------------------------------------

def coupled_section_twoport(mp: ModeParams, l: float, f: float) -> TwoPortABCD:
    """ABCD matrix of one edge-coupled section (length mm, frequency GHz).

    Built from the 4-port impedance matrix by even/odd superposition with
    per-mode complex angles theta_m = (beta_m - j alpha_m) l; the two unused
    diagonal ports are left open (their rows/columns drop out), which leaves
      Z11 = Z22 = -j (Z0e cot(th_e) + Z0o cot(th_o)) / 2
      Z12 = Z21 = -j (Z0e csc(th_e) - Z0o csc(th_o)) / 2
    """
    if l <= 0 or f <= 0:
        raise ValueError("length and frequency must be positive")
    l_m = l * 1e-3
    w_rad = 2.0 * math.pi * f * 1e9

    def theta(eps_eff: float, alpha: float) -> complex:
        return (w_rad * math.sqrt(eps_eff) / C0 - 1j * alpha) * l_m

    th_e = theta(mp.eps_eff_e, mp.alpha_e)
    th_o = theta(mp.eps_eff_o, mp.alpha_o)
    if min(abs(cmath.sin(th_e)), abs(cmath.sin(th_o))) < 1e-9:
        warnings.warn(
            f"section is an exact multiple of pi at {f} GHz; nudging by 1 ppm",
            SingularFrequencyWarning,
            stacklevel=2,
        )
        return coupled_section_twoport(mp, l, f * (1.0 + 1e-6))

    z_self = -0.5j * (mp.z0e / cmath.tan(th_e) + mp.z0o / cmath.tan(th_o))
    z_cross = -0.5j * (mp.z0e / cmath.sin(th_e) - mp.z0o / cmath.sin(th_o))
    if abs(z_cross) < 1e-30:
        # zero coupling: no transmission path; keep the matrix finite and
        # small enough that cascades of such sections stay finite too
        z_cross = 1e-30
    return TwoPortABCD(
        a=z_self / z_cross,
        b=(z_self * z_self - z_cross * z_cross) / z_cross,
        c=1.0 / z_cross,
        d=z_self / z_cross,
    )


def cascade(sections: list[TwoPortABCD] | tuple[TwoPortABCD, ...]) -> TwoPortABCD:
    """Ordered chain-matrix product of two-ports."""
    if not sections:
        raise ValueError("need at least one section")
    out = sections[0]
    for m in sections[1:]:
        out = TwoPortABCD(
            a=out.a * m.a + out.b * m.c,
            b=out.a * m.b + out.b * m.d,
            c=out.c * m.a + out.d * m.c,
            d=out.c * m.b + out.d * m.d,
        )
    return out


def abcd_to_s(m: TwoPortABCD, z0: float) -> SMatrix2:
    """Chain matrix to scattering parameters in a real reference impedance.

    Assumes a reciprocal network (a*d - b*c = 1, separately asserted by the
    invariant checks), so s21 = s12 = 2/den; multiplying out the determinant
    would overflow and cancel catastrophically in the zero-coupling limit.
    """
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    den = m.a + m.b / z0 + m.c * z0 + m.d
    if den == 0:
        raise ZeroDivisionError("singular ABCD-to-S conversion")
    s21 = 2.0 / den
    return SMatrix2(
        s11=(m.a + m.b / z0 - m.c * z0 - m.d) / den,
        s12=s21,
        s21=s21,
        s22=(-m.a + m.b / z0 - m.c * z0 + m.d) / den,
    )


def _ideal_modes(design: CouplingDesign) -> list[ModeParams]:
    # air-dielectric equivalents: every section exactly a quarter wave at f0
    return [
        ModeParams(z0e=s.z0e, z0o=s.z0o, eps_eff_e=1.0, eps_eff_o=1.0)
        for s in design.sections
    ]


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
    mode velocities (every section a quarter wave at f0). ``physical`` mode
    derives per-mode parameters from the synthesized dimensions; with
    ``lossy`` it attaches the substrate's dielectric attenuation per
    frequency.
    """
    if mode not in ("ideal", "physical"):
        raise ValueError("mode must be 'ideal' or 'physical'")
    if mode == "physical":
        if dims is None or substrate is None:
            raise ValueError("physical mode needs dims and a substrate")
        if len(dims) != len(design.sections):
            raise ValueError("dims count must match the section count")
        section_mps = [analyze_coupled(d.w, d.s, substrate) for d in dims]
        lengths = [d.l for d in dims]
    else:
        quarter_wave_mm = C0 / (4.0 * f0 * 1e9) * 1e3
        section_mps = _ideal_modes(design)
        lengths = [quarter_wave_mm] * len(design.sections)

    points = []
    freqs = sweep.frequencies()
    for f in freqs:
        mats = []
        for i, mp in enumerate(section_mps):
            if lossy and mode == "physical":
                a_e = dielectric_loss(substrate, mp.eps_eff_e, f)
                a_o = dielectric_loss(substrate, mp.eps_eff_o, f)
                mp = replace(mp, alpha_e=a_e, alpha_o=a_o)
            mats.append(coupled_section_twoport(mp, lengths[i], f))
        points.append(abcd_to_s(cascade(mats), design.z0))
    return SParamResult(frequencies=tuple(freqs), points=tuple(points), z0=design.z0)


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
                 resonators when lossy
        S21    = -2j / sqrt(qe1 qen) [A^-1]_{n1}  (qe normalized Qe FBW)
        S11    = -1 - 2j / qe1 [A^-1]_{11}
    """
    n = model.n
    m_norm = np.zeros((n, n))
    for i, k in enumerate(model.k):
        m_norm[i, i + 1] = m_norm[i + 1, i] = k / model.fbw
    qe1 = model.qe_in * model.fbw
    qen = model.qe_out * model.fbw
    loading = np.zeros((n, n))
    loading[0, 0] = 1.0 / qe1
    loading[-1, -1] = 1.0 / qen
    if model.qu is not None:
        loading += np.eye(n) / (model.qu * model.fbw)

    freqs = sweep.frequencies()
    points = []
    eye = np.eye(n)
    for f in freqs:
        omega = bandpass_to_lowpass(f, model.f0, model.fbw)
        # no null vector: Im(x^H A x) = -x^H R x zeroes its ports, k > 0 the rest
        ai = np.linalg.inv(omega * eye + m_norm - 1j * loading)
        s21 = -2j / math.sqrt(qe1 * qen) * ai[n - 1, 0]
        s11 = -1.0 - 2j / qe1 * ai[0, 0]
        s22 = -1.0 - 2j / qen * ai[n - 1, n - 1]
        points.append(SMatrix2(s11=s11, s12=s21, s21=s21, s22=s22))
    return SParamResult(frequencies=tuple(freqs), points=tuple(points), z0=z0)


# --- metric extraction ----------------------------------------------------------

def _edge_crossing(freqs, db, idx_inner, step, target):
    """Scan outward from idx_inner until db drops below target; interpolate."""
    i = idx_inner
    while 0 <= i + step < len(db):
        j = i + step
        if db[j] < target:
            frac = (target - db[i]) / (db[j] - db[i])
            return freqs[i] + frac * (freqs[j] - freqs[i])
        i = j
    raise BandEdgeOutOfRange("no -3 dB crossing inside the swept span")


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
    freqs = np.asarray(result.frequencies)
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
    freqs = np.asarray(result.frequencies)
    db21 = result.s21_db()
    target = db21.max() - ripple_db
    above = np.where(db21 >= target)[0]
    if len(above) == 0 or above[0] == 0 or above[-1] == len(freqs) - 1:
        raise BandEdgeOutOfRange("ripple band extends beyond the swept span")
    lo, hi = above[0], above[-1]
    f_lo = freqs[lo - 1] + (target - db21[lo - 1]) / (db21[lo] - db21[lo - 1]) * (
        freqs[lo] - freqs[lo - 1]
    )
    f_hi = freqs[hi] + (target - db21[hi]) / (db21[hi + 1] - db21[hi]) * (
        freqs[hi + 1] - freqs[hi]
    )
    return (f_hi - f_lo) * 1e3

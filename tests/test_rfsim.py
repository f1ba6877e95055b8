import cmath
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwbpf.rfsim

from mwbpf.coupling import (
    CouplingDesign,
    CouplingMatrixModel,
    CouplingSection,
    coupling_coefficients,
)
from mwbpf.design import synthesize_design
from mwbpf.microstrip import (
    C0,
    CoupledSectionDims,
    ModeParams,
    Substrate,
    analyze_coupled,
    analyze_dims,
    dielectric_loss,
    resonator_length,
    unloaded_q,
)
from mwbpf.prototype import FilterSpec, bandpass_to_lowpass
from mwbpf.rfsim import (
    MAX_POINTS,
    BandEdgeOutOfRange,
    FrequencySweep,
    SingularFrequencyWarning,
    SParamResult,
    abcd_to_s,
    extract_metrics,
    ripple_bandwidth,
    sweep_coupling_matrix,
    sweep_pcl,
)

from conftest import chain_product, design_space_case, section_chain

SWEEP = FrequencySweep(2.0, 3.0, 1001)


def _ideal_mp(z0e, z0o):
    return ModeParams(z0e=z0e, z0o=z0o, eps_eff_e=1.0, eps_eff_o=1.0)


def _abcd(a, b, c, d):
    return np.array([[a, b], [c, d]], dtype=complex)


def _det(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


# --- oracle: the per-section sweep that the batched kernel replaced, frozen --
# Each section was evaluated on its own over blocks of 1024 points, sharing
# (sin, tan) with the last angle evaluated; a section warned once per block.
# sweep_pcl must give the same S bytes, warnings and errors.

def oracle_cmath(fn, z):
    return np.fromiter(map(fn, z.ravel().tolist()), complex, count=z.size).reshape(z.shape)


def oracle_mode_angle(eps_eff, alpha, l, f):
    w_rad = 2.0 * math.pi * f * 1e9
    return (w_rad * math.sqrt(eps_eff) / C0 - 1j * alpha) * (l * 1e-3)


def oracle_sin_tan(th, last):
    key = (th.shape, th.tobytes())
    if key != last[0]:
        try:
            last[:] = key, (oracle_cmath(cmath.sin, th), oracle_cmath(cmath.tan, th))
        except OverflowError:
            raise ValueError("section attenuation overflows the sine; narrow the span") from None
    return last[1]


def oracle_chain(a, b, c, d):
    return np.stack((a, b, c, d), axis=-1).reshape(np.shape(a) + (2, 2))


def oracle_entries(m):
    return np.moveaxis(m.reshape(m.shape[:-2] + (4,)), -1, 0)


def oracle_section_twoport(mp, alpha_e, alpha_o, l, f, last):
    if l <= 0 or not (f > 0).all():
        raise ValueError("length and frequency must be positive")

    def trig(f):
        return (
            oracle_sin_tan(oracle_mode_angle(mp.eps_eff_e, alpha_e, l, f), last),
            oracle_sin_tan(oracle_mode_angle(mp.eps_eff_o, alpha_o, l, f), last),
        )

    def singular(modes):
        (sin_e, _), (sin_o, _) = modes
        return np.minimum(abs(sin_e), abs(sin_o)) < 1e-9

    modes = trig(f)
    at = singular(modes)
    if at.any():
        nudged = trig(np.where(at, f * (1.0 + 1e-6), f))
        still = singular(nudged)
        if still.any():
            raise ValueError(f"section is a multiple of pi at {f[still][0]} GHz and 1 ppm above it")
        warnings.warn(
            f"section is an exact multiple of pi at {', '.join(map(str, f[at].tolist()))} GHz; "
            "nudging by 1 ppm",
            SingularFrequencyWarning,
        )
        modes = nudged

    (sin_e, tan_e), (sin_o, tan_o) = modes
    z_self = -0.5j * (mp.z0e / tan_e + mp.z0o / tan_o)
    z_cross = -0.5j * (mp.z0e / sin_e - mp.z0o / sin_o)
    z_cross = np.where(abs(z_cross) < 1e-30, 1e-30, z_cross)
    a = z_self / z_cross
    return oracle_chain(a, (z_self * z_self - z_cross * z_cross) / z_cross, 1.0 / z_cross, a)


def oracle_cascade(sections):
    sections = iter(sections)
    out = next(sections)
    for m in sections:
        (a, b, c, d), (ma, mb, mc, md) = oracle_entries(out), oracle_entries(m)
        out = oracle_chain(a * ma + b * mc, a * mb + b * md, c * ma + d * mc, c * mb + d * md)
    return out


def oracle_abcd_to_s(m, z0):
    a, b, c, d = oracle_entries(m)
    den = a + b / z0 + c * z0 + d
    if (den == 0).any():
        raise ZeroDivisionError("singular ABCD-to-S conversion")
    s21 = 2.0 / den
    return oracle_chain(
        (a + b / z0 - c * z0 - d) / den, s21, s21, (-a + b / z0 - c * z0 + d) / den
    )


def oracle_dielectric_loss(sub, eps_eff, f):
    lam0 = C0 / (f * 1e9)
    er = sub.eps_r
    if er == 1.0:
        return math.pi / lam0 * math.sqrt(eps_eff) * sub.tan_d
    return math.pi / lam0 * er * (eps_eff - 1.0) / (math.sqrt(eps_eff) * (er - 1.0)) * sub.tan_d


def oracle_sweep_pcl(design, f0, sweep, mode="ideal", dims=None, substrate=None, lossy=False):
    """S-parameters [F, 2, 2] of the cascade, one section at a time per 1024-point block."""
    if mode == "physical":
        section_mps = analyze_dims(dims, substrate, f0)
        lengths = [d.l for d in dims]
    else:
        section_mps = [_ideal_mp(s.z0e, s.z0o) for s in design.sections]
        lengths = [resonator_length(mp, f0) for mp in section_mps]
    freqs = sweep.frequencies()
    if lossy:
        alphas = [(oracle_dielectric_loss(substrate, mp.eps_eff_e, freqs),
                   oracle_dielectric_loss(substrate, mp.eps_eff_o, freqs)) for mp in section_mps]
    else:
        alphas = [(np.zeros_like(freqs),) * 2] * len(section_mps)
    s = np.empty((len(freqs), 2, 2), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(freqs), 1024):
            f = slice(lo, lo + 1024)
            last = [None, None]
            sections = (
                oracle_section_twoport(mp, a_e[f], a_o[f], l, freqs[f], last)
                for mp, l, (a_e, a_o) in zip(section_mps, lengths, alphas)
            )
            s[f] = oracle_abcd_to_s(oracle_cascade(sections), design.z0)
    return s


def _fourport_reduction_oracle(mp: ModeParams, alpha_e, alpha_o, l_mm, f_ghz, z0):
    """Independent path: full 4-port Z matrix -> 4-port S -> open ports 2, 3
    (line a right / line b left) by a complex linear solve."""
    l_m = l_mm * 1e-3
    w = 2 * math.pi * f_ghz * 1e9
    th_e = (w * math.sqrt(mp.eps_eff_e) / C0 - 1j * alpha_e) * l_m
    th_o = (w * math.sqrt(mp.eps_eff_o) / C0 - 1j * alpha_o) * l_m
    zs = -0.5j * (mp.z0e / cmath.tan(th_e) + mp.z0o / cmath.tan(th_o))
    zt = -0.5j * (mp.z0e / cmath.sin(th_e) + mp.z0o / cmath.sin(th_o))
    zm = -0.5j * (mp.z0e / cmath.tan(th_e) - mp.z0o / cmath.tan(th_o))
    zx = -0.5j * (mp.z0e / cmath.sin(th_e) - mp.z0o / cmath.sin(th_o))
    # ports: 1 = line a left, 2 = line a right, 3 = line b left, 4 = line b right
    z4 = np.array(
        [
            [zs, zt, zm, zx],
            [zt, zs, zx, zm],
            [zm, zx, zs, zt],
            [zx, zm, zt, zs],
        ]
    )
    eye = np.eye(4)
    s4 = (z4 - z0 * eye) @ np.linalg.inv(z4 + z0 * eye)
    kept = [0, 3]
    opened = [1, 2]
    s_kk = s4[np.ix_(kept, kept)]
    s_ko = s4[np.ix_(kept, opened)]
    s_ok = s4[np.ix_(opened, kept)]
    s_oo = s4[np.ix_(opened, opened)]
    # an open port reflects with +1: a_open = b_open
    reduced = s_kk + s_ko @ np.linalg.solve(np.eye(2) - s_oo, s_ok)
    return reduced


class TestCoupledSection:
    def test_zero_coupling_blocks_transmission(self):
        mp = _ideal_mp(50.0, 50.0)
        for f in (2.0, 2.58, 2.9):
            s = abcd_to_s(section_chain(mp, 29.05, f), 50.0)
            assert abs(s[1, 0]) < 1e-12

    def test_image_impedance_at_quarter_wave(self):
        # at 90 degrees the image impedance is (z0e - z0o) / 2
        mp = _ideal_mp(72.21, 38.89)
        l_mm = C0 / (4 * 2.58e9) * 1e3
        m = section_chain(mp, l_mm, 2.58)
        zi = cmath.sqrt(m[0, 1] / m[1, 0])
        assert zi.real == pytest.approx((72.21 - 38.89) / 2, abs=0.01)
        assert abs(zi.imag) < 1e-9

    def test_reciprocity_determinant(self):
        rng = np.random.default_rng(17)
        mp = _ideal_mp(72.21, 38.89)
        for _ in range(100):
            f = float(rng.uniform(2.0, 3.0))
            m = section_chain(mp, 29.05, f)
            assert abs(_det(m) - 1.0) < 1e-9

    def test_matches_fourport_reduction(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            mp = ModeParams(
                z0e=float(rng.uniform(55, 95)),
                z0o=float(rng.uniform(30, 50)),
                eps_eff_e=float(rng.uniform(1.0, 4.0)),
                eps_eff_o=float(rng.uniform(1.0, 4.0)),
            )
            alpha = (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
            f = float(rng.uniform(2.0, 3.0))
            l_mm = float(rng.uniform(10.0, 20.0))
            s = abcd_to_s(section_chain(mp, l_mm, f, alpha), 50.0)
            ref = _fourport_reduction_oracle(mp, *alpha, l_mm, f, 50.0)
            assert s[0, 0] == pytest.approx(ref[0, 0], abs=1e-9)
            assert s[1, 0] == pytest.approx(ref[1, 0], abs=1e-9)
            assert s[1, 1] == pytest.approx(ref[1, 1], abs=1e-9)

    def test_singularity_nudge_warns(self):
        mp = _ideal_mp(72.21, 38.89)
        l_mm = C0 / (2 * 2.58e9) * 1e3  # half wave: theta = pi at 2.58
        with pytest.warns(UserWarning, match="nudging"):
            m = section_chain(mp, l_mm, 2.58)
        assert np.isfinite(m).all()


class TestCascade:
    def test_mirrored_pair_is_symmetric(self):
        mp = _ideal_mp(72.21, 38.89)
        m = section_chain(mp, 20.0, 2.4)
        flipped = _abcd(m[1, 1], m[0, 1], m[1, 0], m[0, 0])
        s = abcd_to_s(chain_product(m, flipped), 50.0)
        assert s[0, 0] == pytest.approx(s[1, 1], abs=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            ms = [
                section_chain(
                    _ideal_mp(float(rng.uniform(55, 90)), float(rng.uniform(30, 48))),
                    float(rng.uniform(10, 30)),
                    float(rng.uniform(2.0, 3.0)),
                )
                for _ in range(3)
            ]
            left = chain_product(chain_product(*ms[:2]), ms[2])
            right = chain_product(ms[0], chain_product(*ms[1:]))
            worst = max(worst, np.abs(left - right).max())
        assert worst < 1e-12 * 1e3  # relative to entry magnitudes ~1e2


class TestAbcdToS:
    def test_identity_network(self):
        s = abcd_to_s(np.eye(2), 50.0)
        assert s[0, 0] == 0.0
        assert s[1, 0] == 1.0

    def test_series_impedance_closed_form(self):
        s = abcd_to_s(_abcd(1.0, 50.0, 0.0, 1.0), 50.0)
        assert s[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert s[1, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_lossless_unitarity(self):
        mp = _ideal_mp(72.21, 38.89)
        for f in np.linspace(2.0, 3.0, 50):
            s = abcd_to_s(section_chain(mp, 29.05, float(f)), 50.0)
            assert abs(abs(s[0, 0]) ** 2 + abs(s[1, 0]) ** 2 - 1.0) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1), z0=st.one_of(st.floats(1e-3, 1e6), st.just(math.nan)),
           shape=st.sampled_from([(), (7,), (3, 5)]), singular=st.booleans())
    def test_matches_oracle_bit_for_bit(self, seed, z0, shape, singular):
        # entries over six decades, some exactly zero, and in half the draws a
        # point whose denominator a + b/z0 + c z0 + d is 1 + 0 + 0 - 1: the one
        # S formula that sweep_pcl writes with gives the oracle's bytes or error
        rng = np.random.default_rng(seed)
        size = shape + (2, 2)
        m = ((rng.standard_normal(size) + 1j * rng.standard_normal(size))
             * 10.0 ** rng.uniform(-3.0, 3.0, size) * (rng.random(size) > 0.1))
        if singular:
            m.reshape(-1, 2, 2)[0] = np.diag([1.0, -1.0])
        if math.isnan(z0):  # the oracle takes any z0; abcd_to_s reads its range
            with pytest.raises(ValueError, match=re.escape("z0 = nan must lie in (0, inf)")):
                abcd_to_s(m, z0)
            return
        try:
            want = oracle_abcd_to_s(m, z0)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="singular ABCD-to-S conversion"):
                abcd_to_s(m, z0)
        else:
            assert abcd_to_s(m, z0).tobytes() == want.tobytes()


class TestSweepPcl:
    def test_ideal_midband_and_center(self, fr4_design):
        r = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
        i0 = int(np.argmin(np.abs(np.array(r.frequencies) - 2.58)))
        assert r.s21_db()[i0] >= -0.05
        m = extract_metrics(r)
        assert m.f_c == pytest.approx(2.58, rel=0.03)

    def test_reciprocity_is_exact(self, fr4_design):
        r = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
        assert (r.s[:, 0, 1] == r.s[:, 1, 0]).all()

    def test_loss_ordering_fr4_vs_ro3003(self, fr4_design, ro3003_design, fr4, ro3003):
        sweep = FrequencySweep(2.3, 2.9, 401)
        r_fr4 = sweep_pcl(
            fr4_design.coupling, fr4_design.spec.f0, sweep,
            mode="physical", dims=fr4_design.dims, substrate=fr4, lossy=True,
        )
        r_ro = sweep_pcl(
            ro3003_design.coupling, ro3003_design.spec.f0, sweep,
            mode="physical", dims=ro3003_design.dims, substrate=ro3003, lossy=True,
        )
        assert extract_metrics(r_fr4).il_db < extract_metrics(r_ro).il_db

    def test_zero_coupling_design_blocks(self):
        sections = tuple(
            CouplingSection(j_over_y0=0.0, z0e=50.0, z0o=50.0) for _ in range(5)
        )
        design = CouplingDesign(z0=50.0, sections=sections)
        r = sweep_pcl(design, 2.58, FrequencySweep(2.0, 3.0, 21))
        assert np.max(np.abs(r.s[:, 1, 0])) < 1e-12

    def test_physical_mode_needs_dims(self, fr4_design):
        with pytest.raises(ValueError):
            sweep_pcl(fr4_design.coupling, 2.58, SWEEP, mode="physical")

    def test_ideal_mode_is_lossless(self, fr4_design, fr4):
        with pytest.raises(ValueError, match="lossless"):
            sweep_pcl(fr4_design.coupling, 2.58, SWEEP, dims=fr4_design.dims,
                      substrate=fr4, lossy=True)


@pytest.fixture(scope="module")
def model(paper_proto, paper_spec):
    return coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0)


@pytest.fixture(scope="module")
def lossless(model):
    return sweep_coupling_matrix(model, SWEEP)


class TestSweepCouplingMatrix:
    def test_equal_ripple_band(self, lossless, paper_spec):
        bw = ripple_bandwidth(lossless, paper_spec.ripple_db)
        assert bw == pytest.approx(130.0, rel=0.02)

    def test_four_reflection_minima(self, lossless):
        freqs = np.array(lossless.frequencies)
        mag11 = np.abs(lossless.s[:, 0, 0])
        db21 = lossless.s21_db()
        band = db21 >= db21.max() - 0.011
        lo, hi = freqs[band][0], freqs[band][-1]
        count = sum(
            1
            for i in range(1, len(freqs) - 1)
            if lo <= freqs[i] <= hi
            and mag11[i] < mag11[i - 1]
            and mag11[i] < mag11[i + 1]
            and mag11[i] < 0.01
        )
        assert count == 4

    def test_midband_unitarity(self, lossless):
        i0 = int(np.argmin(np.abs(np.array(lossless.frequencies) - 2.58)))
        s = lossless.s[i0]
        assert abs(s[0, 0]) ** 2 + abs(s[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_loss_monotone_in_qu(self, paper_proto, paper_spec):
        ils = []
        for qu in (50.0, 150.0, 500.0, math.inf):
            model = coupling_coefficients(
                paper_proto, paper_spec.fbw(), paper_spec.f0, qu=qu
            )
            r = sweep_coupling_matrix(model, FrequencySweep(2.4, 2.8, 201))
            ils.append(extract_metrics(r).il_db)
        assert ils == sorted(ils)

    def test_frequency_symmetry(self, model):
        f0 = model.f0
        for f in (2.1, 2.3, 2.45, 2.55):
            pair = sorted((f, f0 * f0 / f))
            lo = sweep_coupling_matrix(
                model, FrequencySweep(pair[0] - 1e-4, pair[0] + 1e-4, 3)
            )
            hi = sweep_coupling_matrix(
                model, FrequencySweep(pair[1] - 1e-4, pair[1] + 1e-4, 3)
            )
            assert abs(lo.s[1, 1, 0]) == pytest.approx(abs(hi.s[1, 1, 0]), abs=1e-6)
            assert bandpass_to_lowpass(pair[0], f0, model.fbw) == pytest.approx(
                -bandpass_to_lowpass(pair[1], f0, model.fbw), rel=1e-12
            )

    def test_reciprocity_exact(self, lossless):
        assert (lossless.s[:, 0, 1] == lossless.s[:, 1, 0]).all()

    @pytest.mark.parametrize("qe_out", [10.0, 20.0])
    def test_single_resonator_is_lossless(self, qe_out):
        # an order-1 resonator is loaded by both ports at once
        model = CouplingMatrixModel(n=1, k=(), qe_in=10.0, qe_out=qe_out, f0=2.58, fbw=0.1)
        r = sweep_coupling_matrix(model, FrequencySweep(2.5, 2.66, 161))
        s11, s21 = r.s[:, 0, 0], r.s[:, 1, 0]
        assert np.abs(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0).max() <= 1e-12
        assert np.abs(s21).max() <= 1.0


class TestModelsAgree:
    def test_pcl_vs_coupling_matrix(self, fr4_design, paper_proto, paper_spec):
        r_pcl = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
        model = coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0)
        r_cm = sweep_coupling_matrix(model, SWEEP)
        m_pcl, m_cm = extract_metrics(r_pcl), extract_metrics(r_cm)
        assert m_pcl.bw_3db == pytest.approx(m_cm.bw_3db, rel=0.25)
        assert m_pcl.f_c == pytest.approx(m_cm.f_c, rel=0.01)


class TestExtractMetrics:
    def test_band_metrics_consistency(self, fr4_design):
        r = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
        m = extract_metrics(r)
        assert m.f_lower_3db < m.f_c < m.f_upper_3db
        assert m.bw_3db == pytest.approx((m.f_upper_3db - m.f_lower_3db) * 1e3)
        assert m.il_db <= 0.0

    def test_no_passband_in_span(self, fr4_design):
        r = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 2.2, 51))
        with pytest.raises(BandEdgeOutOfRange):
            extract_metrics(r)

    def test_rl_band_override(self, fr4_design, paper_spec):
        r = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
        default = extract_metrics(r)
        narrow = extract_metrics(r, rl_band=(paper_spec.f_lower, paper_spec.f_upper))
        assert narrow.rl_db <= default.rl_db

    def test_result_validation(self):
        through = [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="increasing"):
            SParamResult(frequencies=(2.0, 1.0), s=[through, through], z0=50.0)
        with pytest.raises(ValueError, match="shape"):
            SParamResult(frequencies=(1.0, 2.0), s=[through], z0=50.0)


class TestFrequencySweep:
    @pytest.mark.parametrize("field", ["f_start", "f_stop"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(f_start=2.0, f_stop=3.0, n_points=11)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            FrequencySweep(**kwargs)

    def test_points_bounded(self):
        # the constructor allocates nothing, so neither sweep is ever swept here
        assert FrequencySweep(2.0, 3.0, MAX_POINTS).n_points == MAX_POINTS >= 100001
        message = f"n_points = {MAX_POINTS + 1} must lie in [2, {MAX_POINTS}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            FrequencySweep(2.0, 3.0, MAX_POINTS + 1)

    @pytest.mark.parametrize("points", [np.int64(11), np.int32(11), np.uint16(11)])
    def test_numpy_integer_points(self, points):
        assert len(FrequencySweep(2.0, 3.0, points).frequencies()) == 11


class TestSingularFrequency:
    def test_nudged_point_is_finite_and_matches_offset_sweep(self, fr4_design):
        coupling, f0 = fr4_design.coupling, fr4_design.spec.f0
        with pytest.warns(SingularFrequencyWarning) as rec:
            r = sweep_pcl(coupling, f0, FrequencySweep(4.0, 6.32, 117))  # 5.16 GHz = 2 f0
        assert len(rec) == len(coupling.sections)
        assert np.isfinite(r.s).all()
        i = int(np.argmin(np.abs(r.frequencies - 5.16)))
        offset = sweep_pcl(coupling, f0, FrequencySweep(5.16 * (1.0 + 1e-6), 6.0, 2))
        assert np.abs(r.s[i] - offset.s[0]).max() <= 1e-12

    def test_point_still_singular_after_the_nudge_is_rejected(self, fr4_design):
        # below about 1 Hz every angle's sine stays under 1e-9 after a 1 ppm nudge
        with pytest.raises(ValueError, match="1 ppm above"):
            sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(1e-10, 3.0, 11))
        mp = _ideal_mp(72.21, 38.89)
        with pytest.raises(ValueError, match="1 ppm above"):
            section_chain(mp, resonator_length(mp, 2.58), 1e-10)


class TestSweepRange:
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    def test_overflowing_angle_is_rejected_before_numpy_sees_it(self, fr4_design, fr4, mode):
        # a numpy overflow would be a RuntimeWarning, which the test run makes an error
        with pytest.raises(ValueError, match="overflows the section angle"):
            sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 1e300, 11),
                      mode=mode, dims=fr4_design.dims, substrate=fr4, lossy=mode == "physical")

    @pytest.mark.parametrize("f_start", [1e-320, 1e-310])
    def test_overflowing_wavelength_is_rejected_before_numpy_sees_it(self, fr4_design, fr4,
                                                                    f_start):
        # the dielectric loss divides by the free-space wavelength, C0 / f
        with pytest.raises(ValueError, match="f_start .* overflows the free-space wavelength"):
            sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(f_start, 1e-300, 5),
                      mode="physical", dims=fr4_design.dims, substrate=fr4, lossy=True)

    @pytest.mark.parametrize("span, end", [((2.3e-308, 3.0), "f_start"), ((2.0, 1e308), "f_stop")],
                             ids=["f-start-2.3e-308", "f-stop-1e308"])
    @pytest.mark.parametrize("qu", [math.inf, 150.0], ids=["lossless", "lossy"])
    def test_overflowing_prototype_axis_is_rejected_before_numpy_sees_it(
            self, paper_proto, paper_spec, span, end, qu):
        model = coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0, qu=qu)
        with pytest.raises(ValueError, match=f"{end} .* overflows the prototype frequency axis"):
            sweep_coupling_matrix(model, FrequencySweep(*span, 5))

    def test_overflowing_lossy_sine_is_rejected(self, fr4_design, fr4):
        with pytest.raises(ValueError, match="overflows the sine"):
            sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 1e6, 11),
                      mode="physical", dims=fr4_design.dims, substrate=fr4, lossy=True)

    @pytest.mark.parametrize("points, error", [(2048, "overflows the sine"), (2049, "1 ppm above")],
                             ids=["one-pass", "two-passes"])
    def test_one_section_raises_at_its_first_failing_pass(self, points, error):
        # a point still singular after the nudge first, a sine that overflows
        # last: in one pass (2048 points of one section) the overflow wins;
        # over two passes the pass with the singular point raises first
        f, alpha = np.full(points, 2.0), np.zeros(points)
        f[0], alpha[-1] = 1e-10, 1e6  # 1e6 Np/m over 29 mm: cosh overflows
        mp = _ideal_mp(72.21, 38.89)
        with pytest.raises(ValueError, match=error):
            section_chain(mp, resonator_length(mp, 2.58), f, (alpha, alpha))

    def test_overflowing_cascade_is_rejected(self, fr4_design):
        # z0e squared overflows a double in each section's chain matrix; the
        # overflow is a ValueError, not a RuntimeWarning and a NaN response
        sections = list(fr4_design.coupling.sections)
        sections[0] = CouplingSection(j_over_y0=sections[0].j_over_y0, z0e=1e300,
                                      z0o=sections[0].z0o)
        design = CouplingDesign(z0=50.0, sections=tuple(sections))
        with pytest.raises(ValueError, match="S-parameters overflow a double"):
            sweep_pcl(design, fr4_design.spec.f0, SWEEP)


def _recorded(fn):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out = fn()
    assert all(issubclass(w.category, SingularFrequencyWarning) for w in rec)
    return out, len(rec)


class TestSharedSectionTrig:
    """sweep_pcl evaluates the two mode rows of each distinct section once per
    pass: a ``physical`` section is keyed on its dimensions (w, s, l),
    compared as floats, so a mirror pair of a synthesized design is one
    distinct section. ``ideal`` mode is one distinct section of one row,
    broadcast."""

    @pytest.mark.parametrize("span", [(2.0, 3.0, 2501), (4.0, 6.32, 117)], ids=["band", "2f0"])
    @pytest.mark.parametrize("mode", ["ideal", "physical"])
    @pytest.mark.parametrize("board", ["fr4", "ro3003"])
    def test_bitwise_equal_to_per_section_cascade(self, request, board, mode, span):
        design = request.getfixturevalue(f"{board}_design")
        sub = request.getfixturevalue(board)
        sweep, f0, n = FrequencySweep(*span), design.spec.f0, len(design.coupling.sections)
        freqs = sweep.frequencies()
        if mode == "ideal":
            mps = [_ideal_mp(s.z0e, s.z0o) for s in design.coupling.sections]
            alphas = [(0.0, 0.0)] * len(mps)
            lengths = [resonator_length(mp, f0) for mp in mps]
        else:
            mps = [analyze_coupled(d.w, d.s, sub) for d in design.dims]
            alphas = [(oracle_dielectric_loss(sub, mp.eps_eff_e, freqs),
                       oracle_dielectric_loss(sub, mp.eps_eff_o, freqs)) for mp in mps]
            lengths = [d.l for d in design.dims]
        result, nudges = _recorded(lambda: sweep_pcl(
            design.coupling, f0, sweep, mode=mode, dims=design.dims, substrate=sub,
            lossy=mode == "physical",
        ))
        ref, ref_nudges = _recorded(lambda: oracle_abcd_to_s(
            oracle_cascade(oracle_section_twoport(mp, *alpha, l, freqs, [None, None])
                           for mp, alpha, l in zip(mps, alphas, lengths)),
            design.coupling.z0,
        ))
        assert result.s.tobytes() == ref.tobytes()
        assert nudges == ref_nudges
        if mode == "ideal" and span[0] == 4.0:  # the span holds 2 f0 exactly
            assert nudges == n

    def test_ideal_sweep_calls_cmath_once_per_point(self, fr4_design, monkeypatch):
        calls = _count_cmath(monkeypatch)
        sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 3.0, 10001))
        assert calls == {"sin": 10001, "tan": 10001}

    def test_lossless_physical_sweep_calls_cmath_once_per_row_and_point(
            self, fr4_design, fr4, monkeypatch):
        # sections 3 and 4 of the reference design hold the dimensions of 1
        # and 0: 3 distinct sections, so 6 of its 10 angle rows (sections x
        # modes) are evaluated
        assert fr4_design.dims[3:] == fr4_design.dims[1::-1]
        calls = _count_cmath(monkeypatch)
        sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 3.0, 10001),
                  mode="physical", dims=fr4_design.dims, substrate=fr4)
        assert calls == {"sin": 6 * 10001, "tan": 6 * 10001}

    def test_lossy_physical_sweep_attenuates_each_row_once(self, fr4_design, fr4, monkeypatch):
        # the dielectric loss runs on the 6 rows of the 3 distinct sections'
        # eps_eff [3, 2, 1], once per block of 1024 points, not on all 10
        # (sections x modes)
        shapes = []

        def counted(sub, eps_eff, f):
            shapes.append((np.shape(eps_eff), np.shape(f)))
            return dielectric_loss(sub, eps_eff, f)

        monkeypatch.setattr("mwbpf.rfsim.dielectric_loss", counted)
        sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 3.0, 2049),
                  mode="physical", dims=fr4_design.dims, substrate=fr4, lossy=True)
        assert shapes == [((3, 2, 1), (1024,)), ((3, 2, 1), (1024,)), ((3, 2, 1), (1,))]

    def test_sections_that_all_differ_evaluate_every_row(self, fr4_design, fr4, monkeypatch):
        # sections 3 and 4 one ulp wider than their mirrors 1 and 0: all 10 rows differ
        dims = list(fr4_design.dims)
        for i in (3, 4):
            dims[i] = CoupledSectionDims(w=math.nextafter(dims[i].w, math.inf), l=dims[i].l,
                                         s=dims[i].s)
        calls = _count_cmath(monkeypatch)
        sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 3.0, 10001),
                  mode="physical", dims=tuple(dims), substrate=fr4)
        assert calls == {"sin": 10 * 10001, "tan": 10 * 10001}

    def test_sections_that_all_equal_evaluate_two_rows(self, fr4_design, fr4, monkeypatch):
        # five sections of one (w, s, l) are one distinct section, broadcast
        calls = _count_cmath(monkeypatch)
        sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 3.0, 10001),
                  mode="physical", dims=(fr4_design.dims[2],) * 5, substrate=fr4)
        assert calls == {"sin": 2 * 10001, "tan": 2 * 10001}

    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
    def test_sections_that_all_equal_match_the_oracle(self, fr4_design, fr4, lossy):
        # the one distinct section's even mode is an exact half wave at a
        # swept point: a lossless sweep nudges every section there, and each
        # warns once
        sweep = FrequencySweep(2.0, 3.0, 1001)
        f, d = sweep.frequencies()[500], fr4_design.dims[2]
        eps_e = analyze_coupled(d.w, d.s, fr4).eps_eff_e
        dims = (CoupledSectionDims(w=d.w, s=d.s, l=C0 / (2 * f * 1e9 * math.sqrt(eps_e)) * 1e3),) * 5
        kw = dict(mode="physical", dims=dims, substrate=fr4, lossy=lossy)
        got = _outcome(lambda: sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, sweep, **kw))
        assert got == _outcome(lambda: oracle_sweep_pcl(fr4_design.coupling, fr4_design.spec.f0,
                                                        sweep, **kw))
        assert got[1] == ([] if lossy else
                          [f"section is an exact multiple of pi at {f} GHz; nudging by 1 ppm"] * 5)

    def test_equal_rows_of_differently_nudged_sections_stay_apart(self):
        # two distinct sections of one length and one even mode; the second's
        # odd mode is an exact half wave at a swept point, so that section
        # alone is nudged there, and its even row with it: rows shared across
        # sections by eps_eff alone would nudge both even rows or neither
        freqs = FrequencySweep(2.0, 3.0, 101).frequencies()
        eps_o = 2.9
        l = C0 / (2 * freqs[40] * 1e9 * math.sqrt(eps_o)) * 1e3
        mps = [ModeParams(z0e=72.2, z0o=38.9, eps_eff_e=3.2, eps_eff_o=2.7),
               ModeParams(z0e=54.6, z0o=46.1, eps_eff_e=3.2, eps_eff_o=eps_o)]
        eps = np.array([(mp.eps_eff_e, mp.eps_eff_o) for mp in mps])[..., None]
        zm = np.array([(mp.z0e, mp.z0o) for mp in mps])[..., None]
        got = _outcome(lambda: np.moveaxis(mwbpf.rfsim._cascade_block(
            zm, np.sqrt(eps), np.zeros((2, 2, len(freqs))), np.full((2, 1, 1), l), np.arange(2),
            freqs), (0, 1), (-2, -1)))
        want = _outcome(lambda: oracle_cascade(
            oracle_section_twoport(mp, 0.0, 0.0, l, freqs, [None, None]) for mp in mps))
        assert got == want
        assert got[1] == [f"section is an exact multiple of pi at {freqs[40]} GHz; nudging by 1 ppm"]


def _count_cmath(monkeypatch) -> dict:
    """Count rfsim's cmath.sin and cmath.tan calls."""
    calls = {"sin": 0, "tan": 0}

    def counted(name):
        def fn(z):
            calls[name] += 1
            return getattr(cmath, name)(z)
        return fn

    monkeypatch.setattr("mwbpf.rfsim.cmath", types.SimpleNamespace(
        sin=counted("sin"), tan=counted("tan")))
    return calls


def _outcome(fn):
    """(S bytes or the error, the SingularFrequencyWarning messages) of a sweep."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            s = fn()
            out = (s.s if isinstance(s, SParamResult) else s).tobytes()
        except ValueError as exc:
            out = repr(exc)
    assert not [w for w in rec if issubclass(w.category, RuntimeWarning)]
    return out, [str(w.message) for w in rec if w.category is SingularFrequencyWarning]


class TestBatchedKernelMatchesOracle:
    """sweep_pcl's passes over all sections give the per-section sweep's bytes and warnings."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_design_space_sweeps(self, registry, seed):
        spec, sub = design_space_case(seed, registry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                doc = synthesize_design(spec, sub, created="2026-01-01T00:00:00+00:00")
            except (ValueError, RuntimeError):
                return
        step = mwbpf.rfsim._BLOCK // (2 * len(doc.dims))  # sweep points per pass
        bw = spec.f_upper - spec.f_lower
        for points in (2, 21, step - 1, step, step + 1, 1025):
            sweep = FrequencySweep(spec.f0 - 1.5 * bw, spec.f0 + 1.5 * bw, points)
            for mode, lossy in (("ideal", False), ("physical", False), ("physical", True)):
                kw = dict(mode=mode, dims=doc.dims, substrate=sub, lossy=lossy)
                got = _outcome(lambda: sweep_pcl(doc.coupling, spec.f0, sweep, **kw))
                want = _outcome(lambda: oracle_sweep_pcl(doc.coupling, spec.f0, sweep, **kw))
                assert got == want, (points, mode, lossy)

    @pytest.mark.parametrize("points", [1001, 3001], ids=["one-block", "three-blocks"])
    def test_half_wave_section_in_physical_mode(self, fr4_design, fr4, points):
        # section 2 an exact half wave (even mode) at one point of a lossless
        # sweep: that section alone warns, once, naming the point
        sweep = FrequencySweep(2.0, 3.0, points)
        f = sweep.frequencies()[points // 3]
        mp = analyze_coupled(fr4_design.dims[2].w, fr4_design.dims[2].s, fr4)
        dims = list(fr4_design.dims)
        dims[2] = CoupledSectionDims(w=dims[2].w, l=C0 / (2 * f * 1e9 * math.sqrt(mp.eps_eff_e)) * 1e3,
                                     s=dims[2].s)
        kw = dict(mode="physical", dims=tuple(dims), substrate=fr4)
        got = _outcome(lambda: sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, sweep, **kw))
        assert got[1] == [f"section is an exact multiple of pi at {f} GHz; nudging by 1 ppm"]
        assert got == _outcome(lambda: oracle_sweep_pcl(fr4_design.coupling, fr4_design.spec.f0,
                                                        sweep, **kw))

    @pytest.mark.parametrize("span, points", [((5.16, 10.32), 1001), ((5.16, 10.32), 3000),
                                              ((1e-10, 3.0), 2000)],
                             ids=["2f0-4f0-one-block", "2f0-4f0-two-blocks", "still-singular"])
    def test_nudges_group_by_block_as_the_oracle(self, fr4_design, span, points):
        # 2 f0 and 4 f0 in one 1024-point block but in different passes give
        # one warning per section listing both, as the per-section sweep did
        sweep = FrequencySweep(*span, points)
        got = _outcome(lambda: sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, sweep))
        assert got == _outcome(lambda: oracle_sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, sweep))
        assert len(got[1]) == {1001: 5, 3000: 10, 2000: 0}[points]

    @pytest.mark.parametrize("points", [11, 900, 1500])
    @pytest.mark.parametrize("singular", [0, 1])
    def test_first_failing_section_wins(self, fr4_design, fr4, points, singular):
        # one section a half wave at f_start on a nearly lossless board, the
        # others long enough that their sine overflows near f_stop: the
        # per-section sweep's error, after the warnings of the blocks that
        # finished before the failing one; the failing block warns nothing
        sub = Substrate(name="low-loss", eps_r=fr4.eps_r, tan_d=1e-12, h=fr4.h)
        mp = analyze_coupled(fr4_design.dims[singular].w, fr4_design.dims[singular].s, sub)
        dims = [CoupledSectionDims(w=d.w, l=100.0, s=d.s) for d in fr4_design.dims]
        dims[singular] = CoupledSectionDims(
            w=dims[singular].w, l=C0 / (2 * 2.321e9 * math.sqrt(mp.eps_eff_e)) * 1e3, s=dims[singular].s)
        f_stop = 1e4 / dielectric_loss(sub, mp.eps_eff_e, 1.0)  # 1000 Np over 100 mm
        sweep = FrequencySweep(2.321, f_stop, points)
        kw = dict(mode="physical", dims=tuple(dims), substrate=sub, lossy=True)
        got = _outcome(lambda: sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, sweep, **kw))
        freqs, shown = sweep.frequencies(), []
        for lo in range(0, len(freqs), mwbpf.rfsim._POINTS):
            block_freqs = freqs[lo:lo + mwbpf.rfsim._POINTS]
            block = types.SimpleNamespace(frequencies=lambda: block_freqs)  # one block of the sweep
            error, warned = _outcome(lambda: oracle_sweep_pcl(fr4_design.coupling,
                                                              fr4_design.spec.f0, block, **kw))
            if isinstance(error, str):
                break
            shown += warned
        assert got == (error, shown)
        assert "overflows the sine" in got[0]


class TestSweepMemory:
    # bounds (KB) on the traced peaks of sweeps of the FR4 reference design.
    # Lossy physical: 110 % of the per-section sweep this kernel replaced (565
    # and 1910 KB); a pass holds at most _BLOCK angles. Ideal: 105 % of this
    # kernel's own peaks (378 and 1079 KB), whose passes evaluate and hold one
    # trig row, so the bound stays under the per-section sweep's 461 and 1173 KB.
    # With its stacked sections and S written in place, the kernel peaks at
    # 385 and 1020 KB ideal and 547 and 1183 KB lossy physical (1001 and 10001
    # points)
    PEAK_BOUND_KB = {(1001, False): 1.05 * 378, (1001, True): 1.10 * 565,
                     (10001, False): 1.05 * 1079, (10001, True): 1.10 * 1910}

    @pytest.mark.parametrize("points", [1001, 10001])
    @pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy-physical"])
    def test_traced_peak(self, fr4_design, fr4, points, lossy):
        def sweep():
            sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, FrequencySweep(2.0, 3.0, points),
                      mode="physical" if lossy else "ideal", dims=fr4_design.dims, substrate=fr4,
                      lossy=lossy)

        sweep()
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BOUND_KB[points, lossy] * 1024


# --- scalar reference: one frequency at a time, Python complex arithmetic ---

def _scalar_pcl(mps, alphas, lengths, f, z0):
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for mp, (alpha_e, alpha_o), l_mm in zip(mps, alphas, lengths):
        beta = 2 * math.pi * f * 1e9 / C0
        th_e = (beta * math.sqrt(mp.eps_eff_e) - 1j * alpha_e) * l_mm * 1e-3
        th_o = (beta * math.sqrt(mp.eps_eff_o) - 1j * alpha_o) * l_mm * 1e-3
        zs = -0.5j * (mp.z0e / cmath.tan(th_e) + mp.z0o / cmath.tan(th_o))
        zx = -0.5j * (mp.z0e / cmath.sin(th_e) - mp.z0o / cmath.sin(th_o))
        ma, mb, mc, md = zs / zx, (zs * zs - zx * zx) / zx, 1 / zx, zs / zx
        a, b, c, d = a * ma + b * mc, a * mb + b * md, c * ma + d * mc, c * mb + d * md
    den = a + b / z0 + c * z0 + d
    return (a + b / z0 - c * z0 - d) / den, 2 / den, (-a + b / z0 - c * z0 + d) / den


def _scalar_ml(model, f):
    """Cramer's rule on the tridiagonal A, determinants by the continuant recurrence."""
    n, fbw, m = model.n, model.fbw, [k / model.fbw for k in model.k]
    qe1, qen = model.qe_in * fbw, model.qe_out * fbw
    r = [1 / qe1] + [0.0] * (n - 2) + [1 / qen]
    omega = (f / model.f0 - model.f0 / f) / fbw
    diag = [omega - 1j * (ri + 1 / (model.qu * fbw)) for ri in r]

    def det(lo, hi):  # of A[lo:hi, lo:hi], 0 < hi - lo
        prev, cur = 1.0, diag[lo]
        for i in range(lo + 1, hi):
            prev, cur = cur, diag[i] * cur - m[i - 1] ** 2 * prev
        return cur

    full = det(0, n)
    a11, ann, an1 = det(1, n) / full, det(0, n - 1) / full, (-1) ** (n - 1) * math.prod(m) / full
    s11, s22 = -1 - 2j / qe1 * a11, -1 - 2j / qen * ann
    return s11, -2j / math.sqrt(qe1 * qen) * an1, s22


def _engine_and_reference(engine, design, sub):
    freqs = SWEEP.frequencies().tolist()
    if engine == "ml":
        eps = [(mp.eps_eff_e + mp.eps_eff_o) / 2 for mp in (analyze_coupled(d.w, d.s, sub) for d in design.dims)]
        qu = unloaded_q(sub, sum(eps) / len(eps), design.spec.f0)
        model = coupling_coefficients(design.prototype, design.spec.fbw(), design.spec.f0, qu=qu)
        return sweep_coupling_matrix(model, SWEEP), [_scalar_ml(model, f) for f in freqs]
    if engine == "ideal":
        result = sweep_pcl(design.coupling, design.spec.f0, SWEEP)
        mps = [_ideal_mp(s.z0e, s.z0o) for s in design.coupling.sections]
        lengths = [C0 / (4.0 * design.spec.f0 * 1e9) * 1e3] * len(mps)
        lossless = [(0.0, 0.0)] * len(mps)
        return result, [_scalar_pcl(mps, lossless, lengths, f, design.coupling.z0) for f in freqs]
    result = sweep_pcl(
        design.coupling, design.spec.f0, SWEEP,
        mode="physical", dims=design.dims, substrate=sub, lossy=True,
    )
    mps = [analyze_coupled(d.w, d.s, sub) for d in design.dims]
    lengths = [d.l for d in design.dims]
    ref = []
    for f in freqs:
        alphas = [(dielectric_loss(sub, mp.eps_eff_e, f), dielectric_loss(sub, mp.eps_eff_o, f))
                  for mp in mps]
        ref.append(_scalar_pcl(mps, alphas, lengths, f, design.coupling.z0))
    return result, ref


class TestScalarReference:
    @pytest.mark.parametrize("engine", ["ideal", "physical", "ml"])
    @pytest.mark.parametrize("board", ["fr4", "ro3003"])
    def test_engine_matches_scalar_reference(self, request, board, engine):
        design = request.getfixturevalue(f"{board}_design")
        sub = request.getfixturevalue(board)
        result, ref = _engine_and_reference(engine, design, sub)
        ref = np.array(ref)
        s11, s21, s22 = result.s[:, 0, 0], result.s[:, 1, 0], result.s[:, 1, 1]
        assert np.abs(np.stack((s11, s21, s22), axis=1) - ref).max() <= 1e-12
        assert (result.s[:, 0, 1] == s21).all()
        power = np.abs(s11) ** 2 + np.abs(s21) ** 2
        if engine == "ideal":
            assert np.abs(power - 1.0).max() <= 1e-12
            assert np.abs(s11 - s22).max() <= 1e-12  # palindromic design
        else:
            assert (power <= 1.0).all()

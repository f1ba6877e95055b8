import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwbpf.microstrip import (
    C0,
    GAP_FLOOR_MM,
    CoupledSectionDims,
    CouplingUnreachable,
    GapTooSmallWarning,
    ModelValidityWarning,
    ModeParams,
    NoConvergence,
    Substrate,
    analyze_coupled,
    analyze_single,
    check_fit_range,
    dielectric_loss,
    resonator_length,
    synthesize_coupled,
    synthesize_single_width,
    unloaded_q,
)

from conftest import TABLE1_ZE, TABLE1_ZO, TABLE2_FR4, TABLE3_RO3003


class TestAnalyzeSingle:
    def test_fr4_reference_point(self, fr4):
        z0, eps = analyze_single(3.2, fr4)
        assert z0 == pytest.approx(49.4, abs=1.0)
        assert eps == pytest.approx(3.27, abs=0.05)

    def test_air_substrate(self):
        air = Substrate(name="air", eps_r=1.0, tan_d=0.0, h=1.6)
        for w in (0.5, 1.6, 5.0):
            _, eps = analyze_single(w, air)
            assert eps == pytest.approx(1.0, rel=1e-12)

    def test_impedance_monotone_in_width(self, fr4):
        widths = np.geomspace(0.2, 20.0, 40)
        z = [analyze_single(w, fr4)[0] for w in widths]
        assert all(a > b for a, b in zip(z, z[1:]))

    def test_smooth_near_unit_aspect(self, fr4):
        # single closed form: no discontinuity across w/h = 1
        z_lo = analyze_single(1.6 * 0.999, fr4)[0]
        z_hi = analyze_single(1.6 * 1.001, fr4)[0]
        assert abs(z_lo / z_hi - 1) < 0.005

    def test_width_synthesis_round_trip(self, fr4):
        for z_target in (30.0, 50.0, 75.0, 110.0):
            w = synthesize_single_width(z_target, fr4)
            assert analyze_single(w, fr4)[0] == pytest.approx(z_target, rel=1e-9)


class TestAnalyzeCoupled:
    def test_reference_dims_reproduce_impedances_loosely(self, fr4, ro3003):
        # inverse of the line-calculator step: published dims land within 15%
        for (w, l, s), ze_ref, zo_ref in zip(TABLE2_FR4, TABLE1_ZE, TABLE1_ZO):
            mp = analyze_coupled(w, s, fr4)
            assert mp.z0e == pytest.approx(ze_ref, rel=0.15)
            assert mp.z0o == pytest.approx(zo_ref, rel=0.15)
        for (w, l, s), ze_ref, zo_ref in zip(TABLE3_RO3003, TABLE1_ZE, TABLE1_ZO):
            mp = analyze_coupled(w, s, ro3003)
            assert mp.z0e == pytest.approx(ze_ref, rel=0.15)
            assert mp.z0o == pytest.approx(zo_ref, rel=0.15)

    def test_weak_coupling_small_split(self, fr4):
        mp = analyze_coupled(3.3, 5 * fr4.h, fr4)
        assert mp.z0e - mp.z0o < 0.05 * mp.z0e

    def test_decoupling_limit_matches_single(self, fr4):
        z_single, _ = analyze_single(3.3, fr4)
        mp = analyze_coupled(3.3, 20 * fr4.h, fr4)
        assert mp.z0e == pytest.approx(z_single, rel=0.01)
        assert mp.z0o == pytest.approx(z_single, rel=0.01)

    def test_even_eps_exceeds_odd(self, fr4):
        for u in (0.5, 1.0, 2.0, 4.0):
            for g in (0.2, 0.5, 1.0, 3.0):
                mp = analyze_coupled(u * fr4.h, g * fr4.h, fr4)
                assert mp.eps_eff_e >= mp.eps_eff_o
                assert 1.0 <= mp.eps_eff_o <= fr4.eps_r
                assert mp.z0e > mp.z0o

    def test_split_monotone_in_gap(self, fr4):
        gaps = np.geomspace(0.2, 6.0, 25)
        splits = [
            (lambda mp: mp.z0e - mp.z0o)(analyze_coupled(3.0, g, fr4)) for g in gaps
        ]
        assert all(a > b for a, b in zip(splits, splits[1:]))

    def test_validity_warning(self, fr4):
        with pytest.warns(ModelValidityWarning):
            check_fit_range(3.0, 20.0, fr4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_fit_range(3.0, 1.0, fr4)
            analyze_coupled(3.0, 20.0, fr4)  # the model itself is pure


class TestCheckFitRange:
    def test_gap_floor_warning(self, fr4):
        w, s = synthesize_coupled(85.0, 32.0, fr4)
        with pytest.warns((GapTooSmallWarning, ModelValidityWarning)) as rec:
            check_fit_range(w, s, fr4)
        assert any(r.category is GapTooSmallWarning for r in rec)

    def test_near_degenerate_coupling_warns_validity(self, fr4):
        w, s = synthesize_coupled(50.0, 49.9, fr4)
        with pytest.warns(ModelValidityWarning):
            check_fit_range(w, s, fr4)

    def test_gap_floor_is_checked_apart_from_the_fit_range(self, fr4):
        def categories(w, s, sub):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                check_fit_range(w, s, sub)
            return [r.category for r in rec]

        assert categories(3.0, 0.05, fr4) == [GapTooSmallWarning, ModelValidityWarning]
        # s/h = 0.5 lies inside the fit range: only the floor warns
        thin = Substrate(name="thin", eps_r=3.0, tan_d=0.0, h=0.1)
        assert categories(0.2, 0.05, thin) == [GapTooSmallWarning]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_fit_range(0.2, GAP_FLOOR_MM, thin)


class TestSynthesizeCoupled:
    def test_round_trip_random_pairs(self, fr4):
        rng = np.random.default_rng(42)
        accepted = 0
        worst = 0.0
        while accepted < 100:
            z0o = float(rng.uniform(40.0, 110.0))
            z0e = float(rng.uniform(z0o + 1.0, 120.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # pure: outside the fit range too
                w, s = synthesize_coupled(z0e, z0o, fr4)
            if not (0.1 <= w / fr4.h <= 10 and 0.1 <= s / fr4.h <= 5):
                continue
            mp = analyze_coupled(w, s, fr4)
            worst = max(worst, abs(mp.z0e / z0e - 1), abs(mp.z0o / z0o - 1))
            accepted += 1
        assert worst < 0.005

    def test_strong_section_dimensions(self, fr4):
        w, s = synthesize_coupled(72.21, 38.89, fr4)
        # gap fidelity is limited by the published tables themselves; see the
        # acceptance log for the per-value comparison
        assert w == pytest.approx(2.35, rel=0.15)
        assert 0.2 < s < 0.6

    def test_unreachable_split(self):
        sub = Substrate(name="g", eps_r=3.09229089077722, tan_d=0.0, h=0.8016347396291228)
        with pytest.raises(CouplingUnreachable):
            synthesize_coupled(31.079, 9.362, sub)

    def test_model_overflow_is_a_typed_failure(self):
        # the mode fits overflow along the Newton path and at the minimum gap
        sub = Substrate(name="g", eps_r=5.845842283223225, tan_d=0.0, h=2.5430386727037426)
        with pytest.raises(CouplingUnreachable):
            synthesize_coupled(337.267, 80.273, sub)

    def test_rejects_bad_targets(self, fr4):
        with pytest.raises(ValueError):
            synthesize_coupled(40.0, 50.0, fr4)

    @settings(max_examples=200, deadline=None)
    @given(
        eps_r=st.floats(2.0, 12.0),
        h=st.floats(0.1, 3.0),
        tan_d=st.floats(0.0, 0.03),
        z0o=st.floats(5.0, 150.0),
        split=st.floats(1.0001, 6.0),
    )
    def test_round_trip_or_typed_failure(self, eps_r, h, tan_d, z0o, split):
        # over the substrate and impedance space synthesis either realizes
        # both mode impedances to 1e-6 or says why it cannot
        sub = Substrate(name="x", eps_r=eps_r, tan_d=tan_d, h=h)
        z0e = z0o * split
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                w, s = synthesize_coupled(z0e, z0o, sub)
            except (CouplingUnreachable, NoConvergence):
                return
        mp = analyze_coupled(w, s, sub)
        # the convergence test, in log space
        assert abs(math.log(mp.z0e / z0e)) < 1e-6
        assert abs(math.log(mp.z0o / z0o)) < 1e-6


class TestResonatorLength:
    def test_reference_point(self):
        mp = ModeParams(z0e=60, z0o=45, eps_eff_e=3.27, eps_eff_o=3.27)
        assert resonator_length(mp, 2.58) == pytest.approx(16.06, abs=0.05)

    def test_free_space_quarter_wave(self):
        mp = ModeParams(z0e=60, z0o=45, eps_eff_e=1.0, eps_eff_o=1.0)
        assert resonator_length(mp, 2.58) == pytest.approx(29.05, abs=0.01)

    def test_frequency_scaling(self):
        mp = ModeParams(z0e=60, z0o=45, eps_eff_e=2.5, eps_eff_o=3.0)
        assert resonator_length(mp, 5.16) == pytest.approx(
            resonator_length(mp, 2.58) / 2.0, rel=1e-12
        )

    def test_exact_quarter_wave_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ee = float(rng.uniform(1.0, 10.0))
            f0 = float(rng.uniform(0.5, 30.0))
            mp = ModeParams(z0e=60, z0o=45, eps_eff_e=ee, eps_eff_o=ee)
            l_mm = resonator_length(mp, f0)
            assert l_mm * 1e-3 * 4 * f0 * 1e9 * math.sqrt(ee) == pytest.approx(
                C0, rel=1e-9
            )


class TestLoss:
    def test_lossless_substrate(self, fr4):
        dry = Substrate(name="x", eps_r=4.3, tan_d=0.0, h=1.6)
        assert dielectric_loss(dry, 3.27, 2.58) == 0.0

    def test_fr4_golden_value(self, fr4):
        # frozen from evaluating the stated attenuation formula directly
        assert dielectric_loss(fr4, 3.27, 2.58) == pytest.approx(1.1056, rel=0.05)

    def test_linear_in_tan_d(self, fr4):
        thinned = Substrate(name="x", eps_r=4.3, tan_d=fr4.tan_d / 19.23, h=1.6)
        ratio = dielectric_loss(fr4, 3.27, 2.58) / dielectric_loss(thinned, 3.27, 2.58)
        assert ratio == pytest.approx(19.23, rel=1e-9)

    def test_increasing_in_frequency(self, fr4):
        f = np.linspace(1.0, 10.0, 10)
        a = [dielectric_loss(fr4, 3.27, fi) for fi in f]
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_homogeneous_limit(self):
        air = Substrate(name="air", eps_r=1.0, tan_d=0.001, h=1.6)
        got = dielectric_loss(air, 1.0, 2.58)
        lam0 = C0 / 2.58e9
        assert got == pytest.approx(math.pi / lam0 * 0.001, rel=1e-12)

    def test_unloaded_q_ordering(self, fr4, ro3003):
        q_fr4 = unloaded_q(fr4, 3.27, 2.58)
        q_ro = unloaded_q(ro3003, 2.38, 2.58)
        assert q_ro > q_fr4 > 0
        lossless = Substrate(name="x", eps_r=4.3, tan_d=0.0, h=1.6)
        assert unloaded_q(lossless, 3.27, 2.58) == math.inf


class TestValidation:
    def test_substrate_invariants(self):
        with pytest.raises(ValueError):
            Substrate(name="bad", eps_r=0.5, tan_d=0.0, h=1.0)
        with pytest.raises(ValueError):
            Substrate(name="bad", eps_r=2.0, tan_d=0.0, h=-1.0)

    @pytest.mark.parametrize("field", ["eps_r", "tan_d", "h", "t", "conductivity"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_substrate_rejects_non_finite(self, field, value):
        kwargs = dict(name="x", eps_r=3.0, tan_d=0.001, h=0.5, t=0.035, conductivity=5.8e7)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            Substrate(**kwargs)

    def test_dims_invariants(self):
        with pytest.raises(ValueError):
            CoupledSectionDims(w=-1.0, s=0.5, l=16.0)

    @pytest.mark.parametrize("field", ["w", "s", "l"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_dims_reject_non_finite(self, field, value):
        kwargs = dict(w=2.0, s=0.5, l=16.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            CoupledSectionDims(**kwargs)

import itertools
import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwbpf
import mwbpf.microstrip
from mwbpf.coupling import design_coupling
from mwbpf.design import DesignDocument, synthesize_design, to_dict
from mwbpf.microstrip import (
    C0,
    EPS_R_RANGE,
    ETA0,
    GAP_FLOOR_MM,
    GAP_HARD_MIN_MM,
    SUBSTRATE_RANGE_MM,
    WIDTH_RANGE_H,
    CoupledSectionDims,
    CouplingUnreachable,
    GapTooSmallWarning,
    ModelValidityWarning,
    ModeParams,
    NoConvergence,
    Substrate,
    analyze_coupled,
    analyze_dims,
    analyze_single,
    check_fit_range,
    dielectric_loss,
    resonator_length,
    synthesize_coupled,
    synthesize_single_width,
    unloaded_q,
)

from mwbpf.prototype import FilterSpec, design_prototype

from conftest import PAPER_SPEC, TABLE1_ZE, TABLE1_ZO, TABLE2_FR4, TABLE3_RO3003


# A reference copy of the numpy-array Newton synthesis: synthesize_coupled
# runs the same iteration on Python floats and must give the same model
# evaluations and the same (w, s) bit for bit. And the plain bisection of the
# searched widths: the width search must end the same way, at a width within
# 1e-13 in its logarithm.
def oracle_single_width(z0_target, sub):
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


def oracle_single_width_in_range(z0_target, sub):
    # synthesize_single_width refuses a target below z0 at the widest width
    w = oracle_single_width(z0_target, sub)
    if analyze_single(WIDTH_RANGE_H[1] * sub.h, sub)[0] > z0_target:
        raise CouplingUnreachable(f"{z0_target} ohm is below the model range")
    return w


def oracle_analyze_coupled(w, s, sub):
    # the coupled model as one list of expressions; analyze_coupled
    # composes it from width-only, gap-only and mixed parts
    if not (w > 0 and s > 0):
        raise ValueError("width and gap must be positive")
    try:
        u = w / sub.h
        g = s / sub.h
        er = sub.eps_r
        z_s, ee_s = analyze_single(w, sub)
        v = u * (20.0 + g * g) / (10.0 + g * g) + g * math.exp(-g)
        ee_e = mwbpf.microstrip._eps_eff_static(v, er)
        bo = 0.747 * er / (0.15 + er)
        co = bo - (bo - 0.207) * math.exp(-0.414 * u)
        do = 0.593 + 0.694 * math.exp(-0.562 * u)
        ao = 0.7287 * (ee_s - (er + 1.0) / 2.0) * (1.0 - math.exp(-0.179 * u))
        ee_o = ((er + 1.0) / 2.0 + ao - ee_s) * math.exp(-co * g**do) + ee_s
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
    if not (0 < z0e < math.inf and 0 < z0o < math.inf):
        raise ValueError(f"coupled pair w={w:g} mm, s={s:g} mm gives a mode impedance "
                         f"that is not positive and finite (z0e={z0e:g}, z0o={z0o:g} ohm)")
    return ModeParams(z0e=z0e, z0o=z0o, eps_eff_e=ee_e, eps_eff_o=ee_o)


def oracle_modes_or_none(w, s, sub):
    try:
        mp = analyze_coupled(w, s, sub)
    except ValueError:
        return None
    if 0 < mp.z0e < math.inf and 0 < mp.z0o < math.inf:
        return mp
    return None


def oracle_solve(a, b):
    """x of a x = b for a 2x2 array a: Gaussian elimination with partial
    pivoting, the first row kept on a tie, each operation rounded on its
    own; None at an exact zero pivot."""
    if abs(a[1, 0]) > abs(a[0, 0]):
        a, b = a[::-1], b[::-1]
    if a[0, 0] == 0:
        return None
    l = a[1, 0] / a[0, 0]
    u11 = a[1, 1] - a[0, 1] * l
    if u11 == 0:
        return None
    x1 = (b[1] - b[0] * l) / u11
    return np.array([(b[0] - x1 * a[0, 1]) / a[0, 0], x1])


def oracle_synthesize_coupled(z0e, z0o, sub):
    if not (z0e > z0o > 0):
        raise ValueError("need z0e > z0o > 0")
    h = sub.h

    def residual(x):
        mp = oracle_modes_or_none(math.exp(x[0]), math.exp(x[1]), sub)
        if mp is None:
            return None
        return np.array([math.log(mp.z0e / z0e), math.log(mp.z0o / z0o)])

    def norm(v):
        return math.sqrt(v[0] * v[0] + v[1] * v[1])

    lo = np.array([math.log(WIDTH_RANGE_H[0] * h), math.log(GAP_HARD_MIN_MM)])
    hi = np.array([math.log(WIDTH_RANGE_H[1] * h), math.log(60.0 * h)])
    step = 1e-6
    w0 = mwbpf.microstrip._search_width(math.sqrt(z0e) * math.sqrt(z0o), sub)[0]
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
        dx = oracle_solve(jac, -f)
        if dx is None:
            break
        lam = 1.0
        while lam > 1e-8:
            cand = np.clip(x + lam * dx, lo, hi)
            fc = residual(cand)
            if fc is not None and norm(fc) < norm(f):
                break
            lam *= 0.5
        else:
            break
        x, f = cand, fc

    split = z0e - z0o
    mp = oracle_modes_or_none(w0, GAP_HARD_MIN_MM, sub)
    if mp is None or mp.z0e - mp.z0o < split:
        raise CouplingUnreachable("unreachable")
    raise NoConvergence("no convergence")


def oracle_synthesize_design(spec, sub, created):
    # synthesize_design without the reuse of repeated sections: one
    # synthesis per section
    proto = design_prototype(spec)
    coupling = design_coupling(proto, spec.fbw(), spec.z0)
    dims = []
    for section in coupling.sections:
        w, s = oracle_synthesize_coupled(section.z0e, section.z0o, sub)
        check_fit_range(w, s, sub)
        mp = analyze_coupled(w, s, sub)
        dims.append(CoupledSectionDims(w=w, s=s, l=resonator_length(mp, spec.f0)))
    return DesignDocument(
        spec=spec, prototype=proto, coupling=coupling, dims=tuple(dims),
        substrate=sub.name, tool=f"mwbpf {mwbpf.__version__}", created=created,
    )


# substrates and mode impedances the synthesis property tests draw from
SYNTHESIS_SPACE = dict(
    eps_r=st.floats(2.0, 12.0),
    h=st.floats(0.1, 3.0),
    tan_d=st.floats(0.0, 0.03),
    z0o=st.floats(5.0, 150.0),
    split=st.floats(1.0001, 6.0),
)


def log_uniform(lo, hi):
    """Floats in [lo, hi], uniform in their logarithm."""
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))


def outcome(synthesize, *args):
    """The width, or (w, s), as float.hex, or the type of the exception raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = synthesize(*args)
        except (CouplingUnreachable, NoConvergence) as exc:
            return type(exc)
    if isinstance(result, float):
        return result.hex()
    return tuple(v.hex() for v in result)


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

    # every permittivity and height a Substrate takes, and targets from below
    # z0 at the widest strip (0.09 ohm at eps_r 1e4) to above z0 at the
    # narrowest (359 ohm in air), both unreachable, out to the ends of the
    # double range
    @settings(max_examples=300, deadline=None)
    @given(
        eps_r=st.one_of(st.sampled_from(EPS_R_RANGE), log_uniform(*EPS_R_RANGE)),
        h=st.one_of(st.sampled_from(SUBSTRATE_RANGE_MM), log_uniform(*SUBSTRATE_RANGE_MM)),
        target=st.one_of(log_uniform(1e-3, 1e4),
                         st.sampled_from([5e-324, 1e-300, 1e300, sys.float_info.max, math.inf])),
    )
    def test_width_synthesis_matches_plain_bisection(self, eps_r, h, target):
        # the same outcome, and a width within 1e-13 in its logarithm
        sub = Substrate(name="x", eps_r=eps_r, tan_d=0.0, h=h)
        got = outcome(synthesize_single_width, target, sub)
        want = outcome(oracle_single_width_in_range, target, sub)
        if isinstance(want, str):
            assert isinstance(got, str)
            assert abs(math.log(float.fromhex(got) / float.fromhex(want))) <= 1e-13
        else:
            assert got == want

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(u=log_uniform(*WIDTH_RANGE_H), eps_r=log_uniform(*EPS_R_RANGE))
    def test_closed_form_width_is_within_one_percent(self, u, eps_r):
        # the secant steps start from Hammerstad's width, near the root
        z0 = analyze_single(u, Substrate(name="x", eps_r=eps_r, tan_d=0.0, h=1.0))[0]
        assert math.exp(mwbpf.microstrip._hammerstad_ln_u(z0, eps_r)) == pytest.approx(u, rel=0.01)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(z0=st.floats(min_value=5e-324, allow_infinity=False),
           eps_r=st.one_of(st.sampled_from(EPS_R_RANGE), st.floats(*EPS_R_RANGE)))
    def test_closed_form_width_is_never_nan(self, z0, eps_r):
        # finite, or -inf far above the range, where the search starts at the midpoint
        ln_u = mwbpf.microstrip._hammerstad_ln_u(z0, eps_r)
        assert ln_u < math.inf and ln_u == ln_u

    @pytest.mark.parametrize("eps_r, h", [(4.3, 1.6), (3.0, 0.75), (10.0, 0.2)])
    @pytest.mark.parametrize("end", WIDTH_RANGE_H)
    def test_width_synthesis_at_an_end_of_the_range(self, monkeypatch, eps_r, h, end):
        # a target equal to z0 at an end of the range, to the last bits: the
        # end checks find it, with no secant steps toward the bracket's end
        sub = Substrate(name="x", eps_r=eps_r, tan_d=0.0, h=h)
        target = analyze_single(end * h, sub)[0]
        calls = []

        def counting(w, sub):
            calls.append(w)
            return analyze_single(w, sub)

        monkeypatch.setattr(mwbpf.microstrip, "analyze_single", counting)
        w = synthesize_single_width(target, sub)
        assert w == end * h and len(calls) == 2
        assert abs(math.log(w / oracle_single_width_in_range(target, sub))) <= 1e-13

    @pytest.mark.parametrize("ln_u", [-50.0, 50.0, math.nan])
    @pytest.mark.parametrize("target", [4.5, 50.0, 200.0])
    def test_width_synthesis_from_a_start_outside_the_bracket(self, monkeypatch, fr4,
                                                              ln_u, target):
        # a closed-form start outside the bracket: the search takes its midpoint
        monkeypatch.setattr(mwbpf.microstrip, "_hammerstad_ln_u", lambda z0, er: ln_u)
        w = synthesize_single_width(target, fr4)
        assert abs(math.log(w / oracle_single_width_in_range(target, fr4))) <= 1e-13

    def test_width_synthesis_across_a_step_in_z0(self, monkeypatch, fr4):
        # z0 steps over the target at w_c, so ln z0 is never within 1e-14 of
        # the target's: the bracket closes to adjacent doubles and the search
        # stops there, before its iteration cap, at the plain bisection's width
        w_c, model = 3.0, analyze_single

        def stepped(w, sub):
            z, ee = model(w, sub)
            return z * (1.01 if w < w_c else 0.99), ee

        target = analyze_single(w_c, fr4)[0]
        calls = []

        def counting(w, sub):
            calls.append(w)
            return stepped(w, sub)

        monkeypatch.setattr(mwbpf.microstrip, "analyze_single", counting)
        w = synthesize_single_width(target, fr4)
        monkeypatch.setitem(globals(), "analyze_single", stepped)
        assert abs(math.log(w / oracle_single_width_in_range(target, fr4))) <= 1e-13
        assert abs(math.log(w / w_c)) <= 1e-13 and len(calls) < 100

    def test_width_synthesis_below_the_range(self, fr4):
        # z0 at the widest searched strip, 40 h = 64 mm, is 4.26 ohm on FR4
        assert analyze_single(WIDTH_RANGE_H[1] * fr4.h, fr4)[0] == pytest.approx(4.26, abs=0.01)
        with pytest.raises(CouplingUnreachable, match="2.0 ohm is below the model range"):
            synthesize_single_width(2.0, fr4)


class TestAnalyzeCoupled:
    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(
        ln_u=st.floats(math.log(1e-3), math.log(1e3)),
        ln_g=st.floats(math.log(1e-4), math.log(1e3)),
        eps_r=st.floats(*EPS_R_RANGE),
        h=st.floats(*SUBSTRATE_RANGE_MM),
    )
    def test_parts_compose_the_model_bit_for_bit(self, ln_u, ln_g, eps_r, h):
        # the same record, or the same error, as the model in one piece
        sub = Substrate(name="x", eps_r=eps_r, tan_d=0.0, h=h)
        w, s = h * math.exp(ln_u), h * math.exp(ln_g)

        def result(analyze):
            try:
                mp = analyze(w, s, sub)
            except ValueError as exc:
                return str(exc)
            return hexes(vars(mp).values())

        assert result(analyze_coupled) == result(oracle_analyze_coupled)

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

    def test_mode_impedance_must_be_positive_and_finite(self, fr4):
        # the odd-mode fit underflows to exactly 0 ohm at a 1 um gap
        with pytest.raises(ValueError, match=r"w=0\.1587 mm, s=0\.001 mm .* not positive"):
            analyze_coupled(0.1587, 0.001, fr4)
        # a positive underflow is a model point; only the fit range flags it
        assert 0 < analyze_coupled(0.21, 0.001, fr4).z0o < 1e-80

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

    def test_zero_mode_impedance_is_a_rejected_point(self, monkeypatch):
        # a Newton step clipped to the minimum gap, where the odd-mode fit
        # underflows to 0 ohm without overflowing: the model's mixed step
        # raises there, and the Newton rejects the point like an overflow
        real = mwbpf.microstrip._mode_step
        zeros = []

        def recording(wt, gt, er):
            try:
                return real(wt, gt, er)
            except ValueError as exc:
                if "not positive and finite" in str(exc):
                    zeros.append((wt[0], gt[0]))  # (w, s)
                raise

        monkeypatch.setattr(mwbpf.microstrip, "_mode_step", recording)
        sub = Substrate(name="g", eps_r=1.2430097646533145, tan_d=0.0, h=1.140642821453157)
        with pytest.raises(CouplingUnreachable):
            synthesize_coupled(689.5866058368977, 85.12561245360463, sub)
        assert zeros and all(s == pytest.approx(GAP_HARD_MIN_MM) for _, s in zeros)

    def test_rejects_bad_targets(self, fr4):
        with pytest.raises(ValueError):
            synthesize_coupled(40.0, 50.0, fr4)

    @settings(max_examples=200, deadline=None)
    @given(**SYNTHESIS_SPACE)
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

    @settings(max_examples=200, deadline=None)
    @given(**SYNTHESIS_SPACE)
    def test_matches_numpy_array_newton_bit_for_bit(self, eps_r, h, tan_d, z0o, split):
        # same space as test_round_trip_or_typed_failure: same floats or the
        # same typed failure as the numpy-array iteration
        sub = Substrate(name="x", eps_r=eps_r, tan_d=tan_d, h=h)
        args = (z0o * split, z0o, sub)
        assert outcome(synthesize_coupled, *args) == outcome(oracle_synthesize_coupled, *args)

    def test_design_documents_match_numpy_array_newton(self, registry):
        # seeded specs over perfbench's design_space ranges: the design
        # document is the same as the numpy-array iteration's, run once per
        # section
        def designs(synthesize):
            docs = []
            for i in range(60):
                rng = random.Random(i)
                f0 = rng.uniform(1.0, 10.0)
                bw = rng.uniform(0.02, 0.20) * f0
                f_lower = (math.sqrt(bw * bw + 4.0 * f0 * f0) - bw) / 2.0
                spec = FilterSpec(
                    f_lower=f_lower, f_upper=f_lower + bw, f0=f0,
                    ripple_db=rng.choice((0.01, 0.05, 0.1, 0.5)),
                    stop_atten_db=rng.uniform(15.0, 45.0),
                    stop_freq=f_lower + bw * rng.uniform(1.3, 2.5),
                )
                if rng.random() < 0.25:
                    sub = registry.get(rng.choice(("FR4", "RO3003")))
                else:
                    sub = Substrate(
                        name=f"gen{i}", eps_r=rng.uniform(2.0, 12.0),
                        tan_d=rng.uniform(0.0, 0.03), h=rng.uniform(0.1, 3.0),
                    )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        doc = synthesize(spec, sub, created="2026-01-01T00:00:00+00:00")
                    except (ValueError, RuntimeError) as exc:
                        docs.append(type(exc))
                        continue
                docs.append(to_dict(doc))
            return docs

        got = designs(synthesize_design)
        want = designs(oracle_synthesize_design)
        assert sum(isinstance(d, dict) for d in got) >= 50
        for i, (a, b) in enumerate(zip(got, want)):
            assert a == b, f"spec {i}"

    @pytest.mark.parametrize(
        "none_at, expected, n_calls",
        [
            ({0}, NoConvergence, 2),  # the start point, then the minimum-gap check
            ({1}, NoConvergence, 4),  # the width column of the Jacobian
            ({2}, NoConvergence, 4),  # the gap column
            ({0, 1}, CouplingUnreachable, 2),  # the start point and the minimum gap
        ],
        ids=["start", "width-column", "gap-column", "start-and-minimum-gap"],
    )
    def test_rejected_model_point_ends_typed(self, fr4, monkeypatch, none_at, expected, n_calls):
        # no input found reaches these exits, so the model is patched: call
        # k of the mixed step, one per model point, fails for each k in none_at
        real = mwbpf.microstrip._mode_step
        calls = []

        def patched(wt, gt, er):
            calls.append((wt[0], gt[0]))
            if len(calls) - 1 in none_at:
                raise OverflowError("patched model failure")
            return real(wt, gt, er)

        monkeypatch.setattr(mwbpf.microstrip, "_mode_step", patched)
        with pytest.raises(expected):
            synthesize_coupled(72.21, 38.89, fr4)
        assert len(calls) == n_calls

    def test_iteration_cap_ends_typed(self, monkeypatch, fr4):
        # splits beyond reach, with a step too short to converge that every
        # trial accepts (each norm below the one before): each of the 200
        # Newton steps solves once, then the minimum-gap check names the failure
        solves, norms = [], itertools.count()

        def solve(*system):
            solves.append(system)
            return 1e-9, 1e-9

        monkeypatch.setattr(mwbpf.microstrip, "_solve2", solve)
        monkeypatch.setattr(mwbpf.microstrip, "_norm2", lambda a, b: -next(norms))
        near_air = Substrate(name="x", eps_r=1.2261396146659593, tan_d=0.0, h=3.684766846860114)
        for z0e, z0o, sub in [(564.1761279668855, 139.46089657946007, near_air),
                              (400.0, 20.0, fr4)]:
            solves.clear()
            with pytest.raises(CouplingUnreachable):
                synthesize_coupled(z0e, z0o, sub)
            assert len(solves) == 200

    def test_singular_jacobian_ends_typed(self, fr4, monkeypatch):
        monkeypatch.setattr(mwbpf.microstrip, "_solve2", lambda *system: None)
        with pytest.raises(NoConvergence):
            synthesize_coupled(72.21, 38.89, fr4)


def hexes(values):
    return tuple(v.hex() for v in values)


class TestFusedSolve:
    """The Newton's 2x2 solve and norm are fixed sequences of IEEE operations,
    each rounded on its own (none fused), so the expected bits below,
    recorded once, hold on every host."""

    # the first Newton system of each section of the reference design on
    # FR4: (a00, a01, a10, a11, b0, b1) -> (x0, x1), and the norm of (b0, b1)
    REFERENCE_SYSTEMS = [
        (("-0x1.3eb1f328b3580p-1", "-0x1.51cf550422080p-4", "-0x1.16d37ea28c350p-1",
          "0x1.1671fe4d6a340p-3", "0x1.93472e501315dp-3", "-0x1.5b7fb08a64ae5p-3"),
         ("-0x1.940b162486341p-4", "-0x1.a4a2d9d9f3a96p+0"), "0x1.0a2bd8c36dba4p-2"),
        (("-0x1.4818f7ed667a0p-1", "-0x1.420df83dfef20p-4", "-0x1.1f02fda342be4p-1",
          "0x1.0b6f178af52e0p-3", "-0x1.87689411d2898p-6", "0x1.a03f79c646202p-5"),
         ("-0x1.c124173369653p-8", "0x1.70534485c8f58p-2"), "0x1.cbf5917c3e88cp-5"),
        (("-0x1.48622e5e2b2a4p-1", "-0x1.4192363047780p-4", "-0x1.1f43850619700p-1",
          "0x1.0b182bff156e0p-3", "-0x1.7ad54bdcefe07p-5", "0x1.2ba6bb4dd9476p-4"),
         ("0x1.27336a412bbb7p-9", "0x1.242a557387211p-1"), "0x1.627fbed9115e3p-4"),
        (("-0x1.4818f7ed667a0p-1", "-0x1.420df82ef9bb0p-4", "-0x1.1f02fda342be4p-1",
          "0x1.0b6f178af52e0p-3", "-0x1.87689411d2898p-6", "0x1.a03f79c646202p-5"),
         ("-0x1.c12416db0e0fdp-8", "0x1.7053448bb628dp-2"), "0x1.cbf5917c3e88cp-5"),
        (("-0x1.3eb1f32b15b20p-1", "-0x1.51cf550422080p-4", "-0x1.16d37ea28c350p-1",
          "0x1.1671fe4d6a340p-3", "0x1.93472e5013140p-3", "-0x1.5b7fb08a64af9p-3"),
         ("-0x1.940b16228ca9cp-4", "-0x1.a4a2d9d9751b8p+0"), "0x1.0a2bd8c36db9fp-2"),
    ]

    @pytest.mark.parametrize("system, solution, norm", REFERENCE_SYSTEMS,
                             ids=[f"section-{i}" for i in range(5)])
    def test_reference_design_systems(self, system, solution, norm):
        system = tuple(float.fromhex(v) for v in system)
        assert hexes(mwbpf.microstrip._solve2(*system)) == solution
        assert mwbpf.microstrip._norm2(-system[4], -system[5]).hex() == norm

    def test_reference_design_solves_these_systems(self, fr4, monkeypatch):
        # the recorded systems are the ones the reference design's Newton
        # meets first, one per section
        real = mwbpf.microstrip._solve2
        systems = []

        def recording(*system):
            systems.append(hexes(system))
            return real(*system)

        monkeypatch.setattr(mwbpf.microstrip, "_solve2", recording)
        spec = FilterSpec(**PAPER_SPEC)
        firsts = []
        for section in design_coupling(design_prototype(spec), spec.fbw(), spec.z0).sections:
            synthesize_coupled(section.z0e, section.z0o, fr4)
            firsts.append(systems[0])
            systems.clear()
        assert firsts == [system for system, _, _ in self.REFERENCE_SYSTEMS]

    def test_row_tie_keeps_the_first_row(self):
        # |a10| == |a00|: no row exchange. The same system with its rows
        # exchanged pivots on the other row and rounds x0 differently
        system = (2.019, -0.142, -2.019, -2.096, 0.809, 2.208)
        assert hexes(mwbpf.microstrip._solve2(*system)) == (
            "0x1.3938c04fa9958p-2", "-0x1.591bae8e4c695p+0")
        a00, a01, a10, a11, b0, b1 = system
        assert hexes(mwbpf.microstrip._solve2(a10, a11, a00, a01, b1, b0)) == (
            "0x1.3938c04fa995ep-2", "-0x1.591bae8e4c695p+0")

    def test_subnormal_pivot_divides(self):
        # the column is divided by the pivot, not scaled by its reciprocal,
        # which overflows below the smallest normal double. The exact
        # solution is (0.2, 0.4); subnormal entries carry few bits.
        system = (3e-310, 1e-310, 1e-310, 2e-310, 1e-310, 1e-310)
        assert hexes(mwbpf.microstrip._solve2(*system)) == (
            "0x1.9999999999836p-3", "0x1.9999999999a04p-2")

    @pytest.mark.parametrize("system", [
        (0.0, 1.0, 0.0, 2.0, 1.0, 1.0),  # zero pivot
        (-0.0, 1.0, 0.0, 2.0, 1.0, 1.0),
        (1.0, 2.0, 2.0, 4.0, 1.0, 1.0),  # zero u11
        (1.0, 0.0, 0.0, math.inf, 1.0, 1.0),  # a non-finite entry
        (1.0, 0.0, 0.0, 1.0, math.nan, 1.0),
        (1.0, 0.0, 0.0, 1e-300, 1.0, 1e300),  # x1 overflows, x0 = (1 - inf * 0) / 1
        (1.0, 1e308, 1.0, -1e308, -1e308, 1e308),  # u11 overflows, x1 = inf / -inf
    ], ids=["zero-pivot", "negative-zero-pivot", "zero-u11", "inf-entry", "nan-entry",
            "inf-times-zero", "inf-over-inf"])
    def test_singular_or_non_finite_is_none(self, system):
        assert mwbpf.microstrip._solve2(*system) is None


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

    @pytest.mark.parametrize("eps_r", [4.3, 1.0], ids=["fr4", "homogeneous"])
    def test_array_eps_eff_matches_scalar_calls_bit_for_bit(self, eps_r):
        # one call over [sections, modes, 1] x [F] covers a whole sweep; each
        # entry has the bits of the scalar call, which is still a float
        sub = Substrate(name="x", eps_r=eps_r, tan_d=0.02, h=1.6)
        eps = np.array([[3.27, 2.71], [3.31, 2.69], [1.0, 4.3]])[..., None]
        if eps_r == 1.0:
            eps = np.ones_like(eps)
        f = np.linspace(2.0, 3.0, 11)
        got = dielectric_loss(sub, eps, f)
        assert got.shape == (3, 2, 11)
        for (i, j), e in np.ndenumerate(eps[..., 0]):
            assert got[i, j].tobytes() == dielectric_loss(sub, float(e), f).tobytes()
            for k, fk in enumerate(f.tolist()):
                scalar = dielectric_loss(sub, float(e), fk)
                assert type(scalar) is float
                assert got[i, j, k] == scalar

    def test_scalar_call_is_the_stated_formula(self, fr4):
        # the float unloaded_q and the loss-ordering criterion read, bit for bit
        lam0 = C0 / (2.58 * 1e9)
        want = math.pi / lam0 * fr4.eps_r * (3.27 - 1.0) / (math.sqrt(3.27) * (fr4.eps_r - 1.0)) * fr4.tan_d
        got = dielectric_loss(fr4, 3.27, 2.58)
        assert type(got) is float and got == want

    @pytest.mark.parametrize("bad", [math.nan, 0.5], ids=["nan", "below-one"])
    def test_array_eps_eff_guard_is_elementwise(self, fr4, bad):
        with pytest.raises(ValueError, match="eps_eff"):
            dielectric_loss(fr4, np.array([3.27, bad, 2.7])[:, None], np.array([2.0, 2.5]))

    def test_unloaded_q_ordering(self, fr4, ro3003):
        q_fr4 = unloaded_q(fr4, 3.27, 2.58)
        q_ro = unloaded_q(ro3003, 2.38, 2.58)
        assert q_ro > q_fr4 > 0
        lossless = Substrate(name="x", eps_r=4.3, tan_d=0.0, h=1.6)
        assert unloaded_q(lossless, 3.27, 2.58) == math.inf


class TestValidation:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda sub: synthesize_single_width(math.nan, sub), "target impedance"),
            (lambda sub: analyze_single(math.nan, sub), "width"),
            (lambda sub: analyze_coupled(math.nan, 0.5, sub), "width and gap"),
            (lambda sub: analyze_coupled(1.0, math.nan, sub), "width and gap"),
            (lambda sub: resonator_length(ModeParams(50.0, 50.0, 3.0, 3.0), math.nan), "f0"),
            (lambda sub: dielectric_loss(sub, math.nan, 2.0), "eps_eff"),
            (lambda sub: analyze_dims([CoupledSectionDims(2.0, 0.5, 10.0)], sub, math.nan), "f0"),
        ],
        ids=["single_width", "analyze_single", "coupled_w", "coupled_s", "resonator_length",
             "dielectric_loss", "analyze_dims"],
    )
    def test_nan_is_rejected(self, fr4, call, message):
        with pytest.raises(ValueError, match=message):
            call(fr4)

    def test_substrate_invariants(self):
        with pytest.raises(ValueError):
            Substrate(name="bad", eps_r=0.5, tan_d=0.0, h=1.0)
        with pytest.raises(ValueError):
            Substrate(name="bad", eps_r=2.0, tan_d=0.0, h=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("h", 1e-300), ("h", 1e-162), ("h", 9.99e-4), ("h", 1000.5), ("h", 1e154),
        ("t", 1000.5), ("t", 1e300),
    ])
    def test_substrate_dimensions_bounded(self, field, value):
        # below 1e-162 mm the former width bisection's sqrt(lo * hi) underflowed
        # to 0, above 1e154 mm the feed width is inf; both are far outside the range
        kwargs = dict(name="x", eps_r=3.0, tan_d=0.001, h=0.5, t=0.035)
        kwargs[field] = value
        with pytest.raises(ValueError, match="height" if field == "h" else "thickness"):
            Substrate(**kwargs)

    @pytest.mark.parametrize("eps_r", [0.999, 1e4 * (1 + 1e-15), 1e300])
    def test_eps_r_bounded(self, eps_r):
        with pytest.raises(ValueError, match="eps_r"):
            Substrate(name="x", eps_r=eps_r, tan_d=0.001, h=0.5)

    @pytest.mark.parametrize("eps_r", EPS_R_RANGE)
    def test_eps_r_range_ends_have_a_finite_loss(self, eps_r):
        sub = Substrate(name="x", eps_r=eps_r, tan_d=0.03, h=0.5)
        assert math.isfinite(unloaded_q(sub, eps_r, 10.0))

    @pytest.mark.parametrize("h", SUBSTRATE_RANGE_MM)
    def test_substrate_range_ends_synthesize(self, h):
        sub = Substrate(name="x", eps_r=3.0, tan_d=0.001, h=h, t=SUBSTRATE_RANGE_MM[1])
        w = synthesize_single_width(50.0, sub)
        assert WIDTH_RANGE_H[0] * h < w < WIDTH_RANGE_H[1] * h
        assert analyze_single(w, sub)[0] == pytest.approx(50.0, rel=1e-9)

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

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwbpf.prototype import (
    MAX_ORDER,
    ChebyshevPrototype,
    FilterSpec,
    UnsatisfiableSpec,
    attenuation_height,
    bandpass_to_lowpass,
    g_values,
    required_order,
    ripple_height,
)

from conftest import equal_ripple_s21_db
from test_design import SPEC_AND_SUBSTRATE

# published 0.01 dB ripple, order 4 ladder values
G_VALUES_REF = (1.0, 0.7129, 1.2004, 1.3213, 0.6476, 1.1007)


def _ulps_from(x, k):
    """x moved k units in the last place (down when k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


class TestRippleHeight:
    def test_reference_ripple(self):
        assert ripple_height(0.01) == pytest.approx(2.30524e-3, rel=1e-4)

    def test_half_power_ripple(self):
        assert ripple_height(3.0103) == pytest.approx(1.0, abs=1e-4)

    def test_tenth_db(self):
        assert ripple_height(0.1) == pytest.approx(2.3293e-2, rel=1e-3)

    def test_rejects_nonpositive(self):
        # the prototype's range for ripple_db, which g_values reads too
        for ripple_db in (0.0, -0.5):
            with pytest.raises(ValueError,
                               match=re.escape(f"ripple_db = {ripple_db} must lie in (0, inf)")):
                ripple_height(ripple_db)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError, match=re.escape("ripple_db = inf must lie in (0, inf)")):
            ripple_height(math.inf)

    def test_overflow_is_infinite(self):
        # 10^(ripple/10) passes the largest double, 10^308.25, at about 3082.5 dB
        assert math.isfinite(ripple_height(3082.5))
        for ripple_db in (3082.6, 1e4, 1e300):
            assert ripple_height(ripple_db) == math.inf


class TestAttenuationHeight:
    def test_25db(self):
        a = attenuation_height(25.0, ripple_height(0.01))
        assert a == pytest.approx(369.8, abs=0.5)

    def test_stopband_equals_ripple_level(self):
        for level in (0.5, 3.0, 20.0):
            assert attenuation_height(level, ripple_height(level)) == pytest.approx(1.0)

    def test_40db(self):
        a = attenuation_height(40.0, ripple_height(0.01))
        assert a == pytest.approx(2082.6, abs=1.0)

    def test_unsatisfiable(self):
        # stopband requirement below the ripple level: computed, refused by required_order
        assert attenuation_height(0.005, ripple_height(0.01)) < 1.0
        spec = FilterSpec(f_lower=2.52, f_upper=2.65, ripple_db=0.01,
                          stop_freq=2.77, stop_atten_db=0.005)
        with pytest.raises(UnsatisfiableSpec, match="exceed the passband ripple"):
            required_order(spec)


class TestFrequencyMapping:
    def test_paper_stopband(self, paper_spec):
        omega_s = bandpass_to_lowpass(paper_spec.stop_freq, paper_spec.f0, paper_spec.fbw())
        assert omega_s == pytest.approx(2.823, abs=0.005)

    def test_band_center_maps_to_origin(self):
        assert bandpass_to_lowpass(2.58, 2.58, 0.0504) == 0.0

    def test_band_edge_maps_near_unity(self, paper_spec):
        om = bandpass_to_lowpass(paper_spec.f_upper, paper_spec.f0, paper_spec.fbw())
        assert om == pytest.approx(1.0, abs=paper_spec.fbw() ** 2 / 2 + 0.07)

    def test_stop_below_band_is_negative(self):
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01,
            stop_freq=2.3, stop_atten_db=25.0,
        )
        assert bandpass_to_lowpass(spec.stop_freq, spec.f0, spec.fbw()) < -1.0

    def test_in_band_stop_rejected(self, paper_spec):
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, ripple_db=0.01,
            stop_freq=2.6, stop_atten_db=25.0,
        )
        with pytest.raises(UnsatisfiableSpec, match="inside the passband"):
            required_order(spec)

    def test_array_maps_like_scalars(self, paper_spec):
        freqs = np.linspace(2.0, 3.0, 11)
        omega = bandpass_to_lowpass(freqs, paper_spec.f0, paper_spec.fbw())
        for f, om in zip(freqs.tolist(), omega.tolist()):
            assert om == bandpass_to_lowpass(f, paper_spec.f0, paper_spec.fbw())

    @pytest.mark.parametrize("f", [0.0, -2.6, 0, np.float64(-1.0)])
    def test_rejects_non_positive_scalar(self, f):
        with pytest.raises(ValueError, match="positive"):
            bandpass_to_lowpass(f, 2.58, 0.0504)


class TestRequiredOrder:
    def test_paper_spec_gives_four_poles(self, paper_spec):
        assert required_order(paper_spec) == 4

    @pytest.mark.parametrize("stop_atten_db, error", [
        (25.0, "exceed the passband ripple"), (1e300, "order above MAX_ORDER")])
    def test_overflowing_ripple_is_unsatisfiable(self, stop_atten_db, error):
        # a ripple_height that overflows is inf, not an OverflowError
        spec = FilterSpec(f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=1e300,
                          stop_freq=2.77, stop_atten_db=stop_atten_db)
        with pytest.raises(UnsatisfiableSpec, match=error):
            required_order(spec)

    def test_40db_gives_five(self, paper_spec):
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01,
            stop_freq=2.77, stop_atten_db=40.0,
        )
        assert required_order(spec) == 5

    def test_ceiling_behavior(self):
        # a chosen so acosh(a)/acosh(omega_s) lands just above 3
        omega_s = 2.0
        a = math.cosh(3.001 * math.acosh(omega_s))
        assert math.ceil(math.acosh(a) / math.acosh(omega_s)) == 4

    def test_monotone_in_attenuation(self, paper_spec):
        orders = [
            required_order(
                FilterSpec(
                    f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01,
                    stop_freq=2.77, stop_atten_db=att,
                )
            )
            for att in (15.0, 25.0, 40.0, 60.0, 80.0)
        ]
        assert orders == sorted(orders)

    def test_monotone_in_stopband_distance(self):
        orders = [
            required_order(
                FilterSpec(
                    f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01,
                    stop_freq=fx, stop_atten_db=25.0,
                )
            )
            for fx in (2.70, 2.77, 2.9, 3.2, 4.0)
        ]
        assert orders == sorted(orders, reverse=True)

    def test_order_above_cap_refused(self):
        # order 23 without the cap
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01,
            stop_freq=2.77, stop_atten_db=300.0,
        )
        with pytest.raises(UnsatisfiableSpec, match="MAX_ORDER"):
            required_order(spec)

    @pytest.mark.parametrize("ulps", [1, 4])
    def test_stop_ulps_above_band_edge_refused(self, ulps):
        # one ulp above f_upper would need an order of 47,805,120
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, ripple_db=0.01,
            stop_freq=_ulps_from(2.65, ulps), stop_atten_db=25.0,
        )
        with pytest.raises(UnsatisfiableSpec, match="MAX_ORDER"):
            required_order(spec)

    @pytest.mark.parametrize("ripple_db, stop_atten_db", [(0.01, 4000.0), (1e-20, 25.0)])
    def test_attenuation_height_beyond_a_double_refused(self, ripple_db, stop_atten_db):
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, ripple_db=ripple_db,
            stop_freq=2.77, stop_atten_db=stop_atten_db,
        )
        with pytest.raises(UnsatisfiableSpec, match="MAX_ORDER"):
            required_order(spec)

    def test_attenuation_one_ulp_above_ripple_refused(self):
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, ripple_db=0.1,
            stop_freq=2.77, stop_atten_db=_ulps_from(0.1, 1),
        )
        with pytest.raises(UnsatisfiableSpec, match="exceed the passband ripple"):
            required_order(spec)

    # required_order alone decides: every well-formed spec, stop frequencies a few
    # ulp from either band edge included, gets an order 1..MAX_ORDER that meets the
    # requirement and is the least that does, or is refused as unsatisfiable
    @settings(max_examples=300, deadline=None)
    @given(
        draw=st.fixed_dictionaries({key: SPEC_AND_SUBSTRATE[key] for key in (
            "f_lower", "fbw", "ripple_db", "stop_atten_db", "stop_distance", "stop_above")}),
        edge=st.sampled_from((None, "f_lower", "f_upper")),
        ulps=st.integers(-4, 4),
        f0_at=st.none() | st.floats(0.05, 0.95),  # None: the geometric mean
    )
    def test_order_is_bounded_and_least_or_refused(self, draw, edge, ulps, f0_at):
        f_lower = draw["f_lower"]
        f_upper = f_lower * (1.0 + draw["fbw"])
        bw = f_upper - f_lower
        if edge is None:
            stop_freq = (f_upper + draw["stop_distance"] * bw if draw["stop_above"]
                         else f_lower - draw["stop_distance"] * bw)
        else:
            stop_freq = _ulps_from(f_lower if edge == "f_lower" else f_upper, ulps)
        spec = FilterSpec(
            f_lower=f_lower, f_upper=f_upper, ripple_db=draw["ripple_db"],
            stop_freq=stop_freq, stop_atten_db=draw["stop_atten_db"],
            f0=None if f0_at is None else f_lower + f0_at * bw,
        )
        try:
            n = required_order(spec)
        except UnsatisfiableSpec:
            return
        assert 1 <= n <= MAX_ORDER

        def attenuation(order):
            return -equal_ripple_s21_db(spec.stop_freq, spec.f0, spec.fbw(), order,
                                        spec.ripple_db)

        assert attenuation(n) >= spec.stop_atten_db - 1e-9
        if n > 1:
            assert attenuation(n - 1) < spec.stop_atten_db + 1e-9


class TestGValues:
    def test_reference_listing(self):
        proto = g_values(4, 0.01)
        for got, ref in zip(proto.g, G_VALUES_REF):
            assert got == pytest.approx(ref, abs=5e-4)

    def test_first_order_half_power(self):
        proto = g_values(1, 3.0103)
        beta = math.log(1.0 / math.tanh(3.0103 / 17.37))
        gamma = math.sinh(beta / 2.0)
        assert proto.g[1] == pytest.approx(2.0 * math.sin(math.pi / 2) / gamma)
        assert proto.g[2] == 1.0

    def test_against_published_3db_table(self):
        # Pozar-style 3.0 dB ripple table: n=1 gives g1 = 1.9953
        assert g_values(1, 3.0).g[1] == pytest.approx(1.9953, abs=1e-3)

    def test_against_published_half_db_table(self):
        # 0.5 dB ripple, n=3: 1.5963, 1.0967, 1.5963, 1.0000
        proto = g_values(3, 0.5)
        ref = (1.0, 1.5963, 1.0967, 1.5963, 1.0000)
        for got, want in zip(proto.g, ref):
            assert got == pytest.approx(want, abs=1e-3)

    def test_g0_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            ripple = float(rng.uniform(0.01, 3.0))
            proto = g_values(n, ripple)
            assert proto.g[0] == 1.0
            assert len(proto.g) == n + 2
            assert all(g > 0 for g in proto.g)

    def test_termination_parity(self):
        for n in range(1, 9):
            proto = g_values(n, 0.2)
            beta = math.log(1.0 / math.tanh(0.2 / 17.37))
            if n % 2:
                assert proto.g[-1] == 1.0
            else:
                want = 1.0 / math.tanh(beta / 4.0) ** 2
                assert proto.g[-1] == pytest.approx(want, rel=1e-12)
                assert proto.g[-1] != 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            g_values(0, 0.1)
        with pytest.raises(ValueError):
            g_values(3, -1.0)
        with pytest.raises(ValueError):
            ChebyshevPrototype(n=2, ripple_db=0.1, g=(1.0, 0.5))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["ripple_db", "g[1]", "g[5]"])
    def test_prototype_rejects_non_finite(self, field, value):
        ripple_db, g = 0.01, list(G_VALUES_REF)
        if field == "ripple_db":
            ripple_db = value
        else:
            g[int(field[2])] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} = {value} must lie in (0, inf)")):
            ChebyshevPrototype(n=4, ripple_db=ripple_db, g=tuple(g))

    @pytest.mark.parametrize("ripple_db", [0.0, -0.0, -1.0])
    def test_prototype_rejects_non_positive_ripple(self, ripple_db):
        # the rule ripple_height and g_values apply
        with pytest.raises(ValueError,
                           match=re.escape(f"ripple_db = {ripple_db} must lie in (0, inf)")):
            ChebyshevPrototype(n=4, ripple_db=ripple_db, g=G_VALUES_REF)

    def test_prototype_rejects_order_below_one(self):
        # an empty g with n = -2 has its n + 2 entries, and no g0 to check
        with pytest.raises(ValueError, match=re.escape("n = -2 must lie in [1, inf)")):
            ChebyshevPrototype(n=-2, ripple_db=0.1, g=())


class TestNanArguments:
    # each guard is written so that NaN fails it, with the message of a
    # non-positive value
    @pytest.mark.parametrize("call, message", [
        (lambda: ripple_height(math.nan), re.escape("ripple_db = nan must lie in (0, inf)")),
        (lambda: attenuation_height(math.nan, 0.1), "stop_atten_db must be positive"),
        (lambda: attenuation_height(25.0, math.nan), "ripple height must be positive"),
        (lambda: bandpass_to_lowpass(math.nan, 2.58, 0.05), "frequency must be positive"),
        (lambda: g_values(4, math.nan), re.escape("ripple_db = nan must lie in (0, inf)")),
    ], ids=["ripple_height", "attenuation_height", "attenuation_height_ripple",
            "bandpass_to_lowpass", "g_values"])
    def test_nan_is_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestTransferComposition:
    def test_order_sufficiency(self, paper_spec):
        n = required_order(paper_spec)
        att = -equal_ripple_s21_db(
            paper_spec.stop_freq, paper_spec.f0, paper_spec.fbw(), n, paper_spec.ripple_db
        )
        assert att >= paper_spec.stop_atten_db


class TestFilterSpec:
    def test_default_f0_is_geometric_mean(self):
        spec = FilterSpec(
            f_lower=2.52, f_upper=2.65, ripple_db=0.01,
            stop_freq=2.77, stop_atten_db=25.0,
        )
        assert spec.f0 == pytest.approx(math.sqrt(2.52 * 2.65), rel=1e-12)
        assert 0 < spec.fbw() < 1

    @pytest.mark.parametrize("f0", [0.0, -0.0])
    def test_explicit_zero_f0_is_not_the_default(self, f0):
        with pytest.raises(ValueError, match=re.escape(f"f0 = {f0} must lie in (0, inf)")):
            FilterSpec(f_lower=2.52, f_upper=2.65, ripple_db=0.01,
                       stop_freq=2.77, stop_atten_db=25.0, f0=f0)

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            FilterSpec(f_lower=2.65, f_upper=2.52, ripple_db=0.01,
                       stop_freq=2.77, stop_atten_db=25.0)

    def test_rejects_attenuation_below_ripple(self):
        spec = FilterSpec(f_lower=2.52, f_upper=2.65, ripple_db=1.0,
                          stop_freq=2.77, stop_atten_db=0.5)
        with pytest.raises(UnsatisfiableSpec):
            required_order(spec)

    @pytest.mark.parametrize("field", ["ripple_db", "stop_freq", "stop_atten_db"])
    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_rejects_non_positive(self, field, value):
        kwargs = dict(f_lower=2.52, f_upper=2.65, ripple_db=0.01,
                      stop_freq=2.77, stop_atten_db=25.0, z0=50.0)
        kwargs[field] = value
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} = {value} must lie in (0, inf)")) as raised:
            FilterSpec(**kwargs)
        assert not isinstance(raised.value, UnsatisfiableSpec)

    @pytest.mark.parametrize("stop_freq", [2.52, 2.6, 2.65])
    def test_accepts_any_positive_stop_freq(self, stop_freq):
        # whether the stopband point can be met is required_order's decision
        FilterSpec(f_lower=2.52, f_upper=2.65, ripple_db=0.01,
                   stop_freq=stop_freq, stop_atten_db=25.0)

    def test_rejects_bad_z0(self):
        with pytest.raises(ValueError):
            FilterSpec(f_lower=2.52, f_upper=2.65, ripple_db=0.01,
                       stop_freq=2.77, stop_atten_db=25.0, z0=-50.0)

    @pytest.mark.parametrize(
        "field",
        ["f_lower", "f_upper", "ripple_db", "stop_freq", "stop_atten_db", "z0", "f0"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(f_lower=2.52, f_upper=2.65, ripple_db=0.01,
                      stop_freq=2.77, stop_atten_db=25.0, z0=50.0, f0=2.58)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            FilterSpec(**kwargs)

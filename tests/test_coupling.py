import math

import numpy as np
import pytest

from mwbpf.coupling import (
    CouplingMatrixModel,
    CouplingSection,
    coupling_coefficients,
    design_coupling,
    even_odd_impedances,
    j_inverters,
)
from mwbpf.prototype import g_values

from conftest import TABLE1_J


class TestJInverters:
    def test_reference_values(self, paper_proto, paper_spec):
        vals = j_inverters(paper_proto, paper_spec.fbw())
        assert len(vals) == 5
        for got, ref in zip(vals, TABLE1_J):
            assert got == pytest.approx(ref, abs=5e-4)

    def test_vanishing_bandwidth(self, paper_proto):
        vals = j_inverters(paper_proto, 1e-9)
        assert all(v < 1e-4 for v in vals)

    def test_unit_prototype_hand_values(self):
        proto = g_values(2, 0.2)
        proto = proto.__class__(n=2, ripple_db=0.2, g=(1.0, 1.0, 1.0, 1.0))
        vals = j_inverters(proto, 0.1)
        assert vals[0] == pytest.approx(math.sqrt(0.05 * math.pi), rel=1e-12)
        assert vals[1] == pytest.approx(0.05 * math.pi, rel=1e-12)
        assert vals[2] == pytest.approx(math.sqrt(0.05 * math.pi), rel=1e-12)

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            ripple = float(rng.uniform(0.01, 1.0))
            fbw = float(rng.uniform(0.01, 0.3))
            vals = j_inverters(g_values(n, ripple), fbw)
            for a, b in zip(vals, reversed(vals)):
                assert abs(a - b) / a <= 2e-4

    def test_rejects_bad_fbw(self, paper_proto):
        with pytest.raises(ValueError):
            j_inverters(paper_proto, 0.0)
        with pytest.raises(ValueError):
            j_inverters(paper_proto, 1.5)


class TestEvenOddImpedances:
    def test_strong_section(self):
        z0e, z0o = even_odd_impedances(0.3332, 50.0)
        assert z0e == pytest.approx(72.21, abs=0.02)
        assert z0o == pytest.approx(38.89, abs=0.02)

    def test_uncoupled_degenerates(self):
        assert even_odd_impedances(0.0, 50.0) == (50.0, 50.0)

    def test_weak_section(self):
        z0e, z0o = even_odd_impedances(0.0628, 50.0)
        assert z0e == pytest.approx(53.34, abs=0.02)
        assert z0o == pytest.approx(47.06, abs=0.02)

    def test_z0e_monotone_and_z0o_minimum(self):
        js = np.linspace(0.0, 1.2, 200)
        z0e = np.array([even_odd_impedances(j, 50.0)[0] for j in js])
        z0o = np.array([even_odd_impedances(j, 50.0)[1] for j in js])
        assert np.all(np.diff(z0e) > 0)
        assert js[int(np.argmin(z0o))] == pytest.approx(0.5, abs=0.01)

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            j = float(rng.uniform(0.0, 1.0))
            z0 = float(rng.uniform(20.0, 120.0))
            z0e, z0o = even_odd_impedances(j, z0)
            assert (z0e - z0o) / (2.0 * z0) == pytest.approx(j, abs=1e-12)
            assert z0e + z0o == pytest.approx(2.0 * z0 * (1.0 + j * j), rel=1e-12)

    def test_ordering_invariant(self, paper_proto, paper_spec):
        design = design_coupling(paper_proto, paper_spec.fbw(), 50.0)
        for s in design.sections:
            assert s.z0e > 50.0 > s.z0o


class TestCouplingCoefficients:
    def test_reference_values(self, paper_proto, paper_spec):
        model = coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0)
        assert model.k == pytest.approx((0.05446, 0.04001, 0.05446), abs=1e-4)
        assert model.qe_in == pytest.approx(14.15, abs=0.02)

    def test_symmetric_external_q(self, paper_proto, paper_spec):
        model = coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0)
        assert model.qe_out == pytest.approx(model.qe_in, rel=1e-9)

    def test_vanishing_bandwidth_limits(self, paper_proto, paper_spec):
        model = coupling_coefficients(paper_proto, 1e-6, paper_spec.f0)
        assert all(k < 1e-4 for k in model.k)
        assert model.qe_in > 1e5

    def test_qu_validation(self, paper_proto, paper_spec):
        with pytest.raises(ValueError):
            coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0, qu=-5.0)


class TestCouplingSection:
    @pytest.mark.parametrize("field", ["j_over_y0", "z0e", "z0o"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(j_over_y0=0.1, z0e=55.0, z0o=45.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            CouplingSection(**kwargs)

    @pytest.mark.parametrize("j, z0e, z0o", [
        (-0.1, 55.0, 45.0),  # negative inverter
        (0.1, -1.0, 45.0),  # no line has a negative mode impedance
        (0.1, 0.0, 45.0),
        (0.1, 55.0, 0.0),
        (0.1, 45.0, 55.0),  # the even mode sees the lower capacitance
    ])
    def test_rejects_non_physical(self, j, z0e, z0o):
        with pytest.raises(ValueError):
            CouplingSection(j_over_y0=j, z0e=z0e, z0o=z0o)


class TestCouplingMatrixModel:
    @pytest.mark.parametrize("field", ["k", "qe_in", "qe_out", "qu", "f0", "fbw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        # NaN compares false with 0, so the range checks alone let k=(nan,) through
        lossless = dict(n=2, k=(0.05,), qe_in=10, qe_out=10, f0=2.58, fbw=0.05)
        kwargs = {**lossless, field: (value,) if field == "k" else value}
        if (field, value) == ("qu", math.inf):  # an infinite unloaded Q is the lossless default
            assert CouplingMatrixModel(**kwargs) == CouplingMatrixModel(**lossless)
            return
        with pytest.raises(ValueError, match=field):
            CouplingMatrixModel(**kwargs)

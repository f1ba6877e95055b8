import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwbpf.design
from mwbpf.coupling import coupling_coefficients, j_inverters
from mwbpf.design import (
    DesignDocument,
    design_layout,
    from_dict,
    load_design,
    save_design,
    simulate,
    synthesize_design,
    to_dict,
)
from mwbpf.layout import FoldTooTight, pcl_layout, single_layer_stackup
from mwbpf.microstrip import (
    C0,
    CouplingUnreachable,
    GapTooSmallWarning,
    ModelValidityWarning,
    NoConvergence,
    Substrate,
    analyze_coupled,
    check_fit_range,
    synthesize_coupled,
    synthesize_single_width,
    unloaded_q,
)
from mwbpf.prototype import FilterSpec, UnsatisfiableSpec
from mwbpf.rfsim import FrequencySweep, sweep_coupling_matrix, sweep_pcl

SWEEP = FrequencySweep(2.3, 2.9, 601)


class TestSynthesizeDesign:
    def test_counts_are_consistent(self, fr4_design):
        n = fr4_design.prototype.n
        assert len(fr4_design.dims) == n + 1
        assert len(fr4_design.coupling.sections) == n + 1

    def test_coupling_derives_from_prototype(self, fr4_design):
        js = j_inverters(fr4_design.prototype, fr4_design.spec.fbw())
        for section, j in zip(fr4_design.coupling.sections, js):
            assert section.j_over_y0 == pytest.approx(j, rel=1e-12)

    def test_dims_realize_section_impedances(self, fr4_design, fr4):
        for section, d in zip(fr4_design.coupling.sections, fr4_design.dims):
            mp = analyze_coupled(d.w, d.s, fr4)
            assert mp.z0e == pytest.approx(section.z0e, rel=1e-5)
            assert mp.z0o == pytest.approx(section.z0o, rel=1e-5)

    def test_lengths_are_quarter_wave_scale(self, fr4_design):
        for d in fr4_design.dims:
            assert 10.0 < d.l < 30.0

    def test_provenance_recorded(self, fr4_design):
        assert fr4_design.tool.startswith("mwbpf ")
        assert fr4_design.created == "2026-01-01T00:00:00+00:00"

    def test_validity_warned_once_per_section(self, ro3003):
        # wide band on the thin board: both end sections have s/h near 0.06
        spec = FilterSpec(f_lower=2.2, f_upper=2.9, ripple_db=0.1,
                          stop_freq=3.5, stop_atten_db=25.0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            doc = synthesize_design(spec, ro3003)
        outside = [d for d in doc.dims if d.s / ro3003.h < 0.1]
        assert len(outside) == 2
        assert sum(r.category is ModelValidityWarning for r in rec) == len(outside)

    @pytest.mark.parametrize("stop_atten_db, n_sections, n_distinct", [(25.0, 5, 5), (30.0, 6, 3)],
                             ids=["reference", "mirror-equal"])
    def test_synthesizes_each_distinct_section_once(self, paper_spec, fr4, monkeypatch,
                                                    stop_atten_db, n_sections, n_distinct):
        # the reference design's mirror pairs differ in the last bit and at
        # 30 dB they are equal: either way only sections 0, 1 and 2 are synthesized
        synthesized, checked = [], []

        def counting_synthesis(z0e, z0o, sub):
            synthesized.append((z0e, z0o))
            return synthesize_coupled(z0e, z0o, sub)

        def counting_check(w, s, sub):
            checked.append((w, s))
            check_fit_range(w, s, sub)

        monkeypatch.setattr(mwbpf.design, "synthesize_coupled", counting_synthesis)
        monkeypatch.setattr(mwbpf.design, "check_fit_range", counting_check)
        doc = synthesize_design(dataclasses.replace(paper_spec, stop_atten_db=stop_atten_db), fr4)
        keys = [(section.z0e, section.z0o) for section in doc.coupling.sections]
        assert len(keys) == n_sections and len(set(keys)) == n_distinct
        assert synthesized == keys[:3]
        assert checked == [(d.w, d.s) for d in doc.dims]

    @pytest.mark.parametrize("design, substrate", [("fr4_design", "fr4"), ("ro3003_design", "ro3003")],
                             ids=["fr4", "ro3003"])
    def test_mirror_sections_share_their_dimensions(self, request, design, substrate):
        # each reused section meets its own targets under the Newton's stop
        doc, sub = request.getfixturevalue(design), request.getfixturevalue(substrate)
        n = doc.prototype.n
        for i, (section, d) in enumerate(zip(doc.coupling.sections, doc.dims)):
            assert doc.dims[n - i] is d
            mp = analyze_coupled(d.w, d.s, sub)
            residual = (math.log(mp.z0e / section.z0e), math.log(mp.z0o / section.z0o))
            assert max(map(abs, residual)) < 1e-6


def _same(a, b):
    # bit-equal sweeps: same frequencies, S-parameters and reference impedance
    return (
        a.z0 == b.z0
        and np.array_equal(a.frequencies, b.frequencies)
        and np.array_equal(a.s, b.s)
    )


class TestSimulate:
    def test_lossy_ml_matches_mode_average_glue(self, fr4_design, fr4):
        eps = [
            (analyze_coupled(d.w, d.s, fr4).eps_eff_e + analyze_coupled(d.w, d.s, fr4).eps_eff_o) / 2
            for d in fr4_design.dims
        ]
        qu = unloaded_q(fr4, sum(eps) / len(eps), fr4_design.spec.f0)
        model = coupling_coefficients(
            fr4_design.prototype, fr4_design.spec.fbw(), fr4_design.spec.f0, qu=qu
        )
        want = sweep_coupling_matrix(model, SWEEP)
        assert _same(simulate(fr4_design, fr4, "ml", SWEEP, lossy=True), want)

    def test_physical_matches_sweep_pcl(self, fr4_design, fr4):
        want = sweep_pcl(
            fr4_design.coupling, fr4_design.spec.f0, SWEEP,
            mode="physical", dims=fr4_design.dims, substrate=fr4, lossy=True,
        )
        assert _same(simulate(fr4_design, fr4, "physical", SWEEP, lossy=True), want)

    @pytest.mark.parametrize("design, substrate", [("fr4_design", "fr4"), ("ro3003_design", "ro3003")],
                             ids=["fr4", "ro3003"])
    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
    def test_physical_reference_design_is_mirror_symmetric(self, request, design, substrate, lossy):
        # mirror sections hold the same dimensions, so both ports reflect
        # alike to rounding
        doc, sub = request.getfixturevalue(design), request.getfixturevalue(substrate)
        r = simulate(doc, sub, "physical", FrequencySweep(2.0, 3.0, 1001), lossy=lossy)
        assert np.abs(r.s[:, 0, 0] - r.s[:, 1, 1]).max() <= 1e-14

    def test_ideal_ignores_substrate(self, fr4_design, fr4):
        want = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
        assert _same(simulate(fr4_design, fr4, "ideal", SWEEP), want)

    def test_gap_floor_checked_where_dims_are_read(self, fr4_design, fr4):
        data = to_dict(fr4_design)
        data["dims_mm"][0]["s"] = 0.05
        doc = from_dict(data)
        for read in (
            lambda: simulate(doc, fr4, "physical", SWEEP),
            lambda: simulate(doc, fr4, "physical", SWEEP, lossy=True),
            lambda: simulate(doc, fr4, "ml", SWEEP, lossy=True),
            lambda: design_layout(doc, fr4, "pcl"),
            lambda: design_layout(doc, fr4, "ml"),
        ):
            with pytest.warns((GapTooSmallWarning, ModelValidityWarning)) as rec:
                read()
            assert sum(r.category is GapTooSmallWarning for r in rec) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(doc, fr4, "ideal", SWEEP)
            simulate(doc, fr4, "ml", SWEEP)


# spec and substrate draws of the pipeline properties
SPEC_AND_SUBSTRATE = dict(
    f_lower=st.floats(1.0, 10.0),
    fbw=st.floats(0.02, 0.2),
    ripple_db=st.floats(0.01, 0.5),
    stop_atten_db=st.floats(15.0, 45.0),
    stop_distance=st.floats(0.3, 1.5),  # bandwidths beyond the band edge
    stop_above=st.booleans(),
    z0=st.floats(20.0, 120.0),
    eps_r=st.floats(2.0, 12.0),
    h=st.floats(0.1, 3.0),
    tan_d=st.floats(0.0, 0.03),
)


def _synthesized(f_lower, fbw, ripple_db, stop_atten_db, stop_distance, stop_above, z0,
                 eps_r, h, tan_d):
    """The design of a SPEC_AND_SUBSTRATE draw, its substrate and a 41-point
    sweep over three bandwidths about f0; None where synthesis refuses the
    spec with a typed error."""
    f_upper = f_lower * (1.0 + fbw)
    bw = f_upper - f_lower
    stop_freq = f_upper + stop_distance * bw if stop_above else f_lower - stop_distance * bw
    spec = FilterSpec(f_lower=f_lower, f_upper=f_upper, ripple_db=ripple_db,
                      stop_freq=stop_freq, stop_atten_db=stop_atten_db, z0=z0)
    sub = Substrate(name="x", eps_r=eps_r, tan_d=tan_d, h=h)
    try:
        doc = synthesize_design(spec, sub)
    except (UnsatisfiableSpec, CouplingUnreachable, NoConvergence):
        return None
    return doc, sub, FrequencySweep(spec.f0 - 1.5 * bw, spec.f0 + 1.5 * bw, 41)


@pytest.mark.filterwarnings("ignore::mwbpf.microstrip.ModelValidityWarning",
                            "ignore::mwbpf.microstrip.GapTooSmallWarning")
class TestPipelineProperties:
    # spec -> synthesis -> every sweep kind: a typed refusal, or a reciprocal
    # response that conserves power when lossless and never gains it when lossy
    @settings(max_examples=100, deadline=None)
    @given(**SPEC_AND_SUBSTRATE)
    def test_synthesized_designs_sweep_soundly(self, **draw):
        synthesized = _synthesized(**draw)
        if synthesized is None:
            return
        doc, sub, sweep = synthesized
        for mode, lossy in (("ideal", False), ("ml", False), ("physical", True), ("ml", True)):
            r = simulate(doc, sub, mode, sweep, lossy=lossy)
            assert r.z0 == draw["z0"]
            assert (r.s[:, 0, 1] == r.s[:, 1, 0]).all()
            power = np.abs(r.s[:, 0, 0]) ** 2 + np.abs(r.s[:, 1, 0]) ** 2
            if lossy:
                assert (power <= 1.0 + 1e-12).all()
            else:
                assert np.abs(power - 1.0).max() <= 1e-12

    # Chebyshev products g_k g_(k+1) read the same from both ends, so every
    # synthesized design is a palindrome and both ports reflect alike; a
    # mirror section reuses its partner's dimensions.
    @settings(max_examples=100, deadline=None)
    @given(**SPEC_AND_SUBSTRATE)
    def test_palindromic_designs_reflect_alike_at_both_ports(self, **draw):
        synthesized = _synthesized(**draw)
        if synthesized is None:
            return
        doc, sub, sweep = synthesized
        for mode, lossy in (("ideal", False), ("ml", False), ("ml", True), ("physical", False),
                            ("physical", True)):
            r = simulate(doc, sub, mode, sweep, lossy=lossy)
            assert np.abs(r.s[:, 0, 0] - r.s[:, 1, 1]).max() <= 1e-12


class TestDesignLayout:
    def test_pcl_feeds_match_spec_impedance(self, fr4_design, fr4):
        feed = synthesize_single_width(fr4_design.spec.z0, fr4)
        want = pcl_layout(fr4_design.dims, feed_width=feed, stackup=single_layer_stackup(fr4))
        assert design_layout(fr4_design, fr4, "pcl") == want

    def test_ml_needs_four_resonators(self, fr4):
        spec = FilterSpec(f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01,
                          stop_freq=2.77, stop_atten_db=40.0)
        doc = synthesize_design(spec, fr4)
        assert doc.prototype.n != 4
        with pytest.raises(FoldTooTight, match="4 resonators"):
            design_layout(doc, fr4, "ml")

    def test_section_length_is_at_most_a_free_space_wavelength(self, fr4_design, fr4):
        wavelength = C0 / (fr4_design.spec.f0 * 1e9) * 1e3
        data = to_dict(fr4_design)
        data["dims_mm"][2]["l"] = wavelength
        design_layout(from_dict(data), fr4, "pcl")
        data["dims_mm"][2]["l"] = math.nextafter(wavelength, math.inf)
        for kind in ("pcl", "ml"):
            with pytest.raises(ValueError, match=r"dims_mm\[2\]\.l"):
                design_layout(from_dict(data), fr4, kind)

    def test_unknown_kind(self, fr4_design, fr4):
        with pytest.raises(ValueError):
            design_layout(fr4_design, fr4, "stripline")


class TestPersistence:
    def test_one_reference_impedance(self, fr4_design):
        data = to_dict(fr4_design)
        assert data["coupling"]["z0_ohm"] == data["spec"]["z0_ohm"]
        data["coupling"]["z0_ohm"] = 75.0
        with pytest.raises(ValueError, match="z0_ohm"):
            from_dict(data)

    def test_dict_round_trip_is_equal(self, fr4_design):
        assert from_dict(to_dict(fr4_design)) == fr4_design

    def test_file_round_trip_is_equal(self, fr4_design, tmp_path):
        path = tmp_path / "design.json"
        save_design(fr4_design, path)
        assert load_design(path) == fr4_design

    def test_mismatched_counts_rejected(self, fr4_design):
        with pytest.raises(ValueError):
            DesignDocument(
                spec=fr4_design.spec,
                prototype=fr4_design.prototype,
                coupling=fr4_design.coupling,
                dims=fr4_design.dims[:-1],
                substrate=fr4_design.substrate,
                tool=fr4_design.tool,
                created=fr4_design.created,
            )

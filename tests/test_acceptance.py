"""Acceptance gate: every release-blocking criterion, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Expected values marked as published references come from the 2.52-2.65 GHz
reference design tables; derived values were computed with independent
oracles, in this file or in coupled_line_oracle.py, and frozen.

Criterion 4 checks synthesized widths and lengths against the published
line-calculator tables, but gaps against a field solve: the published gap
column does not realize the published even/odd-mode impedances. A 2-D
finite-difference Laplace solve (coupled_line_oracle.py, zero-thickness
strips like the Kirschning-Jansen model) gives, at the published widths and
gaps, impedances up to 9.5 % away from the impedance table, and agrees with
the program's model there within 0.5 %. The gaps at which the solve does
realize the impedance table are frozen in conftest.py as ORACLE_GAPS_*; the
published gaps are 19-107 % wider. Designing for a 0.1 dB ripple instead of
the impedance table's 0.01 dB does not explain them (gap deltas up to
22.5 %). The deltas against the published gaps are still printed, for
information only.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from mwbpf.coupling import coupling_coefficients, design_coupling, j_inverters
from mwbpf.layout import (
    export_svg,
    hairpin_fold,
    ml_hairpin_layout,
    multilayer_stackup,
    pcl_layout,
    single_layer_stackup,
)
from mwbpf.microstrip import (
    ModeParams,
    analyze_coupled,
    resonator_length,
    synthesize_coupled,
    synthesize_single_width,
    unloaded_q,
)
from mwbpf.prototype import FilterSpec, required_order
from mwbpf.rfsim import (
    FrequencySweep,
    extract_metrics,
    ripple_bandwidth,
    sweep_coupling_matrix,
    sweep_pcl,
)
from mwbpf.touchstone import read_touchstone, touchstone_text, write_touchstone

from conftest import (
    ML_FR4_SIZE,
    ORACLE_GAPS_FR4,
    ORACLE_GAPS_RO3003,
    PCL_FR4_SIZE,
    TABLE1_J,
    TABLE1_ZE,
    TABLE1_ZO,
    TABLE2_FR4,
    TABLE3_RO3003,
    chain_product,
    equal_ripple_s21_db,
    section_chain,
)

GOLDEN = Path(__file__).parent / "golden"
SWEEP = FrequencySweep(2.0, 3.0, 1001)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_coupling_table(paper_proto, paper_spec):
    vals = j_inverters(paper_proto, paper_spec.fbw())
    design = design_coupling(paper_proto, paper_spec.fbw(), paper_spec.z0)
    dj = max(abs(v - ref) for v, ref in zip(vals, TABLE1_J))
    dz = max(
        max(abs(s.z0e - ze), abs(s.z0o - zo))
        for s, ze, zo in zip(design.sections, TABLE1_ZE, TABLE1_ZO)
    )
    ok = dj <= 5e-4 and dz <= 0.02
    report(1, ok, f"J/Y0 max delta {dj:.2e} (<=5e-4), Z0e/Z0o max delta {dz:.4f} ohm (<=0.02)")
    assert dj <= 5e-4
    assert dz <= 0.02


def test_criterion_02_order_selection(paper_spec):
    n_paper = required_order(paper_spec)
    spec_40 = FilterSpec(
        f_lower=2.52, f_upper=2.65, f0=2.58, ripple_db=0.01,
        stop_freq=2.77, stop_atten_db=40.0,
    )
    n_40 = required_order(spec_40)
    ok = n_paper == 4 and n_40 == 5
    report(2, ok, f"order(25 dB) = {n_paper} (want 4), order(40 dB) = {n_40} (want 5)")
    assert n_paper == 4
    assert n_40 == 5


def test_criterion_03_prototype_values(paper_proto):
    ref = (1.0, 0.7129, 1.2004, 1.3213, 0.6476, 1.1007)
    worst = max(abs(g - r) for g, r in zip(paper_proto.g, ref))
    ok = worst <= 5e-4
    report(3, ok, f"g-value max delta {worst:.2e} (<= 5e-4)")
    assert worst <= 5e-4


def test_criterion_04_synthesis_round_trip_and_published_dims(fr4, ro3003):
    import warnings as _w

    rng = np.random.default_rng(2024)
    accepted = 0
    worst_rt = 0.0
    while accepted < 100:
        z0o = float(rng.uniform(40.0, 110.0))
        z0e = float(rng.uniform(z0o + 1.0, 120.0))
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            w, s = synthesize_coupled(z0e, z0o, fr4)
            if not (0.1 <= w / fr4.h <= 10 and 0.1 <= s / fr4.h <= 5):
                continue
            mp = analyze_coupled(w, s, fr4)
        worst_rt = max(worst_rt, abs(mp.z0e / z0e - 1), abs(mp.z0o / z0o - 1))
        accepted += 1
    rt_ok = worst_rt <= 0.005

    rows = []
    boards = (
        (fr4, TABLE2_FR4, ORACLE_GAPS_FR4, "FR4"),
        (ro3003, TABLE3_RO3003, ORACLE_GAPS_RO3003, "RO3003"),
    )
    for sub, table, oracle_gaps, label in boards:
        for (w_ref, l_ref, s_ref), s_oracle, ze, zo in zip(
            table, oracle_gaps, TABLE1_ZE, TABLE1_ZO
        ):
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                w, s = synthesize_coupled(ze, zo, sub)
                mp = analyze_coupled(w, s, sub)
            l = resonator_length(mp, 2.58)
            rows.append(
                (label, w_ref, s_ref, s_oracle, w / w_ref - 1, l / l_ref - 1,
                 s / s_oracle - 1, s / s_ref - 1)
            )

    print("  per-value deltas against the published tables and the oracle gaps:")
    for label, w_ref, s_ref, s_oracle, dw, dl, ds, ds_pub in rows:
        print(
            f"    {label:<7} (W {w_ref:>6.3f}, S {s_ref:>7.4f}, oracle S {s_oracle:>6.4g}): "
            f"dW {dw:+7.1%}  dL {dl:+7.1%}  dS(oracle) {ds:+7.1%}  "
            f"dS(published) {ds_pub:+7.1%}"
        )
    worst_wl = max((d for row in rows for d in row[4:6]), key=abs)
    worst_s = max((row[6] for row in rows), key=abs)
    worst_pub_s = max((row[7] for row in rows), key=abs)
    wl_ok = abs(worst_wl) <= 0.15
    s_ok = abs(worst_s) <= 0.15
    report(
        4,
        rt_ok and wl_ok and s_ok,
        f"round-trip worst {worst_rt:.2e} (<=0.005); published W/L worst delta "
        f"{worst_wl:+.1%} (<=15%); oracle-gap worst delta {worst_s:+.1%} (<=15%); "
        f"published-gap worst delta {worst_pub_s:+.1%} (not asserted)",
    )
    assert rt_ok, f"round trip worst {worst_rt}"
    assert wl_ok, f"worst published W/L delta {worst_wl:+.1%} exceeds 15%"
    assert s_ok, (
        f"worst gap delta {worst_s:+.1%} against the field-solve oracle exceeds "
        "15%. The oracle gaps (ORACLE_GAPS_* in conftest.py, printed by "
        "coupled_line_oracle.py) are where a 2-D Laplace solve of the "
        "zero-thickness coupled pair realizes the published impedance table; "
        "the published gap column is not used because at the published "
        "geometries that solve misses the impedance table by up to 9.5 % "
        "while agreeing with the Kirschning-Jansen model within 0.5 %."
    )


def test_criterion_05_ideal_edge_coupled_sweep(fr4_design):
    r = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
    i0 = int(np.argmin(np.abs(np.asarray(r.frequencies) - 2.58)))
    mid_db = float(r.s21_db()[i0])
    m = extract_metrics(r)
    ok = (
        mid_db >= -0.05
        and abs(m.f_c - 2.58) / 2.58 <= 0.03
        and 130.0 <= m.bw_3db <= 260.0
    )
    report(
        5,
        ok,
        f"midband S21 {mid_db:.4f} dB (>=-0.05), f_c {m.f_c:.4f} GHz "
        f"(2.58 +/-3%), BW {m.bw_3db:.1f} MHz (in [130, 260])",
    )
    assert mid_db >= -0.05
    assert m.f_c == pytest.approx(2.58, rel=0.03)
    assert 130.0 <= m.bw_3db <= 260.0


def test_criterion_06_coupled_resonator_model(paper_proto, paper_spec):
    model = coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0)
    r = sweep_coupling_matrix(model, SWEEP)
    bw = ripple_bandwidth(r, paper_spec.ripple_db)

    freqs = np.asarray(r.frequencies)
    mag11 = np.abs(r.s[:, 0, 0])
    db21 = r.s21_db()
    band = db21 >= db21.max() - paper_spec.ripple_db - 1e-3
    f_band = freqs[band]
    minima = sum(
        1
        for i in range(1, len(freqs) - 1)
        if f_band[0] <= freqs[i] <= f_band[-1]
        and mag11[i] < mag11[i - 1]
        and mag11[i] < mag11[i + 1]
        and mag11[i] < 0.01
    )

    worst = max(
        abs(
            float(db)
            - equal_ripple_s21_db(
                float(f), paper_spec.f0, paper_spec.fbw(), paper_proto.n,
                paper_spec.ripple_db,
            )
        )
        for f, db in zip(freqs, db21)
    )
    ok = abs(bw - 130.0) / 130.0 <= 0.02 and minima == 4 and worst <= 0.05
    report(
        6,
        ok,
        f"ripple BW {bw:.2f} MHz (130 +/-2%), in-band S11 minima {minima} "
        f"(want 4), worst |delta| vs equal-ripple oracle {worst:.2e} dB (<=0.05)",
    )
    assert bw == pytest.approx(130.0, rel=0.02)
    assert minima == 4
    assert worst <= 0.05


def test_criterion_07_loss_ordering(fr4_design, ro3003_design, fr4, ro3003, paper_proto, paper_spec):
    sweep = FrequencySweep(2.3, 2.9, 601)
    il = {}
    for label, design, sub in (("FR4", fr4_design, fr4), ("RO3003", ro3003_design, ro3003)):
        r = sweep_pcl(
            design.coupling, design.spec.f0, sweep,
            mode="physical", dims=design.dims, substrate=sub, lossy=True,
        )
        il[label] = extract_metrics(r).il_db
    pcl_ok = il["FR4"] < il["RO3003"]

    il_ml = {}
    for label, design, sub in (("FR4", fr4_design, fr4), ("RO3003", ro3003_design, ro3003)):
        eps = [
            (analyze_coupled(d.w, d.s, sub).eps_eff_e + analyze_coupled(d.w, d.s, sub).eps_eff_o) / 2
            for d in design.dims
        ]
        qu = unloaded_q(sub, sum(eps) / len(eps), design.spec.f0)
        model = coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0, qu=qu)
        il_ml[label] = extract_metrics(sweep_coupling_matrix(model, sweep)).il_db
    ml_ok = il_ml["FR4"] < il_ml["RO3003"]

    ok = pcl_ok and ml_ok
    report(
        7,
        ok,
        f"edge-coupled IL {il['FR4']:.2f} vs {il['RO3003']:.2f} dB; "
        f"resonator-model IL {il_ml['FR4']:.2f} vs {il_ml['RO3003']:.2f} dB "
        "(FR4 lossier in both)",
    )
    assert pcl_ok and ml_ok


def test_criterion_08_numerical_invariants(fr4_design, paper_proto, paper_spec):
    r_pcl = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
    model = coupling_coefficients(paper_proto, paper_spec.fbw(), paper_spec.f0)
    r_cm = sweep_coupling_matrix(model, SWEEP)

    recip = all((r.s[:, 0, 1] == r.s[:, 1, 0]).all() for r in (r_pcl, r_cm))
    unit = 0.0
    for r in (r_pcl, r_cm):
        unit = max(
            unit,
            float(
                np.max(
                    np.abs(
                        np.abs(r.s[:, 0, 0]) ** 2 + np.abs(r.s[:, 1, 0]) ** 2 - 1.0
                    )
                )
            ),
        )

    rng = np.random.default_rng(77)
    det_err = 0.0
    assoc_err = 0.0
    for _ in range(100):
        mats = [
            section_chain(
                ModeParams(
                    z0e=float(rng.uniform(55, 90)),
                    z0o=float(rng.uniform(30, 48)),
                    eps_eff_e=1.0,
                    eps_eff_o=1.0,
                ),
                29.05,
                float(rng.uniform(2.0, 3.0)),
            )
            for _ in range(3)
        ]
        for m in mats:
            det_err = max(det_err, abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0))
        left = chain_product(chain_product(*mats[:2]), mats[2])
        right = chain_product(mats[0], chain_product(*mats[1:]))
        scale = np.abs(left).max()
        assoc_err = max(assoc_err, np.abs(left - right).max() / scale)
    ok = recip and unit <= 1e-9 and det_err <= 1e-9 and assoc_err <= 1e-12
    report(
        8,
        ok,
        f"reciprocity exact: {recip}; unitarity {unit:.1e} (<=1e-9); "
        f"|det-1| {det_err:.1e} (<=1e-9); associativity {assoc_err:.1e} (<=1e-12)",
    )
    assert recip
    assert unit <= 1e-9
    assert det_err <= 1e-9
    assert assoc_err <= 1e-12


def _fr4_layouts(fr4_design, fr4):
    feed_w = synthesize_single_width(fr4_design.spec.z0, fr4)
    pcl = pcl_layout(fr4_design.dims, feed_width=feed_w, stackup=single_layer_stackup(fr4))
    resonators = [
        hairpin_fold(
            fr4_design.dims[i - 1].l + fr4_design.dims[i].l,
            4.0,
            (fr4_design.dims[i - 1].w + fr4_design.dims[i].w) / 2.0,
        )
        for i in range(1, 5)
    ]
    ml = ml_hairpin_layout(resonators, 1.0, multilayer_stackup(fr4), planar_gap=1.0)
    return pcl, ml


def test_criterion_09_layout_sizes(fr4_design, fr4):
    pcl, ml = _fr4_layouts(fr4_design, fr4)
    dp = [pcl.bounds[i] / PCL_FR4_SIZE[i] - 1 for i in range(2)]
    dm = [ml.bounds[i] / ML_FR4_SIZE[i] - 1 for i in range(2)]
    ratio = ml.area() / pcl.area()
    ok = max(map(abs, dp)) <= 0.15 and max(map(abs, dm)) <= 0.20 and ratio <= 0.65
    report(
        9,
        ok,
        f"edge-coupled box {pcl.bounds[0]:.2f}x{pcl.bounds[1]:.2f} mm "
        f"(deltas {dp[0]:+.1%}/{dp[1]:+.1%}, limit 15%); multilayer box "
        f"{ml.bounds[0]:.2f}x{ml.bounds[1]:.2f} mm (deltas {dm[0]:+.1%}/"
        f"{dm[1]:+.1%}, limit 20%); area ratio {ratio:.3f} (<=0.65)",
    )
    assert max(map(abs, dp)) <= 0.15
    assert max(map(abs, dm)) <= 0.20
    assert ratio <= 0.65


def test_criterion_10_file_golden_and_round_trip(fr4_design, fr4, tmp_path):
    r = sweep_pcl(fr4_design.coupling, fr4_design.spec.f0, SWEEP)
    comments = (
        f"generated by {fr4_design.tool} ({fr4_design.created})",
        "mode=ideal lossy=False substrate=FR4",
    )
    s2p = touchstone_text(r, comments=comments)
    _, ml = _fr4_layouts(fr4_design, fr4)
    svg = export_svg(ml)

    golden_s2p = (GOLDEN / "reference_fr4_ideal.s2p").read_text(encoding="ascii")
    golden_svg = (GOLDEN / "reference_fr4_ml.svg").read_text(encoding="ascii")
    s2p_ok = s2p == golden_s2p
    svg_ok = svg == golden_svg

    path = tmp_path / "rt.s2p"
    write_touchstone(r, path, comments=comments)
    back = read_touchstone(path)
    rt_err = max(
        np.abs(r.frequencies - back.frequencies).max(), np.abs(r.s - back.s).max()
    )
    rt_ok = rt_err <= 1e-9

    ok = s2p_ok and svg_ok and rt_ok
    report(
        10,
        ok,
        f"golden Touchstone bytes equal: {s2p_ok}; golden SVG bytes equal: "
        f"{svg_ok}; round-trip worst error {rt_err:.2e} (<=1e-9)",
    )
    assert s2p_ok
    assert svg_ok
    assert rt_ok

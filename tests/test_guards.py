"""Every public guard that no pipeline input reaches: each is called once
with an input that breaks it, and must raise its own error and message."""

import dataclasses

import numpy as np
import pytest

from mwbpf.coupling import CouplingDesign, CouplingMatrixModel, coupling_coefficients
from mwbpf.layout import (
    Hairpin,
    StackupLayer,
    ml_hairpin_layout,
    multilayer_stackup,
    pcl_layout,
    single_layer_stackup,
)
from mwbpf.microstrip import ModeParams, analyze_dims, dielectric_loss
from mwbpf.rfsim import (
    BandEdgeOutOfRange,
    FrequencySweep,
    SParamResult,
    abcd_to_s,
    coupled_section_twoport,
    ripple_bandwidth,
    sweep_pcl,
)
from mwbpf.touchstone import read_touchstone

MODES = ModeParams(z0e=60.0, z0o=40.0, eps_eff_e=3.0, eps_eff_o=2.8)
HAIRPIN = Hairpin(w=1.0, arm_gap=4.0, arm_length=10.0)
SWEEP = FrequencySweep(2.0, 3.0, 11)


def _model(**changes):
    """A valid order-3 coupled-resonator model with ``changes`` applied."""
    fields = dict(n=3, k=(0.05, 0.05), qe_in=20.0, qe_out=20.0, f0=2.58, fbw=0.05)
    return CouplingMatrixModel(**{**fields, **changes})


def _touchstone(tmp_path, text):
    path = tmp_path / "guard.s2p"
    path.write_text(text, encoding="ascii")
    return read_touchstone(path)


# a call on (the reference FR4 design, FR4, a scratch directory), the error
# and the message it must raise
GUARDS = [
    pytest.param(lambda doc, sub, tmp: _model(k=(0.05,)), ValueError,
                 "need n-1 coupling coefficients", id="coupling-matrix-k-count"),
    pytest.param(lambda doc, sub, tmp: _model(k=(0.05, -0.05)), ValueError,
                 "coupling coefficients must be positive", id="coupling-matrix-k-sign"),
    pytest.param(lambda doc, sub, tmp: _model(qe_out=0.0), ValueError,
                 "external Q must be positive", id="coupling-matrix-external-q"),
    pytest.param(lambda doc, sub, tmp: coupling_coefficients(doc.prototype, 1.5, 2.58),
                 ValueError, r"fractional bandwidth must be in \(0, 1\)",
                 id="coupling-coefficients-fbw"),
    pytest.param(lambda doc, sub, tmp: dataclasses.replace(
                     doc, coupling=CouplingDesign(doc.coupling.z0, doc.coupling.sections[1:])),
                 ValueError, r"coupling sections count must be n\+1",
                 id="design-document-section-count"),
    pytest.param(lambda doc, sub, tmp: StackupLayer("via", "copper", 0.035), ValueError,
                 "unknown stackup role 'via'", id="stackup-layer-role"),
    pytest.param(lambda doc, sub, tmp: pcl_layout(
                     (), feed_width=3.0, stackup=single_layer_stackup(sub)),
                 ValueError, "need at least one section", id="pcl-layout-no-sections"),
    pytest.param(lambda doc, sub, tmp: ml_hairpin_layout(
                     [HAIRPIN] * 3, 1.0, multilayer_stackup(sub), planar_gap=1.0),
                 ValueError, "need exactly 4 resonators", id="ml-hairpin-layout-count"),
    pytest.param(lambda doc, sub, tmp: ml_hairpin_layout(
                     [HAIRPIN] * 4, -1.0, multilayer_stackup(sub), planar_gap=1.0),
                 ValueError, "overlap must be non-negative", id="ml-hairpin-layout-overlap"),
    pytest.param(lambda doc, sub, tmp: ml_hairpin_layout(
                     [HAIRPIN] * 4, 1.0, multilayer_stackup(sub), planar_gap=0.0),
                 ValueError, "planar_gap must be positive", id="ml-hairpin-layout-planar-gap"),
    pytest.param(lambda doc, sub, tmp: analyze_dims(doc.dims, sub, 0.0), ValueError,
                 "f0 must be positive", id="analyze-dims-f0"),
    pytest.param(lambda doc, sub, tmp: dielectric_loss(sub, 3.0, np.array([2.5, 0.0])),
                 ValueError, "frequency must be positive", id="dielectric-loss-frequency"),
    pytest.param(lambda doc, sub, tmp: coupled_section_twoport(MODES, 0.0, 2.5), ValueError,
                 "length and frequency must be positive", id="coupled-section-length"),
    pytest.param(lambda doc, sub, tmp: coupled_section_twoport(MODES, 10.0, [2.5, -1.0]),
                 ValueError, "length and frequency must be positive",
                 id="coupled-section-frequency"),
    pytest.param(lambda doc, sub, tmp: abcd_to_s(np.eye(2), 0.0), ValueError,
                 "z0 must be positive", id="abcd-to-s-z0"),
    # a + b/z0 + c z0 + d = 0
    pytest.param(lambda doc, sub, tmp: abcd_to_s(np.diag([1.0, -1.0]), 50.0),
                 ZeroDivisionError, "singular ABCD-to-S conversion", id="abcd-to-s-singular"),
    pytest.param(lambda doc, sub, tmp: sweep_pcl(doc.coupling, doc.spec.f0, SWEEP, mode="ml"),
                 ValueError, "mode must be 'ideal' or 'physical'", id="sweep-pcl-mode"),
    pytest.param(lambda doc, sub, tmp: sweep_pcl(
                     doc.coupling, doc.spec.f0, SWEEP, mode="physical", dims=doc.dims[1:],
                     substrate=sub),
                 ValueError, "dims count must match the section count",
                 id="sweep-pcl-dims-count"),
    # a flat response: the whole span lies inside the ripple band
    pytest.param(lambda doc, sub, tmp: ripple_bandwidth(
                     SParamResult([1.0, 2.0, 3.0], [[[0.0, 1.0], [1.0, 0.0]]] * 3, 50.0), 0.01),
                 BandEdgeOutOfRange, "ripple band extends beyond the swept span",
                 id="ripple-bandwidth-span"),
    pytest.param(lambda doc, sub, tmp: _touchstone(tmp, "! comments only\n"), ValueError,
                 "missing option line or data", id="read-touchstone-no-data"),
    pytest.param(lambda doc, sub, tmp: _touchstone(tmp, "# GHz S RI R 50\n1 0 0 1 0\n"),
                 ValueError, "expected 9 columns", id="read-touchstone-columns"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S XY R 50\n1 0 0 1 0 1 0 0 0\n"),
                 ValueError, "unsupported format 'xy'", id="read-touchstone-format"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_error(call, error, message, fr4_design, fr4, tmp_path):
    with pytest.raises(error, match=message):
        call(fr4_design, fr4, tmp_path)

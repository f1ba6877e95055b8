"""Every public guard that no pipeline input reaches: each is called once
with an input that breaks it, and must raise its own error and message. And
the range table of every input class, read by the one range check."""

import dataclasses
import inspect
import math
import re
import sys

import numpy as np
import pytest

from mwbpf.coupling import (
    CouplingDesign,
    CouplingMatrixModel,
    CouplingSection,
    coupling_coefficients,
)
from mwbpf.design import design_layout
from mwbpf.layout import (
    GEOMETRY_RANGES,
    FilterLayout,
    Hairpin,
    LayoutElement,
    Port,
    StackupLayer,
    hairpin_fold,
    ml_hairpin_layout,
    multilayer_stackup,
    pcl_layout,
    single_layer_stackup,
)
from mwbpf.materials import read_record
from mwbpf.microstrip import (
    CoupledSectionDims,
    Substrate,
    analyze_dims,
    dielectric_loss,
)
from mwbpf.prototype import ChebyshevPrototype, FilterSpec, check_ranges
from mwbpf.rfsim import (
    BandEdgeOutOfRange,
    FrequencySweep,
    SParamResult,
    abcd_to_s,
    ripple_bandwidth,
    sweep_pcl,
)
from mwbpf.touchstone import read_touchstone

HAIRPIN = Hairpin(w=1.0, arm_gap=4.0, arm_length=10.0)
SQUARE = LayoutElement(0, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
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
                 r"k\[1\] = -0.05 must lie in \(0, inf\)", id="coupling-matrix-k-sign"),
    pytest.param(lambda doc, sub, tmp: _model(qe_out=0.0), ValueError,
                 r"qe_out = 0.0 must lie in \(0, inf\)", id="coupling-matrix-external-q"),
    pytest.param(lambda doc, sub, tmp: coupling_coefficients(doc.prototype, 1.5, 2.58),
                 ValueError, r"fractional bandwidth must be in \(0, 1\)",
                 id="coupling-coefficients-fbw"),
    pytest.param(lambda doc, sub, tmp: dataclasses.replace(
                     doc, coupling=CouplingDesign(doc.coupling.z0, doc.coupling.sections[1:])),
                 ValueError, r"coupling sections count must be n\+1",
                 id="design-document-section-count"),
    # an empty cascade and a z0 outside the range are refused before any sweep
    pytest.param(lambda doc, sub, tmp: CouplingDesign(50.0, ()), ValueError,
                 "need at least one coupling section", id="coupling-design-no-sections"),
    *(pytest.param(lambda doc, sub, tmp, v=v: CouplingDesign(v, doc.coupling.sections),
                   ValueError, re.escape(f"z0 = {v} must lie in (0, inf)"),
                   id=f"coupling-design-z0-{v}")
      for v in (0.0, -50.0, math.nan, math.inf)),
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
                 ValueError, r"overlap = -1.0 must lie in \[0, inf\)",
                 id="ml-hairpin-layout-overlap"),
    pytest.param(lambda doc, sub, tmp: ml_hairpin_layout(
                     [HAIRPIN] * 4, 1.0, multilayer_stackup(sub), planar_gap=0.0),
                 ValueError, r"planar_gap = 0.0 must lie in \(0, inf\)",
                 id="ml-hairpin-layout-planar-gap"),
    # the builders place ports from finite geometry; a hand-built layout may not
    *(pytest.param(lambda doc, sub, tmp, ports=ports: FilterLayout(
                       elements=(SQUARE,), ports=ports, stackup=single_layer_stackup(sub)),
                   ValueError, re.escape(f"ports[{i}] has a coordinate that is not finite"),
                   id=f"filter-layout-port-{name}")
      for i, name, ports in ((0, "nan", (Port("P1", math.nan, 0.0), Port("P2", 1.0, 1.0))),
                             (1, "inf", (Port("P1", 0.0, 0.0), Port("P2", 1.0, math.inf))))),
    pytest.param(lambda doc, sub, tmp: analyze_dims(doc.dims, sub, 0.0), ValueError,
                 "f0 must be positive", id="analyze-dims-f0"),
    pytest.param(lambda doc, sub, tmp: dielectric_loss(sub, 3.0, np.array([2.5, 0.0])),
                 ValueError, "frequency must be positive", id="dielectric-loss-frequency"),
    pytest.param(lambda doc, sub, tmp: abcd_to_s(np.eye(2), 0.0), ValueError,
                 r"z0 = 0.0 must lie in \(0, inf\)", id="abcd-to-s-z0"),
    pytest.param(lambda doc, sub, tmp: abcd_to_s(np.eye(2), math.nan), ValueError,
                 r"z0 = nan must lie in \(0, inf\)", id="abcd-to-s-z0-nan"),
    pytest.param(lambda doc, sub, tmp: abcd_to_s(np.eye(2), math.inf), ValueError,
                 r"z0 = inf must lie in \(0, inf\)", id="abcd-to-s-z0-inf"),
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
    # the prototype's range for ripple_db, not the swept span
    *(pytest.param(lambda doc, sub, tmp, v=v: ripple_bandwidth(
                       SParamResult([1.0, 2.0, 3.0], [[[0.0, 1.0], [1.0, 0.0]]] * 3, 50.0), v),
                   ValueError, re.escape(f"ripple_db = {v} must lie in (0, inf)"),
                   id=f"ripple-bandwidth-ripple-{v}")
      for v in (0.0, -1.0, math.nan, math.inf)),
    pytest.param(lambda doc, sub, tmp: FrequencySweep(2.0, 3.0, 2.5), ValueError,
                 "n_points = 2.5 must be an integer", id="frequency-sweep-fractional-points"),
    pytest.param(lambda doc, sub, tmp: FrequencySweep(2.0, 3.0, 3.0), ValueError,
                 "n_points = 3.0 must be an integer", id="frequency-sweep-float-points"),
    # a value that does not compare with a float names its field, not a TypeError
    pytest.param(lambda doc, sub, tmp: FrequencySweep(2.0, 3.0, "3"), ValueError,
                 re.escape("n_points = '3' must be a real number in [2, 1000001]"),
                 id="frequency-sweep-string-points"),
    pytest.param(lambda doc, sub, tmp: FilterSpec(
                     f_lower="2.52", f_upper=2.65, ripple_db=0.01, stop_freq=2.77,
                     stop_atten_db=25.0),
                 ValueError, re.escape("f_lower = '2.52' must be a real number in (0, inf)"),
                 id="filter-spec-string-frequency"),
    pytest.param(lambda doc, sub, tmp: ChebyshevPrototype(n=2, ripple_db=0.1,
                                                          g=(1.0, "x", 1.0, 1.0)),
                 ValueError,
                 re.escape("g = (1.0, 'x', 1.0, 1.0) must hold real numbers in (0, inf)"),
                 id="prototype-string-g"),
    pytest.param(lambda doc, sub, tmp: _touchstone(tmp, "! comments only\n"), ValueError,
                 "missing option line or data", id="read-touchstone-no-data"),
    pytest.param(lambda doc, sub, tmp: _touchstone(tmp, "# GHz S RI R 50\n1 0 0 1 0\n"),
                 ValueError, "expected 9 columns", id="read-touchstone-columns"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S XY R 50\n1 0 0 1 0 1 0 0 0\n"),
                 ValueError, "unsupported format 'xy'", id="read-touchstone-format"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# THZ S RI R 50\n1 0 0 1 0 1 0 0 0\n"),
                 ValueError, "unsupported frequency unit 'thz'", id="read-touchstone-unit"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S RI X 50\n1 0 0 1 0 1 0 0 0\n"),
                 ValueError, "option line '# GHz S RI X 50': the 4th field must be R",
                 id="read-touchstone-parameter"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S RI R 50 75\n1 0 0 1 0 1 0 0 0\n"),
                 ValueError, "option line '# GHz S RI R 50 75' has more than 5 fields",
                 id="read-touchstone-extra-token"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S RI R -50\n1 0 0 1 0 1 0 0 0\n"),
                 ValueError, r"z0 = -50.0 must lie in \(0, inf\)", id="read-touchstone-z0"),
    # numpy reads nan and inf as floats, and 1e308 dB overflows; a response holds none
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S RI R 50\n1 0 0 1 0 1 0 0 0\n2 nan 0 1 0 1 0 0 0\n"),
                 ValueError, "data line '2 nan 0 1 0 1 0 0 0' has a value that is not finite",
                 id="read-touchstone-nan"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S RI R 50\ninf 0 0 1 0 1 0 0 0\n"),
                 ValueError, "data line 'inf 0 0 1 0 1 0 0 0' has a value that is not finite",
                 id="read-touchstone-inf"),
    pytest.param(lambda doc, sub, tmp: _touchstone(
                     tmp, "# GHz S DB R 50\n1 1e308 0 0 0 0 0 0 0\n"),
                 ValueError, "data line '1 1e308 0 0 0 0 0 0 0' has a value that is not finite",
                 id="read-touchstone-db-overflow"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_error(call, error, message, fr4_design, fr4, tmp_path):
    with pytest.raises(error, match=message):
        call(fr4_design, fr4, tmp_path)


# a valid record of each input class; a tuple field's entry g[1] or k[0] is varied
RECORDS = {
    FilterSpec: dict(f_lower=2.52, f_upper=2.65, ripple_db=0.01, stop_freq=2.77,
                     stop_atten_db=25.0, z0=50.0, f0=2.58),
    ChebyshevPrototype: dict(n=1, ripple_db=0.1, g=(1.0, 0.3, 1.0)),
    CouplingSection: dict(j_over_y0=0.1, z0e=60.0, z0o=40.0),
    CouplingMatrixModel: dict(n=3, k=(0.05, 0.05), qe_in=20.0, qe_out=20.0, f0=2.58, fbw=0.05,
                              qu=100.0),
    Substrate: dict(name="x", eps_r=4.3, tan_d=0.025, h=1.6, t=0.035, conductivity=5.8e7),
    CoupledSectionDims: dict(w=2.0, s=0.5, l=16.0),
    FrequencySweep: dict(f_start=2.0, f_stop=3.0, n_points=11),
}
ENTRY = {ChebyshevPrototype: 1, CouplingMatrixModel: 0}
# the finite ends that a relational rule refuses in these records, and its message
RELATIONAL = {
    (FilterSpec, "f_lower"): "fractional bandwidth must be in (0, 1)",
    (FilterSpec, "f_upper"): "need 0 < f_lower < f_upper",
    (FilterSpec, "f0"): "f0 must lie inside the passband",
    (CouplingSection, "z0e"): "need z0e >= z0o > 0",
    (CouplingMatrixModel, "n"): "need n-1 coupling coefficients",
    (FrequencySweep, "f_stop"): "need 0 < f_start < f_stop",
}


def _finite_ends(interval, integer=False):
    """Each end of an interval that is not inf or -inf, with the value one
    double outside it (one, for an integer field)."""
    lo, hi, _ = interval
    for end, away in ((lo, -1), (hi, 1)):
        if abs(end) < sys.float_info.max:
            yield ((int(end), int(end) + away) if integer
                   else (end, math.nextafter(end, away * math.inf)))


def _record(cls, name, value):
    """The fields of ``cls``'s valid record with ``name`` (its entry, for a
    tuple) set to ``value``, and the label the range check names it by."""
    fields = dict(RECORDS[cls])
    if not isinstance(fields[name], tuple):
        return {**fields, name: value}, name
    i = ENTRY[cls]
    return {**fields, name: (*fields[name][:i], value, *fields[name][i + 1:])}, f"{name}[{i}]"


def _assert_range_error(exc, where, label, value, interval):
    """``exc`` is the one message form, naming ``label`` and ``value``."""
    prefix = f"{where}: " if where else ""
    match = re.fullmatch(rf"{re.escape(prefix + label)} = (\S+) must lie in "
                         rf"{re.escape(interval[2])}", str(exc))
    assert match, str(exc)
    assert float(match[1]) == value or math.isnan(value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_range_table(cls):
    """Every numeric field is in the table. Each finite end is accepted, but
    where a relational rule refuses it; one double outside it, NaN, inf and
    -inf are refused by the range check, also through read_record, unless
    the interval is closed at that infinity."""
    numeric = {f.name for f in dataclasses.fields(cls) if f.type != "str"}
    assert set(cls.RANGES) == numeric
    for name, interval in cls.RANGES.items():
        integer = isinstance(RECORDS[cls][name], int)
        ends = list(_finite_ends(interval, integer))
        for end, _ in ends:
            try:
                cls(**_record(cls, name, end)[0])
            except ValueError as exc:
                assert RELATIONAL.get((cls, name), "not refused") in str(exc), str(exc)
        for value in (*(away for _, away in ends), math.nan, math.inf, -math.inf):
            fields, label = _record(cls, name, value)
            if interval[0] <= value <= interval[1]:  # qu = inf, the lossless default
                cls(**fields)
                continue
            with pytest.raises(ValueError) as raised:
                cls(**fields)
            _assert_range_error(raised.value, "", label, value, interval)
            if integer:
                continue  # read_record reads an integer field only from a JSON integer
            with pytest.raises(ValueError) as raised:
                read_record(cls, fields, "materials[0]")
            _assert_range_error(raised.value, "materials[0]", label, value, interval)


def test_geometry_table(fr4_design, fr4):
    """The table holds the float options of the layout builders. Each finite
    end passes the check, and one double outside it or a non-finite value is
    refused by every builder that takes the option."""
    builders = [
        (pcl_layout, dict(dims=fr4_design.dims, feed_width=3.0,
                          stackup=single_layer_stackup(fr4))),
        (hairpin_fold, dict(l_half_wave=32.1, arm_gap=2.0, w=3.3)),
        (ml_hairpin_layout, dict(resonators=[HAIRPIN] * 4, overlap=1.0,
                                 stackup=multilayer_stackup(fr4), planar_gap=1.0)),
        (design_layout, dict(doc=fr4_design, substrate=fr4, kind="pcl")),
    ]
    taken = [{p for p, v in inspect.signature(fn).parameters.items() if v.annotation == "float"}
             for fn, _ in builders]
    assert set().union(*taken) == set(GEOMETRY_RANGES)
    for name, interval in GEOMETRY_RANGES.items():
        for end, _ in _finite_ends(interval):
            check_ranges(GEOMETRY_RANGES, {name: end})
        for value in (*(away for _, away in _finite_ends(interval)), math.nan, math.inf, -math.inf):
            for (fn, args), options in zip(builders, taken):
                if name in options:
                    with pytest.raises(ValueError) as raised:
                        fn(**{**args, name: value})
                    _assert_range_error(raised.value, "", name, value, interval)

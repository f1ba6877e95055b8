import pytest

import mwbpf

# the package's public names: its eight submodules and what they export
PUBLIC = [
    "BandEdgeOutOfRange", "BandMetrics", "ChebyshevPrototype", "CoupledSectionDims",
    "CouplingDesign", "CouplingMatrixModel", "CouplingSection", "CouplingUnreachable",
    "DesignDocument", "FilterLayout", "FilterSpec", "FoldTooTight", "FrequencySweep",
    "GapTooSmallWarning", "Hairpin", "MaterialsRegistry", "ModeParams",
    "ModelValidityWarning", "NoConvergence", "SParamResult", "Stackup", "Substrate",
    "UnknownMaterial", "UnsatisfiableSpec", "abcd_to_s", "analyze_coupled",
    "analyze_single", "attenuation_height", "bandpass_to_lowpass", "cascade",
    "check_fit_range", "coupled_section_twoport", "coupling", "coupling_coefficients",
    "default_registry", "design", "design_coupling", "design_layout", "design_prototype",
    "dielectric_loss", "even_odd_impedances", "export_svg", "extract_metrics", "g_values",
    "hairpin_fold", "j_inverters", "layout", "load_design", "materials", "microstrip",
    "ml_hairpin_layout", "multilayer_stackup", "pcl_layout", "prototype", "read_touchstone",
    "required_order", "resonator_length", "rfsim", "ripple_bandwidth", "ripple_height",
    "save_design", "simulate", "single_layer_stackup", "sweep_coupling_matrix", "sweep_pcl",
    "synthesize_coupled", "synthesize_design", "synthesize_single_width", "touchstone",
    "unloaded_q", "write_csv", "write_touchstone",
]


def test_public_names():
    assert mwbpf.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(mwbpf))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from mwbpf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name, value in namespace.items():
        assert vars(mwbpf)[name] is value  # resolved once, then found directly


def test_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'sweep'"):
        mwbpf.sweep

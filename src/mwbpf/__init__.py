"""Microstrip bandpass filter synthesis, simulation, and layout toolkit.

Pipeline: band/ripple/attenuation spec -> Chebyshev prototype -> coupled-
section impedances -> microstrip dimensions -> S-parameter sweeps (edge-
coupled cascade or coupled-resonator model) -> Touchstone/CSV/SVG artifacts.

Each public name loads its submodule on first use (PEP 562), so a program
that uses a part of the toolkit imports only that part.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "coupling": (
        "CouplingDesign",
        "CouplingMatrixModel",
        "CouplingSection",
        "coupling_coefficients",
        "design_coupling",
        "even_odd_impedances",
        "j_inverters",
    ),
    "microstrip": (
        "CoupledSectionDims",
        "CouplingUnreachable",
        "GapTooSmallWarning",
        "ModelValidityWarning",
        "ModeParams",
        "NoConvergence",
        "Substrate",
        "analyze_coupled",
        "analyze_single",
        "check_fit_range",
        "dielectric_loss",
        "resonator_length",
        "synthesize_coupled",
        "synthesize_single_width",
        "unloaded_q",
    ),
    "prototype": (
        "ChebyshevPrototype",
        "FilterSpec",
        "UnsatisfiableSpec",
        "attenuation_height",
        "bandpass_to_lowpass",
        "design_prototype",
        "g_values",
        "required_order",
        "ripple_height",
    ),
    "rfsim": (
        "BandEdgeOutOfRange",
        "BandMetrics",
        "FrequencySweep",
        "SParamResult",
        "abcd_to_s",
        "cascade",
        "coupled_section_twoport",
        "extract_metrics",
        "ripple_bandwidth",
        "sweep_coupling_matrix",
        "sweep_pcl",
    ),
    "design": (
        "DesignDocument",
        "design_layout",
        "load_design",
        "save_design",
        "simulate",
        "synthesize_design",
    ),
    "layout": (
        "FilterLayout",
        "FoldTooTight",
        "Hairpin",
        "Stackup",
        "export_svg",
        "hairpin_fold",
        "ml_hairpin_layout",
        "multilayer_stackup",
        "pcl_layout",
        "single_layer_stackup",
    ),
    "materials": ("MaterialsRegistry", "UnknownMaterial", "default_registry"),
    "touchstone": ("read_touchstone", "write_csv", "write_touchstone"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # found here from now on, without this lookup
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

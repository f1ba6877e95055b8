"""Microstrip bandpass filter synthesis, simulation, and layout toolkit.

Pipeline: band/ripple/attenuation spec -> Chebyshev prototype -> coupled-
section impedances -> microstrip dimensions -> S-parameter sweeps (edge-
coupled cascade or coupled-resonator model) -> Touchstone/CSV/SVG artifacts.
"""

__version__ = "0.1.0"

from .coupling import (
    CouplingDesign,
    CouplingMatrixModel,
    CouplingSection,
    coupling_coefficients,
    design_coupling,
    even_odd_impedances,
    j_inverters,
)
from .microstrip import (
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
from .prototype import (
    ChebyshevPrototype,
    FilterSpec,
    UnsatisfiableSpec,
    attenuation_height,
    bandpass_to_lowpass,
    design_prototype,
    g_values,
    required_order,
    ripple_height,
)
from .rfsim import (
    BandEdgeOutOfRange,
    BandMetrics,
    FrequencySweep,
    SParamResult,
    abcd_to_s,
    cascade,
    coupled_section_twoport,
    extract_metrics,
    ripple_bandwidth,
    sweep_coupling_matrix,
    sweep_pcl,
)
from .design import (
    DesignDocument,
    design_layout,
    load_design,
    save_design,
    simulate,
    synthesize_design,
)
from .layout import (
    FilterLayout,
    FoldTooTight,
    Hairpin,
    Stackup,
    export_svg,
    hairpin_fold,
    ml_hairpin_layout,
    multilayer_stackup,
    pcl_layout,
    single_layer_stackup,
)
from .materials import MaterialsRegistry, UnknownMaterial, default_registry
from .touchstone import read_touchstone, write_csv, write_touchstone

__all__ = [name for name in dir() if not name.startswith("_")]

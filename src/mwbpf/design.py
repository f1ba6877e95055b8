"""End-to-end synthesis pipeline, the persisted design document, and the
simulation and layout policy applied to a design.

A design document bundles everything downstream commands need: the original
specification, the prototype, the per-section coupling targets, the
synthesized dimensions, and the substrate name. It serializes to JSON and
re-parses to an equal value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, make_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .coupling import (
    CouplingDesign,
    CouplingSection,
    coupling_coefficients,
    design_coupling,
)
from .materials import read_record
from .microstrip import (
    _TOLERANCE,
    C0,
    CoupledSectionDims,
    ModeParams,
    Substrate,
    analyze_coupled,
    analyze_dims,
    check_fit_range,
    resonator_length,
    synthesize_coupled,
    synthesize_single_width,
    unloaded_q,
)
from .prototype import ChebyshevPrototype, FilterSpec, check_ranges, design_prototype

# rfsim and layout are imported by the functions that run them, so that
# synthesis alone loads neither
if TYPE_CHECKING:
    from .layout import FilterLayout
    from .rfsim import FrequencySweep, SParamResult

# (field, JSON key) of a "spec" block and of a coupling section, in file order
SPEC_KEYS = (
    ("f_lower", "f_lower_ghz"),
    ("f_upper", "f_upper_ghz"),
    ("f0", "f0_ghz"),
    ("ripple_db", "ripple_db"),
    ("stop_freq", "stop_freq_ghz"),
    ("stop_atten_db", "stop_atten_db"),
    ("z0", "z0_ohm"),
)
SECTION_KEYS = (("j_over_y0", "j_over_y0"), ("z0e", "z0e_ohm"), ("z0o", "z0o_ohm"))
# the objects that enclose the records of a config file and of a design
# file, read like them; a file's top level is named by its class name
ConfigFile = make_dataclass("config", [("spec", "dict"), ("substrate", "str")])
_DesignFile = make_dataclass("design document", [
    ("spec", "dict"), ("prototype", "dict"), ("coupling", "dict"),
    ("dims_mm", "list"), ("substrate", "str"), ("provenance", "dict"),
])
_Coupling = make_dataclass("coupling", [("z0_ohm", "float"), ("sections", "list")])
_Provenance = make_dataclass("provenance", [("tool", "str"), ("created", "str")])


@dataclass(frozen=True)
class DesignDocument:
    spec: FilterSpec
    prototype: ChebyshevPrototype
    coupling: CouplingDesign
    dims: tuple[CoupledSectionDims, ...]
    substrate: str
    tool: str
    created: str

    def __post_init__(self):
        if len(self.dims) != self.prototype.n + 1:
            raise ValueError("dims count must be n+1")
        if len(self.coupling.sections) != self.prototype.n + 1:
            raise ValueError("coupling sections count must be n+1")
        if self.coupling.z0 != self.spec.z0:
            raise ValueError(
                f"coupling.z0_ohm {self.coupling.z0:g} must equal spec.z0_ohm {self.spec.z0:g}"
            )


def synthesize_design(
    spec: FilterSpec,
    substrate: Substrate,
    created: str | None = None,
) -> DesignDocument:
    """Run prototype -> coupling -> dimension synthesis for one substrate,
    and the validity step (``check_fit_range``) once per section.

    A section reuses the dimensions of the first earlier section whose
    realized mode impedances meet its (z0e, z0o) under the Newton's own
    stop, ``max(|ln(z0e_r / z0e)|, |ln(z0o_r / z0o)|) < 1e-6``: the point a
    Newton started there would return at once. So mirror sections, whose
    targets are equal or differ in the last bits, hold the same dimensions:
    one Newton per mirror pair."""
    proto = design_prototype(spec)
    coupling = design_coupling(proto, spec.fbw(), spec.z0)
    dims = []
    solved: list[tuple[ModeParams, CoupledSectionDims]] = []
    for section in coupling.sections:
        d = next((d for mp, d in solved if _realizes(mp, section)), None)
        if d is None:
            w, s = synthesize_coupled(section.z0e, section.z0o, substrate)
            mp = analyze_coupled(w, s, substrate)
            d = CoupledSectionDims(w=w, s=s, l=resonator_length(mp, spec.f0))
            solved.append((mp, d))
        check_fit_range(d.w, d.s, substrate)
        dims.append(d)
    if created is None:
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return DesignDocument(
        spec=spec,
        prototype=proto,
        coupling=coupling,
        dims=tuple(dims),
        substrate=substrate.name,
        tool=f"mwbpf {__version__}",
        created=created,
    )


def _realizes(mp: ModeParams, section: CouplingSection) -> bool:
    """Whether ``mp`` meets the section's (z0e, z0o) under the Newton's stop."""
    return max(abs(math.log(mp.z0e / section.z0e)),
               abs(math.log(mp.z0o / section.z0o))) < _TOLERANCE


def simulate(
    doc: DesignDocument,
    substrate: Substrate,
    mode: str,
    sweep: FrequencySweep,
    lossy: bool = False,
) -> SParamResult:
    """S-parameters of a design.

    ``ideal`` and ``physical`` sweep the edge-coupled cascade (see
    ``sweep_pcl``; ``ideal`` is lossless). ``ml`` sweeps the coupled-resonator
    model; with ``lossy`` its unloaded Q comes from the mean over sections of
    the mode-average effective permittivity. The modes that read the
    dimensions (``physical``, and lossy ``ml``) read them through
    ``analyze_dims``, which bounds their lengths and runs the validity step.
    """
    from .rfsim import sweep_coupling_matrix, sweep_pcl

    if mode == "ml":
        qu = math.inf
        if lossy:
            mps = analyze_dims(doc.dims, substrate, doc.spec.f0)
            eps = sum((mp.eps_eff_e + mp.eps_eff_o) / 2.0 for mp in mps) / len(mps)
            qu = unloaded_q(substrate, eps, doc.spec.f0)
        model = coupling_coefficients(doc.prototype, doc.spec.fbw(), doc.spec.f0, qu=qu)
        return sweep_coupling_matrix(model, sweep, z0=doc.spec.z0)
    return sweep_pcl(
        doc.coupling, doc.spec.f0, sweep, mode=mode, dims=doc.dims, substrate=substrate,
        lossy=lossy,
    )


def design_layout(
    doc: DesignDocument,
    substrate: Substrate,
    kind: str,
    arm_gap: float = 4.0,
    overlap: float = 1.0,
    planar_gap: float = 1.0,
) -> FilterLayout:
    """Layout of a design: ``pcl`` edge-coupled board with feed lines of the
    spec's impedance, or ``ml`` multilayer hairpin (order 4 only), each
    resonator folded from its two quarter-wave sections at their mean width.
    The hairpin geometry (``arm_gap``, ``overlap``, ``planar_gap``) is in mm;
    both kinds check its range, and ``pcl`` does not read it. Both kinds
    read the dimensions through ``analyze_dims``, as the sweeps do, so a
    section longer than the free-space wavelength at f0 is refused alike; a
    ``planar_gap`` longer than that wavelength is refused too.
    """
    from .layout import (
        GEOMETRY_RANGES,
        FoldTooTight,
        hairpin_fold,
        ml_hairpin_layout,
        multilayer_stackup,
        pcl_layout,
        single_layer_stackup,
    )

    if kind not in ("pcl", "ml"):
        raise ValueError("kind must be 'pcl' or 'ml'")
    check_ranges(GEOMETRY_RANGES, dict(arm_gap=arm_gap, overlap=overlap, planar_gap=planar_gap))
    wavelength = C0 / (doc.spec.f0 * 1e9) * 1e3
    if planar_gap > wavelength:
        raise ValueError(f"planar_gap = {planar_gap:g} mm is longer than the free-space "
                         f"wavelength {wavelength:g} mm at f0")
    analyze_dims(doc.dims, substrate, doc.spec.f0)
    if kind == "pcl":
        feed_w = synthesize_single_width(doc.spec.z0, substrate)
        return pcl_layout(
            doc.dims, feed_width=feed_w, stackup=single_layer_stackup(substrate)
        )
    n = doc.prototype.n
    if n != 4:
        raise FoldTooTight(
            f"multilayer hairpin layout is defined for 4 resonators, design has {n}"
        )
    resonators = []
    for i in range(1, 5):
        half_wave = doc.dims[i - 1].l + doc.dims[i].l
        w = (doc.dims[i - 1].w + doc.dims[i].w) / 2.0
        resonators.append(hairpin_fold(half_wave, arm_gap, w))
    return ml_hairpin_layout(
        resonators, overlap, multilayer_stackup(substrate), planar_gap=planar_gap
    )


def to_dict(doc: DesignDocument) -> dict:
    return {
        "spec": {key: getattr(doc.spec, field) for field, key in SPEC_KEYS},
        "prototype": asdict(doc.prototype),
        "coupling": {
            "z0_ohm": doc.coupling.z0,
            "sections": [
                {key: getattr(s, field) for field, key in SECTION_KEYS}
                for s in doc.coupling.sections
            ],
        },
        "dims_mm": [asdict(d) for d in doc.dims],
        "substrate": doc.substrate,
        "provenance": {"tool": doc.tool, "created": doc.created},
    }


def from_dict(data) -> DesignDocument:
    """The design document of ``to_dict``'s JSON form, read by ``read_record``."""
    top = read_record(_DesignFile, data, "")
    coupling = read_record(_Coupling, top.coupling, "coupling")
    provenance = read_record(_Provenance, top.provenance, "provenance")
    spec = read_record(FilterSpec, top.spec, "spec", SPEC_KEYS)
    prototype = read_record(ChebyshevPrototype, top.prototype, "prototype")
    sections = tuple(read_record(CouplingSection, s, f"coupling.sections[{i}]", SECTION_KEYS)
                     for i, s in enumerate(coupling.sections))
    try:
        coupling = CouplingDesign(z0=coupling.z0_ohm, sections=sections)
    except ValueError as exc:  # named as read_record names its errors
        raise ValueError(f"coupling: {exc}") from None
    return DesignDocument(
        spec=spec,
        prototype=prototype,
        coupling=coupling,
        dims=tuple(
            read_record(CoupledSectionDims, d, f"dims_mm[{i}]") for i, d in enumerate(top.dims_mm)
        ),
        substrate=top.substrate,
        tool=provenance.tool,
        created=provenance.created,
    )


def save_design(doc: DesignDocument, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(doc), indent=2) + "\n", encoding="ascii")


def load_design(path: str | Path) -> DesignDocument:
    return from_dict(json.loads(Path(path).read_text(encoding="ascii")))

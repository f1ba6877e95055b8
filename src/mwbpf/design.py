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
from dataclasses import asdict, dataclass
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
from .materials import expect_json, read_record
from .microstrip import (
    CoupledSectionDims,
    Substrate,
    analyze_coupled,
    analyze_dims,
    check_fit_range,
    resonator_length,
    synthesize_coupled,
    synthesize_single_width,
    unloaded_q,
)
from .prototype import ChebyshevPrototype, FilterSpec, design_prototype

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
    and the validity step (``check_fit_range``) once per section."""
    proto = design_prototype(spec)
    coupling = design_coupling(proto, spec.fbw(), spec.z0)
    dims = []
    for section in coupling.sections:
        w, s = synthesize_coupled(section.z0e, section.z0o, substrate)
        check_fit_range(w, s, substrate)
        mp = analyze_coupled(w, s, substrate)
        dims.append(CoupledSectionDims(w=w, s=s, l=resonator_length(mp, spec.f0)))
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
    the mode-average effective permittivity. Runs the validity step
    (``check_fit_range``) on every section wherever the dimensions are read
    (``physical``, and lossy ``ml``).
    """
    from .rfsim import sweep_coupling_matrix, sweep_pcl

    if mode == "physical" or (mode == "ml" and lossy):
        for d in doc.dims:
            check_fit_range(d.w, d.s, substrate)
    if mode == "ml":
        qu = math.inf
        if lossy:
            mps = analyze_dims(doc.dims, substrate)
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
    The hairpin geometry (``arm_gap``, ``overlap``, ``planar_gap``) is in mm.
    """
    from .layout import (
        FoldTooTight,
        hairpin_fold,
        ml_hairpin_layout,
        multilayer_stackup,
        pcl_layout,
        single_layer_stackup,
    )

    if kind == "pcl":
        feed_w = synthesize_single_width(doc.spec.z0, substrate)
        return pcl_layout(
            doc.dims, feed_width=feed_w, stackup=single_layer_stackup(substrate)
        )
    if kind != "ml":
        raise ValueError("kind must be 'pcl' or 'ml'")
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
        "prototype": {
            "n": doc.prototype.n,
            "ripple_db": doc.prototype.ripple_db,
            "g": list(doc.prototype.g),
        },
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
    """The design document of ``to_dict``'s JSON form, its types checked."""
    data = expect_json(data, dict, "design document")
    proto = expect_json(data["prototype"], dict, "prototype")
    coupling = expect_json(data["coupling"], dict, "coupling")
    provenance = expect_json(data["provenance"], dict, "provenance")

    g = expect_json(proto["g"], list, "prototype.g")
    sections = expect_json(coupling["sections"], list, "coupling.sections")
    dims = expect_json(data["dims_mm"], list, "dims_mm")
    return DesignDocument(
        spec=read_record(FilterSpec, data["spec"], "spec", SPEC_KEYS),
        prototype=ChebyshevPrototype(
            n=expect_json(proto["n"], int, "prototype.n"),
            ripple_db=expect_json(proto["ripple_db"], float, "prototype.ripple_db"),
            g=tuple(expect_json(v, float, f"prototype.g[{i}]") for i, v in enumerate(g)),
        ),
        coupling=CouplingDesign(
            z0=expect_json(coupling["z0_ohm"], float, "coupling.z0_ohm"),
            sections=tuple(
                read_record(CouplingSection, s, f"coupling.sections[{i}]", SECTION_KEYS)
                for i, s in enumerate(sections)
            ),
        ),
        dims=tuple(
            read_record(CoupledSectionDims, d, f"dims_mm[{i}]") for i, d in enumerate(dims)
        ),
        substrate=expect_json(data["substrate"], str, "substrate"),
        tool=expect_json(provenance["tool"], str, "provenance.tool"),
        created=expect_json(provenance["created"], str, "provenance.created"),
    )


def save_design(doc: DesignDocument, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(doc), indent=2) + "\n", encoding="ascii")


def load_design(path: str | Path) -> DesignDocument:
    return from_dict(json.loads(Path(path).read_text(encoding="ascii")))

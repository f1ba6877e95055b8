"""Physical geometry: staggered edge-coupled layouts, folded hairpin
resonators, multilayer placement with a stackup record, and SVG export.

All geometry is rectilinear (Manhattan), in millimeters. Layouts are plain
data: deterministic construction, no optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .microstrip import CoupledSectionDims, Substrate

STACKUP_ROLES = ("resonator-top", "core", "resonator-bottom", "epoxy", "ground")
# metal layers may be 0 mm thick, like the zero-thickness strips of the line models
COPPER_ROLES = ("resonator-top", "resonator-bottom", "ground")


class FoldTooTight(ValueError):
    """Half-wave length too short for the requested arm gap and width."""


@dataclass(frozen=True)
class StackupLayer:
    role: str
    material: str
    thickness: float  # mm
    z_offset: float  # mm, bottom face

    def __post_init__(self):
        if self.role not in STACKUP_ROLES:
            raise ValueError(f"unknown stackup role {self.role!r}")
        if not (self.thickness > 0 or (self.thickness == 0 and self.role in COPPER_ROLES)):
            raise ValueError("layer thickness must be positive (copper layers: >= 0)")


@dataclass(frozen=True)
class Stackup:
    layers: tuple[StackupLayer, ...]

    def __post_init__(self):
        grounds = [l for l in self.layers if l.role == "ground"]
        if len(grounds) != 1:
            raise ValueError("stackup needs exactly one ground layer")
        z = 0.0
        for l in self.layers:
            if abs(l.z_offset - z) > 1e-9:
                raise ValueError("stackup layers must be contiguous in z")
            z = l.z_offset + l.thickness

    def total_thickness(self) -> float:
        last = self.layers[-1]
        return last.z_offset + last.thickness


def multilayer_stackup(
    core: Substrate, epoxy_thickness: float = 0.05, epoxy_name: str = "epoxy"
) -> Stackup:
    """Ground / epoxy / core-with-metal-on-both-faces, bottom to top."""
    layers = []
    z = 0.0
    for role, material, thick in (
        ("ground", "copper", core.t),
        ("epoxy", epoxy_name, epoxy_thickness),
        ("resonator-bottom", "copper", core.t),
        ("core", core.name, core.h),
        ("resonator-top", "copper", core.t),
    ):
        layers.append(StackupLayer(role=role, material=material, thickness=thick, z_offset=z))
        z += thick
    return Stackup(layers=tuple(layers))


def single_layer_stackup(core: Substrate) -> Stackup:
    t = core.t
    return Stackup(
        layers=(
            StackupLayer("ground", "copper", t, 0.0),
            StackupLayer("core", core.name, core.h, t),
            StackupLayer("resonator-top", "copper", t, t + core.h),
        )
    )


@dataclass(frozen=True)
class Port:
    name: str
    x: float
    y: float


@dataclass(frozen=True)
class LayoutElement:
    layer_index: int
    polygon: tuple[tuple[float, float], ...]
    # axis-aligned rectangles whose union is the polygon; used for overlap checks
    rects: tuple[tuple[float, float, float, float], ...]


def _rects_intersect(a, b) -> bool:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax0 < bx1 - 1e-9 and bx0 < ax1 - 1e-9 and ay0 < by1 - 1e-9 and by0 < ay1 - 1e-9


@dataclass(frozen=True)
class FilterLayout:
    elements: tuple[LayoutElement, ...]
    bounds: tuple[float, float]  # (width, height), mm
    ports: tuple[Port, Port]
    stackup: Stackup | None = None

    def __post_init__(self):
        w, h = self.bounds
        for el in self.elements:
            for x, y in el.polygon:
                if not (-1e-9 <= x <= w + 1e-9 and -1e-9 <= y <= h + 1e-9):
                    raise ValueError("polygon vertex outside the bounding box")
        for i, a in enumerate(self.elements):
            for b in self.elements[i + 1 :]:
                if a.layer_index != b.layer_index:
                    continue
                if any(_rects_intersect(ra, rb) for ra in a.rects for rb in b.rects):
                    raise ValueError("overlapping polygons on one layer")

    def area(self) -> float:
        return self.bounds[0] * self.bounds[1]


def _bounds_of(elements) -> tuple[float, float, float, float]:
    xs = [x for el in elements for x, _ in el.polygon]
    ys = [y for el in elements for _, y in el.polygon]
    return min(xs), min(ys), max(xs), max(ys)


def _shift(elements, ports, dx, dy):
    moved = [
        LayoutElement(
            layer_index=el.layer_index,
            polygon=tuple((x + dx, y + dy) for x, y in el.polygon),
            rects=tuple((x0 + dx, y0 + dy, x1 + dx, y1 + dy) for x0, y0, x1, y1 in el.rects),
        )
        for el in elements
    ]
    return moved, [Port(p.name, p.x + dx, p.y + dy) for p in ports]


def _rect_element(layer, x0, y0, x1, y1) -> LayoutElement:
    return LayoutElement(
        layer_index=layer,
        polygon=((x0, y0), (x1, y0), (x1, y1), (x0, y1)),
        rects=((x0, y0, x1, y1),),
    )


def pcl_layout(
    dims: list[CoupledSectionDims] | tuple[CoupledSectionDims, ...],
    feed_width: float,
    feed_length: float = 1.0,
    stackup: Stackup | None = None,
) -> FilterLayout:
    """Diagonally staggered edge-coupled filter on a single metal layer.

    Each section's lower strip continues as the next section's upper strip
    (centerlines aligned), stepping down by w + s per section. Short feed
    stubs attach at the first upper strip and the last lower strip.
    """
    if not dims:
        raise ValueError("need at least one section")
    if feed_width <= 0 or feed_length <= 0:
        raise ValueError("feed dimensions must be positive")

    elements = []
    x = 0.0
    cy_a = 0.0  # centerline of the current section's upper strip
    cy_b = 0.0
    for d in dims:
        elements.append(_rect_element(0, x, cy_a - d.w / 2, x + d.l, cy_a + d.w / 2))
        cy_b = cy_a - (d.w + d.s)
        elements.append(_rect_element(0, x, cy_b - d.w / 2, x + d.l, cy_b + d.w / 2))
        x += d.l
        cy_a = cy_b

    elements.append(
        _rect_element(0, -feed_length, -feed_width / 2, 0.0, feed_width / 2)
    )
    elements.append(
        _rect_element(0, x, cy_b - feed_width / 2, x + feed_length, cy_b + feed_width / 2)
    )
    ports = [Port("P1", -feed_length, 0.0), Port("P2", x + feed_length, cy_b)]

    x0, y0, x1, y1 = _bounds_of(elements)
    elements, ports = _shift(elements, ports, -x0, -y0)
    return FilterLayout(
        elements=tuple(elements),
        bounds=(x1 - x0, y1 - y0),
        ports=tuple(ports),
        stackup=stackup,
    )


@dataclass(frozen=True)
class Hairpin:
    """U-shaped half-wave resonator, opening in +y, bbox origin at (0, 0)."""

    w: float
    arm_gap: float
    arm_length: float
    outline: tuple[tuple[float, float], ...] = field(repr=False)
    rects: tuple[tuple[float, float, float, float], ...] = field(repr=False)

    @property
    def width(self) -> float:
        return self.arm_gap + 2.0 * self.w

    @property
    def height(self) -> float:
        return self.arm_length + self.w / 2.0

    def centerline_length(self) -> float:
        return 2.0 * self.arm_length + self.arm_gap + self.w


def hairpin_fold(l_half_wave: float, arm_gap: float, w: float) -> Hairpin:
    """Fold a half-wave centerline into a U with the given arm gap.

    The base centerline runs arm-center to arm-center (arm_gap + w); the two
    arm centerlines run from the base to a flush tip, preserving the total
    centerline length exactly.
    """
    if arm_gap <= 0 or w <= 0:
        raise ValueError("arm_gap and w must be positive")
    if l_half_wave <= 2.0 * (arm_gap + w):
        raise FoldTooTight(
            f"half-wave length {l_half_wave:.3f} mm cannot fold with "
            f"arm_gap={arm_gap} mm and w={w} mm"
        )
    arm = (l_half_wave - arm_gap - w) / 2.0
    g = arm_gap
    wd = g + 2.0 * w
    ht = arm + w / 2.0
    outline = (
        (0.0, 0.0),
        (wd, 0.0),
        (wd, ht),
        (wd - w, ht),
        (wd - w, w),
        (w, w),
        (w, ht),
        (0.0, ht),
    )
    rects = (
        (0.0, 0.0, w, ht),
        (wd - w, 0.0, wd, ht),
        (0.0, 0.0, wd, w),
    )
    return Hairpin(w=w, arm_gap=arm_gap, arm_length=arm, outline=outline, rects=rects)


def _place_hairpin(hp: Hairpin, layer: int, x: float, flip: bool, total_h: float) -> LayoutElement:
    if flip:
        poly = tuple((x + px, total_h - py) for px, py in hp.outline)
        rects = tuple(
            (x + rx0, total_h - ry1, x + rx1, total_h - ry0) for rx0, ry0, rx1, ry1 in hp.rects
        )
    else:
        poly = tuple((x + px, py) for px, py in hp.outline)
        rects = tuple((x + rx0, ry0, x + rx1, ry1) for rx0, ry0, rx1, ry1 in hp.rects)
    return LayoutElement(layer_index=layer, polygon=poly, rects=rects)


def ml_hairpin_layout(
    resonators: list[Hairpin] | tuple[Hairpin, ...],
    overlap: float,
    stackup: Stackup,
    planar_gap: float = 0.5,
) -> FilterLayout:
    """Four hairpins on two metal layers with broadside-overlapped arms.

    Resonators 1 and 4 sit on the top metal (layer 0) opening downward;
    2 and 3 sit on the bottom metal (layer 1) opening upward. Adjacent
    resonators on different layers are placed arm-over-arm in plan view,
    their arms overlapping by ``overlap`` along the arm direction; the
    same-layer pair 2-3 is separated edge-to-edge by ``planar_gap``. Ports
    attach to the outer arm tips of resonators 1 and 4.
    """
    if len(resonators) != 4:
        raise ValueError("need exactly 4 resonators")
    if overlap < 0:
        raise ValueError("overlap must be non-negative")
    if planar_gap <= 0:
        raise ValueError("planar_gap must be positive")
    r1, r2, r3, r4 = resonators
    if overlap > min(r.arm_length for r in resonators):
        raise ValueError("overlap exceeds the resonator arm length")

    top_h = max(r1.height, r4.height)
    bot_h = max(r2.height, r3.height)
    total_h = top_h + bot_h - overlap

    # arm-over-arm x placement: next resonator's near arm centered on the
    # previous resonator's far arm
    x1 = 0.0
    x2 = x1 + r1.arm_gap + 1.5 * r1.w - 0.5 * r2.w
    x3 = x2 + r2.width + planar_gap
    x4 = x3 + r3.arm_gap + 1.5 * r3.w - 0.5 * r4.w

    elements = [
        _place_hairpin(r1, 0, x1, True, total_h),
        _place_hairpin(r2, 1, x2, False, 0.0),
        _place_hairpin(r3, 1, x3, False, 0.0),
        _place_hairpin(r4, 0, x4, True, total_h),
    ]
    ports = [
        Port("P1", x1 + r1.w / 2.0, total_h),
        Port("P2", x4 + r4.arm_gap + 1.5 * r4.w, total_h),
    ]
    x0, y0, xmax, ymax = _bounds_of(elements)
    elements, ports = _shift(elements, ports, -x0, -y0)
    return FilterLayout(
        elements=tuple(elements),
        bounds=(xmax - x0, ymax - y0),
        ports=tuple(ports),
        stackup=stackup,
    )


# --- SVG export -----------------------------------------------------------------

_LAYER_FILLS = ("#c08040", "#4a7ba6", "#7a9e62", "#a06080")
SVG_UNITS_PER_MM = 100  # 1 user unit = 0.01 mm


def export_svg(layout: FilterLayout) -> str:
    """Serialize a layout as SVG, one group per metal layer.

    1 user unit = 0.01 mm; coordinates quantize to the nearest unit. The
    output is a pure function of the layout (byte-stable).
    """
    w_u = round(layout.bounds[0] * SVG_UNITS_PER_MM)
    h_u = round(layout.bounds[1] * SVG_UNITS_PER_MM)

    def uy(y: float) -> int:
        # SVG y grows downward; flip so the plan view reads like the board
        return round((layout.bounds[1] - y) * SVG_UNITS_PER_MM)

    def ux(x: float) -> int:
        return round(x * SVG_UNITS_PER_MM)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_u}" height="{h_u}" '
        f'viewBox="0 0 {w_u} {h_u}">',
    ]
    meta = ["<!-- mwbpf layout"]
    meta.append(
        "  bounds_mm: {:.4f} x {:.4f}".format(layout.bounds[0], layout.bounds[1])
    )
    for p in layout.ports:
        meta.append(f"  port {p.name}: ({p.x:.4f}, {p.y:.4f}) mm")
    if layout.stackup is not None:
        for l in layout.stackup.layers:
            meta.append(
                f"  stackup {l.role}: {l.material} {l.thickness:.4f} mm at z={l.z_offset:.4f}"
            )
    meta.append("-->")
    lines.extend(meta)

    layer_ids = sorted({el.layer_index for el in layout.elements})
    for li in layer_ids:
        fill = _LAYER_FILLS[li % len(_LAYER_FILLS)]
        lines.append(f'<g id="layer{li}" fill="{fill}" fill-opacity="0.85">')
        for el in layout.elements:
            if el.layer_index != li:
                continue
            coords = " ".join(f"L {ux(x)} {uy(y)}" for x, y in el.polygon[1:])
            x0, y0 = el.polygon[0]
            lines.append(f'<path d="M {ux(x0)} {uy(y0)} {coords} Z"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

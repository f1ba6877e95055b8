"""Physical geometry: staggered edge-coupled layouts, folded hairpin
resonators, multilayer placement with a stackup record, and SVG export.

All geometry is rectilinear (Manhattan), in millimeters. Layouts are plain
data: deterministic construction, no optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .microstrip import CoupledSectionDims, Substrate
from .prototype import check_ranges, intervals

STACKUP_ROLES = ("resonator-top", "core", "resonator-bottom", "epoxy", "ground")
# metal layers may be 0 mm thick, like the zero-thickness strips of the line models
COPPER_ROLES = ("resonator-top", "resonator-bottom", "ground")
FEED_LENGTH = 1.0  # mm, feed stub at each port of the edge-coupled layout
# the hairpin and feed geometry, mm: each positive and finite, but an overlap of 0,
# where the broadside arms meet end to end
GEOMETRY_RANGES = intervals({
    "arm_gap": "(0, inf)", "overlap": "[0, inf)", "planar_gap": "(0, inf)",
    "w": "(0, inf)", "l_half_wave": "(0, inf)", "feed_width": "(0, inf)"})


class FoldTooTight(ValueError):
    """Half-wave length too short for the requested arm gap and width."""


@dataclass(frozen=True)
class StackupLayer:
    role: str
    material: str
    thickness: float  # mm

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

    def z_offsets(self) -> tuple[float, ...]:
        """Bottom face of each layer, mm: the running sum of the layers below."""
        return tuple(accumulate((l.thickness for l in self.layers[:-1]), initial=0.0))


def multilayer_stackup(core: Substrate) -> Stackup:
    """Ground / epoxy / core-with-metal-on-both-faces, bottom to top."""
    return Stackup(
        layers=(
            StackupLayer("ground", "copper", core.t),
            StackupLayer("epoxy", "epoxy", 0.05),  # bond film
            StackupLayer("resonator-bottom", "copper", core.t),
            StackupLayer("core", core.name, core.h),
            StackupLayer("resonator-top", "copper", core.t),
        )
    )


def single_layer_stackup(core: Substrate) -> Stackup:
    return Stackup(
        layers=(
            StackupLayer("ground", "copper", core.t),
            StackupLayer("core", core.name, core.h),
            StackupLayer("resonator-top", "copper", core.t),
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

    def moved(self, dx: float, dy: float, mirror: bool = False) -> LayoutElement:
        """This element reflected in y = 0 when ``mirror``, then translated by (dx, dy)."""
        sy = -1.0 if mirror else 1.0
        # tuple([...]) runs about 15 % faster here than tuple(generator)
        return LayoutElement(self.layer_index, tuple([(x + dx, dy + sy * y) for x, y in self.polygon]))


def _box(polygon) -> tuple[float, float, float, float]:
    xs, ys = zip(*polygon)
    return min(xs), min(ys), max(xs), max(ys)


def _boxes_intersect(a, b) -> bool:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax0 < bx1 - 1e-9 and bx0 < ax1 - 1e-9 and ay0 < by1 - 1e-9 and by0 < ay1 - 1e-9


@dataclass(frozen=True)
class FilterLayout:
    """Elements and ports, moved so that their bounding box starts at the origin."""

    elements: tuple[LayoutElement, ...]
    ports: tuple[Port, Port]
    stackup: Stackup
    bounds: tuple[float, float] = field(init=False)  # (width, height), mm; 0 x 0 if empty

    def __post_init__(self):
        # min and max skip a NaN that is not first, so each coordinate is checked
        for i, el in enumerate(self.elements):
            for x, y in el.polygon:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"elements[{i}] has a coordinate that is not finite")
        for i, port in enumerate(self.ports):
            if not (math.isfinite(port.x) and math.isfinite(port.y)):
                raise ValueError(f"ports[{i}] has a coordinate that is not finite")
        xs = [x for el in self.elements for x, _ in el.polygon]
        ys = [y for el in self.elements for _, y in el.polygon]
        x0, y0 = min(xs, default=0.0), min(ys, default=0.0)
        bounds = (max(xs, default=0.0) - x0, max(ys, default=0.0) - y0)
        if not (math.isfinite(bounds[0]) and math.isfinite(bounds[1])):
            raise ValueError("layout extent is not finite")
        elements = tuple(el.moved(-x0, -y0) for el in self.elements)
        # outline boxes: exact for the rectangles of pcl_layout, and the
        # hairpins of ml_hairpin_layout sit side by side, none inside another's U.
        # Sorted by left edge, a box meets none from the first that starts at its right edge
        boxes = sorted((_box(el.polygon), el.layer_index) for el in elements)
        for i, (a, layer) in enumerate(boxes):
            for j in range(i + 1, len(boxes)):
                b, other = boxes[j]
                if b[0] >= a[2] - 1e-9:
                    break
                if layer == other and _boxes_intersect(a, b):
                    raise ValueError("overlapping polygons on one layer")
        object.__setattr__(self, "elements", elements)
        ports = tuple(Port(p.name, p.x - x0, p.y - y0) for p in self.ports)
        object.__setattr__(self, "ports", ports)
        object.__setattr__(self, "bounds", bounds)

    def area(self) -> float:
        return self.bounds[0] * self.bounds[1]


def _rect_element(layer, x0, y0, x1, y1) -> LayoutElement:
    return LayoutElement(layer, ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def pcl_layout(
    dims: list[CoupledSectionDims] | tuple[CoupledSectionDims, ...],
    feed_width: float,
    stackup: Stackup,
) -> FilterLayout:
    """Diagonally staggered edge-coupled filter on a single metal layer.

    Each section's lower strip continues as the next section's upper strip
    (centerlines aligned), stepping down by w + s per section. Feed stubs
    FEED_LENGTH long attach at the first upper strip and the last lower
    strip.
    """
    if not dims:
        raise ValueError("need at least one section")
    check_ranges(GEOMETRY_RANGES, dict(feed_width=feed_width))

    elements = []
    x = 0.0
    cy_a = 0.0  # centerline of the current section's upper strip
    for d in dims:
        elements.append(_rect_element(0, x, cy_a - d.w / 2, x + d.l, cy_a + d.w / 2))
        cy_b = cy_a - (d.w + d.s)
        elements.append(_rect_element(0, x, cy_b - d.w / 2, x + d.l, cy_b + d.w / 2))
        x += d.l
        cy_a = cy_b

    elements.append(
        _rect_element(0, -FEED_LENGTH, -feed_width / 2, 0.0, feed_width / 2)
    )
    elements.append(
        _rect_element(0, x, cy_b - feed_width / 2, x + FEED_LENGTH, cy_b + feed_width / 2)
    )
    ports = (Port("P1", -FEED_LENGTH, 0.0), Port("P2", x + FEED_LENGTH, cy_b))
    return FilterLayout(elements=tuple(elements), ports=ports, stackup=stackup)


@dataclass(frozen=True)
class Hairpin:
    """U-shaped half-wave resonator, opening in +y, bbox origin at (0, 0)."""

    w: float
    arm_gap: float
    arm_length: float

    @property
    def width(self) -> float:
        return self.arm_gap + 2.0 * self.w

    @property
    def height(self) -> float:
        return self.arm_length + self.w / 2.0

    @property
    def outline(self) -> tuple[tuple[float, float], ...]:
        w, wd, ht = self.w, self.width, self.height
        return (
            (0.0, 0.0),
            (wd, 0.0),
            (wd, ht),
            (wd - w, ht),
            (wd - w, w),
            (w, w),
            (w, ht),
            (0.0, ht),
        )


def hairpin_fold(l_half_wave: float, arm_gap: float, w: float) -> Hairpin:
    """Fold a half-wave centerline into a U with the given arm gap.

    The base centerline runs arm-center to arm-center (arm_gap + w); the two
    arm centerlines run from the base to a flush tip, preserving the total
    centerline length exactly.
    """
    check_ranges(GEOMETRY_RANGES, dict(l_half_wave=l_half_wave, arm_gap=arm_gap, w=w))
    if l_half_wave <= 2.0 * (arm_gap + w):
        raise FoldTooTight(
            f"half-wave length {l_half_wave:.3f} mm cannot fold with "
            f"arm_gap={arm_gap} mm and w={w} mm"
        )
    return Hairpin(w=w, arm_gap=arm_gap, arm_length=(l_half_wave - arm_gap - w) / 2.0)


def ml_hairpin_layout(
    resonators: list[Hairpin] | tuple[Hairpin, ...],
    overlap: float,
    stackup: Stackup,
    planar_gap: float,
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
    check_ranges(GEOMETRY_RANGES, dict(overlap=overlap, planar_gap=planar_gap))
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

    elements = (
        LayoutElement(0, r1.outline).moved(x1, total_h, mirror=True),
        LayoutElement(1, r2.outline).moved(x2, 0.0),
        LayoutElement(1, r3.outline).moved(x3, 0.0),
        LayoutElement(0, r4.outline).moved(x4, total_h, mirror=True),
    )
    ports = (
        Port("P1", x1 + r1.w / 2.0, total_h),
        Port("P2", x4 + r4.arm_gap + 1.5 * r4.w, total_h),
    )
    return FilterLayout(elements=elements, ports=ports, stackup=stackup)


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
    for l, z in zip(layout.stackup.layers, layout.stackup.z_offsets()):
        meta.append(f"  stackup {l.role}: {l.material} {l.thickness:.4f} mm at z={z:.4f}")
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

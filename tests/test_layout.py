import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwbpf.layout import (
    FilterLayout,
    FoldTooTight,
    Hairpin,
    LayoutElement,
    Port,
    Stackup,
    StackupLayer,
    _rect_element,
    export_svg,
    hairpin_fold,
    ml_hairpin_layout,
    multilayer_stackup,
    pcl_layout,
    single_layer_stackup,
)
from mwbpf.design import design_layout
from mwbpf.microstrip import CoupledSectionDims, Substrate

from conftest import ML_FR4_SIZE, PCL_FR4_SIZE, TABLE2_FR4, TABLE3_RO3003


def _dims(table):
    return tuple(CoupledSectionDims(w=w, s=s, l=l) for w, l, s in table)


def _ml_layout(design, fr4, arm_gap=4.0, overlap=1.0, planar_gap=1.0):
    resonators = [
        hairpin_fold(
            design.dims[i - 1].l + design.dims[i].l,
            arm_gap,
            (design.dims[i - 1].w + design.dims[i].w) / 2.0,
        )
        for i in range(1, 5)
    ]
    return ml_hairpin_layout(
        resonators, overlap, multilayer_stackup(fr4), planar_gap=planar_gap
    )


class TestPclLayout:
    def test_published_fr4_dims_bounding_box(self, fr4):
        lay = pcl_layout(_dims(TABLE2_FR4), feed_width=3.1, stackup=single_layer_stackup(fr4))
        assert lay.bounds[0] == pytest.approx(PCL_FR4_SIZE[0], rel=0.15)
        assert lay.bounds[1] == pytest.approx(PCL_FR4_SIZE[1], rel=0.15)

    def test_single_section_arithmetic(self, fr4):
        d = CoupledSectionDims(w=2.0, s=0.5, l=16.0)
        lay = pcl_layout([d], feed_width=1.5, stackup=single_layer_stackup(fr4))
        assert lay.bounds[0] == pytest.approx(16.0 + 2.0)
        assert lay.bounds[1] == pytest.approx(2 * 2.0 + 0.5)

    def test_ro3003_is_longer_than_fr4(self, fr4, ro3003):
        # lower permittivity means longer resonators, hence a longer board
        on_fr4 = pcl_layout(_dims(TABLE2_FR4), feed_width=3.1, stackup=single_layer_stackup(fr4))
        on_ro = pcl_layout(_dims(TABLE3_RO3003), feed_width=1.9,
                           stackup=single_layer_stackup(ro3003))
        assert on_ro.bounds[0] > on_fr4.bounds[0]

    def test_ports_at_either_end(self, fr4):
        lay = pcl_layout(_dims(TABLE2_FR4), feed_width=3.1, stackup=single_layer_stackup(fr4))
        p1, p2 = lay.ports
        assert p1.x == pytest.approx(0.0)
        assert p2.x == pytest.approx(lay.bounds[0])

    def test_bounds_are_exact_vertex_extrema(self, fr4):
        lay = pcl_layout(_dims(TABLE2_FR4), feed_width=3.1, stackup=single_layer_stackup(fr4))
        xs = [x for el in lay.elements for x, _ in el.polygon]
        ys = [y for el in lay.elements for _, y in el.polygon]
        assert min(xs) == pytest.approx(0.0, abs=1e-12)
        assert min(ys) == pytest.approx(0.0, abs=1e-12)
        assert max(xs) == pytest.approx(lay.bounds[0], rel=1e-12)
        assert max(ys) == pytest.approx(lay.bounds[1], rel=1e-12)


class TestHairpinFold:
    def test_reference_fold(self):
        hp = hairpin_fold(32.1, 2.0, 3.3)
        assert hp.arm_length == pytest.approx(13.4, abs=0.01)
        assert 2.0 * hp.arm_length + hp.arm_gap + hp.w == pytest.approx(32.1, abs=1e-6)

    def test_shape_derives_from_three_dimensions(self):
        hp = hairpin_fold(32.1, 2.0, 3.3)
        assert [f.name for f in dataclasses.fields(hp)] == ["w", "arm_gap", "arm_length"]
        assert Hairpin(w=3.3, arm_gap=2.0, arm_length=hp.arm_length) == hp
        xs, ys = zip(*hp.outline)
        assert (max(xs), max(ys)) == (hp.width, hp.height)

    def test_too_tight(self):
        with pytest.raises(FoldTooTight):
            hairpin_fold(10.0, 4.0, 3.3)

    @pytest.mark.parametrize("field", ["l_half_wave", "arm_gap", "w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative(self, field, value):
        kwargs = dict(l_half_wave=32.1, arm_gap=2.0, w=3.3)
        kwargs[field] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} = {value} must lie in (0, inf)")):
            hairpin_fold(**kwargs)

    def test_centerline_preserved_over_parameter_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            l = float(rng.uniform(20.0, 60.0))
            w = float(rng.uniform(0.5, 4.0))
            g = float(rng.uniform(0.5, min(6.0, l / 2 - w - 0.1)))
            if l <= 2 * (g + w):
                continue
            hp = hairpin_fold(l, g, w)
            assert 2.0 * hp.arm_length + hp.arm_gap + hp.w == pytest.approx(l, abs=1e-6)

    def test_outline_is_rectilinear(self):
        hp = hairpin_fold(32.1, 2.0, 3.3)
        pts = hp.outline
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            assert x0 == x1 or y0 == y1


class TestMlHairpinLayout:
    def test_fr4_bounding_box(self, fr4_design, fr4):
        lay = _ml_layout(fr4_design, fr4)
        assert lay.bounds[0] == pytest.approx(ML_FR4_SIZE[0], rel=0.20)
        assert lay.bounds[1] == pytest.approx(ML_FR4_SIZE[1], rel=0.20)

    def test_layer_assignment(self, fr4_design, fr4):
        lay = _ml_layout(fr4_design, fr4)
        layers = [el.layer_index for el in lay.elements]
        assert layers == [0, 1, 1, 0]  # resonators 1, 4 top; 2, 3 bottom

    def test_footprint_shrinks_with_overlap(self, fr4_design, fr4):
        areas = [
            _ml_layout(fr4_design, fr4, overlap=ov).area() for ov in (0.0, 1.0, 3.0, 6.0)
        ]
        assert areas == sorted(areas, reverse=True)
        assert _ml_layout(fr4_design, fr4, overlap=0.0).area() == max(areas)

    def test_overlap_beyond_arm_rejected(self, fr4_design, fr4):
        with pytest.raises(ValueError, match="arm length"):
            _ml_layout(fr4_design, fr4, overlap=50.0)

    def test_smaller_than_edge_coupled(self, fr4_design, ro3003_design, fr4, ro3003):
        for design, sub in ((fr4_design, fr4), (ro3003_design, ro3003)):
            ml = _ml_layout(design, sub)
            pcl = pcl_layout(design.dims, feed_width=3.0, stackup=single_layer_stackup(sub))
            assert ml.area() < pcl.area()

    def test_ports_on_top_layer_edge(self, fr4_design, fr4):
        lay = _ml_layout(fr4_design, fr4)
        for p in lay.ports:
            assert p.y == pytest.approx(lay.bounds[1])


class TestStackup:
    def test_default_multilayer_record(self, fr4):
        st = multilayer_stackup(fr4)
        roles = [l.role for l in st.layers]
        assert roles == ["ground", "epoxy", "resonator-bottom", "core", "resonator-top"]
        assert sum(l.thickness for l in st.layers) == pytest.approx(0.035 * 3 + 0.05 + 1.6)

    def test_single_ground_enforced(self):
        with pytest.raises(ValueError, match="ground"):
            Stackup(
                layers=(
                    StackupLayer("ground", "copper", 0.035),
                    StackupLayer("ground", "copper", 0.035),
                )
            )

    def test_single_layer_record(self, fr4):
        st = single_layer_stackup(fr4)
        assert [l.role for l in st.layers] == ["ground", "core", "resonator-top"]

    def test_zero_thickness_copper_recorded_as_given(self):
        bare = Substrate(name="X", eps_r=3, tan_d=0, h=0.5, t=0.0)
        st = multilayer_stackup(bare)
        copper = [l.thickness for l in st.layers if l.material == "copper"]
        assert copper == [0.0, 0.0, 0.0]
        assert sum(l.thickness for l in st.layers) == pytest.approx(0.55)
        assert [l.thickness for l in single_layer_stackup(bare).layers] == [0.0, 0.5, 0.0]

    def test_dielectric_layers_need_thickness(self):
        with pytest.raises(ValueError, match="positive"):
            StackupLayer("core", "FR4", 0.0)
        with pytest.raises(ValueError, match="positive"):
            StackupLayer("ground", "copper", -0.035)


class TestLayoutValidation:
    def test_same_layer_overlap_rejected(self, fr4):
        el1 = LayoutElement(0, ((0, 0), (2, 0), (2, 1), (0, 1)))
        el2 = LayoutElement(0, ((1, 0), (3, 0), (3, 1), (1, 1)))
        with pytest.raises(ValueError, match="overlapping"):
            FilterLayout(
                elements=(el1, el2),
                ports=(Port("P1", 0, 0), Port("P2", 3, 1)),
                stackup=single_layer_stackup(fr4),
            )

    def test_different_layer_overlap_allowed(self, fr4):
        el1 = LayoutElement(0, ((0, 0), (2, 0), (2, 1), (0, 1)))
        el2 = LayoutElement(1, ((1, 0), (3, 0), (3, 1), (1, 1)))
        lay = FilterLayout(
            elements=(el1, el2),
            ports=(Port("P1", 0, 0), Port("P2", 3, 1)),
            stackup=single_layer_stackup(fr4),
        )
        assert lay.area() == pytest.approx(3.0)

    def test_moved_to_origin_with_derived_bounds(self, fr4):
        el1 = LayoutElement(0, ((5, -2), (7, -2), (7, 1), (5, 1)))
        el2 = LayoutElement(1, ((4, 0), (6, 0), (6, 3), (4, 3)))
        lay = FilterLayout(elements=(el1, el2), ports=(Port("P1", 4, 0), Port("P2", 7, 1)),
                           stackup=single_layer_stackup(fr4))
        assert lay.bounds == (3, 5)
        assert lay.elements[0].polygon == ((1, 0), (3, 0), (3, 3), (1, 3))
        xs, ys = zip(*lay.elements[0].polygon)
        assert (min(xs), min(ys), max(xs), max(ys)) == (1.0, 0.0, 3.0, 3.0)
        assert lay.elements[1].polygon == ((0, 2), (2, 2), (2, 5), (0, 5))
        assert [(p.x, p.y) for p in lay.ports] == [(0, 2), (3, 3)]

    def test_overflowing_extent_rejected(self, fr4):
        huge = CoupledSectionDims(w=2.0, s=0.5, l=1e308)
        with pytest.raises(ValueError, match="finite"):
            pcl_layout([huge, huge], feed_width=1.5, stackup=single_layer_stackup(fr4))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index, vertex, axis", [(0, 0, 0), (1, 2, 1)],
                             ids=["first", "later"])
    def test_non_finite_coordinate_rejected(self, fr4, value, index, vertex, axis):
        # min and max skip a NaN that is not the first value, so a later one
        # left the extent finite and reached export_svg
        polygons = [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                    [[2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0]]]
        polygons[index][vertex][axis] = value
        elements = tuple(LayoutElement(0, tuple(map(tuple, p))) for p in polygons)
        with pytest.raises(ValueError, match=re.escape(
                f"elements[{index}] has a coordinate that is not finite")):
            FilterLayout(elements=elements, ports=(Port("P1", 0, 0), Port("P2", 3, 1)),
                         stackup=single_layer_stackup(fr4))


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _length(hi):
    """Lengths in (0, hi] mm, or now and then NaN or an infinity."""
    return st.one_of(st.floats(0.0, hi, exclude_min=True), _NON_FINITE)


def _check_placed(lay):
    xs = [x for el in lay.elements for x, _ in el.polygon]
    ys = [y for el in lay.elements for _, y in el.polygon]
    assert all(map(math.isfinite, xs + ys))
    assert (min(xs), min(ys)) == (0.0, 0.0)
    assert lay.bounds == (max(xs), max(ys))
    layers, z = lay.stackup.layers, lay.stackup.z_offsets()
    assert z[0] == 0.0
    for i in range(1, len(layers)):
        assert z[i] == z[i - 1] + layers[i - 1].thickness


class TestLayoutProperties:
    """What the builders guarantee for any geometry they accept: the box
    starts at the origin and ends at the outermost vertex, the stackup
    heights are a running sum, and NaN or infinite input is refused."""

    @settings(max_examples=200, deadline=None)
    @given(
        board=st.sampled_from(["fr4", "ro3003"]),
        arm_gap=_length(20.0),
        overlap=st.one_of(st.floats(0.0, 5.0), _NON_FINITE),
        planar_gap=_length(20.0),
    )
    def test_ml_layout(self, request, board, arm_gap, overlap, planar_gap):
        design, sub = request.getfixturevalue(f"{board}_design"), request.getfixturevalue(board)
        geometry = dict(arm_gap=arm_gap, overlap=overlap, planar_gap=planar_gap)
        if not all(map(math.isfinite, geometry.values())):
            # FoldTooTight, a ValueError, may be raised first when arm_gap is finite
            with pytest.raises(ValueError):
                design_layout(design, sub, "ml", **geometry)
            return
        try:
            lay = design_layout(design, sub, "ml", **geometry)
        except FoldTooTight:
            return
        _check_placed(lay)

    @settings(max_examples=200, deadline=None)
    @given(
        sections=st.lists(st.tuples(_length(10.0), _length(10.0), _length(60.0)),
                          min_size=1, max_size=6),
        feed_width=_length(10.0),
    )
    def test_pcl_layout(self, fr4, sections, feed_width):
        def build():
            dims = [CoupledSectionDims(w=w, s=s, l=l) for w, s, l in sections]
            return pcl_layout(dims, feed_width=feed_width, stackup=single_layer_stackup(fr4))

        drawn = [v for section in sections for v in section] + [feed_width]
        if not all(map(math.isfinite, drawn)):
            with pytest.raises(ValueError, match=r" = (nan|inf|-inf) must lie in \("):
                build()
            return
        _check_placed(build())


def _rects_intersect(a, b):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax0 < bx1 - 1e-9 and bx0 < ax1 - 1e-9 and ay0 < by1 - 1e-9 and by0 < ay1 - 1e-9


def _moved_rects(rects, dx, dy, mirror=False):
    sy, lo, hi = (-1.0, 3, 1) if mirror else (1.0, 1, 3)
    return [(r[0] + dx, dy + sy * r[lo], r[2] + dx, dy + sy * r[hi]) for r in rects]


def _rect_rule_overlaps(resonators, overlap, planar_gap):
    """Whether the former rectangle rule finds a same-layer overlap: each
    hairpin as its two arm rectangles and its base rectangle, placed as
    ml_hairpin_layout places it, moved to the origin as FilterLayout moves
    it, and checked rectangle against rectangle."""
    r1, r2, r3, r4 = resonators
    total_h = max(r1.height, r4.height) + max(r2.height, r3.height) - overlap
    x2 = 0.0 + r1.arm_gap + 1.5 * r1.w - 0.5 * r2.w
    x3 = x2 + r2.width + planar_gap
    x4 = x3 + r3.arm_gap + 1.5 * r3.w - 0.5 * r4.w
    placed = []
    for layer, hp, dx, dy, mirror in ((0, r1, 0.0, total_h, True), (1, r2, x2, 0.0, False),
                                      (1, r3, x3, 0.0, False), (0, r4, x4, total_h, True)):
        w, wd, ht = hp.w, hp.width, hp.height
        rects = ((0.0, 0.0, w, ht), (wd - w, 0.0, wd, ht), (0.0, 0.0, wd, w))
        placed.append((layer, _moved_rects(rects, dx, dy, mirror)))
    x0 = min(r[i] for _, rects in placed for r in rects for i in (0, 2))
    y0 = min(r[i] for _, rects in placed for r in rects for i in (1, 3))
    placed = [(layer, _moved_rects(rects, -x0, -y0)) for layer, rects in placed]
    return any(la == lb and any(_rects_intersect(a, b) for a in ra for b in rb)
               for i, (la, ra) in enumerate(placed) for lb, rb in placed[i + 1:])


class TestOverlapRule:
    """The outline-box check refuses an ml layout exactly where the former
    rectangle rule (a copy above) found a same-layer overlap: ml_hairpin_layout
    never places a hairpin inside another's U."""

    def test_same_refusals_as_the_rectangle_rule(self, fr4):
        rng = random.Random(21)

        def draw(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        refused = built = 0
        for _ in range(6000):
            arm_gap, planar_gap = draw(1e-12, 50.0), draw(1e-12, 50.0)
            overlap = rng.choice((0.0, draw(1e-12, 20.0)))
            try:
                resonators = [hairpin_fold(draw(1e-3, 300.0), arm_gap, draw(1e-12, 100.0))
                              for _ in range(4)]
            except FoldTooTight:
                continue
            if overlap > min(r.arm_length for r in resonators):
                continue
            expected = _rect_rule_overlaps(resonators, overlap, planar_gap)
            try:
                ml_hairpin_layout(resonators, overlap, multilayer_stackup(fr4), planar_gap)
            except ValueError as exc:
                assert expected and "overlapping polygons on one layer" in str(exc)
                refused += 1
            else:
                assert not expected
                built += 1
        assert refused >= 50 and built >= 50

    def test_hand_built_element_inside_a_u_is_refused(self, fr4):
        hp = Hairpin(w=1.0, arm_gap=4.0, arm_length=10.0)
        inside = ((2, 2), (3, 2), (3, 5), (2, 5))  # between the arms, touching neither
        assert not any(_rects_intersect(r, (2, 2, 3, 5)) for r in
                       ((0, 0, 1, 10.5), (5, 0, 6, 10.5), (0, 0, 6, 1)))
        with pytest.raises(ValueError, match="overlapping polygons on one layer"):
            FilterLayout(elements=(LayoutElement(0, hp.outline), LayoutElement(0, inside)),
                         ports=(Port("P1", 0, 0), Port("P2", 6, 0)),
                         stackup=single_layer_stackup(fr4))


class TestOverlapScan:
    """FilterLayout's left-edge-sorted scan refuses a layout exactly where
    the all-pairs check of its outline boxes finds a same-layer overlap."""

    def test_same_refusals_as_all_pairs(self, fr4):
        rng = random.Random(31)

        def coordinate():
            # a coarse grid, so that edges meet, moved now and then by less
            # than the 1e-9 tolerance or by a little more
            return rng.randint(0, 8) + rng.choice((0.0, 0.0, 0.0, 5e-10, -5e-10, 2e-9, -2e-9))

        refused = built = touching = 0
        for _ in range(3000):
            drawn = []
            for _ in range(rng.randint(2, 8)):
                x0, y0 = coordinate(), coordinate()
                drawn.append((rng.randint(0, 1), (x0, y0, x0 + rng.randint(1, 3) + rng.choice(
                    (0.0, 5e-10)), y0 + rng.randint(1, 3))))
            x0 = min(r[0] for _, r in drawn)
            y0 = min(r[1] for _, r in drawn)
            placed = [(layer, _moved_rects([r], -x0, -y0)[0]) for layer, r in drawn]
            expected = any(la == lb and _rects_intersect(a, b)
                           for i, (la, a) in enumerate(placed) for lb, b in placed[i + 1:])
            elements = tuple(_rect_element(layer, *r) for layer, r in drawn)
            try:
                FilterLayout(elements=elements, ports=(Port("P1", 0, 0), Port("P2", 1, 1)),
                             stackup=multilayer_stackup(fr4))
            except ValueError as exc:
                assert expected and "overlapping polygons on one layer" in str(exc)
                refused += 1
            else:
                assert not expected
                built += 1
                # same-layer boxes whose x ranges meet within the tolerance
                touching += any(la == lb and 0 < min(a[2], b[2]) - max(a[0], b[0]) <= 1e-9
                                for i, (la, a) in enumerate(placed) for lb, b in placed[i + 1:])
        assert refused >= 500 and built >= 500 and touching >= 50


class TestSvgExport:
    def test_empty_layout(self, fr4):
        lay = FilterLayout(
            elements=(),
            ports=(Port("P1", 0, 0), Port("P2", 1, 1)),
            stackup=single_layer_stackup(fr4),
        )
        svg = export_svg(lay)
        assert svg.startswith("<?xml")
        assert "<path" not in svg
        assert "</svg>" in svg

    def test_byte_stability(self, fr4_design, fr4):
        lay = _ml_layout(fr4_design, fr4)
        assert export_svg(lay) == export_svg(lay)

    def test_round_trip_quantization(self, fr4_design, fr4):
        lay = _ml_layout(fr4_design, fr4)
        svg = export_svg(lay)
        paths = re.findall(r'd="M ([-0-9 LZ]+)"', svg)
        recovered = []
        for d in paths:
            nums = [int(t) for t in re.findall(r"-?\d+", d)]
            recovered.append([(x / 100.0, y / 100.0) for x, y in zip(nums[::2], nums[1::2])])
        emitted_order = sorted(lay.elements, key=lambda el: el.layer_index)
        originals = [
            [(x, lay.bounds[1] - y) for x, y in el.polygon] for el in emitted_order
        ]
        for rec, orig in zip(recovered, originals):
            assert len(rec) == len(orig)
            for (rx, ry), (ox, oy) in zip(rec, orig):
                assert abs(rx - ox) <= 0.005
                assert abs(ry - oy) <= 0.005

    def test_one_group_per_layer_with_distinct_fill(self, fr4_design, fr4):
        svg = export_svg(_ml_layout(fr4_design, fr4))
        fills = re.findall(r'<g id="layer\d" fill="(#\w+)"', svg)
        assert len(fills) == 2
        assert len(set(fills)) == 2

    def test_metadata_embeds_stackup_and_ports(self, fr4_design, fr4):
        svg = export_svg(_ml_layout(fr4_design, fr4))
        assert "port P1" in svg and "port P2" in svg
        for role in ("ground", "epoxy", "core", "resonator-top", "resonator-bottom"):
            assert f"stackup {role}" in svg

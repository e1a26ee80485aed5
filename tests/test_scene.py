import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaderlabels.geometry import Rect, Vec2
from leaderlabels.scene import (
    PT_TO_MM,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    connection_points,
    font_size_for,
    initial_layout,
    is_double_width,
    measure_text,
)


from conftest import reference_connection_point


def connection_point(rect: Rect, anchor: Vec2, leader: LeaderSpec, conn: Vec2) -> Vec2:
    """`connection_points` of one label."""
    row = connection_points(
        np.array([[rect.x_min, rect.y_min, rect.x_max, rect.y_max]]),
        np.array([[anchor.x, anchor.y]]),
        leader,
        np.array([[conn.x, conn.y]]),
    )
    return Vec2(*row[0])


def make_cfg(**kw) -> LayoutConfig:
    kw.setdefault("screen", Rect(0, 0, 250, 150))
    return LayoutConfig(**kw)


class TestMeasureText:
    def test_ascii(self):
        w, h = measure_text("AB", 10.0)
        em = 10.0 * PT_TO_MM
        assert w == pytest.approx(2 * 0.6 * em)
        assert h == pytest.approx(1.2 * em)

    def test_cjk_double_width(self):
        w, h = measure_text("王府井", 10.0)  # three CJK ideographs
        em = 10.0 * PT_TO_MM
        assert w == pytest.approx(3 * 1.0 * em)
        assert h == pytest.approx(1.2 * em)

    def test_mixed(self):
        w, _ = measure_text("A王", 10.0)
        em = 10.0 * PT_TO_MM
        assert w == pytest.approx((0.6 + 1.0) * em)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            measure_text("", 10.0)

    def test_fullwidth_forms_are_double(self):
        w_full, _ = measure_text("Ａ", 10.0)  # fullwidth A
        w_half, _ = measure_text("A", 10.0)
        assert w_full == pytest.approx(w_half / 0.6)


class TestFontSize:
    def test_proportional(self):
        f = PointFeature(id="a", anchor=Vec2(0, 0), depth=100.0, text="X")
        cfg = make_cfg(w_max_pt=12.0, w_min_pt=4.0)
        assert font_size_for(f, 50.0, cfg) == pytest.approx(6.0)

    def test_nearest_gets_max(self):
        f = PointFeature(id="a", anchor=Vec2(0, 0), depth=77.0, text="X")
        cfg = make_cfg(w_max_pt=12.0, w_min_pt=4.0)
        assert font_size_for(f, 77.0, cfg) == 12.0

    def test_clamped_to_min(self):
        f = PointFeature(id="a", anchor=Vec2(0, 0), depth=1000.0, text="X")
        cfg = make_cfg(w_max_pt=12.0, w_min_pt=8.0)
        assert font_size_for(f, 50.0, cfg) == 8.0

    def test_monotone_in_depth_and_bounded(self):
        rng = random.Random(5)
        cfg = make_cfg(w_max_pt=12.0, w_min_pt=4.0)
        depths = sorted(rng.uniform(10, 1000) for _ in range(50))
        sizes = [
            font_size_for(PointFeature(id=f"p{i}", anchor=Vec2(0, 0), depth=d, text="T"), 10.0, cfg)
            for i, d in enumerate(depths)
        ]
        assert all(4.0 <= s <= 12.0 for s in sizes)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestInitialLayout:
    def test_construction_90_degrees(self):
        f = PointFeature(id="a", anchor=Vec2(10, 10), depth=50.0, text="AB")
        cfg = make_cfg(leader=LeaderSpec(length=15.0, direction=90.0))
        (label,) = initial_layout([f], cfg)
        w, h = measure_text("AB", 12.0)  # single feature gets w_max
        assert label.conn == Vec2(10.0, 25.0)
        assert label.rect.x_min == pytest.approx(10 - w / 2)
        assert label.rect.x_max == pytest.approx(10 + w / 2)
        assert label.rect.y_min == pytest.approx(25.0)
        assert label.rect.y_max == pytest.approx(25.0 + h)

    def test_equal_depth_equal_font(self):
        fs = [
            PointFeature(id="a", anchor=Vec2(10, 10), depth=80.0, text="AAAA"),
            PointFeature(id="b", anchor=Vec2(60, 10), depth=80.0, text="BB"),
        ]
        labels = initial_layout(fs, make_cfg())
        assert labels[0].font_size == labels[1].font_size == 12.0

    def test_conn_on_bottom_edge_above_anchor(self):
        rng = random.Random(9)
        fs = [
            PointFeature(
                id=f"p{i}",
                anchor=Vec2(rng.uniform(20, 200), rng.uniform(20, 100)),
                depth=rng.uniform(50, 400),
                text="LABEL",
            )
            for i in range(20)
        ]
        labels = initial_layout(fs, make_cfg())
        for f, l in zip(fs, labels):
            assert l.conn.y == pytest.approx(l.rect.y_min)
            assert l.rect.x_min <= f.anchor.x <= l.rect.x_max
            assert l.conn.x == pytest.approx(f.anchor.x)
            assert l.conn.y > f.anchor.y

    def test_rect_matches_measurement_exactly(self):
        f = PointFeature(id="a", anchor=Vec2(50, 50), depth=100.0, text="HELLO")
        cfg = make_cfg()
        (label,) = initial_layout([f], cfg)
        w, h = measure_text("HELLO", label.font_size)
        assert label.rect.width == pytest.approx(w, abs=1e-12)
        assert label.rect.height == pytest.approx(h, abs=1e-12)

    def test_padding_inflates_rect(self):
        f = PointFeature(id="a", anchor=Vec2(50, 50), depth=100.0, text="HELLO")
        (plain,) = initial_layout([f], make_cfg())
        (padded,) = initial_layout([f], make_cfg(padding=1.5))
        assert padded.rect.width == pytest.approx(plain.rect.width + 3.0)
        assert padded.rect.height == pytest.approx(plain.rect.height + 3.0)

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            initial_layout([], make_cfg())

    def test_padding_that_leaves_no_room_rejected(self):
        # On a 100 mm high screen at d_min 0.2 mm, 2 * padding may reach
        # 99.6 mm; beyond it no label fits.
        screen = Rect(0, 0, 200, 100)
        make_cfg(screen=screen, padding=49.8)
        for padding in (math.nextafter(49.8, math.inf), 1e308):
            with pytest.raises(ValueError, match="padding leaves no room"):
                make_cfg(screen=screen, padding=padding)
        # No padding rejects nothing, however small the screen.
        make_cfg(screen=Rect(0, 0, 0.3, 0.3), padding=0.0)


class TestConnectionPoint:
    def test_fixed_connection_translates(self):
        leader = LeaderSpec(kind=LeaderType.FREE_DIR_FIXED_CONN)
        conn = connection_point(Rect(0, 0, 10, 4), Vec2(5, -8), leader, Vec2(5.0, 0.0))
        assert conn == Vec2(5.0, 0.0)

    def test_sliding_connection_follows_anchor_x(self):
        leader = LeaderSpec(kind=LeaderType.FIXED_DIR_FREE_CONN, direction=90.0)
        conn = connection_point(Rect(0, 10, 10, 14), Vec2(3.0, 0.0), leader, Vec2(99, 99))
        assert conn == Vec2(3.0, 10.0)

    def test_free_free_snaps_to_nearest_point(self):
        leader = LeaderSpec(kind=LeaderType.FREE_DIR_FREE_CONN)
        conn = connection_point(Rect(0, 10, 10, 14), Vec2(20.0, 12.0), leader, Vec2(0, 0))
        assert conn == Vec2(10.0, 12.0)


class TestValidation:
    def test_feature_requires_text(self):
        with pytest.raises(ValueError):
            PointFeature(id="a", anchor=Vec2(0, 0), depth=10.0, text="")

    def test_feature_requires_positive_depth(self):
        with pytest.raises(ValueError):
            PointFeature(id="a", anchor=Vec2(0, 0), depth=0.0, text="X")

    def test_leader_requires_positive_length(self):
        with pytest.raises(ValueError):
            LeaderSpec(length=0.0)

    def test_config_font_bounds(self):
        with pytest.raises(ValueError):
            make_cfg(w_min_pt=14.0, w_max_pt=12.0)

    def test_beam_resolution_uses_d_min(self):
        cfg = make_cfg(d_min=0.5)
        assert cfg.resolved_beam().max_step == pytest.approx(1.0)


_coord = st.integers(-4, 12).map(float) | st.floats(-20.0, 30.0)


class TestConnectionPointsArray:
    """`connection_points` gives, bit for bit, what the scalar reference
    gives one label at a time."""

    @pytest.mark.parametrize("kind", list(LeaderType))
    @pytest.mark.parametrize("direction", [0.0, 30.0, 90.0, 135.0, 270.0])
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_coord, _coord, st.integers(0, 6).map(float), st.integers(0, 3).map(float),
                      _coord, _coord, _coord, _coord),
            min_size=1, max_size=8,
        ),
    )
    def test_matches_scalar(self, kind, direction, rows):
        leader = LeaderSpec(direction=direction, kind=kind)
        rects = [Rect(x, y, x + w, y + h) for x, y, w, h, *_ in rows]
        anchors = [Vec2(ax, ay) for *_, ax, ay, _, _ in rows]
        conns = [Vec2(cx, cy) for *_, cx, cy in rows]
        got = connection_points(
            np.array([(r.x_min, r.y_min, r.x_max, r.y_max) for r in rects]),
            np.array([(a.x, a.y) for a in anchors]),
            leader,
            np.array([(c.x, c.y) for c in conns]),
        )
        for row, r, a, c in zip(got.tolist(), rects, anchors, conns):
            want = reference_connection_point(r, a, leader, c)
            assert [v.hex() for v in row] == [want.x.hex(), want.y.hex()]


SEQUENTIAL_TEXTS = ["A" * k for k in range(1, 41)] + ["漢A" * 7, "ＡBC漢字" * 5]


class TestSequentialWidthSum:
    """A text's advances add left to right, as sum() does up to Python
    3.11. From 3.12 sum() compensates, and gives another float for 0.6
    added 6 times, 10 to 28 times or 31 to 40 times, so such labels would
    change width."""

    @pytest.mark.parametrize("text", SEQUENTIAL_TEXTS)
    def test_width_is_the_sequential_sum(self, text):
        advance = 0.0
        for ch in text:
            advance += 1.0 if is_double_width(ch) else 0.6
        em = 9.0 * PT_TO_MM
        assert measure_text(text, 9.0) == (advance * em, 1.2 * em)

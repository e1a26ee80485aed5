from leaderlabels import repair
from leaderlabels.geometry import Rect, Vec2
from leaderlabels.metrics import count_conflicts
from leaderlabels.repair import _ring_border, greedy_repair
from leaderlabels.scene import (
    Label,
    LayoutConfig,
    LeaderSpec,
    LeaderType,
    PointFeature,
    initial_layout,
)
from leaderlabels.scenefile import synthetic_scene


def ring_border_reference(r: int) -> list[tuple[int, int]]:
    """The whole (2r+1)^2 square, filtered to its off-axis border and sorted."""
    return [
        (ix, iy)
        for _, ix, iy in sorted(
            (ix * ix + iy * iy, ix, iy)
            for ix in range(-r, r + 1)
            for iy in range(-r, r + 1)
            if max(abs(ix), abs(iy)) == r and ix != 0 and iy != 0
        )
    ]


def test_ring_border_matches_square_filter():
    for r in range(1, 201):
        assert _ring_border(r) == ring_border_reference(r), r


def wedged_scene() -> tuple[list[Label], list[PointFeature], LayoutConfig]:
    """A 4 x 2 mm label sitting on a foreign symbol, boxed in from above and
    below by two wide labels 0.5 mm away.

    Clearing the symbol takes 2.65 mm to the left or 2.75 mm to the right,
    beyond a 2 mm axis search, and any vertical step over 0.3 mm runs into a
    neighbour. The nearest clearing grid offset is (-27, -1) steps of 0.1 mm:
    the first off-axis cell of ring 27.
    """
    cfg = LayoutConfig(
        screen=Rect(0.0, 0.0, 100.0, 100.0),
        leader=LeaderSpec(kind=LeaderType.FREE_DIR_FIXED_CONN),
    )
    features = [
        PointFeature(id="wedged", anchor=Vec2(20.0, 51.0), depth=100.0, text="W"),
        PointFeature(id="above", anchor=Vec2(10.0, 90.0), depth=100.0, text="A"),
        PointFeature(id="below", anchor=Vec2(90.0, 10.0), depth=100.0, text="B"),
        PointFeature(id="symbol", anchor=Vec2(52.05, 51.0), depth=100.0, text="S"),
    ]
    rects = [
        Rect(50.0, 50.0, 54.0, 52.0),
        Rect(48.0, 52.5, 56.0, 70.0),
        Rect(48.0, 30.0, 56.0, 49.5),
    ]
    labels = [
        Label(feature_id=f.id, rect=r, conn=Vec2(r.center().x, r.y_min), font_size=10.0)
        for f, r in zip(features, rects)
    ]
    return labels, features, cfg


def test_wedged_label_takes_nearest_diagonal_offset():
    labels, features, cfg = wedged_scene()
    assert count_conflicts(labels, features, cfg.d_min) == (0, 1)

    _, axis_moves = greedy_repair(labels, features, cfg, max_axis_retries=0)
    assert axis_moves == 0

    repaired, moves = greedy_repair(labels, features, cfg, diagonal=True, max_axis_retries=0)
    grid = cfg.d_min / 2.0
    d = Vec2(-27 * grid, -1 * grid)
    assert moves == 1
    assert repaired[0].rect == labels[0].rect.translated(d)
    assert repaired[0].conn == labels[0].conn + d
    assert repaired[1:] == labels[1:]
    assert count_conflicts(repaired, features, cfg.d_min) == (0, 0)


def test_small_budget_leaves_conflicts_and_terminates(monkeypatch):
    budgets = []

    class RecordedBudget(repair._Budget):
        def __init__(self, amount: int) -> None:
            super().__init__(amount)
            budgets.append(self)

    monkeypatch.setattr(repair, "_Budget", RecordedBudget)
    monkeypatch.setattr(repair, "CANDIDATE_BUDGET", 200)
    # 60 labels on a 60 x 40 mm screen: far more label area than room.
    features, cfg = synthetic_scene(60, 0, screen=(60.0, 40.0))
    labels = initial_layout(features, cfg)
    before = count_conflicts(labels, features, cfg.d_min)

    repaired, moves = greedy_repair(labels, features, cfg, diagonal=True)
    after = count_conflicts(repaired, features, cfg.d_min)
    assert [b.left for b in budgets] == [0]
    assert sum(after) > 0
    assert sum(after) <= sum(before) - moves

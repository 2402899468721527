import numpy as np
import pytest

from sprawl.ambit import Ambit, LinearMap, PowerMap, table1_region
from sprawl.plotting import field_grid, marching_squares, region_svg


def _components(mask: np.ndarray) -> int:
    """4-connected component count, for qualitative shape checks."""
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for j in range(mask.shape[0]):
        for i in range(mask.shape[1]):
            if mask[j, i] and not seen[j, i]:
                count += 1
                stack = [(j, i)]
                seen[j, i] = True
                while stack:
                    y, x = stack.pop()
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < mask.shape[0] and 0 <= nx < mask.shape[1]:
                            if mask[ny, nx] and not seen[ny, nx]:
                                seen[ny, nx] = True
                                stack.append((ny, nx))
    return count


def test_ball_contour_lies_on_circle():
    region = table1_region("ball", (0,), r=1.0)
    xs = ys = np.linspace(-1.5, 1.5, 101)
    values = field_grid(region, np.array([[0.0, 0.0]]), xs, ys)
    segments = marching_squares(values, xs, ys)
    assert segments
    for p, q in segments:
        for x, y in (p, q):
            assert np.hypot(x, y) == pytest.approx(1.0, abs=0.05)


def test_bifocal_ellipse_closed_curve():
    region = table1_region("ellipse", (0, 1), r=1.6)
    xs = ys = np.linspace(-1.5, 2.5, 121)
    values = field_grid(region, np.array([[0.0, 0.0], [1.0, 0.0]]), xs, ys)
    segments = marching_squares(values, xs, ys)
    assert len(segments) > 20
    for p, q in segments:
        for x, y in (p, q):
            s = np.hypot(x, y) + np.hypot(x - 1.0, y)
            assert s == pytest.approx(1.6, abs=0.1)


def test_plane_contour_is_bisector():
    region = table1_region("plane", (0, 1))
    xs = ys = np.linspace(-1.0, 2.0, 121)
    values = field_grid(region, np.array([[0.0, 0.0], [1.0, 0.0]]), xs, ys)
    for p, q in marching_squares(values, xs, ys):
        for x, _ in (p, q):
            assert x == pytest.approx(0.5, abs=0.05)


def test_power_blobbiness_progression():
    # boundary pinned through a fixed probe point at every alpha; the
    # region goes from one ellipse-like component to two separate blobs
    foci = np.array([[0.0, 0.0], [1.0, 0.0]])
    xs = ys = np.linspace(-0.8, 1.8, 141)
    # focal distances ~(0.32, 0.76): sqrt-sum still bridges the midpoint
    # (alpha = 0.5 stays connected) but the product drops below 1/4, so
    # the alpha -> 0 Cassini-like region pinches into two blobs
    probe = np.array([0.2624, 0.1831])
    masks = {}
    for alpha in (1.0, 0.5, 1e-8):
        d = np.hypot(*(probe - foci).T)
        r = float(np.sum(d**alpha))
        region = Ambit((0, 1), PowerMap([1.0, 1.0], alpha), (r,))
        masks[alpha] = field_grid(region, foci, xs, ys) <= 0.0
    assert _components(masks[1.0]) == 1
    assert _components(masks[0.5]) == 1
    assert _components(masks[1e-8]) == 2
    for mask in masks.values():
        assert mask.any()


def test_svg_deterministic_and_well_formed():
    region = Ambit((0, 1), LinearMap([[1.0, 1.0]]), (1.8,))
    foci = [[0.0, 0.0], [1.0, 0.0]]
    a = region_svg(region, foci, resolution=64)
    b = region_svg(region, foci, resolution=64)
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")
    assert "<path" in a and a.count("<circle") == 2


def test_svg_focus_count_validation():
    region = table1_region("ball", (0,), r=1.0)
    with pytest.raises(ValueError):
        region_svg(region, [[0.0, 0.0], [1.0, 1.0]])



# One cell, corners 0-3 counter-clockwise from (0, 0); case 5 has corners 0
# and 2 inside, case 10 corners 1 and 3. Inside corners read -2 and outside
# ones 1 (mean below 0), or -1 and 2 (mean above 0); the mean decides
# whether the inside corners join through the middle, and so which two
# corners the two segments cut off.
_THIRD = 1 / 3
_CUT_OFF_1_AND_3 = [((2 * _THIRD, 0.0), (1.0, _THIRD)), ((0.0, 2 * _THIRD), (_THIRD, 1.0))]
_CUT_OFF_0_AND_2 = [((_THIRD, 0.0), (0.0, _THIRD)), ((1.0, 2 * _THIRD), (2 * _THIRD, 1.0))]


@pytest.mark.parametrize(
    "case, joined, want",
    [
        (5, True, _CUT_OFF_1_AND_3),
        (5, False, _CUT_OFF_0_AND_2),
        (10, True, _CUT_OFF_0_AND_2),
        (10, False, _CUT_OFF_1_AND_3),
    ],
)
def test_saddle_cells_follow_the_corner_mean(case, joined, want):
    inside, outside = (-2.0, 1.0) if joined else (-1.0, 2.0)
    corners = [inside, outside] * 2 if case == 5 else [outside, inside] * 2
    values = np.array([[corners[0], corners[1]], [corners[3], corners[2]]])  # [y, x]
    got = marching_squares(values, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert len(got) == len(want)
    for (p, q), (wp, wq) in zip(got, want):
        assert p == pytest.approx(wp) and q == pytest.approx(wq)

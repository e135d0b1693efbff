"""Hand-emitted SVG charts: layout anchors, element counts, byte determinism."""

from __future__ import annotations

import numpy as np
import pytest

from pcrboost import plots
from pcrboost.dataset import FEATURE_NAMES, Dataset, pattern_codes
from pcrboost.errors import ContractError
from pcrboost.gbm import TrainConfig, fit
from pcrboost.plots import beeswarm_svg_parts, render_curve_svg
from oracles import (
    beeswarm_points,
    beeswarm_strips,
    make_dataset,
    reference_render_beeswarm_svg,
)

# plot-area corners under the fixed 640x480 layout
LEFT, RIGHT = 70.0, 620.0
BOTTOM, TOP = 425.0, 40.0


class TestCurveSvg:
    def test_roc_polyline_hits_mapped_corners(self):
        svg = render_curve_svg([(0, 0), (0, 1), (1, 1)], kind="roc")
        corners = (
            f"{LEFT:.2f},{BOTTOM:.2f} {LEFT:.2f},{TOP:.2f} {RIGHT:.2f},{TOP:.2f}"
        )
        assert f'<polyline points="{corners}"' in svg

    def test_structure_and_labels(self):
        svg = render_curve_svg([(0, 0), (1, 1)], kind="roc")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert "\r" not in svg
        assert ">ROC curve</text>" in svg
        assert ">False positive rate</text>" in svg
        assert ">True positive rate</text>" in svg

    def test_pr_axis_labels(self):
        svg = render_curve_svg([(0, 1), (1, 0.5)], kind="pr")
        assert ">Precision-recall curve</text>" in svg
        assert ">Recall</text>" in svg
        assert ">Precision</text>" in svg

    def test_band_polygon_only_when_given(self):
        grid = np.linspace(0, 1, 11)
        lo = np.clip(grid - 0.1, 0, 1)
        hi = np.clip(grid + 0.1, 0, 1)
        plain = render_curve_svg([(0, 0), (1, 1)], kind="roc")
        banded = render_curve_svg([(0, 0), (1, 1)], kind="roc", band=(grid, lo, hi))
        assert "<polygon" not in plain
        assert banded.count("<polygon") == 1
        assert "#aecde3" in banded

    def test_byte_identical_across_calls(self):
        pts = [(0, 0), (0.25, 0.8), (1, 1)]
        assert render_curve_svg(pts, kind="roc") == render_curve_svg(pts, kind="roc")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError, match="unknown plot kind"):
            render_curve_svg([(0, 0)], kind="bar")

    def test_empty_points_rejected(self):
        with pytest.raises(ContractError, match="no curve points"):
            render_curve_svg([], kind="roc")


@pytest.fixture(scope="module")
def small_points():
    r = np.random.default_rng(5)
    X = r.integers(0, 2, size=(3, 8), dtype=np.uint8)
    ds = Dataset(pattern_codes(X), np.array([1, 0, 1], dtype=np.uint8))
    model = fit(make_dataset(r, 300), TrainConfig(num_rounds=2))
    return beeswarm_points(model, ds)


@pytest.fixture(scope="module")
def small_strips(small_points):
    return beeswarm_strips(small_points)


def render(strips, *, seed):
    return "".join(beeswarm_svg_parts(strips, seed=seed))


class TestBeeswarmSvg:
    def test_circle_count_equals_point_count(self, small_points, small_strips):
        svg = render(small_strips, seed=1)
        assert svg.count("<circle") == len(small_points) == 24

    def test_one_label_per_feature_in_group_order(self, small_points, small_strips):
        svg = render(small_strips, seed=1)
        order = []
        for p in small_points:
            if p.feature not in order:
                order.append(p.feature)
        positions = [svg.index(f">{name}</text>") for name in order]
        assert positions == sorted(positions)
        assert set(order) == set(FEATURE_NAMES)

    def test_height_tracks_feature_count(self, small_strips):
        svg = render(small_strips, seed=1)
        assert 'height="{}"'.format(40 + 44 * 8 + 55) in svg

    def test_same_seed_byte_identical(self, small_strips):
        assert render(small_strips, seed=9) == render(small_strips, seed=9)

    def test_different_seed_changes_jitter(self, small_strips):
        assert render(small_strips, seed=9) != render(small_strips, seed=10)

    def test_legend_and_axis_label(self, small_strips):
        svg = render(small_strips, seed=1)
        assert svg.count("<rect") == 1 + 2  # background + two legend swatches
        assert ">value 0</text>" in svg and ">value 1</text>" in svg
        assert ">SHAP value (log-odds)</text>" in svg
        assert ">SHAP beeswarm</text>" in svg

    def test_empty_points_rejected(self):
        # raised before the head is yielded, so a writer has nothing to write
        with pytest.raises(ContractError, match="no beeswarm points"):
            next(beeswarm_svg_parts([], seed=0))

    @pytest.mark.parametrize("seed", [1, 9])
    def test_matches_point_by_point_reference(self, small_points, small_strips, seed):
        assert render(small_strips, seed=seed) == reference_render_beeswarm_svg(
            small_points, seed=seed)

    def test_head_one_block_per_strip_and_tail(self, small_strips):
        blocks = list(beeswarm_svg_parts(small_strips, seed=1))
        assert len(blocks) == len(small_strips) + 2
        assert all(block.endswith("\n") for block in blocks)
        assert blocks[-1].endswith("</svg>\n")
        for block, (feature, values, _) in zip(blocks[1:-1], small_strips):
            assert block.startswith("<text ") and f">{feature}</text>" in block
            assert block.count("<circle") == len(values)

    @pytest.mark.parametrize("size", [1, 2])
    def test_strips_in_slices_of_circles(self, small_strips, small_points, monkeypatch, size):
        # 3 points a strip: each strip's label opens its first slice
        monkeypatch.setattr(plots, "_SLICE_CIRCLES", size)
        blocks = list(beeswarm_svg_parts(small_strips, seed=1))
        assert len(blocks) == 2 + len(small_strips) * -(-3 // size)
        assert all(block.count("<circle") <= size for block in blocks[1:-1])
        assert "".join(blocks) == reference_render_beeswarm_svg(small_points, seed=1)

    def test_strip_longer_than_one_slice(self, rng):
        n = 2 * plots._SLICE_CIRCLES + 5
        points = [("cough", v, c) for v, c in zip(rng.normal(size=n).tolist(),
                                                    rng.integers(0, 2, size=n).tolist())]
        points += [("fever", 0.5, 1), ("fever", -0.25, 0)]
        strips = beeswarm_strips(points)
        blocks = list(beeswarm_svg_parts(strips, seed=3))
        assert [block.count("<circle") for block in blocks] == [
            0, plots._SLICE_CIRCLES, plots._SLICE_CIRCLES, 5, 2, 0]
        assert "".join(blocks) == reference_render_beeswarm_svg(points, seed=3)

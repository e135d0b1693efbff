"""Hand-emitted SVG charts: layout anchors, element counts, byte determinism."""

from __future__ import annotations

import numpy as np
import pytest

from pcrboost.dataset import FEATURE_NAMES, Dataset, pattern_codes
from pcrboost.errors import ContractError
from pcrboost.gbm import TrainConfig, fit
from pcrboost.plots import render_beeswarm_svg, render_curve_svg
from conftest import beeswarm_points, make_dataset

# plot-area corners under the fixed 640x480 layout
LEFT, RIGHT = 70.0, 620.0
BOTTOM, TOP = 425.0, 40.0


class TestCurveSvg:
    def test_roc_polyline_hits_mapped_corners(self):
        svg = render_curve_svg([(0, 0), (0, 1), (1, 1)], kind="roc", title="t")
        corners = (
            f"{LEFT:.2f},{BOTTOM:.2f} {LEFT:.2f},{TOP:.2f} {RIGHT:.2f},{TOP:.2f}"
        )
        assert f'<polyline points="{corners}"' in svg

    def test_structure_and_labels(self):
        svg = render_curve_svg([(0, 0), (1, 1)], kind="roc", title="ROC title")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert "\r" not in svg
        assert ">ROC title</text>" in svg
        assert ">False positive rate</text>" in svg
        assert ">True positive rate</text>" in svg

    def test_pr_axis_labels(self):
        svg = render_curve_svg([(0, 1), (1, 0.5)], kind="pr", title="t")
        assert ">Recall</text>" in svg
        assert ">Precision</text>" in svg

    def test_band_polygon_only_when_given(self):
        grid = np.linspace(0, 1, 11)
        lo = np.clip(grid - 0.1, 0, 1)
        hi = np.clip(grid + 0.1, 0, 1)
        plain = render_curve_svg([(0, 0), (1, 1)], kind="roc", title="t")
        banded = render_curve_svg([(0, 0), (1, 1)], kind="roc", title="t",
                                  band=(grid, lo, hi))
        assert "<polygon" not in plain
        assert banded.count("<polygon") == 1
        assert "#aecde3" in banded

    def test_byte_identical_across_calls(self):
        pts = [(0, 0), (0.25, 0.8), (1, 1)]
        assert render_curve_svg(pts, kind="roc", title="x") == render_curve_svg(
            pts, kind="roc", title="x"
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError, match="unknown plot kind"):
            render_curve_svg([(0, 0)], kind="bar", title="t")

    def test_empty_points_rejected(self):
        with pytest.raises(ContractError, match="no curve points"):
            render_curve_svg([], kind="roc", title="t")


@pytest.fixture(scope="module")
def small_points():
    r = np.random.default_rng(5)
    X = r.integers(0, 2, size=(3, 8), dtype=np.uint8)
    ds = Dataset(pattern_codes(X), np.array([1, 0, 1], dtype=np.uint8))
    model = fit(make_dataset(r, 300), TrainConfig(num_rounds=2))
    return beeswarm_points(model, ds)


class TestBeeswarmSvg:
    def test_circle_count_equals_point_count(self, small_points):
        svg = render_beeswarm_svg(small_points, seed=1, title="t")
        assert svg.count("<circle") == len(small_points) == 24

    def test_one_label_per_feature_in_group_order(self, small_points):
        svg = render_beeswarm_svg(small_points, seed=1, title="t")
        order = []
        for p in small_points:
            if p.feature not in order:
                order.append(p.feature)
        positions = [svg.index(f">{name}</text>") for name in order]
        assert positions == sorted(positions)
        assert set(order) == set(FEATURE_NAMES)

    def test_height_tracks_feature_count(self, small_points):
        svg = render_beeswarm_svg(small_points, seed=1, title="t")
        assert 'height="{}"'.format(40 + 44 * 8 + 55) in svg

    def test_same_seed_byte_identical(self, small_points):
        a = render_beeswarm_svg(small_points, seed=9, title="t")
        b = render_beeswarm_svg(small_points, seed=9, title="t")
        assert a == b

    def test_different_seed_changes_jitter(self, small_points):
        a = render_beeswarm_svg(small_points, seed=9, title="t")
        b = render_beeswarm_svg(small_points, seed=10, title="t")
        assert a != b

    def test_legend_and_axis_label(self, small_points):
        svg = render_beeswarm_svg(small_points, seed=1, title="t")
        assert svg.count("<rect") == 1 + 2  # background + two legend swatches
        assert ">value 0</text>" in svg and ">value 1</text>" in svg
        assert ">SHAP value (log-odds)</text>" in svg

    def test_empty_points_rejected(self):
        with pytest.raises(ContractError, match="no beeswarm points"):
            render_beeswarm_svg([], seed=0, title="t")

"""Hand-emitted SVG 1.1 charts: ROC/PR curves and the SHAP beeswarm.

Documents are built from formatted strings (no plotting library) so the
same inputs and seed always produce byte-identical files. Coordinates are
fixed to two decimals; colors and layout are constants.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_CURVE_W, _CURVE_H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_STRIP_H = 44
_LINE = "#1f609e"
_BAND = "#aecde3"
_GRID = "#d9d9d9"
_AXIS = "#333333"
_VALUE_COLORS = {0: "#2e7bd6", 1: "#d64a2e"}

_AXIS_LABELS = {
    "roc": ("False positive rate", "True positive rate"),
    "pr": ("Recall", "Precision"),
}


def _f(v: float) -> str:
    return f"{v:.2f}"


def _text(x, y, s, *, anchor="middle", size=12, rotate=None, color=_AXIS) -> str:
    transform = f' transform="rotate(-90 {_f(x)} {_f(y)})"' if rotate else ""
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}" fill="{color}"{transform}>{s}</text>'
    )


def _svg_open(width, height) -> str:
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>'
    )


def render_curve_svg(points, *, kind: str, title: str, band=None) -> str:
    """ROC or PR polyline with axes; optional (grid, lo, hi) TPR band under it."""
    if kind not in _AXIS_LABELS:
        raise ContractError(f"unknown plot kind: {kind}")
    if not points:
        raise ContractError("no curve points")
    x_label, y_label = _AXIS_LABELS[kind]
    px = lambda x: _ML + x * (_CURVE_W - _ML - _MR)
    py = lambda y: _CURVE_H - _MB - y * (_CURVE_H - _MT - _MB)

    parts = [_svg_open(_CURVE_W, _CURVE_H)]
    parts.append(_text(_CURVE_W / 2, 22, title, size=14))
    for tick in np.linspace(0.0, 1.0, 6):
        gx, gy = px(tick), py(tick)
        parts.append(
            f'<line x1="{_f(gx)}" y1="{_f(py(0))}" x2="{_f(gx)}" y2="{_f(py(1))}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_f(px(0))}" y1="{_f(gy)}" x2="{_f(px(1))}" y2="{_f(gy)}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
        )
        parts.append(_text(gx, py(0) + 18, f"{tick:.1f}"))
        parts.append(_text(px(0) - 8, gy + 4, f"{tick:.1f}", anchor="end"))
    if band is not None:
        grid, lo, hi = band
        ring = [(g, h) for g, h in zip(grid, hi)]
        ring += [(g, l) for g, l in zip(grid[::-1], lo[::-1])]
        coords = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in ring)
        parts.append(f'<polygon points="{coords}" fill="{_BAND}" fill-opacity="0.55"/>')
    coords = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in points)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="{_LINE}" stroke-width="1.5"/>'
    )
    frame = (
        f'<rect x="{_f(px(0))}" y="{_f(py(1))}" width="{_f(px(1) - px(0))}" '
        f'height="{_f(py(0) - py(1))}" fill="none" stroke="{_AXIS}" stroke-width="1"/>'
    )
    parts.append(frame)
    parts.append(_text((px(0) + px(1)) / 2, _CURVE_H - 12, x_label))
    parts.append(_text(18, (py(0) + py(1)) / 2, y_label, rotate=True))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_beeswarm_svg(points, *, seed: int, title: str) -> str:
    """One jittered strip per feature, point fill encoding the 0/1 feature value.

    `points` are (feature, shap_value, feature_value) triples already grouped
    by feature in ranking order (mean |SHAP| descending, as `plot --kind
    beeswarm` orders the rows of a SHAP CSV).
    """
    if not points:
        raise ContractError("no beeswarm points")
    features: list[str] = []
    grouped: dict[str, list[tuple[float, int]]] = {}
    for feature, shap_value, feature_value in points:
        if feature not in grouped:
            features.append(feature)
            grouped[feature] = []
        grouped[feature].append((float(shap_value), int(feature_value)))

    height = _MT + _STRIP_H * len(features) + _MB
    values = [v for feature in features for v, _ in grouped[feature]]
    span = max(max(abs(v) for v in values), 1e-12)
    lo, hi = -1.08 * span, 1.08 * span
    px = lambda x: _ML + (x - lo) / (hi - lo) * (_CURVE_W - _ML - _MR)

    rng = np.random.Generator(np.random.PCG64(seed))
    parts = [_svg_open(_CURVE_W, height)]
    parts.append(_text(_CURVE_W / 2, 22, title, size=14))
    zero_x = px(0.0)
    parts.append(
        f'<line x1="{_f(zero_x)}" y1="{_MT}" x2="{_f(zero_x)}" '
        f'y2="{height - _MB}" stroke="{_GRID}" stroke-width="1"/>'
    )
    # legend markers are rects so <circle> elements are exactly the data points
    legend_x = _CURVE_W - _MR - 150
    for value, dx in ((0, 0), (1, 60)):
        parts.append(
            f'<rect x="{legend_x + dx - 4}" y="{_MT - 18}" width="8" height="8" '
            f'fill="{_VALUE_COLORS[value]}"/>'
        )
        parts.append(_text(legend_x + dx + 10, _MT - 10, f"value {value}", anchor="start", size=11))

    for strip, feature in enumerate(features):
        cy = _MT + _STRIP_H * (strip + 0.5)
        parts.append(_text(_ML - 8, cy + 4, feature, anchor="end", size=11))
        # collision avoidance: points sharing a 4px x-bin stack outward from
        # the strip center, alternating sides, with a small seeded jitter
        bins: dict[int, int] = {}
        max_off = _STRIP_H / 2 - 4
        for shap_value, feature_value in grouped[feature]:
            x = px(shap_value)
            b = int(x // 4)
            k = bins.get(b, 0)
            bins[b] = k + 1
            step = (k + 1) // 2 * 5.0
            off = step if k % 2 == 1 else -step
            off = max(-max_off, min(max_off, off + rng.uniform(-1.2, 1.2)))
            parts.append(
                f'<circle cx="{_f(x)}" cy="{_f(cy + off)}" r="2.4" '
                f'fill="{_VALUE_COLORS.get(feature_value, _AXIS)}" fill-opacity="0.8"/>'
            )
    parts.append(
        _text((_ML + _CURVE_W - _MR) / 2, height - 12, "SHAP value (log-odds)")
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

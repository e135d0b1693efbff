"""Hand-emitted SVG 1.1 charts: ROC/PR curves and the SHAP beeswarm.

Documents are built from formatted strings (no plotting library) so the
same inputs and seed always produce byte-identical files. Coordinates are
fixed to two decimals; colors and layout are constants. Only the beeswarm
loads NumPy, so a curve chart starts without it.
"""

from __future__ import annotations

from .errors import ContractError

_CURVE_W, _CURVE_H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_STRIP_H = 44
_LINE = "#1f609e"
_BAND = "#aecde3"
_GRID = "#d9d9d9"
_AXIS = "#333333"
_VALUE_COLORS = {0: "#2e7bd6", 1: "#d64a2e"}

# a beeswarm strip's circles are formatted and yielded this many at a time: a survey-scale
# strip (47,401 circles) formatted whole is a few MB of text and its Python objects
_SLICE_CIRCLES = 2048

# np.linspace(0, 1, 6) written out: curve charts load no NumPy
_TICKS = (0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0)

# each curve kind's title and axis labels
_LABELS = {
    "roc": ("ROC curve", "False positive rate", "True positive rate"),
    "pr": ("Precision-recall curve", "Recall", "Precision"),
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


def render_curve_svg(points, *, kind: str, band=None) -> str:
    """ROC or PR polyline with axes; optional (grid, lo, hi) TPR band under it."""
    if kind not in _LABELS:
        raise ContractError(f"unknown plot kind: {kind}")
    if not points:
        raise ContractError("no curve points")
    title, x_label, y_label = _LABELS[kind]
    px = lambda x: _ML + x * (_CURVE_W - _ML - _MR)
    py = lambda y: _CURVE_H - _MB - y * (_CURVE_H - _MT - _MB)

    parts = [_svg_open(_CURVE_W, _CURVE_H)]
    parts.append(_text(_CURVE_W / 2, 22, title, size=14))
    for tick in _TICKS:
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
    parts += ["</svg>", ""]
    return "\n".join(parts)


def beeswarm_svg_parts(strips, *, seed: int):
    """The beeswarm document: its head, each strip's "\n"-terminated blocks, its tail.

    `strips` are (feature, shap_values, feature_values) triples in drawing
    order (mean |SHAP| descending, as `plot --kind beeswarm` ranks the
    features of a SHAP CSV), each strip's points in input order. A point's
    fill encodes its 0/1 feature value. A strip's first block opens with its
    label, and each block holds at most _SLICE_CIRCLES circles, so a writer
    holds a bounded text at a time.
    """
    import numpy as np

    if not strips:
        raise ContractError("no beeswarm points")
    height = _MT + _STRIP_H * len(strips) + _MB
    span = max(max(float(np.abs(values).max()) for _, values, _ in strips), 1e-12)
    lo, hi = -1.08 * span, 1.08 * span
    px = lambda x: _ML + (x - lo) / (hi - lo) * (_CURVE_W - _ML - _MR)

    rng = np.random.Generator(np.random.PCG64(seed))
    parts = [_svg_open(_CURVE_W, height)]
    parts.append(_text(_CURVE_W / 2, 22, "SHAP beeswarm", size=14))
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
    yield "\n".join(parts) + "\n"

    max_off = _STRIP_H / 2 - 4
    fills = np.array([f'" r="2.4" fill="{c}" fill-opacity="0.8"/>' for c in _VALUE_COLORS.values()],
                     dtype=object)
    for strip, (feature, values, cells) in enumerate(strips):
        cy = _MT + _STRIP_H * (strip + 0.5)
        x = px(np.array(values, dtype=np.float64))
        # collision avoidance: the k-th point of a 4px x-bin stacks (k + 1) // 2
        # steps of 5px out from the strip center, alternating sides, plus jitter
        by_bin = np.argsort(x // 4, kind="stable")
        sorted_bins = (x // 4)[by_bin]
        k = np.empty_like(by_bin)
        k[by_bin] = np.arange(len(x)) - np.searchsorted(sorted_bins, sorted_bins)
        step = (k + 1) // 2 * 5.0
        off = np.where(k % 2 == 1, step, -step) + rng.uniform(-1.2, 1.2, size=len(x))
        off = np.maximum(-max_off, np.minimum(max_off, off))
        distinct_x, x_index = np.unique(x, return_inverse=True)
        heads = np.array([f'<circle cx="{_f(v)}" cy="' for v in distinct_x.tolist()], dtype=object)
        label = _text(_ML - 8, cy + 4, feature, anchor="end", size=11) + "\n"
        for start in range(0, len(x), _SLICE_CIRCLES):
            part = slice(start, start + _SLICE_CIRCLES)
            # a circle is its x's head, its cy and its fill's tail: one format call per slice
            circles = np.array([heads[x_index[part]], cy + off[part], fills[cells[part]]],
                               dtype=object).T.ravel()
            yield label + ("%s%.2f%s\n" * (len(circles) // 3)) % tuple(circles.tolist())
            label = ""
    yield _text((_ML + _CURVE_W - _MR) / 2, height - 12, "SHAP value (log-odds)") + "\n</svg>\n"

"""Scatter plots of prediction records as self-contained SVG documents.

Written directly as text: the plot is diffable, deterministic, and needs
no plotting library. One figure per (record, condition): the room
outline, the baseline sample cloud, the selected candidates, the true
position (all as circles), and both estimates as cross marks.
"""

from __future__ import annotations

from .dataio import write_text
from .pipeline import PredictionRecord
from .scenario import Scene

_SCALE = 40.0  # px per meter
_MARGIN = 50.0
_LEGEND_H = 90.0

_STYLE = (
    "circle.baseline { fill: #4878b0; fill-opacity: 0.45; stroke: none; }\n"
    "circle.selected { fill: #3da05a; fill-opacity: 0.85; stroke: #1e5c32; stroke-width: 0.6; }\n"
    "circle.truth { fill: #d43d3d; stroke: #7a1f1f; stroke-width: 1; }\n"
    "path.baseline-estimate { stroke: #16324f; stroke-width: 2.2; fill: none; }\n"
    "path.hmdn-estimate { stroke: #0c5c24; stroke-width: 2.2; fill: none; }\n"
    "rect.room { fill: none; stroke: #222222; stroke-width: 1.5; }\n"
    "text { font-family: sans-serif; font-size: 12px; fill: #222222; }\n"
)


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


class _Canvas:
    def __init__(self, scene: Scene):
        self.depth = scene.room_depth
        self.width_px = scene.room_width * _SCALE + 2 * _MARGIN
        self.height_px = scene.room_depth * _SCALE + 2 * _MARGIN + _LEGEND_H

    def xy(self, p):
        # svg y grows downward; room y grows upward
        x = _MARGIN + float(p[0]) * _SCALE
        y = _MARGIN + (self.depth - float(p[1])) * _SCALE
        return x, y


def _circle(c: _Canvas, p, r: float, klass: str) -> str:
    x, y = c.xy(p)
    return f'<circle class="{klass}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}"/>'


def _cross(c: _Canvas, p, arm: float, klass: str) -> str:
    x, y = c.xy(p)
    d = (
        f"M {_fmt(x - arm)} {_fmt(y)} L {_fmt(x + arm)} {_fmt(y)} "
        f"M {_fmt(x)} {_fmt(y - arm)} L {_fmt(x)} {_fmt(y + arm)}"
    )
    return f'<path class="{klass}" d="{d}"/>'


def render_scatter_svg(scene: Scene, record: PredictionRecord) -> str:
    """The SVG document for one prediction record, as a string."""
    c = _Canvas(scene)
    est = record.hmdn
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(c.width_px)}" '
        f'height="{_fmt(c.height_px)}" '
        f'viewBox="0 0 {_fmt(c.width_px)} {_fmt(c.height_px)}">',
        f"<style>{_STYLE}</style>",
        f'<text x="{_fmt(_MARGIN)}" y="24">record {record.record_id}, '
        f"condition {record.condition}, observed z = {format(float(record.z[0]), '.6g')}</text>",
    ]
    x0, y0 = c.xy((0.0, c.depth))
    parts.append(
        f'<rect class="room" x="{_fmt(x0)}" y="{_fmt(y0)}" '
        f'width="{_fmt(scene.room_width * _SCALE)}" height="{_fmt(scene.room_depth * _SCALE)}"/>'
    )
    for p in record.baseline_samples:
        parts.append(_circle(c, p, 3.0, "baseline"))
    for p in est.selected:
        parts.append(_circle(c, p, 4.0, "selected"))
    parts.append(_circle(c, record.truth, 5.0, "truth"))
    parts.append(_cross(c, record.baseline_estimate, 7.0, "baseline-estimate"))
    parts.append(_cross(c, est.estimate, 7.0, "hmdn-estimate"))

    # legend swatches are rects on purpose: the circle count stays exactly
    # n_samples + n_selected + 1 so the figure is machine-checkable
    ly = c.height_px - _LEGEND_H + 12.0
    lx = _MARGIN
    legend = [
        ("#4878b0", "baseline samples"),
        ("#3da05a", "selected candidates"),
        ("#d43d3d", "true position"),
    ]
    for color, label in legend:
        parts.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(ly)}" width="9" height="9" fill="{color}"/>'
        )
        parts.append(f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}">{label}</text>')
        ly += 20.0
    parts.append(
        f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}">crosses: baseline / hmdn estimates</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_scatter_svg(path, scene: Scene, record: PredictionRecord) -> None:
    write_text(path, [render_scatter_svg(scene, record)])

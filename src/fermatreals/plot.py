"""Geometric representation of values as planar curves.

A value r + sum(c_i * dt[b_i]) is drawn as the point set
``{(r + sum(c_i * t**(1/b_i)), t) : 0 <= t < delta}`` with the *value* on
the horizontal axis and the parameter t on the vertical axis, so the
curve of an infinitesimal hugs the real axis near its standard part and
a plain real becomes a vertical segment.  Distinct values draw distinct
curves, and for a suitably small delta the curves of ordered values
never cross.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import _binary64, _natural, as_fermat
from .errors import NonFiniteError

_SVG_W = 480.0
_SVG_H = 360.0
_SVG_MARGIN = 40.0
_HALF_MAX = sys.float_info.max / 2


class GraphSample(NamedTuple):
    """Sampled curve: (value, t) points with t strictly increasing in
    [0, delta)."""

    delta: float
    points: tuple[tuple[float, float], ...]


def graph_samples(x, delta: float, samples: int) -> GraphSample:
    """Sample the representing curve uniformly in t over [0, delta), finite points only."""
    x = as_fermat(x)
    delta = _binary64(delta)
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be > 0 and finite, got {delta}")
    count = _binary64(_natural(samples, "samples", least=2), "samples")
    exps = [(c, k / x.den) for k, c in zip(x.ks, x.cs)]
    points = []
    for i in range(samples):
        t = delta * i / count
        value = x.std
        for coeff, a in exps:
            value += coeff * t**a
        if not (math.isfinite(value) and math.isfinite(t)):
            raise NonFiniteError(f"the curve has a non-finite point ({value!r}, {t!r})")
        points.append((value, t))
    return GraphSample(delta, tuple(points))


def render_csv(sample: GraphSample) -> str:
    lines = ["value,t"]
    for value, t in sample.points:
        lines.append(f"{value!r},{t!r}")
    return "\n".join(lines) + "\n"


def render_svg(sample: GraphSample, label: str = "") -> str:
    """Deterministic SVG 1.1 picture: the real axis plus the curve."""
    values = [v for v, _ in sample.points]
    vmin, vmax = min(values), max(values)
    if vmax - vmin < 1e-12:  # flat: pad by 1, or by a share of the value where 1 is absorbed
        pad = max(1.0, abs(vmax) * 2.0**-40) / 2  # on halves, clamped, so the range stays finite
        vmin, vmax = 2 * max(vmin / 2 - pad, -_HALF_MAX), 2 * min(vmax / 2 + pad, _HALF_MAX)
    span = _SVG_W - 2 * _SVG_MARGIN
    rise = _SVG_H - 2 * _SVG_MARGIN

    def px(v: float) -> float:  # halved, exactly, so a range past binary64 stays finite
        return _SVG_MARGIN + (v / 2 - vmin / 2) / (vmax / 2 - vmin / 2) * span

    def py(t: float) -> float:
        return _SVG_H - _SVG_MARGIN - t / sample.delta * rise

    coords = " ".join(f"{px(v):.3f},{py(t):.3f}" for v, t in sample.points)
    axis_y = f"{_SVG_H - _SVG_MARGIN:.3f}"
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" '
        f'viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">',
        f"  <title>{_xml_escape(label)}</title>",
        f"  <desc>delta={sample.delta!r} samples={len(sample.points)} "
        f"value range [{vmin!r}, {vmax!r}]</desc>",
        f'  <line x1="0" y1="{axis_y}" x2="{_SVG_W:.0f}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>',
        f'  <polyline points="{coords}" fill="none" stroke="crimson" '
        'stroke-width="1.5"/>',
        "</svg>",
    ]
    return "\n".join(out) + "\n"


def _xml_escape(s: str) -> str:
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )

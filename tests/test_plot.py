from __future__ import annotations

import math

import pytest

from fermatreals import (
    add, dt, evaluate, from_real, graph_samples, mul, parse, render_csv, render_svg,
)
from fermatreals.errors import NonFiniteError


def test_graph_samples_values_follow_decomposition():
    x = add(1, mul(2, dt(2)))  # 1 + 2*t^(1/2)
    gs = graph_samples(x, 0.04, 8)
    assert len(gs.points) == 8
    ts = [t for _, t in gs.points]
    assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] < 0.04
    for value, t in gs.points:
        assert value == 1.0 + 2.0 * t**0.5


def test_graph_samples_real_is_vertical_line():
    gs = graph_samples(from_real(1.0), 0.05, 16)
    assert all(value == 1.0 for value, _ in gs.points)


def test_graph_samples_validation():
    for delta in (0.0, math.inf):
        with pytest.raises(ValueError):
            graph_samples(dt(2), delta, 8)
    with pytest.raises(ValueError):
        graph_samples(dt(2), 0.01, 1)
    for samples in (2.0, True):
        with pytest.raises(ValueError):
            graph_samples(dt(2), 0.01, samples)


def test_graph_samples_rejects_non_finite_points():
    # a coefficient times t**a past binary64, and t itself past it
    with pytest.raises(NonFiniteError):
        graph_samples(evaluate(parse("1e308*dt[1]+1e308*dt[2]")), 0.9, 64)
    with pytest.raises(NonFiniteError):
        graph_samples(from_real(7.0), 1e308, 64)


def test_render_svg_of_a_value_range_past_binary64_is_finite():
    # every value is finite, but vmax - vmin is not
    x = evaluate(parse("-1.7e308+1.7e308*dt[1000]+1.7e308*dt[999]"))
    svg = render_svg(graph_samples(x, 0.9, 4))
    assert "nan" not in svg and "inf" not in svg


def test_render_svg_of_a_flat_curve_past_2_53_is_finite():
    # a pad of 1 is absorbed there: the pad grows with the value, and stays
    # inside binary64 at the largest floats
    for text in ("1e16", "1e300", "1.7976931348623157e308+dt[2]", "-1.7976931348623157e308"):
        value = evaluate(parse(text))
        svg = render_svg(graph_samples(value, 0.01, 64), label=text)
        assert "nan" not in svg and "inf" not in svg, text
        lo, hi = map(float, svg.split("value range [")[1].split("]")[0].split(", "))
        assert lo < hi and lo <= value.std <= hi, text


def test_dt2_dominates_dt1_pointwise():
    a = graph_samples(dt(1), 0.01, 64)
    b = graph_samples(dt(2), 0.01, 64)
    for (va, ta), (vb, tb) in zip(a.points[1:], b.points[1:]):
        assert ta == tb and va < vb


def test_render_csv_shape():
    gs = graph_samples(dt(2), 0.01, 4)
    text = render_csv(gs)
    lines = text.split("\n")
    assert lines[0] == "value,t"
    assert len(lines) == 6 and lines[-1] == ""
    value, t = lines[1].split(",")
    assert float(value) == 0.0 and float(t) == 0.0


def test_render_svg_is_svg_11_and_deterministic():
    gs = graph_samples(dt(2), 0.05, 64)
    one = render_svg(gs, label="dt[2]")
    two = render_svg(gs, label="dt[2]")
    assert one == two
    assert 'version="1.1"' in one
    assert "<polyline" in one and "<line" in one
    assert "<title>dt[2]</title>" in one

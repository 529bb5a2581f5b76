from __future__ import annotations


import pytest

from fermatreals import add, dt, from_real, graph_samples, mul, render_csv, render_svg


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
    with pytest.raises(ValueError):
        graph_samples(dt(2), 0.0, 8)
    with pytest.raises(ValueError):
        graph_samples(dt(2), 0.01, 1)
    for samples in (2.0, True):
        with pytest.raises(ValueError):
            graph_samples(dt(2), 0.01, samples)


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

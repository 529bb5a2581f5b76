"""Package-level contracts: the public names, the record types, and what a
CLI call imports."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fermatreals
from fermatreals import CATALOG, Term, dt, graph_samples, pow_const

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that dataclasses (inspect, ast, dis) or an eager json import would
# load: every CLI spawn would pay their import time.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "json"}


def test_every_public_name_resolves():
    for name in fermatreals.__all__:
        assert hasattr(fermatreals, name), name
    # the submodule of the same name must not shadow the function
    assert fermatreals.order is sys.modules["fermatreals.order"].order
    assert fermatreals.order(dt(3)) == 3


def test_record_types_keep_their_fields_and_are_immutable():
    t = Term(2.0, F(1, 3))
    assert (t.coeff, t.exp, t.order) == (2.0, F(1, 3), 3) and dt(3).terms == (Term(1.0, F(1, 3)),)
    exp = CATALOG["exp"]
    assert (exp.name, exp.domain_desc, exp.value(0.0)) == ("exp", "any real", 1.0)
    assert pow_const(2.0).value(3.0) == 9.0
    sample = graph_samples(dt(2), 0.25, 2)
    assert (sample.delta, sample.points) == (0.25, ((0.0, 0.0), (0.125**0.5, 0.125)))
    for record in (t, exp, sample):
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def _modules(code: str) -> set[str]:
    """The modules loaded after running code in a fresh interpreter with src
    on the path, in this process's environment otherwise."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_a_cli_call_imports_no_heavy_module():
    bare = _modules("import sys")
    used = _modules("import sys, fermatreals.cli as c; c.main(['eval', '1'])")
    assert "fermatreals.expr" in used
    assert HEAVY & used <= bare, sorted(HEAVY & used - bare)


LAZY = {"fermatreals.calculus", "fermatreals.expr", "fermatreals.plot"}


def test_a_bare_import_loads_calculus_expr_and_plot_on_first_access():
    used = _modules(f"""import sys, fermatreals as f
assert not {LAZY!r} & set(sys.modules), sorted(sys.modules)
for name in f.__all__ + ["calculus", "expr", "plot"]:
    assert hasattr(f, name), name
assert f.order is sys.modules["fermatreals.order"].order and f.order(f.dt(3)) == 3
assert f.calculus is sys.modules["fermatreals.calculus"] and f.CATALOG is f.calculus.CATALOG
assert f.parse is f.expr.parse and f.render_svg is f.plot.render_svg""")
    assert LAZY <= used


def test_a_cli_call_loads_calculus_and_plot_only_for_what_it_runs(tmp_path):
    def used(argv):
        return _modules(f"import sys, fermatreals.cli as c; assert c.main({argv!r}) == 0")

    for argv in (["eval", "1"], ["cmp", "dt[2]", "3*dt[1]"], ["iota", "3 + dt[3]", "--k", "2"],
                 ["prodzero", "--orders", "6,6,6,2", "--exps", "1,1,1,1"]):
        assert not {"fermatreals.calculus", "fermatreals.plot"} & used(argv), argv
    for argv, loaded in ((["eval", "sin(x)", "-b", "x=dt[3]"], {"fermatreals.calculus"}),
                         (["diff", "sin(t)", "--at", "0"], {"fermatreals.calculus"}),
                         (["plot", "dt[2]", "--out", str(tmp_path / "dt2.svg")], {"fermatreals.plot"})):
        assert loaded <= used(argv), argv
    assert (tmp_path / "dt2.svg").exists()

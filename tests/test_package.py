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
    assert "fermatreals.plot" in used
    assert HEAVY & used <= bare, sorted(HEAVY & used - bare)

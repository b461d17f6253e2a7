"""The benchmark's tracer (perfbench/tracer.py) wraps the package's layer
boundaries from outside: class attributes in each class's own ``__dict__``
and module-level functions.  These tests keep the layout it relies on, so a
refactor that moves an operator onto a shared base class fails here and not
inside the benchmark."""

import os
import sys

from curvemotives.polys import IntPoly, IntPoly2
from curvemotives.series import CoeffPoly, MotiveSeries

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# the tracer's POLY_OPS that each polynomial class defines in its own body
OWN_POLY_OPS = {
    IntPoly: ["__init__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__pow__", "divmod", "exact_div", "__eq__"],
    IntPoly2: ["__init__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__pow__", "diagonal", "__eq__"],
}


def _namespaces():
    classes = {cls: dict(cls.__dict__) for cls in (CoeffPoly, MotiveSeries, IntPoly, IntPoly2)}
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "curvemotives" or name.startswith("curvemotives.")}
    return classes, modules


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    import workloads

    for cls, ops in OWN_POLY_OPS.items():
        assert [op for op in tracer.POLY_OPS if op in cls.__dict__] == ops
    pkg = workloads.load_package()  # imports every module before the snapshot
    before = _namespaces()
    trace = tracer.Tracer()
    trace.install(pkg)
    try:
        assert CoeffPoly.__dict__["__add__"] is not before[0][CoeffPoly]["__add__"]
        assert IntPoly.__dict__["divmod"] is not before[0][IntPoly]["divmod"]
    finally:
        trace.uninstall()
    assert _namespaces() == before

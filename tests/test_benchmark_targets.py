"""Every layer the benchmark's tracer wraps still exists under its name.

``perfbench/tracer.py`` wraps package functions by module and attribute
name and reports a missing one as absent, so a rename would otherwise
show only in the benchmark's self-test. Its ``TARGETS`` table is read
from the source, without importing the tracer.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    """(span name, module, attribute) of each row of the tracer's TARGETS."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return [tuple(ast.literal_eval(e) for e in row.elts[:3])
                    for row in node.value.elts]
    raise AssertionError(f"no TARGETS table in {TRACER}")


TARGETS = _targets()


@pytest.mark.parametrize("name,module,attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_each_traced_layer_resolves(name, module, attr):
    home = importlib.import_module(module)
    if "." not in attr:
        assert callable(getattr(home, attr, None)), f"{module}.{attr} is gone"
        return
    # a method is wrapped on every class of its module that defines it
    cls_name, method = attr.split(".")
    base = getattr(home, cls_name, None)
    assert inspect.isclass(base), f"{module}.{cls_name} is gone"
    assert [cls for _, cls in inspect.getmembers(home, inspect.isclass)
            if issubclass(cls, base) and method in vars(cls)], (
        f"no class of {module} defines {attr}")

"""Documentation gate: every public item carries a docstring.

Walks every public module's ``__all__`` (and that of
``benchmarks.fixtures``, which the paper printer, the benchmark gates and
the tests import) and asserts that each exported class and function (and
each public method of exported classes) is documented.  Keeps the "doc
comments on every public item" promise honest as the library grows.
"""

import enum
import importlib
import inspect

import pytest

MODULES = [
    "repro.core.timestamps",
    "repro.core.intervals",
    "repro.core.schema",
    "repro.core.tuples",
    "repro.core.relation",
    "repro.core.aggregates",
    "repro.core.approximate",
    "repro.core.monotonicity",
    "repro.core.validity",
    "repro.core.patching",
    "repro.core.schedule",
    "repro.core.algebra.predicates",
    "repro.core.algebra.expressions",
    "repro.core.algebra.evaluator",
    "repro.core.algebra.serde",
    "repro.engine.clock",
    "repro.engine.database",
    "repro.engine.expiration_index",
    "repro.engine.maintenance",
    "repro.engine.persistence",
    "repro.engine.statistics",
    "repro.engine.table",
    "repro.engine.transactions",
    "repro.engine.triggers",
    "repro.engine.views",
    "repro.sql.lexer",
    "repro.sql.parser",
    "repro.sql.planner",
    "repro.sql.executor",
    "repro.distributed.events",
    "repro.distributed.link",
    "repro.distributed.simulator",
    "repro.cli",
    "repro.engine.config",
    "repro.server.protocol",
    "repro.server.session",
    "repro.server.server",
    "repro.server.client",
    "repro.server.run",
    "benchmarks.fixtures",
]

_DUNDER_EXEMPT = True


def public_items(module):
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_exports_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in public_items(module):
        if getattr(obj, "__module__", module_name) != module_name:
            continue  # re-export; checked at its home module
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_methods_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for class_name, cls in public_items(module):
        if not inspect.isclass(cls) or issubclass(cls, enum.Enum):
            continue
        if getattr(cls, "__module__", module_name) != module_name:
            continue
        for method_name, member in vars(cls).items():
            if method_name.startswith("_"):
                continue
            if not (inspect.isfunction(member) or isinstance(member, property)):
                continue
            target = member.fget if isinstance(member, property) else member
            if target is None:
                continue
            # getattr on the class resolves inheritance, so an override
            # documented on its base class counts (inspect.getdoc walks
            # the MRO).
            resolved = getattr(cls, method_name, target)
            doc = inspect.getdoc(resolved)
            if not (doc and doc.strip()):
                undocumented.append(f"{class_name}.{method_name}")
    assert not undocumented, f"{module_name}: {undocumented}"

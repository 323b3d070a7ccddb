"""``pyproject.toml`` says ``dependencies = []``; importing the package agrees."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests.test_public_api import PUBLIC_MODULES

_PROBE = """
import importlib, json, sys
before = set(sys.modules)  # site hooks (e.g. _distutils_hack) are not ours
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
foreign = sorted({
    name.partition(".")[0] for name in set(sys.modules) - before
} - {"repro"} - set(sys.stdlib_module_names))
print(json.dumps(foreign))
"""


def test_importing_the_package_pulls_in_no_third_party_module():
    modules = PUBLIC_MODULES + ["repro.server", "repro.check"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    output = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(modules)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert json.loads(output) == []


def test_no_engine_module_imports_the_reference_interpreter():
    """``repro.engine`` runs compiled plans only; the row-at-a-time
    ``Evaluator`` is constructed by ``repro.check``, ``repro.baselines``
    and ``core/`` helpers (``EvalResult`` / ``EvalStats`` are data, and
    fine)."""
    import ast

    engine = Path(__file__).resolve().parents[1] / "src" / "repro" / "engine"
    offenders = []
    for path in sorted(engine.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
                if "Evaluator" in names:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []

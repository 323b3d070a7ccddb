"""``pyproject.toml`` says ``dependencies = []``; importing the package agrees."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from tests.test_public_api import PUBLIC_MODULES

_SRC = Path(__file__).resolve().parents[1] / "src"

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
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    output = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(modules)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert json.loads(output) == []


def test_no_engine_module_imports_the_reference_interpreter():
    """``repro.engine`` runs compiled plans only; the row-at-a-time
    ``Evaluator`` is constructed by ``repro.check`` and ``core/`` helpers (``EvalResult`` / ``EvalStats`` are data, and
    fine)."""
    engine = _SRC / "repro" / "engine"
    offenders = []
    for path in sorted(engine.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
                if "Evaluator" in names:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_import_repro_does_not_load_the_simulator():
    """The served engine is not built on the simulator package: what the
    two share (``RetryPolicy``, ``SessionStats``) lives on the production
    side and ``repro.distributed`` imports it from there."""
    output = subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; print([m for m in sys.modules "
         "if m.startswith('repro.distributed')])"],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        check=True, capture_output=True, text=True,
    ).stdout
    assert output.strip() == "[]"


def _importers(module: str) -> list:
    """Files under ``src/repro`` that import the stdlib ``module``."""
    found = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if module in names:
                found.append(path.relative_to(_SRC / "repro").as_posix())
    return found


def test_bytes_have_one_owner():
    """``repro.codec`` decides the frame header, the packed payloads and
    the JSON encodings (the snapshot's frame 0 goes through its
    ``encode_frame``); the metrics registry dumps its export, and nobody
    else packs bytes or parses JSON."""
    assert _importers("struct") == ["codec.py"]
    assert _importers("json") == ["codec.py", "obs/registry.py"]

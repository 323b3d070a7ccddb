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

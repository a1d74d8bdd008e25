"""Cold start: importing the package's entry points never loads scipy.

scipy is imported inside the functions that call it (the statistical tests,
the FEMNIST glyph filters, the warping trigger), and ``repro`` imports a
subpackage only when one of its names is first read.  The coordinating
process and every distributed worker therefore start without scipy.  Each
check runs in a fresh interpreter, because this test process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_PRINT_SCIPY_MODULES = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter on this ``repro``; parse its last line."""
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _PACKAGE_ROOT + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.cli",
        "repro.experiments.runner",
        "repro.federated.engine.distributed.worker",
    ],
)
def test_import_loads_no_scipy(module):
    assert run_fresh(f"import {module}\n" + _PRINT_SCIPY_MODULES) == []


def test_loading_every_registry_family_loads_no_scipy():
    code = (
        "from repro.registry import Registry\n"
        "for family in Registry.families():\n"
        "    assert Registry.family(family).names(), family\n"
    )
    assert run_fresh(code + _PRINT_SCIPY_MODULES) == []


def test_bare_import_resolves_every_public_name_on_access():
    code = """
import json, sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith("repro."))
kinds = {name: type(getattr(repro, name)).__name__ for name in repro.__all__}
try:
    repro.no_such_subpackage
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps([loaded, kinds, unknown]))
"""
    loaded, kinds, unknown = run_fresh(code)
    assert loaded == []
    assert kinds.pop("__version__") == "str"
    assert set(kinds.values()) == {"module"}
    assert len(kinds) == len(repro.__all__) - 1
    assert unknown == "AttributeError"

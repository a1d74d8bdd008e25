"""Cold start: neither importing the package nor building a FEMNIST federation loads scipy.

scipy is imported inside the functions that call it (the statistical tests
and the warping trigger's constructor, which builds its displacement field;
applying the trigger is NumPy-only), and ``repro`` imports a subpackage only
when one of its names is first read.  The FEMNIST generator does its image arithmetic in
NumPy, so the driver's dataset build and a distributed worker's context
build load no scipy either: no worker pays the scipy import.  Each check
runs in a fresh interpreter, because this test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_SMOKE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "scenarios", "smoke.json",
)

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


_SMOKE_SCENARIO = f"Scenario.load({_SMOKE!r})"
# The secagg-distributed benchmark workload's federation and model.
_SECAGG_DISTRIBUTED_SCENARIO = (
    "Scenario(num_clients=16, samples_per_client=16, num_classes=10, image_size=16,"
    " hidden=(384,), sample_rate=1.0, attack='collapois', secure_aggregation=True,"
    " backend='distributed', backend_workers=2)"
)


@pytest.mark.parametrize(
    "build",
    [
        f"build_dataset({_SMOKE_SCENARIO})",
        f"build_context(context_payload({_SMOKE_SCENARIO}.to_dict()))",
        f"build_context(context_payload({_SECAGG_DISTRIBUTED_SCENARIO}.to_dict()))",
    ],
    ids=["driver-smoke", "worker-smoke", "worker-secagg-distributed"],
)
def test_building_a_femnist_federation_loads_no_scipy(build):
    code = (
        "from repro.experiments.runner import build_dataset\n"
        "from repro.experiments.scenario import Scenario\n"
        "from repro.federated.engine.distributed.protocol import context_payload\n"
        "from repro.federated.engine.distributed.worker import build_context\n"
        f"built = {build}\n"
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

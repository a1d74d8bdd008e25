"""Warning hygiene: repro's deprecation shims must stay deliberate.

``pytest.ini`` escalates every ``DeprecationWarning`` raised *from repro
modules* to an error, so a stray shim-path call anywhere in the suite fails
loudly instead of scrolling by.  These tests pin the two sides of that
contract: importing and exercising the supported API emits no deprecation
warnings at all, while removed legacy entry points fail with an error that
names their replacement.
"""

from __future__ import annotations

import importlib
import pkgutil
import warnings

import numpy as np
import pytest

import repro


def test_importing_every_repro_module_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing an entry-point module runs its CLI
            importlib.import_module(info.name)


def test_supported_aggregation_path_is_warning_free(rng):
    from repro.defenses.base import AggregationContext, MeanAggregator

    updates = rng.normal(size=(3, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        MeanAggregator()(updates, np.zeros(8), AggregationContext(rng=rng))


def test_legacy_rng_aggregation_is_a_hard_error(rng):
    # The PR 1-era bare-Generator shim graduated from DeprecationWarning to
    # TypeError; the message must point at the replacement.
    from repro.defenses.base import MeanAggregator

    updates = rng.normal(size=(3, 8))
    with pytest.raises(TypeError, match=r"AggregationContext\(rng=rng\)"):
        MeanAggregator()(updates, np.zeros(8), rng)

"""Unit and property-based tests for parameter (de)serialisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.model import make_lenet, make_mlp
from repro.nn.serialization import flatten_params, parameter_count, unflatten_params


class TestFlattenUnflatten:
    def test_roundtrip_identity_mlp(self):
        model = make_mlp(6, (5, 4), 3, seed=2)
        vector = flatten_params(model)
        unflatten_params(model, vector)
        np.testing.assert_allclose(flatten_params(model), vector)

    def test_roundtrip_identity_lenet(self):
        model = make_lenet(image_size=8, num_classes=3, conv_channels=(2, 3), fc_width=8, seed=2)
        vector = flatten_params(model)
        unflatten_params(model, vector)
        np.testing.assert_allclose(flatten_params(model), vector)

    def test_unflatten_writes_values(self):
        model = make_mlp(4, (3,), 2, seed=0)
        target = np.arange(parameter_count(model), dtype=np.float64)
        unflatten_params(model, target)
        np.testing.assert_allclose(flatten_params(model), target)

    def test_length_mismatch_raises(self):
        model = make_mlp(4, (3,), 2, seed=0)
        with pytest.raises(ValueError):
            unflatten_params(model, np.zeros(parameter_count(model) + 1))

    def test_grads_buffer_matches_parameter_count(self, rng):
        model = make_mlp(4, (3,), 2, seed=0)
        x = rng.normal(size=(5, 4))
        out = model.forward(x)
        model.backward(np.ones_like(out))
        assert model.grads.shape == (parameter_count(model),)
        assert np.abs(model.grads).sum() > 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_roundtrip_property(self, seed, scale):
        """Writing any vector into a model and reading it back is the identity."""
        model = make_mlp(5, (4,), 3, seed=0)
        rng = np.random.default_rng(seed)
        vector = rng.normal(0.0, scale, size=parameter_count(model))
        unflatten_params(model, vector)
        np.testing.assert_allclose(flatten_params(model), vector)


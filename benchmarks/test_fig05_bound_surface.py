"""Fig. 5 — 3-D surface of the |C|/|N| lower bound over (µ_α, σ).

Paper: larger µ_α and σ (more scattered benign gradients, i.e. more diverse
local data) reduce the number of compromised clients needed.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.results import format_table
from repro.experiments.theory_figs import alpha_to_bound, bound_surface


def test_fig05_bound_surface():
    surface = bound_surface(resolution=12)
    grid = surface["surface"]
    print("\nFig. 5 — |C|/|N| lower-bound surface (rows: sigma, cols: mu)")
    print(np.array_str(grid, precision=3, suppress_small=True))
    assert grid.shape == (12, 12)
    assert np.all(grid >= 0.0) and np.all(grid <= 1.0)
    # Monotone decrease along both axes (more diversity -> fewer clients).
    assert np.all(np.diff(grid, axis=0) <= 1e-12)
    assert np.all(np.diff(grid, axis=1) <= 1e-12)


def test_fig05_companion_alpha_mapping():
    rows = alpha_to_bound([0.01, 0.1, 1.0, 10.0, 100.0])
    print("\nFig. 5 companion — analytic bound as a function of alpha")
    print(format_table(rows))
    fractions = [row["fraction"] for row in rows]
    assert all(fractions[i] <= fractions[i + 1] + 1e-12 for i in range(len(fractions) - 1))

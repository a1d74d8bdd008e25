"""Declarative sweep suites: grids of scenarios run as one unit.

A :class:`Suite` is a base :class:`~repro.experiments.scenario.Scenario`
plus a list of per-cell override dicts — usually produced by
:meth:`Suite.grid`, which expands keyword axes into their Cartesian product
in axis order (first axis outermost, matching a nested ``for`` loop)::

    Suite.grid(base, defense=[("dp", {...}), ("krum", {...})],
               alpha=[0.1, 0.5], seed=range(3))

Axis values may be any value the scenario field accepts — component fields
take specs (``"krum:num_malicious=2"``, ``(name, kwargs)``), so a defense
axis carries its kwargs without a parallel ``defense_kwargs`` axis.

Running a suite adds three things over a hand-rolled loop:

* **shared-dataset reuse** — cells whose data-defining fields agree (same
  :meth:`Scenario.data_signature`) share one built federation; dataset
  construction is deterministic, so results are identical to rebuilding.
* **engine-backend override** — ``run(backend=..., backend_workers=...)``
  points every cell at another client-execution backend (each cell keeps
  its own RNG streams, so per-cell results are unchanged).
* **JSON round-trip** — a suite serialises to ``{"base": ..., "grid": ...}``
  (or explicit ``"cells"``) and back, so sweeps are runnable from the CLI
  (``python -m repro sweep suite.json``) without writing Python.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.results import ExperimentResult
from repro.experiments.scenario import Scenario
from repro.registry import reject_unknown_keys


@dataclass
class CellResult:
    """Outcome of one suite cell."""

    scenario: Scenario
    overrides: dict
    result: ExperimentResult
    hooks: Sequence = field(default_factory=tuple)


class Suite:
    """A named sweep: one base scenario, many override cells."""

    def __init__(
        self,
        base: Scenario,
        cells: Sequence[dict] | None = None,
        name: str | None = None,
        grid: dict[str, list] | None = None,
    ) -> None:
        if cells is not None and grid is not None:
            raise ValueError("pass either cells or grid, not both")
        self.base = base
        self.name = name
        self._grid = {k: list(v) for k, v in grid.items()} if grid else None
        if self._grid is not None:
            cells = [
                dict(zip(self._grid, combo, strict=True))
                for combo in itertools.product(*self._grid.values())
            ]
        # An explicitly empty cell list (e.g. an empty grid axis, or filter()
        # dropping everything) stays empty; only *omitting* cells means
        # "run the base scenario once".
        self.cells: list[dict] = [{}] if cells is None else [dict(c) for c in cells]

    @classmethod
    def grid(cls, base: Scenario, name: str | None = None, **axes: Iterable) -> "Suite":
        """Cartesian-product suite; axes expand in keyword order."""
        if not axes:
            raise ValueError("grid needs at least one axis")
        return cls(base, name=name, grid={k: list(v) for k, v in axes.items()})

    # -- derived views -----------------------------------------------------

    def scenarios(self) -> list[Scenario]:
        """The resolved scenario of every cell, in grid order."""
        return [self.base.with_overrides(**cell) for cell in self.cells]

    def filter(self, predicate: Callable[[Scenario], bool]) -> "Suite":
        """Keep only cells whose resolved scenario satisfies ``predicate``."""
        kept = [
            cell
            for cell in self.cells
            if predicate(self.base.with_overrides(**cell))
        ]
        return Suite(self.base, cells=kept, name=self.name)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.scenarios())

    # -- execution ---------------------------------------------------------

    def run(
        self,
        backend: str | None = None,
        backend_workers: int | None = None,
        hooks_factory: Callable[[Scenario], Sequence] | None = None,
    ) -> list[CellResult]:
        """Run every cell and return its results in grid order.

        Cells whose data-defining fields agree share one built federation.
        ``backend``/``backend_workers`` override the client-execution
        backend of every cell; ``hooks_factory`` builds per-cell round hooks
        (returned on the :class:`CellResult` for collection).
        """
        from repro.experiments.runner import build_dataset, run_experiment

        scenarios = self.scenarios()
        if backend is not None:
            scenarios = [s.with_overrides(backend=backend) for s in scenarios]
        if backend_workers is not None:
            scenarios = [
                s.with_overrides(backend_workers=backend_workers) for s in scenarios
            ]

        datasets: dict[tuple, tuple] = {}
        for scenario in scenarios:
            signature = scenario.data_signature()
            if signature not in datasets:
                datasets[signature] = build_dataset(scenario)

        def run_cell(scenario: Scenario, overrides: dict) -> CellResult:
            hooks = list(hooks_factory(scenario)) if hooks_factory is not None else None
            result = run_experiment(
                scenario,
                hooks=hooks,
                prebuilt_data=datasets[scenario.data_signature()],
            )
            return CellResult(
                scenario=scenario,
                overrides=overrides,
                result=result,
                hooks=tuple(hooks or ()),
            )

        return [run_cell(s, o) for s, o in zip(scenarios, self.cells, strict=True)]

    @staticmethod
    def cell_rows(
        cells: Sequence[CellResult],
        *cell_fields: str,
        metrics: Sequence[str] = ("benign_accuracy", "attack_success_rate"),
    ) -> list[dict]:
        """Flatten already-run cells into table rows.

        Each row carries the requested scenario fields followed by the
        requested result metrics — the shape the figure sweeps and
        :func:`repro.experiments.results.format_table` consume.  Callers
        that need the :class:`CellResult` objects as well (e.g. the CLI,
        which also serialises the full per-cell results) run the suite once
        and build rows from the cells.
        """
        return [
            {
                **{name: getattr(cr.scenario, name) for name in cell_fields},
                **{name: getattr(cr.result, name) for name in metrics},
            }
            for cr in cells
        ]

    def rows(
        self,
        *cell_fields: str,
        metrics: Sequence[str] = ("benign_accuracy", "attack_success_rate"),
        **run_kwargs,
    ) -> list[dict]:
        """Run the suite and flatten it into table rows (see :meth:`cell_rows`)."""
        return self.cell_rows(self.run(**run_kwargs), *cell_fields, metrics=metrics)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        data: dict = {"base": self.base.to_dict()}
        if self.name is not None:
            data["name"] = self.name
        if self._grid is not None:
            data["grid"] = {k: list(v) for k, v in self._grid.items()}
        else:
            data["cells"] = [dict(c) for c in self.cells]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Suite":
        reject_unknown_keys(data, {"base", "grid", "cells", "name"}, "suite")
        if "base" not in data:
            raise ValueError("a suite needs a 'base' scenario")
        base = Scenario.from_dict(data["base"])
        return cls(
            base,
            cells=data.get("cells"),
            grid=data.get("grid"),
            name=data.get("name"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Suite":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Suite":
        return cls.from_json(Path(path).read_text())


__all__ = ["CellResult", "Suite"]

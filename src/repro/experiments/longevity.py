"""Longevity / stability experiment (Fig. 13 of the paper).

Tracks Benign AC and Attack SR round by round for CollaPois and MRepl.  The
paper's observation: MRepl causes an abrupt shift when its replacement round
fires and then decays, whereas CollaPois rises steadily and persists.

The sweep is a one-axis :class:`~repro.experiments.suite.Suite`; the
per-round series is collected through the server's typed hook pipeline (a
:class:`RoundSeriesHook` built per cell by the suite's ``hooks_factory``)
rather than by scraping the history afterwards.
"""

from __future__ import annotations

from repro.experiments.scenario import Scenario
from repro.experiments.suite import Suite
from repro.federated.engine.hooks import RoundHook


class RoundSeriesHook(RoundHook):
    """Collects the per-round evaluation series as it is produced.

    Runs after the server's :class:`~repro.federated.engine.hooks.EvaluationHook`
    (constructor hooks are registered first), so the record already carries
    the round's metrics when this hook sees it.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def on_round_end(self, server, plan, record) -> None:
        if record.benign_accuracy is None:
            return
        self.rows.append(
            {
                "round": record.round_idx,
                "benign_accuracy": record.benign_accuracy,
                "attack_success_rate": record.attack_success_rate,
            }
        )


def longevity_analysis(
    base_config: Scenario,
    attacks: list[str] = ("collapois", "mrepl"),
    eval_every: int = 1,
) -> dict[str, list[dict]]:
    """Per-round Benign AC / Attack SR series for each attack."""
    suite = Suite.grid(
        base_config.with_overrides(eval_every=eval_every),
        name="longevity",
        attack=list(attacks),
    )
    results = suite.run(hooks_factory=lambda _s: [RoundSeriesHook()])
    return {cell.scenario.attack: cell.hooks[0].rows for cell in results}

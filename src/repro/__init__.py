"""repro — reproduction of the CollaPois collaborative backdoor poisoning study.

This library re-implements, end to end and without external ML frameworks,
the system evaluated in "A Client-level Assessment of Collaborative Backdoor
Poisoning in Non-IID Federated Learning" (ICDCS 2025):

* a federated-learning simulator with FedAvg / FedDC / MetaFed training,
* Dirichlet-skewed synthetic FEMNIST-like and Sentiment-like federations,
* the CollaPois attack and the DPois / MRepl / DBA baselines,
* the Table-I catalogue of robust-aggregation defenses,
* client-level evaluation metrics and the paper's theoretical bounds,
* an experiment harness regenerating every figure of the evaluation.

Quickstart
----------
>>> from repro.experiments import Scenario, run_experiment
>>> config = Scenario(dataset="femnist", num_clients=20, rounds=5,
...                   attack="collapois", alpha=0.1)
>>> result = run_experiment(config)
>>> round(result.evaluation.mean_attack_success_rate, 2)  # doctest: +SKIP
0.93
"""

from repro import analysis, attacks, core, data, defenses, federated, metrics, nn, registry

__version__ = "1.1.0"

__all__ = [
    "nn",
    "data",
    "federated",
    "attacks",
    "core",
    "defenses",
    "metrics",
    "analysis",
    "registry",
    "__version__",
]

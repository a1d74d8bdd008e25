"""Client-level risk experiments (Figs. 11 and 12 of the paper).

These experiments answer the paper's central question — *which* clients are
infected and *why* — by clustering benign clients on their Eq.-8 scores and
relating each cluster's Attack SR to the cosine similarity between its label
distribution and the attacker's auxiliary data.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import run_experiment
from repro.experiments.scenario import Scenario
from repro.metrics.client_level import cluster_clients_by_score, cluster_metrics
from repro.metrics.similarity import cluster_similarity


def client_cluster_analysis(config: Scenario) -> dict:
    """Fig. 11: per-client Benign AC / Attack SR plus cluster averages."""
    result = run_experiment(config)
    clusters = cluster_clients_by_score(result.evaluation)
    metrics = cluster_metrics(result.evaluation, clusters)
    return {
        "per_client_benign_accuracy": result.evaluation.benign_accuracy,
        "per_client_attack_success_rate": result.evaluation.attack_success_rate,
        "clusters": clusters,
        "cluster_metrics": metrics,
        "result": result,
    }


def label_similarity_analysis(config: Scenario) -> list[dict]:
    """Fig. 12: cluster-level cosine similarity to Da vs cluster Attack SR.

    The expected shape (which the benchmark asserts) is monotone: clusters
    with higher similarity to the auxiliary data have higher Attack SR.
    """
    analysis = client_cluster_analysis(config)
    result = analysis["result"]
    dataset = result.extras["dataset"]
    benign_ids = result.evaluation.client_ids
    client_counts = np.stack([dataset.client(c).class_counts for c in benign_ids])
    auxiliary_counts = dataset.auxiliary_class_counts(result.compromised_ids)
    similarity = cluster_similarity(client_counts, auxiliary_counts, analysis["clusters"])
    rows: list[dict] = []
    for name, metrics in analysis["cluster_metrics"].items():
        rows.append(
            {
                "cluster": name,
                "cosine_similarity": similarity[name],
                "attack_success_rate": metrics["attack_success_rate"],
                "benign_accuracy": metrics["benign_accuracy"],
                "num_clients": metrics["num_clients"],
            }
        )
    return rows

"""Synthetic Sentiment140-like text-feature data.

The paper's Sentiment task runs a frozen BERT tokenizer/encoder and trains
only a small fully connected head on the resulting features.  Reproducing
this offline requires neither BERT nor tweets: what the federated/backdoor
dynamics see is a *fixed feature vector per sample* with class structure.

This generator produces exactly that: each sample is a mean-pooled bag of
token embeddings, where token frequencies are class-conditional (positive and
negative "vocabulary" clusters) and the embedding table is a frozen random
projection.  A text Trojan (fixed trigger term, as in the paper's reference
[36]) corresponds to adding the trigger token's embedding to the pooled
feature — implemented by :class:`repro.attacks.triggers.TokenTrigger`.

Determinism contract: a client's samples are generated class by class, in
class order, from one generator seeded with ``client_seed``.  Per sample it
draws ``tokens_per_sample`` uniforms, then ``embedding_dim`` normals of
noise.  A uniform ``u`` picks token ``searchsorted(cdf, u, side="right")``
on its class's token CDF, built as ``Generator.choice(p=...)`` builds it, so
the tokens are the ones ``choice`` would have drawn.  Reordering these draws
changes every client of every seed.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset, class_count_vector
from repro.registry import DATASETS


@DATASETS.register("sentiment")
class SyntheticSentiment:
    """Generator of class-conditional bag-of-embedding text features."""

    def __init__(
        self,
        num_classes: int = 2,
        vocab_size: int = 200,
        embedding_dim: int = 32,
        tokens_per_sample: int = 12,
        class_sharpness: float = 3.0,
        noise_std: float = 0.05,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if vocab_size < num_classes * 4:
            raise ValueError("vocab_size too small for the number of classes")
        if tokens_per_sample < 1:
            raise ValueError("tokens_per_sample must be at least 1")
        self.num_classes = num_classes
        self.vocab_size = vocab_size
        self.embedding_dim = embedding_dim
        self.tokens_per_sample = tokens_per_sample
        self.noise_std = noise_std
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Frozen "pre-trained" embedding table (the BERT stand-in).
        self.embeddings = rng.normal(0.0, 1.0, size=(vocab_size, embedding_dim))
        # Class-conditional token distributions: each class prefers a
        # distinct slice of the vocabulary, with peakedness set by
        # class_sharpness.
        logits = rng.normal(0.0, 1.0, size=(num_classes, vocab_size))
        slice_size = vocab_size // num_classes
        for cls in range(num_classes):
            logits[cls, cls * slice_size : (cls + 1) * slice_size] += class_sharpness
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        self.token_probs = exp / exp.sum(axis=1, keepdims=True)
        # Each class's token CDF, built as Generator.choice(p=...) builds it:
        # cumsum, then divide by the last entry.
        cdf = self.token_probs.cumsum(axis=1)
        self._token_cdf = cdf / cdf[:, -1:]
        # Reserve the last vocabulary index as the backdoor trigger token.
        self.trigger_token = vocab_size - 1

    def trigger_embedding(self) -> np.ndarray:
        """Embedding contribution of the fixed trigger term."""
        return self.embeddings[self.trigger_token] / self.tokens_per_sample

    def sample_client(self, class_counts: np.ndarray, client_seed: int) -> Dataset:
        """Generate one client's dataset from a per-class count vector."""
        class_counts = class_count_vector(class_counts, self.num_classes)
        rng = np.random.default_rng(client_seed)
        total = int(class_counts.sum())
        k, dim = self.tokens_per_sample, self.embedding_dim
        uniforms = np.empty((total, k))
        noise = np.empty((total, dim))
        for i in range(total):
            uniforms[i] = rng.random(k)
            noise[i] = rng.normal(0.0, self.noise_std, dim)
        tokens = np.empty((total, k), dtype=np.int64)
        start = 0
        for cls, count in enumerate(class_counts):
            block = slice(start, start + count)
            tokens[block] = self._token_cdf[cls].searchsorted(uniforms[block], side="right")
            start += count
        # sum / k is what .mean computes, in the same order.
        x = self.embeddings[tokens].sum(axis=1) / k + noise
        y = np.repeat(np.arange(self.num_classes, dtype=np.int64), class_counts)
        return Dataset(x, y)

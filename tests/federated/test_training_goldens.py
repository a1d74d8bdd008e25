"""Golden digests of local training and of the Trojaned model X.

Every benign client's update (``local_train``) and the attacker's model X
(``train_trojan_model``) come out of one epoch loop,
:func:`repro.federated.client.train_epochs`.  The digests below pin their
bytes for the three model families — an MLP, the text head and LeNet —
under a plain configuration and one with momentum, weight decay and a
proximal term, so a change to the layers, the loss or the loop that keeps
its arithmetic must keep every digest.  The perf benchmark's recorded
histories run no conv model; this file is what pins LeNet's serial path.

The GEMMs round differently under different BLAS kernels, so the digests
hold on the host they were recorded on (:data:`GOLDEN_HOST`) and the tests
skip elsewhere.  To re-record, run this file as a script
(``PYTHONPATH=src python tests/federated/test_training_goldens.py``) on
a commit whose arithmetic is trusted.
"""

from __future__ import annotations

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.trojan import train_trojan_model
from repro.data.dataset import Dataset
from repro.federated.client import LocalTrainingConfig, local_train
from repro.nn.model import make_lenet, make_mlp, make_text_head
from repro.nn.serialization import flatten_params

#: name -> (factory, per-sample input shape, classes)
MODELS = {
    "mlp": (lambda: make_mlp(12, (10, 8), 4, seed=3), (12,), 4),
    "text": (
        lambda: make_text_head(embedding_dim=16, hidden=12, num_classes=2, seed=3), (16,), 2
    ),
    "lenet": (
        lambda: make_lenet(
            image_size=8, num_classes=4, conv_channels=(3, 5), fc_width=10, seed=3
        ),
        (1, 8, 8),
        4,
    ),
}

#: 23 samples in batches of 5: every epoch ends on a partial batch.
CONFIGS = {
    "plain": LocalTrainingConfig(epochs=3, batch_size=5, lr=0.05),
    "momentum-wd-prox": LocalTrainingConfig(
        epochs=3, batch_size=5, lr=0.05, momentum=0.9, weight_decay=1e-3, proximal_mu=0.1
    ),
}

GOLDEN_HOST = (
    "numpy 2.4.6; OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64"
)

#: "<model>/<run>" -> sha256 of the run's output bytes on GOLDEN_HOST.
GOLDEN = {
    "mlp/plain": "d7ddca075b1325d3f20347161bc130fbbceaa2ea94efa2b6f52dcf8d613a7bb6",
    "mlp/momentum-wd-prox": "e518652414465dc50696747571f75939af1d1be87546deeaa802d64202c201a7",
    "mlp/trojan": "671b44d88b5a85a929e5adec00f3c9dcdd045c53893ae385bc102e92dbc2aabd",
    "text/plain": "c0c1f9f70e444d3066d0258c718f497a6b322babbc89956c333afcaea071b8e1",
    "text/momentum-wd-prox": "d0c1370dcfbc76988695ce84b57648dcbda8182c1895872213471c97965f8172",
    "text/trojan": "020abbb54fe0d5ff7ef85b70c451cfdb028c451c763be36529ea06fb68a91390",
    "lenet/plain": "87c9578d6fd961e0b436275c0a36577794f4dfe4ede94378e741b5df8381582b",
    "lenet/momentum-wd-prox": "7aa5e7abb6e92b166f90c43e3d797e736682e47d5aea95559c8f62c9e22df805",
    "lenet/trojan": "2a8b46bcfb155621be70c6a956b44fdedb8a2aa112b416ecd66ce2938a6400ce",
}


def host() -> str:
    """numpy's version and the build config of the OpenBLAS it loaded.

    The config names the CPU kernel OpenBLAS picked at run time, which is
    what decides how a GEMM rounds.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            config = getattr(lib, name, None)
            if config is not None:
                config.restype = ctypes.c_char_p
                return f"numpy {np.__version__}; {config().decode().strip()}"
    return f"numpy {np.__version__}; BLAS unknown"


def _data(model: str) -> Dataset:
    _, input_shape, classes = MODELS[model]
    rng = np.random.default_rng(5)
    return Dataset(rng.normal(size=(23, *input_shape)), rng.integers(0, classes, size=23))


def digest(model: str, run: str) -> str:
    """sha256 of one run's output: ``Δθ`` and the loss, or the trained X."""
    factory = MODELS[model][0]
    data = _data(model)
    if run == "trojan":
        out = train_trojan_model(
            factory, data, epochs=3, lr=0.05, batch_size=5, momentum=0.9, seed=4
        ).tobytes()
    else:
        update, loss = local_train(
            factory(), flatten_params(factory()), data, CONFIGS[run],
            np.random.default_rng(17),
        )
        out = update.tobytes() + np.float64(loss).tobytes()
    return hashlib.sha256(out).hexdigest()


RUNS = [f"{model}/{run}" for model in MODELS for run in (*CONFIGS, "trojan")]


@pytest.mark.parametrize("case", RUNS)
def test_output_matches_golden_digest(case):
    this_host = host()
    if this_host != GOLDEN_HOST:
        pytest.skip(f"digests recorded on {GOLDEN_HOST!r}, this host is {this_host!r}")
    assert digest(*case.split("/")) == GOLDEN[case]


if __name__ == "__main__":
    print(f"GOLDEN_HOST = {host()!r}")
    for case in RUNS:
        print(f'    "{case}": "{digest(*case.split("/"))}",')

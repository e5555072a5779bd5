"""Every generated dataset, pinned by sha256.

``data/dataset_digests.json`` holds the digest of every registered
``(kernel, dataset)`` generator output and of the Fig 7
microbenchmark index streams (scenarios A-D, widths 1/4/16, 1 and 16
threads), computed when the generators still drew from
``numpy.random.default_rng``.  They must not move: the 84 goldens are
simulations of exactly these inputs.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.kernels.micro import SCENARIOS, Micro
from repro.kernels.registry import make_kernel
from repro.workloads.datasets import _SPECS

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "dataset_digests.json").read_text()
)

#: The attribute each kernel keeps its generated dataset in.
DATASET_ATTR = {
    "hip": "pixels",
    "tms": "matrix",
    "fs": "system",
    "gps": "system",
    "smc": "field",
    "gbc": "scene",
    "mfp": "network",
}

MICRO_CASES = [
    (scenario, width, threads)
    for scenario in SCENARIOS
    for width in (1, 4, 16)
    for threads in (1, 16)
]


def canonical(value):
    """``value`` as plain JSON data: dataclasses as field dicts, dicts
    as sorted ``[key, value]`` pairs, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return sorted(
            [canonical(k), canonical(v)] for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    assert type(value) in (int, float, str, bool, type(None)), type(value)
    return value


def digest(value) -> str:
    payload = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize(
    "kernel,dataset", sorted(_SPECS), ids=[f"{k}:{d}" for k, d in sorted(_SPECS)]
)
def test_dataset_digest(kernel, dataset):
    data = getattr(make_kernel(kernel, dataset, 1), DATASET_ATTR[kernel])
    assert digest(data) == DIGESTS[f"{kernel}:{dataset}"]


@pytest.mark.parametrize(
    "scenario,width,threads", MICRO_CASES,
    ids=[f"{s}:w{w}:t{t}" for s, w, t in MICRO_CASES],
)
def test_micro_index_digest(scenario, width, threads):
    micro = Micro(threads, scenario=scenario)
    micro._build_indices(width)
    key = f"micro:{scenario}:w{width}:t{threads}"
    assert digest(micro._indices) == DIGESTS[key]


def test_every_pinned_digest_is_checked():
    checked = {f"{k}:{d}" for k, d in _SPECS} | {
        f"micro:{s}:w{w}:t{t}" for s, w, t in MICRO_CASES
    }
    assert checked == set(DIGESTS)

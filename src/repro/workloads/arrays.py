"""Array-sum workload for the data-locality experiment (Figure 5, §6.1.2).

The task: return the sum of all elements across 10 input arrays, with array
lengths swept from 1,000 to 1,000,000 elements (8 bytes each), i.e. 80 KB to
80 MB of total input per request.  The computation is light; the experiment
isolates data-movement costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..sim import ComputeModel

#: The four total-input sizes shown on Figure 5's x axis.
FIGURE5_TOTAL_SIZES = ("80KB", "800KB", "8MB", "80MB")

#: Elements per array for each figure label (10 arrays per request, float64).
ELEMENTS_PER_ARRAY = {
    "80KB": 1_000,
    "800KB": 10_000,
    "8MB": 100_000,
    "80MB": 1_000_000,
}

ARRAYS_PER_REQUEST = 10


def make_arrays(label: str, seed: int = 0) -> List[np.ndarray]:
    """Create the input arrays for one request at the given size label."""
    if label not in ELEMENTS_PER_ARRAY:
        raise ValueError(f"unknown size label {label!r}; expected one of "
                         f"{sorted(ELEMENTS_PER_ARRAY)}")
    elements = ELEMENTS_PER_ARRAY[label]
    rng = np.random.default_rng(seed)
    return [rng.random(elements) for _ in range(ARRAYS_PER_REQUEST)]


def total_bytes(label: str) -> int:
    return ELEMENTS_PER_ARRAY[label] * 8 * ARRAYS_PER_REQUEST


def sum_arrays(*arrays: np.ndarray) -> float:
    """The user function: the sum of all elements across the input arrays."""
    return float(sum(np.sum(array) for array in arrays))


def sum_arrays_with_library(cloudburst, *arrays: np.ndarray) -> float:
    """Cloudburst variant: also charges the simulated compute cost of the sum."""
    elements = sum(int(array.size) for array in arrays)
    compute = ComputeModel()
    cloudburst.simulate_compute(compute.per_element_ns * elements / 1e6)
    return sum_arrays(*arrays)


@dataclass
class LocalityWorkloadKeys:
    """Key names for one request's input arrays."""

    label: str
    keys: List[str]

    @classmethod
    def shared(cls, label: str) -> "LocalityWorkloadKeys":
        """The hot configuration: every request reads the same arrays."""
        keys = [f"locality/{label}/shared/array{i}" for i in range(ARRAYS_PER_REQUEST)]
        return cls(label=label, keys=keys)

"""Workload generators shared by the benchmarks, tests and examples."""

from ..sim import ZipfGenerator
from .arrays import (
    ARRAYS_PER_REQUEST,
    ELEMENTS_PER_ARRAY,
    FIGURE5_TOTAL_SIZES,
    LocalityWorkloadKeys,
    make_arrays,
    sum_arrays,
    sum_arrays_with_library,
)
from .dags import ConsistencyWorkload, GeneratedDag, sink_write, string_manipulation
from .social import RetwisRequest, SocialGraph, SocialWorkloadGenerator

__all__ = [
    "ZipfGenerator",
    "ARRAYS_PER_REQUEST",
    "ELEMENTS_PER_ARRAY",
    "FIGURE5_TOTAL_SIZES",
    "LocalityWorkloadKeys",
    "make_arrays",
    "sum_arrays",
    "sum_arrays_with_library",
    "ConsistencyWorkload",
    "GeneratedDag",
    "sink_write",
    "string_manipulation",
    "RetwisRequest",
    "SocialGraph",
    "SocialWorkloadGenerator",
]

"""``run_model`` pools the image in one pass (DESIGN.md DR-14).

The stage's virtual cost is declared (``MODEL_COMPUTE_MS``); its numpy body is
host time only, and was half of ``predict_dag``'s because
``mean(axis=(0, 1))`` walks the strided view ``resize_image`` returns five
times slower than one ``einsum`` pass.  The kernel it replaced is kept here as
the reference: sums are taken in another order, so logits agree to a
tolerance fixed beforehand (float64, ~1e5 addends of order 1) and the served
label must be the same.
"""

from time import perf_counter

import numpy as np
import pytest

from repro.apps.prediction import (
    make_image,
    make_model_weights,
    render_prediction,
    resize_image,
    run_model,
)

LOGIT_TOLERANCE = 1e-12


def _run_model_with_mean(resized, weights):
    """``run_model`` as it was: pooled by ``mean`` over both image axes."""
    pooled = resized.mean(axis=(0, 1))
    features = np.tanh(pooled @ weights["conv"])
    return features @ weights["classifier"]


@pytest.mark.parametrize("contiguous", [False, True], ids=["strided", "contiguous"])
@pytest.mark.parametrize("seed", range(10))
def test_one_pass_pooling_serves_what_the_mean_kernel_served(seed, contiguous):
    resized = resize_image(make_image(side=512, seed=seed))
    assert not resized.flags["C_CONTIGUOUS"]  # what the pipeline hands on
    if contiguous:
        resized = np.ascontiguousarray(resized)
    weights = make_model_weights()
    logits, expected = run_model(resized, weights), _run_model_with_mean(resized, weights)
    assert logits.shape == expected.shape
    assert np.max(np.abs(logits - expected)) <= LOGIT_TOLERANCE
    assert render_prediction(logits)["label"] == render_prediction(expected)["label"]


def test_pooling_takes_whatever_shape_it_is_given():
    """No 224 x 224 baked in: a small image pools over its own extent."""
    image = make_image(side=100, seed=3)  # stride 1: resize returns it whole
    weights = make_model_weights()
    assert np.allclose(run_model(resize_image(image), weights),
                       _run_model_with_mean(image, weights), rtol=0, atol=LOGIT_TOLERANCE)


def test_one_pass_pooling_is_three_times_faster_on_a_strided_view():
    """A same-process ratio, never seconds: min of 5 alternating timings.

    The view has ``resize_image``'s stride pattern (every other pixel of every
    other row) but stays in cache.  On the full 512-pixel image the new kernel
    is memory-bound, so a neighbour's memory traffic narrows the ratio from
    ~4.9x to ~2.3x (measured with two ``ndarray.copy`` loops running beside
    it) while this one held 4.1-4.6x: what is pinned is the traversal.
    """
    view = make_image(side=128, seed=0)[::2, ::2, :]
    assert view.strides == (2 * 128 * 24, 48, 8)
    weights = make_model_weights()

    def seconds(kernel):
        started = perf_counter()
        for _ in range(50):
            kernel(view, weights)
        return perf_counter() - started

    old, new = [], []
    for _ in range(5):
        old.append(seconds(_run_model_with_mean))
        new.append(seconds(run_model))
    assert min(old) >= 3.0 * min(new), (min(old), min(new))

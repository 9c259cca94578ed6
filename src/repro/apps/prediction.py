"""Prediction-serving case study (§6.3.1, Figures 9 and 10).

The paper builds a three-stage pipeline around the MobileNet image
classifier: resize the input image, run the model, and combine features to
render a prediction.  TensorFlow is not available offline, so the model here
is a *mock MobileNet*: a numpy convolution-and-matmul stack with the same
input/output shapes and a calibrated simulated compute cost (~175 ms, putting
the native-Python pipeline at the paper's ~210 ms).  The experiment measures
orchestration and data-movement overhead around an opaque ~200 ms model, so
the substitution preserves what the figure shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..baselines import (
    LambdaComposition,
    NativePython,
    SageMaker,
    SimulatedLambda,
    SimulatedS3,
)
from ..cloudburst import CloudburstClient, CloudburstCluster
from ..sim import LatencyModel, RequestContext

#: Simulated compute cost of each stage on one c5.2xlarge core (milliseconds).
RESIZE_COMPUTE_MS = 22.0
MODEL_COMPUTE_MS = 175.0
RENDER_COMPUTE_MS = 8.0

#: Mock ImageNet-style label space.
LABEL_COUNT = 1000
MODEL_INPUT_SIZE = 224


def make_image(side: int = 512, seed: int = 0) -> np.ndarray:
    """A synthetic RGB input image."""
    rng = np.random.default_rng(seed)
    return rng.random((side, side, 3), dtype=np.float64)


def make_model_weights() -> Dict[str, np.ndarray]:
    """Mock MobileNet weights: a feature projection plus a classifier head."""
    rng = np.random.default_rng(1)
    return {
        "conv": rng.standard_normal((3, 8)) * 0.1,
        "classifier": rng.standard_normal((8, LABEL_COUNT)) * 0.1,
    }


# -- pipeline stages (plain functions usable on every platform) --------------------------
def resize_image(image: np.ndarray) -> np.ndarray:
    """Stage 1: downsample the input image to the model's input resolution."""
    side = image.shape[0]
    stride = max(1, side // MODEL_INPUT_SIZE)
    resized = image[::stride, ::stride, :]
    return resized[:MODEL_INPUT_SIZE, :MODEL_INPUT_SIZE, :]


resize_image._cloudburst_compute_ms = RESIZE_COMPUTE_MS


def run_model(resized: np.ndarray, weights: Optional[Dict[str, np.ndarray]] = None
              ) -> np.ndarray:
    """Stage 2: the mock MobileNet — pooled features through a classifier head."""
    if weights is None:
        weights = make_model_weights()
    # One pass over the view as given: ``resize_image`` hands on a strided
    # slice, which ``mean(axis=(0, 1))`` reduces ~5x slower (DESIGN.md DR-14).
    height, width, _ = resized.shape
    pooled = np.einsum("hwc->c", resized) / (height * width)  # (3,)
    features = np.tanh(pooled @ weights["conv"])  # (8,)
    logits = features @ weights["classifier"]  # (LABEL_COUNT,)
    return logits


run_model._cloudburst_compute_ms = MODEL_COMPUTE_MS


def render_prediction(logits: np.ndarray) -> Dict[str, object]:
    """Stage 3: combine features into the served prediction."""
    top = int(np.argmax(logits))
    exp = np.exp(logits - logits.max())
    probabilities = exp / exp.sum()
    return {"label": f"class-{top:04d}", "confidence": float(probabilities[top])}


render_prediction._cloudburst_compute_ms = RENDER_COMPUTE_MS


# -- Cloudburst deployment -------------------------------------------------------------------
MODEL_KEY = "prediction/mobilenet-weights"
PIPELINE_DAG = "prediction-pipeline"


def _cb_resize(image: np.ndarray) -> np.ndarray:
    return resize_image(image)


_cb_resize._cloudburst_compute_ms = RESIZE_COMPUTE_MS


def _cb_model(cloudburst, resized: np.ndarray) -> np.ndarray:
    """Cloudburst stage 2: the model weights come from Anna (4 extra LOC)."""
    weights = cloudburst.get(MODEL_KEY)
    return run_model(resized, weights)


_cb_model._cloudburst_compute_ms = MODEL_COMPUTE_MS


def _cb_render(logits: np.ndarray) -> Dict[str, object]:
    return render_prediction(logits)


_cb_render._cloudburst_compute_ms = RENDER_COMPUTE_MS


@dataclass
class PredictionDeployment:
    """A registered prediction pipeline on one Cloudburst cluster."""

    cluster: CloudburstCluster
    client: CloudburstClient

    def serve_future(self, image: np.ndarray):
        """Invoke the pipeline; returns the invocation's CloudburstFuture.

        The future is pending (the DAG stages run as engine events); resolve
        it with ``future.get()`` or subscribe with
        ``future.add_done_callback``.
        """
        return self.client.call_dag(PIPELINE_DAG, {"cb_resize": [image]})

    def serve(self, image: np.ndarray) -> Tuple[Dict[str, object], float]:
        """Serve one prediction to completion; returns (prediction, latency ms)."""
        result = self.serve_future(image).result()
        return result.value, result.latency_ms


def deploy_on_cloudburst(cluster: CloudburstCluster) -> PredictionDeployment:
    """Register the three pipeline stages and the DAG on a cluster."""
    client = cluster.connect("prediction-client")
    client.put(MODEL_KEY, make_model_weights())
    client.register(_cb_resize, name="cb_resize")
    client.register(_cb_model, name="cb_model")
    client.register(_cb_render, name="cb_render")
    client.register_dag(PIPELINE_DAG, ["cb_resize", "cb_model", "cb_render"],
                        [("cb_resize", "cb_model"), ("cb_model", "cb_render")])
    return PredictionDeployment(cluster=cluster, client=client)


# -- baseline deployments ------------------------------------------------------------------------
class PredictionBaselines:
    """The Figure 9 comparison points: Python, SageMaker, Lambda mock/actual."""

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        self.latency_model = latency_model or LatencyModel()
        self.weights = make_model_weights()
        self._stage_names = ["resize", "model", "render"]

        self.python = NativePython(self.latency_model)
        self.sagemaker = SageMaker(self.latency_model)
        self.lambda_platform = SimulatedLambda(self.latency_model)
        self.s3 = SimulatedS3(self.latency_model)
        self.s3.preload("model-weights", self.weights)

        for platform in (self.python, self.sagemaker):
            platform.register(resize_image, "resize")
            platform.register(self._model_stage, "model")
            platform.register(render_prediction, "render")
        self.lambda_platform.register(resize_image, "resize")
        self.lambda_platform.register(self._model_stage, "model")
        self.lambda_platform.register(render_prediction, "render")

    def _model_stage(self, resized: np.ndarray) -> np.ndarray:
        return run_model(resized, self.weights)

    _model_stage._cloudburst_compute_ms = MODEL_COMPUTE_MS

    # -- the four baseline request paths -------------------------------------------------
    def run_python(self, image: np.ndarray, ctx: RequestContext) -> Dict[str, object]:
        return self.python.run_pipeline(self._stage_names, image, ctx)

    def run_sagemaker(self, image: np.ndarray, ctx: RequestContext) -> Dict[str, object]:
        return self.sagemaker.invoke_endpoint(self._stage_names, image, ctx)

    def run_lambda_mock(self, image: np.ndarray, ctx: RequestContext) -> Dict[str, object]:
        """Lambda (Mock): compute isolated from data movement — results are
        passed through the Lambda API but no model/image bytes are charged."""
        composition = LambdaComposition(self.lambda_platform)
        value: object = image
        for name in self._stage_names:
            value = self.lambda_platform.invoke(name, (value,), ctx, payload_bytes=0)
        return value  # type: ignore[return-value]

    def run_lambda_actual(self, image: np.ndarray, ctx: RequestContext) -> Dict[str, object]:
        """Lambda (Actual): full data movement — the image moves through the
        Lambda API between stages and the model stage pulls its weights from S3
        on every invocation (the 512 MB container limit prevents bundling)."""
        value: object = image
        for name in self._stage_names:
            if name == "model":
                self.s3.get("model-weights", ctx)
            value = self.lambda_platform.invoke(name, (value,), ctx)
        return value  # type: ignore[return-value]

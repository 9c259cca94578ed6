"""Property-based tests for statistics helpers and size estimation."""

from hypothesis import given, settings, strategies as st

from repro.lattices import estimate_size
from repro.sim import LatencyRecorder, mean, median, percentile

samples = st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                             allow_infinity=False), min_size=1, max_size=200)


@settings(max_examples=100, deadline=None)
@given(samples)
def test_percentiles_bounded_by_min_and_max(values):
    for pct in (0, 25, 50, 90, 99, 100):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)


@settings(max_examples=100, deadline=None)
@given(samples)
def test_percentiles_monotone_in_pct(values):
    results = [percentile(values, pct) for pct in (0, 10, 50, 90, 100)]
    assert results == sorted(results)


@settings(max_examples=100, deadline=None)
@given(samples)
def test_percentile_invariant_under_permutation(values):
    assert percentile(values, 75) == percentile(list(reversed(values)), 75)


@settings(max_examples=100, deadline=None)
@given(samples)
def test_mean_between_min_and_max(values):
    # A tiny tolerance absorbs floating-point summation error.
    slack = 1e-6 * max(1.0, max(values))
    assert min(values) - slack <= mean(values) <= max(values) + slack


@settings(max_examples=100, deadline=None)
@given(samples, st.floats(min_value=0.5, max_value=3.0))
def test_percentile_scales_linearly(values, factor):
    scaled = [v * factor for v in values]
    assert percentile(scaled, 50) == __import__("pytest").approx(
        median(values) * factor, rel=1e-9, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(samples)
def test_a_recorder_summary_is_the_exact_percentiles_of_its_samples(values):
    recorder = LatencyRecorder(label="exact")
    for value in values:
        recorder.record(value)
    summary = recorder.summary()
    assert recorder.samples_ms == values
    assert (summary.count, summary.min_ms, summary.max_ms) == (
        len(values), min(values), max(values))
    assert summary.mean_ms == mean(values)
    assert (summary.median_ms, summary.p95_ms, summary.p99_ms) == (
        percentile(values, 50), percentile(values, 95), percentile(values, 99))


nested_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=20), st.binary(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(nested_values)
def test_estimate_size_is_positive_and_monotone_under_nesting(value):
    size = estimate_size(value)
    assert size >= 1
    assert estimate_size([value, value]) >= size

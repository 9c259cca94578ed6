"""Figure 11: Retwis request latency on Cloudburst (LWW and causal) vs Redis.

Paper claim: Cloudburst's LWW median is ~27% above the serverful Redis
deployment, causal mode adds a modest overhead (~4% median, ~20% tail) over
LWW, and causal consistency prevents the reply-without-original anomaly that
appears on >60% of LWW timeline requests.
"""

from conftest import emit, scale

from repro.bench import run_figure11


def test_figure11_retwis(bench_once):
    experiment = bench_once(run_figure11, requests=scale(2000), user_count=1000,
                            seed_tweets=5000, executor_vms=4,
                            propagation_interval_ms=200.0, seed=0)
    emit("Figure 11: Retwis request latency", experiment.comparison.as_table())
    emit("Figure 11: anomaly rates (timeline requests showing a reply without "
         "its original)", "\n".join([
             f"Cloudburst (LWW):    {experiment.anomaly_rate_lww:.1%}   (paper: >60%)",
             f"Cloudburst (Causal): {experiment.anomaly_rate_causal:.1%}   (paper: prevented)",
         ]))
    comparison = experiment.comparison
    assert comparison.median("Redis") < comparison.median("Cloudburst (LWW)")
    assert experiment.anomaly_rate_causal < experiment.anomaly_rate_lww

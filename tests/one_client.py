"""The same closed loop, two ways: a plain top-level loop and a one-client run.

A client operation issued without a context starts at the engine's current
time and returns with the engine at the operation's completion time, so a
plain loop of calls is one closed-loop client — exactly what
``EngineLoadDriver(clients=1)`` runs.  The parity tests build two identically
seeded clusters, drive one each way and compare the latencies sample for
sample (``pytest.approx(rel=1e-9)``: the two runs start at different virtual
times, which re-associates a few floating-point sums and nothing else).

``request_fn(cloud, ctx, index)`` is a driver request function; the top-level
loop passes ``ctx=None``.
"""

from repro.bench.harness import EngineLoadDriver

LABEL = "one-client"


def top_level_latencies(cluster, request_fn, requests):
    cloud = cluster.connect(f"{LABEL}-client-0")  # the id the driver would use
    engine = cluster.engine
    latencies = []
    for index in range(requests):
        issued_at = engine.now_ms
        future = request_fn(cloud, None, index)
        if future is not None:
            future.result()  # blocks: the engine advances to the completion
        latencies.append(engine.now_ms - issued_at)
    return latencies


def one_client_driver_latencies(cluster, request_fn, requests):
    driver = EngineLoadDriver(cluster, request_fn, clients=1,
                              max_requests=requests, label=LABEL)
    return driver.run().latencies.samples_ms

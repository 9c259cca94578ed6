#!/usr/bin/env python
"""Quickstart: the paper's Table 1 client API, futures-first, end to end.

Every invocation returns a ``CloudburstFuture``.  The cluster runs on one
discrete-event engine: ``call`` executes in the caller's request context, so
its future arrives resolved; ``call_dag`` returns *before* the DAG executes —
resolution is driven by engine events, and ``future.get()`` advances virtual
time until the result appears.

Run with::

    python examples/quickstart.py
"""

from repro import CloudburstCluster, CloudburstReference, ConsistencyLevel


def main() -> None:
    # connect() — spin up an in-process Cloudburst deployment: executor VMs
    # (3 worker threads + a local cache each), a scheduler, an Anna KVS.
    cluster = CloudburstCluster(executor_vms=2, threads_per_vm=3, anna_nodes=4)
    cloud = cluster.connect()

    # --- the Figure 2 script -------------------------------------------------
    cloud.put("key", 2)
    reference = CloudburstReference("key")

    def sqfun(x):
        return x * x

    sq = cloud.register(sqfun, name="square")

    print("result:", sq(reference))                    # -> 4 (reads 'key' from the KVS)

    future = sq(3, store_in_kvs=True)                  # a CloudburstFuture
    print("result:", future.get())                     # -> 9 (also written to the KVS)
    print("from the KVS:", cloud.get(future.result_key))  # -> 9 (under future.result_key)

    # --- function composition as a DAG ---------------------------------------
    cloud.register(lambda x: x + 1, name="increment")
    cloud.register_dag("composition", ["increment", "square"],
                       [("increment", "square")])
    # call_dag returns a *pending* future; .get() / .result() / .value block
    # by advancing virtual time until the DAG's engine events have run.
    result = cloud.call_dag("composition", {"increment": [4]}).result()
    print(f"square(increment(4)) = {result.value}  "
          f"[simulated latency: {result.latency_ms:.2f} ms]")

    # Many in-flight DAGs interleave on the cluster's one virtual timeline.
    futures = [cloud.call_dag("composition", {"increment": [n]}) for n in range(3)]
    print("pending before virtual time advances:",
          [f.is_ready() for f in futures])             # -> [False, False, False]
    futures[0].add_done_callback(
        lambda f: print("  callback: first DAG resolved ->", f.get()))
    # get() advances virtual time until the result appears (bounded by
    # timeout_ms); resolving the last future drains the earlier ones too.
    print("results:", [f.get(timeout_ms=10_000.0) for f in futures])
    print(f"virtual time now: {cluster.engine.now_ms:.2f} ms")

    # --- delete_dag (Table 1) -------------------------------------------------
    cloud.delete_dag("composition")
    try:
        cloud.call_dag("composition", {"increment": [4]})
    except Exception as error:
        print("calling a deleted DAG:", error)

    # --- stateful functions: the Cloudburst object API (Table 1) -------------
    def record_visit(cloudburst, user):
        try:
            visits = cloudburst.get(f"visits/{user}")
        except Exception:
            visits = 0
        cloudburst.put(f"visits/{user}", visits + 1)
        return visits + 1

    cloud.register(record_visit, name="record_visit")
    for _ in range(3):
        count = cloud.call("record_visit", ["ada"]).value
    print("ada has visited", count, "times")

    # --- distributed session consistency -------------------------------------
    causal_cloud = cluster.connect(
        consistency=ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
    causal_cloud.put("greeting", "hello")
    reader = causal_cloud.register(
        lambda cloudburst: cloudburst.get("greeting"), name="read_greeting")
    print("causal read:", reader())

    print("\ncluster summary:", cluster)
    print("cache hit rate:", f"{cluster.cache_hit_rate():.1%}")


if __name__ == "__main__":
    main()

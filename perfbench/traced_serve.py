"""``repro serve`` with span recording installed around the serving layers.

Usage: ``python3 perfbench/traced_serve.py OUT.json serve SPEC [flags]``.

The wrappers go in before the CLI's ``serve`` starts; when SIGINT drains
the server and ``main`` returns, the spans are summarised into
``OUT.json``.  Each ``{"op": "stats"}`` request marks a point in time;
the summary covers the spans that began between the last two marks, so
a client that asks for stats right before and right after its timed
window gets exactly that window.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def install(recorder, marks):
    import repro.aio.host
    import repro.aio.result_cache
    import repro.aio.server
    import repro.engine.cache
    import repro.engine.session
    import repro.graph.multilayer
    import repro.host.registry
    import repro.parallel.executor

    server = repro.aio.server
    stats_payload = server.serving_stats

    def serving_stats(*args, **kwargs):
        marks.append(time.perf_counter())
        return stats_payload(*args, **kwargs)

    recorder.patch(server, "serving_stats", serving_stats)

    pool_class = repro.parallel.executor.WorkerPool
    pool_apply_delta = pool_class.apply_delta

    def apply_delta(pool, *args, **kwargs):
        shipped, respawns = pool.deltas_shipped, pool.delta_respawns
        try:
            return pool_apply_delta(pool, *args, **kwargs)
        finally:
            if pool.deltas_shipped > shipped:
                recorder.event("parallel.pool.delta_shipped")
            if pool.delta_respawns > respawns:
                recorder.event("parallel.pool.delta_respawn")

    recorder.patch(pool_class, "apply_delta", apply_delta)

    wrap = recorder.wrap
    wrap(server.DCCServer, "_answer", "aio.server.answer", root=True,
         request_arg=3)
    wrap(server, "format_response", "aio.server.format_response")
    wrap(server._Connection, "send", "aio.server.send")
    host = repro.aio.host.AsyncDCCHost
    recorder.detach(host, "_dispatch")
    wrap(host, "search", "aio.host.search")
    wrap(host, "update", "aio.host.update")
    wrap(host, "_await_shards", "parallel.pool.execute")
    cache = repro.aio.result_cache.ResultCache
    wrap(cache, "fetch", "aio.result_cache.fetch")
    wrap(cache, "put", "aio.result_cache.put")
    registry = repro.host.registry.DCCHost
    for attr in ("pin", "engine", "unpin"):
        wrap(registry, attr, "host.registry.lease")
    wrap(repro.engine.session.DCCEngine, "submit", "engine.session.submit")
    wrap(repro.engine.session.SearchHandle, "collect",
         "engine.session.collect")
    wrap(repro.engine.cache.ArtifactCache, "rebind", "engine.cache.rebind")
    graph = repro.graph.multilayer.MultiLayerGraph
    wrap(graph, "apply_delta", "graph.multilayer.apply_delta")
    wrap(graph, "freeze", "graph.frozen.freeze")
    wrap(pool_class, "apply_delta", "parallel.pool.apply_delta")
    wrap(pool_class, "submit_query", "parallel.pool.submit")
    wrap(pool_class, "collect", "parallel.pool.collect")


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import repro.cli
    from spans import SpanRecorder

    recorder = SpanRecorder()
    marks = []
    install(recorder, marks)
    code = repro.cli.main(argv)
    window = marks[-2:] if len(marks) >= 2 else (None, None)
    payload = {
        "window": list(window),
        "summary": recorder.summary(*window),
        "requests": recorder.request_durations("aio.host.search", *window),
    }
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

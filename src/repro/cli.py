"""Command-line interface: ``repro-dccs`` (or ``python -m repro``).

Subcommands
-----------
``info``
    Print statistics of a graph file or a named stand-in dataset, plus
    the engine/pool configuration a search session would use.
``search``
    Run DCCS on a graph and print the reported d-CCs.
``batch``
    Run a JSON file of queries through one persistent
    :class:`~repro.engine.DCCEngine` (pool spawned once, artifacts
    shared across the batch).
``host``
    Run a JSON batch spec spanning *several* graphs through one
    :class:`~repro.host.DCCHost` — named engine sessions admitted
    lazily under a resident-engine cap and optional memory budget.
``serve``
    Serve search requests interactively: the spec file declares the
    graphs, then JSON-lines requests flow through an
    :class:`~repro.aio.AsyncDCCHost` (concurrent in-flight requests,
    duplicate coalescing, a cross-time result cache, bounded-queue
    backpressure).  By default the transport is stdin/stdout; with
    ``--port`` a :class:`~repro.aio.DCCServer` accepts many concurrent
    socket connections over the same host.
``datasets``
    Print the Fig. 12 stand-in/paper statistics table.
``figure``
    Reproduce one of the paper's figures by number.

Graph arguments accept a stand-in dataset name, ``figure1`` (the paper's
quickstart example graph), a ``.json`` graph file or a layered edge-list
file.
"""

import argparse
import json
import sys

from repro.core.api import search_dccs
from repro.datasets import DATASET_NAMES, load
from repro.experiments import (
    figure12_table,
    figure13_table,
    figure29,
    figure30,
    figure30_table,
    figure31,
    figure32,
    format_series,
    format_table,
    preprocessing_ablation,
    vary_d,
    vary_k,
    vary_large_s,
    vary_p,
    vary_q,
    vary_small_s,
)
from repro.graph.io import read_edge_list, read_json
from repro.utils.errors import GraphError


def _load_graph(source, scale, seed):
    """A dataset name, ``figure1``, a ``.json`` file or an edge-list file."""
    if source == "figure1":
        from repro.graph import paper_figure1_graph

        return paper_figure1_graph()
    if source in DATASET_NAMES:
        return load(source, scale=scale, seed=seed).graph
    if source.endswith(".json"):
        return read_json(source)
    return read_edge_list(source)


def _cmd_info(args):
    graph = _load_graph(args.graph, args.scale, args.seed)
    if args.backend == "frozen":
        graph = graph.freeze()
    summary = graph.summary()
    for key, value in summary.items():
        print("{}: {}".format(key, value))
    print("representation: {}".format(
        "frozen-csr" if graph.is_frozen else "dict-of-sets"
    ))
    from repro.graph.kernels import numpy_version

    print("numpy_version: {}".format(numpy_version()))
    print("memory_estimate_bytes: {}".format(graph.memory_bytes()))
    print("per_layer_edges: {}".format(", ".join(
        str(graph.num_edges(layer)) for layer in graph.layers()
    )))
    # What `search --jobs 0` would actually use on this machine.  The
    # parallel subsystem is imported lazily, mirroring core/api.py:
    # sequential commands never pay for the multiprocessing plumbing.
    from repro.parallel import effective_jobs

    print("parallel_workers_effective: {}".format(effective_jobs(0)))
    # The session a `repro batch` (or a library DCCEngine) over this
    # graph would start from.  Constructing the engine is free — the
    # pool spawns lazily and the cache starts empty — and the backend is
    # pinned to the representation reported above, so no conversion is
    # paid just to print status.
    from repro.engine import DCCEngine

    with DCCEngine(
        graph, backend="frozen" if graph.is_frozen else "dict", jobs=0,
    ) as engine:
        status = engine.info()
    print("engine_workers: {}".format(status["workers"]))
    print("engine_pool_spawned: {}".format(status["pool_spawned"]))
    print("engine_cache_enabled: {}".format(status["cache_enabled"]))
    print("engine_cache_entries: {}".format(status["cache_entries"]))
    # Streaming-update picture: how rebinds after graph mutations split
    # between CSR patching and full rebuilds, and what the selective
    # cache invalidation kept.  All zero here (the info engine never
    # mutates) — printed so the counter surface is discoverable.
    print("engine_rebinds_patched: {}".format(status["rebinds_patched"]))
    print("engine_rebinds_full: {}".format(status["rebinds_full"]))
    print("engine_cache_invalidations_kept: {}".format(
        status["cache_invalidations_kept"]
    ))
    print("engine_cache_invalidations_dropped: {}".format(
        status["cache_invalidations_dropped"]
    ))
    # The hosting layer a `repro host` run would place this graph in:
    # admit one (cheap — the pool stays unspawned) and report the
    # admission-control picture.
    from repro.host import DCCHost

    with DCCHost() as host:
        host.attach("info", graph,
                    backend="frozen" if graph.is_frozen else "dict")
        host.engine("info")
        host_status = host.info()
    print("host_max_engines: {}".format(host_status["max_engines"]))
    print("host_resident_engines: {}".format(
        len(host_status["resident_engines"])
    ))
    print("host_memory_bytes: {}".format(host_status["memory_bytes"]))
    print("host_cache_max_entries: {}".format(
        host_status["cache_max_entries"]
    ))
    # The serving tier a `repro serve` run would put in front of that
    # host.  Constructing the async façade is free (no queue or
    # dispatcher exists until traffic), and these lines are printed from
    # the same info() payload the serving protocol's `stats` op reports,
    # so the two surfaces cannot drift apart.
    import asyncio

    from repro.aio import AsyncDCCHost, serving_stats

    async def _serving_info():
        async with AsyncDCCHost() as ahost:
            return serving_stats(ahost)["serving"]

    serving = asyncio.run(_serving_info())
    print("serve_max_pending: {}".format(serving["max_pending"]))
    print("serve_coalescing: {}".format(serving["coalescing"]))
    print("serve_result_cache_entries: {}".format(
        serving["result_cache"]["max_entries"]
    ))
    print("serve_result_cache_ttl: {}".format(
        serving["result_cache"]["ttl"]
    ))
    print("serve_latency_window: {}".format(serving["latency"]["window"]))
    print("serve_updates_applied: {}".format(serving["updates_applied"]))
    print("serve_update_edges_applied: {}".format(
        serving["update_edges_applied"]
    ))
    return 0


def _cmd_search(args):
    graph = _load_graph(args.graph, args.scale, args.seed)
    result = search_dccs(
        graph, args.d, args.s, args.k, method=args.method,
        backend=args.backend, seed=args.seed, jobs=args.jobs,
    )
    if args.jobs is not None:
        from repro.parallel import effective_jobs

        # The pool is additionally capped by the shard count of the
        # chosen method, so this is a ceiling, not a measurement.
        print("parallel: requested jobs={}, worker cap {}".format(
            args.jobs, effective_jobs(args.jobs)
        ))
    print(
        "{}: {} d-CCs, cover {} vertices, {:.3f}s, {} dCC computations".format(
            result.algorithm, len(result.sets), result.cover_size,
            result.elapsed, result.stats.dcc_calls,
        )
    )
    for label, members in zip(result.labels, result.sets):
        shown = ", ".join(str(v) for v in sorted(members, key=str)[:12])
        suffix = ", ..." if len(members) > 12 else ""
        print("  layers {} | {} vertices: {}{}".format(
            label, len(members), shown, suffix
        ))
    return 0


def _cmd_batch(args):
    """Serve a JSON batch of queries from one persistent engine."""
    from repro.engine import DCCEngine
    from repro.utils.timer import Timer

    graph = _load_graph(args.graph, args.scale, args.seed)
    with open(args.queries) as handle:
        payload = json.load(handle)
    queries = payload.get("queries") if isinstance(payload, dict) \
        else payload
    if not isinstance(queries, list) or not queries:
        print("{}: expected a non-empty JSON list of queries (or an "
              "object with a \"queries\" list)".format(args.queries),
              file=sys.stderr)
        return 2
    for number, entry in enumerate(queries, 1):
        if not isinstance(entry, dict):
            print("{}: query {} is not a JSON object: {!r}".format(
                args.queries, number, entry), file=sys.stderr)
            return 2
    with Timer() as total:
        with DCCEngine(graph, backend=args.backend,
                       jobs=args.jobs) as engine:
            engine.warm()
            results = engine.search_many(queries)
            status = engine.info()
    for number, (spec, result) in enumerate(zip(queries, results), 1):
        print(
            "[{}] {}: d={} s={} k={} -> {} d-CCs, cover {} vertices, "
            "{:.3f}s".format(
                number, result.algorithm, spec["d"], spec["s"], spec["k"],
                len(result.sets), result.cover_size, result.elapsed,
            )
        )
    print(
        "batch: {} queries in {:.3f}s | pool: {} worker(s), spawned={} | "
        "cache: {} entries, {} hits / {} lookups".format(
            len(results), total.elapsed, status["workers"],
            status["pool_spawned"], status["cache_entries"],
            status["cache_hits"],
            status["cache_hits"] + status["cache_misses"],
        )
    )
    return 0


def _cmd_host(args):
    """Serve a multi-graph JSON batch spec from one DCCHost."""
    from repro.host import DCCHost, parse_host_spec
    from repro.utils.timer import Timer

    with open(args.spec) as handle:
        payload = json.load(handle)
    graphs, queries, settings = parse_host_spec(payload)
    # Command-line flags beat spec-file settings beat host defaults.
    max_engines = args.max_engines if args.max_engines is not None \
        else settings.get("max_engines")
    budget = args.memory_budget if args.memory_budget is not None \
        else settings.get("memory_budget_bytes")
    host_options = {"jobs": args.jobs, "backend": args.backend}
    if max_engines is not None:
        host_options["max_engines"] = max_engines
    if budget is not None:
        host_options["memory_budget_bytes"] = budget
    with Timer() as total:
        with DCCHost(**host_options) as host:
            for name, source in graphs.items():
                host.attach(
                    name, _load_graph(source, args.scale, args.seed)
                )
            # Updates are sequence barriers: searches up to each one
            # run as one pipelined search_many segment against the
            # pre-update graph, then the mutation applies atomically
            # and the next segment sees the new version.
            results = []
            segment = []

            def flush():
                if segment:
                    results.extend(host.search_many(segment))
                    del segment[:]

            for entry in queries:
                if entry.get("op") != "update":
                    segment.append(entry)
                    continue
                flush()
                target = host.graph(entry["graph"])
                delta = target.apply_delta(
                    add=entry.get("add") or (),
                    remove=entry.get("remove") or (),
                )
                results.append((delta, target.mutation_version))
            flush()
            status = host.info()
    for number, (spec, result) in enumerate(zip(queries, results), 1):
        if spec.get("op") == "update":
            delta, version = result
            print(
                "[{}] {}: update applied {} edge(s) -> version "
                "{}".format(
                    number, spec["graph"],
                    0 if delta is None else delta.edge_count, version,
                )
            )
            continue
        print(
            "[{}] {}: {} d={} s={} k={} -> {} d-CCs, cover {} vertices, "
            "{:.3f}s".format(
                number, spec["graph"], result.algorithm, spec["d"],
                spec["s"], spec["k"], len(result.sets), result.cover_size,
                result.elapsed,
            )
        )
    print(
        "host: {} queries over {} graphs in {:.3f}s | engines: {} "
        "resident / {} max, {} admitted, {} evicted | memory: {} bytes"
        "{}".format(
            len(results), len(graphs), total.elapsed,
            len(status["resident_engines"]), status["max_engines"],
            status["admissions"], status["evictions"],
            status["memory_bytes"],
            " (budget {})".format(status["memory_budget_bytes"])
            if status["memory_budget_bytes"] is not None else "",
        )
    )
    return 0


def _serve_host_options(args, settings):
    """Resolve serve-mode host/async options (flags beat spec settings)."""
    host_options = {"jobs": args.jobs, "backend": args.backend}
    max_engines = args.max_engines if args.max_engines is not None \
        else settings.get("max_engines")
    if max_engines is not None:
        host_options["max_engines"] = max_engines
    if settings.get("memory_budget_bytes") is not None:
        host_options["memory_budget_bytes"] = settings["memory_budget_bytes"]
    max_pending = args.max_pending if args.max_pending is not None \
        else settings.get("max_pending")
    async_options = {}
    if max_pending is not None:
        async_options["max_pending"] = max_pending
    if args.no_result_cache:
        async_options["cache_results"] = False
    else:
        entries = args.result_cache_entries \
            if args.result_cache_entries is not None \
            else settings.get("result_cache_entries")
        if entries is not None:
            async_options["result_cache_entries"] = entries
        ttl = args.result_cache_ttl if args.result_cache_ttl is not None \
            else settings.get("result_cache_ttl")
        if ttl is not None:
            async_options["result_cache_ttl"] = ttl
    return host_options, async_options


def _cmd_serve(args):
    """Serve JSON-lines search requests over an AsyncDCCHost.

    Each request line is one JSON object — a search spec
    (``graph``/``d``/``s``/``k`` plus options) with an optional ``id``
    echoed back, ``{"op": "stats"}`` for the serving metrics, or
    ``{"op": "update", "graph": ..., "add"/"remove": [[layer, u, v],
    ...]}`` to mutate an attached graph in place (one atomic batch;
    later requests answer against the new graph).
    Requests are submitted concurrently as they arrive, so duplicates
    coalesce, repeats hit the cross-time result cache and per-graph
    batches pipeline; responses are written as they complete (use
    ``id``/``seq`` to correlate — completion order is not arrival
    order).

    Without ``--port`` the transport is stdin/stdout: EOF drains
    in-flight work and exits, and a summary goes to stderr.  With
    ``--port`` a socket server (``repro.aio.DCCServer``) accepts many
    concurrent client connections over the same host until SIGINT/
    SIGTERM, which drains accepted work and shuts down.
    """
    import asyncio

    from repro.aio import AsyncDCCHost, format_response, serving_stats
    from repro.host import parse_host_spec

    with open(args.spec) as handle:
        payload = json.load(handle)
    graphs, preload, settings = parse_host_spec(payload,
                                                require_queries=False)
    host_options, async_options = _serve_host_options(args, settings)

    async def serve_socket():
        import signal

        from repro.aio import DCCServer

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal handlers
        async with AsyncDCCHost(**host_options, **async_options) as host:
            for name, source in graphs.items():
                host.attach(name, _load_graph(source, args.scale, args.seed))
            if preload:
                await host.search_many(preload)  # warm the result cache
            async with DCCServer(host, port=args.port,
                                 bind=args.bind) as server:
                print("serving on {}:{} ({} graph(s))".format(
                    args.bind, server.port, len(graphs)), file=sys.stderr,
                    flush=True)
                await stop.wait()
                print("shutting down: draining accepted requests",
                      file=sys.stderr)
            status = server.counters()
        print(
            "serve: {} ok, {} failed over {} connection(s)".format(
                status["responses_ok"], status["responses_failed"],
                status["connections_accepted"],
            ),
            file=sys.stderr,
        )
        return 0

    async def serve_stdio():
        loop = asyncio.get_running_loop()
        tasks = set()
        served = [0, 0]  # ok, failed

        def emit(response):
            print(json.dumps(response), flush=True)

        async def answer(number, entry):
            request_id = entry.pop("id", None)
            try:
                if entry.get("op") == "stats":
                    payload = {"seq": number, "ok": True,
                               "stats": serving_stats(host)}
                    if request_id is not None:
                        payload["id"] = request_id
                    served[0] += 1
                    emit(payload)
                    return
                if entry.get("op") == "update":
                    from repro.aio import parse_update_edges
                    from repro.utils.errors import ProtocolError

                    name = entry.get("graph")
                    if not isinstance(name, str) or not name:
                        raise ProtocolError(
                            "update op needs a \"graph\" key naming an "
                            "attached graph"
                        )
                    add = parse_update_edges(entry, "add")
                    remove = parse_update_edges(entry, "remove")
                    if not add and not remove:
                        raise ProtocolError(
                            "update op needs a non-empty \"add\" and/or "
                            "\"remove\" edge list"
                        )
                    receipt = await host.update(name, add=add,
                                                remove=remove)
                    payload = {"seq": number, "ok": True,
                               "update": receipt}
                    if request_id is not None:
                        payload["id"] = request_id
                    served[0] += 1
                    emit(payload)
                    return
                name = entry.pop("graph")
                d = entry.pop("d")
                s = entry.pop("s")
                k = entry.pop("k")
                method = entry.pop("method", "auto")
                result = await host.search(name, d, s, k, method=method,
                                           **entry)
            except Exception as error:
                served[1] += 1
                emit(format_response(number, request_id, error=error))
            else:
                served[0] += 1
                emit(format_response(number, request_id, result=result))

        async with AsyncDCCHost(**host_options, **async_options) as host:
            for name, source in graphs.items():
                host.attach(name, _load_graph(source, args.scale, args.seed))
            # Any queries preloaded in the spec file are served first,
            # concurrently, exactly like stdin requests.
            number = 0
            for entry in preload:
                number += 1
                tasks.add(asyncio.ensure_future(answer(number, dict(entry))))
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                if not line:
                    break  # EOF: drain and exit
                line = line.strip()
                if not line:
                    continue
                number += 1
                try:
                    entry = json.loads(line)
                    if not isinstance(entry, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as error:
                    served[1] += 1
                    emit(format_response(number, None, error=error))
                    continue
                tasks.add(asyncio.ensure_future(answer(number, entry)))
                tasks = {task for task in tasks if not task.done()}
            if tasks:
                await asyncio.gather(*tasks)
            status = host.info()
        print(
            "serve: {} ok, {} failed over {} graphs | coalesced {}, "
            "cached {} | engines admitted {}, evicted {}".format(
                served[0], served[1], len(graphs),
                status["requests_coalesced"], status["requests_cached"],
                status["host"]["admissions"], status["host"]["evictions"],
            ),
            file=sys.stderr,
        )
        return 0

    if args.port is not None:
        return asyncio.run(serve_socket())
    return asyncio.run(serve_stdio())


def _cmd_datasets(args):
    print(figure12_table(scale=args.scale, seed=args.seed))
    print()
    print(figure13_table())
    return 0


_FIGURES = {}


def _figure(number):
    def register(fn):
        _FIGURES[number] = fn
        return fn
    return register


@_figure(14)
def _fig14(args):
    rows = []
    for name in ("english", "stack"):
        rows += vary_small_s(name, scale=args.scale, seed=args.seed)
    return format_series(rows, "s", "time_s", title="Fig. 14 — time vs small s")


@_figure(15)
def _fig15(args):
    rows = []
    for name in ("english", "stack"):
        rows += vary_large_s(name, scale=args.scale, seed=args.seed)
    return format_series(rows, "s", "time_s", title="Fig. 15 — time vs large s")


@_figure(16)
def _fig16(args):
    rows = []
    for name in ("english", "stack"):
        rows += vary_small_s(name, scale=args.scale, seed=args.seed)
    return format_series(rows, "s", "cover", title="Fig. 16 — cover vs small s")


@_figure(17)
def _fig17(args):
    rows = []
    for name in ("english", "stack"):
        rows += vary_large_s(name, scale=args.scale, seed=args.seed)
    return format_series(rows, "s", "cover", title="Fig. 17 — cover vs large s")


@_figure(18)
def _fig18(args):
    rows = []
    for name in ("german", "english"):
        rows += vary_d(name, large_s=False, scale=args.scale, seed=args.seed)
    return format_series(rows, "d", "time_s",
                         title="Fig. 18 — time vs d (small s)")


@_figure(19)
def _fig19(args):
    rows = []
    for name in ("german", "english"):
        rows += vary_d(name, large_s=True, scale=args.scale, seed=args.seed)
    return format_series(rows, "d", "time_s",
                         title="Fig. 19 — time vs d (large s)")


@_figure(20)
def _fig20(args):
    rows = []
    for name in ("german", "english"):
        rows += vary_d(name, large_s=False, scale=args.scale, seed=args.seed)
    return format_series(rows, "d", "cover",
                         title="Fig. 20 — cover vs d (small s)")


@_figure(21)
def _fig21(args):
    rows = []
    for name in ("german", "english"):
        rows += vary_d(name, large_s=True, scale=args.scale, seed=args.seed)
    return format_series(rows, "d", "cover",
                         title="Fig. 21 — cover vs d (large s)")


@_figure(22)
def _fig22(args):
    rows = []
    for name in ("wiki", "english"):
        rows += vary_k(name, large_s=False, scale=args.scale, seed=args.seed)
    return format_series(rows, "k", "time_s",
                         title="Fig. 22 — time vs k (small s)")


@_figure(23)
def _fig23(args):
    rows = []
    for name in ("wiki", "english"):
        rows += vary_k(name, large_s=True, scale=args.scale, seed=args.seed)
    return format_series(rows, "k", "time_s",
                         title="Fig. 23 — time vs k (large s)")


@_figure(24)
def _fig24(args):
    rows = []
    for name in ("wiki", "english"):
        rows += vary_k(name, large_s=False, scale=args.scale, seed=args.seed)
    return format_series(rows, "k", "cover",
                         title="Fig. 24 — cover vs k (small s)")


@_figure(25)
def _fig25(args):
    rows = []
    for name in ("wiki", "english"):
        rows += vary_k(name, large_s=True, scale=args.scale, seed=args.seed)
    return format_series(rows, "k", "cover",
                         title="Fig. 25 — cover vs k (large s)")


@_figure(26)
def _fig26(args):
    rows = vary_p("stack", scale=args.scale, seed=args.seed)
    rows += vary_p("stack", large_s=True, scale=args.scale, seed=args.seed)
    return format_series(rows, "p", "time_s", title="Fig. 26 — time vs p")


@_figure(27)
def _fig27(args):
    rows = vary_q("stack", scale=args.scale, seed=args.seed)
    rows += vary_q("stack", large_s=True, scale=args.scale, seed=args.seed)
    return format_series(rows, "q", "time_s", title="Fig. 27 — time vs q")


@_figure(28)
def _fig28(args):
    rows = []
    for name in ("wiki", "english"):
        rows += preprocessing_ablation(name, large_s=False,
                                       scale=args.scale, seed=args.seed)
        rows += preprocessing_ablation(name, large_s=True,
                                       scale=args.scale, seed=args.seed)
    return format_table(
        rows,
        ["dataset", "method", "s", "variant", "time_s", "cover"],
        title="Fig. 28 — preprocessing ablation",
    )


@_figure(29)
def _fig29(args):
    rows = figure29(scale=min(1.0, args.scale * 2))
    return format_table(
        rows,
        ["dataset", "d", "mimag_time_s", "bu_time_s", "mimag_size",
         "bu_size", "precision", "recall", "f1"],
        title="Fig. 29 — MiMAG vs BU-DCCS",
    )


@_figure(30)
def _fig30(args):
    blocks = []
    for name in ("ppi", "author"):
        blocks.append(figure30_table(figure30(name)))
    return "\n\n".join(blocks)


@_figure(31)
def _fig31(args):
    payload = figure31()
    lines = [
        "Fig. 31 — cover difference on {} (d={})".format(
            payload["dataset"], payload["d"]
        ),
        "both (red): {}  only d-CC (green): {}  only quasi (blue): {}".format(
            payload["both"], payload["only_dcc"], payload["only_quasi"]
        ),
        "avg within-class degree: " + ", ".join(
            "{}={:.2f}".format(key, value)
            for key, value in payload["densities"].items()
        ),
    ]
    return "\n".join(lines)


@_figure(32)
def _fig32(args):
    rows = figure32()
    return format_table(
        rows,
        ["d", "mimag_recovery", "bu_recovery", "complexes"],
        title="Fig. 32 — protein complexes found",
    )


def _cmd_figure(args):
    if args.number == 12:
        print(figure12_table(scale=args.scale, seed=args.seed))
        return 0
    if args.number == 13:
        print(figure13_table())
        return 0
    fn = _FIGURES.get(args.number)
    if fn is None:
        print("no figure {} in the paper's evaluation".format(args.number),
              file=sys.stderr)
        return 2
    print(fn(args))
    return 0


def build_parser():
    """Construct the argparse parser (exposed for the CLI tests)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", type=float, default=0.3,
                        help="stand-in dataset scale (default 0.3)")
    common.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="repro-dccs",
        description="Diversified coherent core search on multi-layer graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", parents=[common],
                          help="print graph statistics")
    info.add_argument("graph", help="dataset name or graph file")
    info.add_argument("--backend", default="dict",
                      choices=("dict", "frozen"),
                      help="representation to report on (default dict)")
    info.set_defaults(fn=_cmd_info)

    search = sub.add_parser("search", parents=[common], help="run DCCS")
    search.add_argument("graph", help="dataset name or graph file")
    search.add_argument("-d", type=int, default=4)
    search.add_argument("-s", type=int, default=3)
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--method", default="auto",
                        choices=("auto", "greedy", "bottom-up", "top-down"))
    search.add_argument("--backend", default="auto",
                        choices=("auto", "dict", "frozen"),
                        help="graph backend (auto freezes when profitable)")
    search.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the parallel "
                             "search: 0 = one per CPU, N = exactly N "
                             "(default: classic single-process search)")
    search.set_defaults(fn=_cmd_search)

    batch = sub.add_parser(
        "batch", parents=[common],
        help="run a JSON batch of queries through one persistent engine",
    )
    batch.add_argument("graph", help="dataset name or graph file")
    batch.add_argument(
        "queries",
        help="JSON file: a list of {d, s, k[, method, options...]} "
             "objects, or an object with a \"queries\" list",
    )
    batch.add_argument("--backend", default="auto",
                       choices=("auto", "dict", "frozen"),
                       help="graph backend, resolved once per session")
    batch.add_argument("--jobs", type=int, default=0,
                       help="persistent pool size: 0 = one worker per "
                            "CPU (default), N = exactly N")
    batch.set_defaults(fn=_cmd_batch)

    host = sub.add_parser(
        "host", parents=[common],
        help="run a multi-graph JSON batch spec through one DCCHost",
    )
    host.add_argument(
        "spec",
        help="JSON file: {\"graphs\": {name: source, ...}, \"queries\": "
             "[{graph, d, s, k[, method, options...]}, ...]} with "
             "optional max_engines / memory_budget_bytes",
    )
    host.add_argument("--backend", default="auto",
                      choices=("auto", "dict", "frozen"),
                      help="engine backend default for every graph")
    host.add_argument("--jobs", type=int, default=0,
                      help="per-engine pool size: 0 = one worker per "
                           "CPU (default), N = exactly N")
    host.add_argument("--max-engines", type=int, default=None,
                      help="resident engine cap (overrides the spec "
                           "file; LRU sessions beyond it are evicted, "
                           "their pools closed)")
    host.add_argument("--memory-budget", type=int, default=None,
                      help="global resident-memory budget in bytes "
                           "(overrides the spec file)")
    host.set_defaults(fn=_cmd_host)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve JSON-lines search requests from stdin through an "
             "async multi-graph host",
    )
    serve.add_argument(
        "spec",
        help="JSON file declaring the graphs (host-spec shape; "
             "\"queries\" optional and served first if present)",
    )
    serve.add_argument("--backend", default="auto",
                       choices=("auto", "dict", "frozen"),
                       help="engine backend default for every graph")
    serve.add_argument("--jobs", type=int, default=0,
                       help="per-engine pool size: 0 = one worker per "
                            "CPU (default), N = exactly N")
    serve.add_argument("--max-engines", type=int, default=None,
                       help="resident engine cap (overrides the spec)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="per-graph request-queue bound; a full queue "
                            "rejects with QueueFullError (overrides the "
                            "spec)")
    serve.add_argument("--port", type=int, default=None,
                       help="serve over TCP instead of stdio: listen on "
                            "this port (0 picks a free one, printed to "
                            "stderr); SIGINT/SIGTERM drains and exits")
    serve.add_argument("--bind", default="127.0.0.1",
                       help="interface to bind with --port "
                            "(default 127.0.0.1)")
    serve.add_argument("--no-result-cache", action="store_true",
                       help="disable the cross-time result cache "
                            "(repeat specs search live again)")
    serve.add_argument("--result-cache-entries", type=int, default=None,
                       help="result-cache LRU entry cap (overrides the "
                            "spec; default 4096)")
    serve.add_argument("--result-cache-ttl", type=float, default=None,
                       help="result-cache TTL in seconds (overrides the "
                            "spec; default: entries never expire)")
    serve.set_defaults(fn=_cmd_serve)

    datasets = sub.add_parser("datasets", parents=[common],
                              help="print the Fig. 12/13 tables")
    datasets.set_defaults(fn=_cmd_datasets)

    figure = sub.add_parser("figure", parents=[common],
                            help="reproduce a paper figure")
    figure.add_argument("number", type=int)
    figure.set_defaults(fn=_cmd_figure)
    return parser


def main(argv=None):
    """CLI entry point.

    A :class:`~repro.utils.errors.GraphError` — a bad parameter, spec or
    query — is reported on stderr and exits 2, like argparse's own
    usage errors.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphError as error:
        print("{} failed: {}".format(args.command, error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

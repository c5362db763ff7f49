"""The ``serve_read`` and ``serve_write`` workloads: ``repro serve --port``.

The server runs as a subprocess with default settings (``jobs=0``,
result cache on) over the ``english`` stand-in at scale 0.18 (378
vertices, 15 layers).  The graph is always generated with dataset seed
0: at this size the stand-in's planted communities, and with them the
answer sizes and search costs, change several-fold from one generation
seed to the next, which would swamp any change under test.  The workload
seed draws the request mix and the edges the updates toggle.  The client is
one process driving a closed loop over one loopback connection: it
sends its next request only after the previous answer arrived, like the
callers of this tier (``sweep(host=)``, notebooks, smoke tools) that
wait for their answer.  (Two connections sharing the single-threaded
server made per-run medians swing between two levels 30% apart, with a
spread of 0.25-0.32 across runs against 0.06-0.09 for one connection.)

The server and its pool workers inherit the client's single CPU (see
``run.py``), so a request never waits on a wake-up across CPUs.  The
client takes a reference reading at least every ``READ_EVERY_S`` (before
every update in writes), and each latency is the median of the run's
samples at the quiet host speed (see ``hostspeed.py``).

* ``serve_read``: requests draw from a fixed pool of four search specs,
  all warmed during set-up, so every timed search should be a
  result-cache hit.  Socket framing, JSON encoding, the async host and
  the result cache do the work; the core layers do none.
* ``serve_write``: the client cycles through a one-edge
  ``{"op": "update"}`` batch followed by the four searches in a fixed
  order.  Updates alternate add and remove of edges from a seeded list,
  so the graph cycles through a fixed set of states.  Every search after
  an update misses the result cache; the first one also pays the
  patched rebind (freeze patch, artifact-cache rebind, worker delta).

Every answer is compared with a reference from direct ``search_dccs``
(``jobs=1``, the same sharded search inline) on an identically mutated
copy of the graph, computed by the client before timing starts.
"""

import asyncio
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager

from repro.aio.server import format_response
from repro.core import search_dccs
from repro.datasets import load

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
DATASET = "english"
SCALE = 0.18
DATASET_SEED = 0
K = 8
# (metric, method, d, s); top-down runs at s=11 of 15 layers, where it
# is the paper's method of choice and a live search stays ~0.1 s.
KINDS = (
    ("greedy_d4_ms", "greedy", 4, 2),
    ("bottom_up_d4_ms", "bottom-up", 4, 2),
    ("top_down_d4_ms", "top-down", 4, 11),
    ("greedy_d2_ms", "greedy", 2, 2),
)
UPDATE_EDGES = 4
# A reference reading (see hostspeed.py) at least this often in a read loop.
READ_EVERY_S = 0.5
SETUP_REPEATS = 5
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 60


def search_line(kind, request_id):
    _, method, d, s = KINDS[kind]
    return (json.dumps({"id": request_id, "graph": DATASET, "d": d, "s": s,
                        "k": K, "method": method}) + "\n").encode()


def update_line(step, edges, request_id):
    """Step ``j`` adds edge ``j // 2`` (mod the list) when even, else removes it."""
    layer, u, v = edges[(step // 2) % len(edges)]
    op = "add" if step % 2 == 0 else "remove"
    return (json.dumps({"id": request_id, "op": "update", "graph": DATASET,
                        op: [[layer, u, v]]}) + "\n").encode()


def state_after(step, edges):
    """0 for the base graph, ``i + 1`` when edge ``i`` is present."""
    return (step // 2) % len(edges) + 1 if step % 2 == 0 else 0


def payload_of(line):
    """The result part of a response line: no seq, id or elapsed time."""
    start = line.find(b'"algorithm"')
    end = line.rfind(b', "elapsed_s"')
    if start < 0 or end < start or b'"ok": true' not in line:
        return None
    return line[start:end]


def pick_edges(graph, seed):
    """Edges absent from the graph, between existing vertices (non-structural)."""
    rng = random.Random(seed)
    vertices = sorted(graph.vertices(), key=repr)
    edges = []
    while len(edges) < UPDATE_EDGES:
        layer = rng.randrange(graph.num_layers)
        u, v = rng.sample(vertices, 2)
        if not graph.has_edge(layer, u, v) and (layer, u, v) not in edges:
            edges.append((layer, u, v))
    return edges


def references(graph, edges):
    """``{(state, kind): payload bytes}`` for every state the server visits."""
    expected = {}
    for state in range(len(edges) + 1):
        if state:
            graph.apply_delta(add=[edges[state - 1]])
        for kind, (_, method, d, s) in enumerate(KINDS):
            result = search_dccs(graph, d, s, K, method=method, jobs=1)
            line = json.dumps(format_response(0, None, result=result))
            expected[state, kind] = payload_of(line.encode())
        if state:
            graph.apply_delta(remove=[edges[state - 1]])
    return expected


class Server:
    """One ``repro serve --port 0`` subprocess, traced or not."""

    def __init__(self, spans_path=None):
        spec = os.path.join(OUT, "serve-spec.json")
        with open(spec, "w") as handle:
            json.dump({"graphs": {DATASET: DATASET}}, handle)
        argv = ["serve", spec, "--scale", str(SCALE), "--seed",
                str(DATASET_SEED), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + argv
        else:
            command = [sys.executable,
                       os.path.join(ROOT, "perfbench", "traced_serve.py"),
                       spans_path] + argv
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.stderr = []
        lines = queue.Queue()
        self._drain = threading.Thread(
            target=self._read_stderr, args=(lines,), daemon=True)
        self._drain.start()
        try:
            first = lines.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            first = ""
        if "serving on" not in first:
            self.stop()
            raise RuntimeError("server did not start: {!r}".format(
                "".join(self.stderr)))
        self.port = int(first.split(":")[1].split()[0])

    def _read_stderr(self, lines):
        for line in self.process.stderr:
            self.stderr.append(line.decode(errors="replace"))
            lines.put(self.stderr[-1])
        lines.put("")

    def stop(self):
        """SIGINT drains the server; kill its process group if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            code = self.process.wait()
        self._drain.join(timeout=STOP_TIMEOUT_S)
        return code


class Client:
    """A closed-loop client of one server that checks every answer."""

    def __init__(self, expected, edges):
        self.expected = expected
        self.edges = edges
        self.next_id = 0
        # The serving tier is interpreter work on a small graph.
        self.speed = HostSpeed(numpy_share=0)
        # Search and update samples are ``(begin, end)`` of one request.
        self.latency = {kind: [] for kind in range(len(KINDS))}
        self.by_id = {}
        self.update_latency = []
        self.response_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.finished_at = []

    @asynccontextmanager
    async def connection(self, port):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22)
        try:
            yield reader, writer
        finally:
            writer.close()
            await writer.wait_closed()

    async def ask(self, reader, writer, line):
        begin = time.perf_counter()
        writer.write(line)
        answer = await reader.readline()
        return answer, (begin, time.perf_counter())

    async def search(self, conn, kind, state, record):
        self.next_id += 1
        request_id = self.next_id
        answer, sample = await self.ask(*conn, search_line(kind, request_id))
        if not record:
            if payload_of(answer) != self.expected[state, kind]:
                raise RuntimeError("warm-up answer differs from reference: "
                                   "{!r}".format(answer[:300]))
            return
        self.attempted += 1
        self.finished_at.append(time.perf_counter())
        self.response_bytes += len(answer)
        if payload_of(answer) != self.expected[state, kind]:
            self.failed += 1
            return
        self.latency[kind].append(sample)
        self.by_id[str(request_id)] = sample[1] - sample[0]

    async def update(self, conn, step, record):
        self.next_id += 1
        answer, sample = await self.ask(
            *conn, update_line(step, self.edges, self.next_id))
        ok = b'"ok": true' in answer and b'"applied": 1' in answer
        if not record:
            if not ok:
                raise RuntimeError("warm-up update failed: {!r}".format(
                    answer[:300]))
            return
        self.attempted += 1
        self.finished_at.append(time.perf_counter())
        if not ok:
            self.failed += 1
            return
        self.update_latency.append(sample)

    async def stats(self, port):
        async with self.connection(port) as (reader, writer):
            writer.write(b'{"op": "stats"}\n')
            return json.loads(await reader.readline())["stats"]


async def warm(client, port, write):
    """Populate the result cache; for writes also run one update cycle."""
    async with client.connection(port) as conn:
        for kind in range(len(KINDS)):
            await client.search(conn, kind, 0, record=False)
        if write:
            for step in (0, 1):
                await client.update(conn, step, record=False)
                state = state_after(step, client.edges)
                for kind in range(len(KINDS)):
                    await client.search(conn, kind, state, record=False)


async def read_loop(client, port, seed, seconds):
    deadline = time.perf_counter() + seconds
    rng = random.Random(seed)
    async with client.connection(port) as conn:
        while time.perf_counter() < deadline:
            client.speed.read()
            due = time.perf_counter() + READ_EVERY_S
            while time.perf_counter() < min(due, deadline):
                await client.search(conn, rng.randrange(len(KINDS)), 0,
                                    record=True)
    client.speed.read()


async def write_loop(client, port, seconds, first_step):
    deadline = time.perf_counter() + seconds
    step = first_step
    async with client.connection(port) as conn:
        while time.perf_counter() < deadline:
            client.speed.read()
            await client.update(conn, step, record=True)
            state = state_after(step, client.edges)
            for kind in range(len(KINDS)):
                await client.search(conn, kind, state, record=True)
            step += 1
    client.speed.read()


def start_warm(client, write, spans_path=None):
    """Start a server and warm it; returns ``(server, (begin, end))``.

    Reference readings bracket the set-up.
    """
    client.speed.read()
    begin = time.perf_counter()
    server = Server(spans_path)
    try:
        asyncio.run(warm(client, server.port, write))
    except BaseException:
        server.stop()
        raise
    end = time.perf_counter()
    client.speed.read()
    return server, (begin, end)


def measure(server, client, seed, seconds, write):
    """The timed window between two stats snapshots.

    Returns both snapshots and ``(start, duration)`` of the window.
    """
    async def window():
        before = await client.stats(server.port)
        begin = time.perf_counter()
        if write:
            await write_loop(client, server.port, seconds, 2)
        else:
            await read_loop(client, server.port, seed, seconds)
        wall = time.perf_counter() - begin
        after = await client.stats(server.port)
        return before, after, (begin, wall)

    return asyncio.run(window())


def counters(stats):
    """The ``{"op": "stats"}`` counters the per-layer table reports."""
    serving = stats["serving"]
    engine = serving["host"]["engines"][DATASET]
    cache = serving["result_cache"]
    return {
        "result_cache_hits": cache["hits"],
        "result_cache_misses": cache["misses"],
        "requests_coalesced": serving["requests_coalesced"],
        "requests_rejected": serving["requests_rejected"],
        "responses_failed": stats["server"]["responses_failed"],
        "requests_malformed": stats["server"]["requests_malformed"],
        "rebinds_patched": engine["rebinds_patched"],
        "rebinds_full": engine["rebinds_full"],
        "freeze_patches": engine["freeze_patches"],
        "freeze_rebuilds": engine["freeze_rebuilds"],
        "engine_cache_hits": engine["cache_hits"],
        "engine_cache_misses": engine["cache_misses"],
        "layer_core_hits": engine["cache_layer_core_hits"],
        "layer_core_misses": engine["cache_layer_core_misses"],
        "invalidations_kept": engine["cache_invalidations_kept"],
        "invalidations_dropped": engine["cache_invalidations_dropped"],
    }


def counter_diff(before, after):
    first, last = counters(before), counters(after)
    return {key: last[key] - first[key] for key in last}


def throughput(finished_at, begin, wall, slices=10):
    """Median completions per second over ``slices`` equal slices of the window."""
    width = wall / slices
    counts = [0] * slices
    for moment in finished_at:
        index = int((moment - begin) / width)
        if 0 <= index < slices:
            counts[index] += 1
    return statistics.median(counts) / width


def percentile_report(samples):
    """Median and the highest of p90/p99/p99.9 with ten samples beyond
    it, of the raw wall times of ``(begin, end)`` samples."""
    values = [end - begin for begin, end in samples]
    report = {"count": len(values)}
    if not values:
        return report
    ordered = sorted(values)
    report["p50_ms"] = statistics.median(ordered) * 1e3
    for q, label in ((0.999, "p99.9_ms"), (0.99, "p99_ms"), (0.9, "p90_ms")):
        if len(ordered) * (1 - q) >= 10:
            report[label] = ordered[int(q * len(ordered))] * 1e3
            break
    return report


def run(seed, seconds, trace, write):
    os.makedirs(OUT, exist_ok=True)
    graph = load(DATASET, scale=SCALE, seed=DATASET_SEED).graph
    edges = pick_edges(graph, seed)
    # Reads never leave the base graph; only writes need every state.
    expected = references(graph, edges if write else [])
    client = Client(expected, edges)
    report = {"metrics": {}, "per_layer": {}, "provenance": {}}

    codes = []
    plain = None
    if not trace:
        setups = []
        server = None
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    codes.append(server.stop())
                server, took = start_warm(client, write)
                setups.append(took)
            before, after, window = measure(server, client, seed, seconds,
                                            write)
        finally:
            if server is not None:
                codes.append(server.stop())
    else:
        # Untraced half, then a traced server for the other half: the
        # latency difference is the tracing overhead.
        plain = Client(expected, edges)
        server, _ = start_warm(plain, write)
        try:
            measure(server, plain, seed, seconds / 2, write)
        finally:
            codes.append(server.stop())
        spans_path = os.path.join(OUT, "serve-spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        server, took = start_warm(client, write, spans_path)
        setups = [took]
        try:
            before, after, window = measure(server, client, seed,
                                            seconds / 2, write)
        finally:
            codes.append(server.stop())
        with open(spans_path) as handle:
            spans = json.load(handle)

    searches = [value for values in client.latency.values()
                for value in values]
    clients = [client] if plain is None else [plain, client]
    report["attempted"] = sum(each.attempted for each in clients)
    report["failed"] = sum(each.failed for each in clients)
    diff = counter_diff(before, after)
    server_errors = (diff["requests_rejected"] + diff["responses_failed"]
                     + diff["requests_malformed"])
    report["correct"] = (report["failed"] == 0 and server_errors == 0
                         and codes == [0] * len(codes)
                         and all(client.latency.values()))
    speed = client.speed

    def median(samples):
        if not samples:
            return float("nan")
        return statistics.median(speed.normalise(*sample)
                                 for sample in samples)

    reported = [median(samples) for samples in client.latency.values()]
    # One round of the request mix at the reported latencies: the four
    # searches, plus the update for writes.  The measured rate, which
    # moves with the host's speed, is in provenance.
    cycle = sum(reported)
    if write:
        cycle += median(client.update_latency)
    report["metrics"] = {
        "setup_s": (statistics.median(
            speed.normalise(*setup) for setup in setups), "s"),
        "requests_per_s": ((len(KINDS) + write) / cycle, "1/s"),
    }
    for (metric, _, _, _), value in zip(KINDS, reported):
        report["metrics"][metric] = (value * 1e3, "ms")
    report["provenance"] = {
        "window_s": window[1],
        "measured_requests_per_s": throughput(client.finished_at, *window),
        "setup_samples": len(setups),
        "raw_setup_s": [end - begin for begin, end in setups],
        "reference": speed.summary(),
        "searches": percentile_report(searches),
        "per_kind": {KINDS[kind][0]: percentile_report(values)
                     for kind, values in client.latency.items()},
        "updates": percentile_report(client.update_latency),
        "server_counters": diff,
        "server_exit_codes": codes,
        "update_edges": edges,
    }
    if trace:
        report["per_layer"] = layer_metrics(spans, client, diff, searches,
                                            plain)
    return report


def layer_metrics(spans, client, diff, searches, plain):
    """Serving-layer self times per request, counters and derived waits."""
    table = spans["summary"]
    count = max(1, len(searches))
    updates = max(1, len(client.update_latency))

    def self_ms(name, per=count):
        return table.get(name, {}).get("self_s", 0.0) * 1e3 / per

    def events(name):
        return table.get(name, {}).get("count", 0)

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    host_search = spans["requests"]
    transport = [client.by_id[request] - host_search[request]
                 for request in client.by_id if request in host_search]
    # Derived: the part of the search spans' self time that the
    # dispatcher did not spend leasing, submitting, awaiting the pool or
    # collecting is time the request sat in its graph's queue.
    waited_s = table.get("aio.host.search", {}).get("self_s", 0.0)
    for name in ("host.registry.lease", "engine.session.submit",
                 "parallel.pool.execute", "engine.session.collect"):
        waited_s -= table.get(name, {}).get("total_s", 0.0)
    def median_s(samples):
        return statistics.median(end - begin for begin, end in samples)

    plain_searches = [value for values in plain.latency.values()
                      for value in values]
    overhead = (median_s(searches) / median_s(plain_searches)
                - 1.0) * 100.0 if searches and plain_searches else 0.0
    return {
        "aio.server.format_response_ms":
            self_ms("aio.server.format_response"),
        "aio.server.send_ms": self_ms("aio.server.send"),
        "aio.server.answer_self_ms": self_ms("aio.server.answer"),
        "aio.server.response_bytes": client.response_bytes / count,
        "aio.server.transport_ms":
            statistics.median(transport) * 1e3 if transport else 0.0,
        "aio.result_cache.fetch_ms": self_ms("aio.result_cache.fetch"),
        "aio.result_cache.put_ms": self_ms("aio.result_cache.put"),
        "aio.result_cache.hit_ratio":
            ratio(diff["result_cache_hits"], diff["result_cache_misses"]),
        "aio.host.search_self_ms": self_ms("aio.host.search"),
        "aio.host.queue_wait_ms": max(0.0, waited_s) * 1e3 / count,
        "aio.host.requests_coalesced": diff["requests_coalesced"],
        "aio.host.update_ms":
            table.get("aio.host.update", {}).get("total_s", 0.0) * 1e3
            / updates,
        "graph.multilayer.apply_delta_ms":
            self_ms("graph.multilayer.apply_delta", updates),
        "host.registry.lease_ms": self_ms("host.registry.lease"),
        "engine.session.submit_ms": self_ms("engine.session.submit"),
        "engine.session.collect_ms": self_ms("engine.session.collect"),
        "graph.frozen.freeze_ms": self_ms("graph.frozen.freeze"),
        "engine.cache.rebind_ms": self_ms("engine.cache.rebind"),
        "parallel.pool.apply_delta_ms":
            self_ms("parallel.pool.apply_delta"),
        "parallel.pool.submit_ms": self_ms("parallel.pool.submit"),
        "parallel.pool.execute_ms": self_ms("parallel.pool.execute"),
        "parallel.pool.collect_ms": self_ms("parallel.pool.collect"),
        "parallel.pool.deltas_shipped":
            events("parallel.pool.delta_shipped"),
        "parallel.pool.delta_respawns":
            events("parallel.pool.delta_respawn"),
        "engine.session.rebinds_patched": diff["rebinds_patched"],
        "engine.session.rebinds_full": diff["rebinds_full"],
        "graph.frozen.freeze_patches": diff["freeze_patches"],
        "graph.frozen.freeze_rebuilds": diff["freeze_rebuilds"],
        "engine.cache.hit_ratio":
            ratio(diff["engine_cache_hits"], diff["engine_cache_misses"]),
        "engine.cache.layer_core_hit_ratio":
            ratio(diff["layer_core_hits"], diff["layer_core_misses"]),
        "engine.cache.invalidations_kept_ratio":
            ratio(diff["invalidations_kept"], diff["invalidations_dropped"]),
        "aio.host.requests_rejected": diff["requests_rejected"],
        "aio.server.responses_failed": diff["responses_failed"],
        "aio.server.requests_malformed": diff["requests_malformed"],
        "trace.overhead_pct": overhead,
    }

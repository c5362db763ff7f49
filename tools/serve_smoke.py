#!/usr/bin/env python
"""Network smoke for the socket serving tier (`repro serve --port`).

What CI proves with this script, end to end over a real TCP socket:

1. `repro serve --port 0` comes up, prints its bound port to stderr,
   and accepts concurrent connections;
2. several scripted clients pipelining the same duplicate-heavy
   request list all receive byte-identical response payloads
   (timing fields aside) — the network-level determinism contract;
3. the cross-time result cache actually served: the `stats` protocol
   op reports non-zero cache hits for the repeated specs;
4. streaming updates hold up end to end: an interleaved
   query/update/query client mutates a served graph through the
   `{"op": "update"}` protocol op, every post-update answer matches a
   fresh `DCCHost` built over an identically mutated graph (the
   rebind-the-world baseline), reverting the mutation restores the
   pre-update payload byte for byte, and the `stats` op reports the
   applied batches;
5. SIGINT drains and exits cleanly (exit code 0).

No third-party dependencies (the streaming baseline imports the
in-tree `repro` package), so the smoke runs on a bare checkout: no
pytest — `python tools/serve_smoke.py` from the repo root.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLIENTS = 3
REQUESTS = [
    {"graph": "quickstart", "d": 3, "s": 2, "k": 2},
    {"graph": "english", "d": 2, "s": 2, "k": 3},
    {"graph": "quickstart", "d": 3, "s": 2, "k": 2},  # duplicate
    {"graph": "quickstart", "d": 2, "s": 2, "k": 2, "method": "greedy"},
]


def start_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         os.path.join(ROOT, "examples", "host_queries.json"),
         "--scale", "0.1", "--jobs", "1", "--port", "0"],
        stderr=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    # The CLI announces "serving on <bind>:<port>" on stderr once bound.
    line = process.stderr.readline()
    match = re.search(r"serving on [^:]+:(\d+)", line)
    if not match:
        process.kill()
        raise SystemExit(
            "server did not announce its port; got stderr: "
            "{!r}".format(line)
        )
    return process, int(match.group(1))


async def run_client(port, tag):
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 20)
    for number, request in enumerate(REQUESTS):
        entry = dict(request, id="{}-{}".format(tag, number))
        writer.write((json.dumps(entry) + "\n").encode())
    await writer.drain()
    responses = {}
    for _ in REQUESTS:
        response = json.loads(await reader.readline())
        number = int(response["id"].rsplit("-", 1)[1])
        responses[number] = response
    writer.close()
    await writer.wait_closed()
    return responses


async def fetch_stats(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 20)
    writer.write(b'{"op": "stats"}\n')
    await writer.drain()
    payload = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return payload["stats"]


def comparable(response):
    payload = dict(response)
    for field in ("seq", "id", "elapsed_s"):
        payload.pop(field, None)
    return payload


# ----------------------------------------------------------------------
# streaming phase: interleaved updates + queries vs fresh-host baseline
# ----------------------------------------------------------------------

STREAM_QUERY = {"graph": "quickstart", "d": 2, "s": 2, "k": 2,
                "method": "greedy"}
# Must match start_server's CLI flags: the fresh-host baseline rebuilds
# the served graph with the exact same loader arguments.
SERVE_SCALE, SERVE_SEED = 0.1, 0


def _repro():
    """Import the in-tree package (baseline only; clients stay pure)."""
    path = os.path.join(ROOT, "src")
    if path not in sys.path:
        sys.path.insert(0, path)


def stream_updates():
    """A remove-then-restore update script over a real served edge."""
    _repro()
    from repro.cli import _load_graph

    probe = _load_graph("figure1", SERVE_SCALE, SERVE_SEED)
    vertices = sorted(probe.vertices(), key=repr)
    u, v = next((a, b) for a in vertices for b in vertices
                if repr(a) < repr(b) and probe.has_edge(0, a, b))
    return [
        {"op": "update", "graph": "quickstart", "remove": [[0, u, v]]},
        {"op": "update", "graph": "quickstart", "add": [[0, u, v]]},
    ]


def fresh_host_baseline(updates):
    """The rebind-the-world answer: cold host over a pre-mutated graph."""
    _repro()
    from repro.aio import format_response
    from repro.cli import _load_graph
    from repro.host import DCCHost

    graph = _load_graph("figure1", SERVE_SCALE, SERVE_SEED)
    for update in updates:
        graph.apply_delta(
            add=[tuple(edge) for edge in update.get("add", [])],
            remove=[tuple(edge) for edge in update.get("remove", [])],
        )
    query = dict(STREAM_QUERY)
    name = query.pop("graph")
    with DCCHost() as host:
        host.attach(name, graph)
        result = host.search(name, **query)
    return comparable(format_response(0, None, result=result))


async def run_stream_phase(port):
    updates = stream_updates()
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 20)

    async def ask(payload):
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())

    before = await ask(dict(STREAM_QUERY, id="s-before"))
    removed = await ask(dict(updates[0], id="s-remove"))
    mid = await ask(dict(STREAM_QUERY, id="s-mid"))
    restored = await ask(dict(updates[1], id="s-restore"))
    after = await ask(dict(STREAM_QUERY, id="s-after"))
    writer.close()
    await writer.wait_closed()

    for response in (before, removed, mid, restored, after):
        assert response["ok"], \
            "streaming step failed: {!r}".format(response)
    assert removed["update"]["applied"] == 1, removed
    assert restored["update"]["applied"] == 1, restored
    # Post-update answers must match a cold host over an identically
    # mutated graph — the long-lived server's caches may not leak
    # pre-update state across the mutation.
    assert comparable(before) == fresh_host_baseline([]), \
        "pre-update answer deviates from fresh host"
    assert comparable(mid) == fresh_host_baseline(updates[:1]), \
        "post-update answer deviates from fresh host over mutated graph"
    assert comparable(after) == comparable(before), \
        "reverting the update did not restore the original answer"


async def smoke(port):
    per_client = await asyncio.gather(*(
        run_client(port, "c{}".format(tag)) for tag in range(CLIENTS)
    ))
    failures = [response
                for responses in per_client
                for response in responses.values() if not response["ok"]]
    assert not failures, "server answered errors: {!r}".format(failures)
    # Bitwise-equal responses: every client, every duplicate, the same
    # payload for the same spec.
    reference = per_client[0]
    for responses in per_client[1:]:
        for number in reference:
            assert comparable(responses[number]) == \
                comparable(reference[number]), \
                "clients disagree on request {}".format(number)
    assert comparable(reference[0]) == comparable(reference[2]), \
        "duplicate spec answered differently"
    stats = await fetch_stats(port)
    hits = stats["serving"]["result_cache"]["hits"]
    cached = stats["serving"]["requests_cached"]
    assert hits > 0 and cached > 0, \
        "repeated specs never hit the result cache: {!r}".format(
            stats["serving"]["result_cache"])
    await run_stream_phase(port)
    stats = await fetch_stats(port)
    assert stats["serving"]["updates_applied"] == 2, \
        "stats op lost the applied update batches: {!r}".format(
            stats["serving"].get("updates_applied"))
    assert stats["serving"]["update_latency"]["count"] == 2, \
        "update latency went unrecorded"
    return stats


def main():
    process, port = start_server()
    try:
        stats = asyncio.run(asyncio.wait_for(smoke(port), timeout=120))
    except BaseException:
        process.kill()
        process.wait()
        raise
    process.send_signal(signal.SIGINT)
    try:
        code = process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit("server did not drain and exit on SIGINT")
    assert code == 0, "server exited {} after SIGINT".format(code)
    print("serve smoke: {} clients x {} requests OK | cache hits {} | "
          "streaming updates applied {} (fresh-host equivalent) | "
          "server counters {}".format(
              CLIENTS, len(REQUESTS),
              stats["serving"]["result_cache"]["hits"],
              stats["serving"]["updates_applied"],
              stats["server"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

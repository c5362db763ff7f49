"""The engine's query execution, and the worker pool greedy fans out over.

This package cashes in the promise of the frozen CSR substrate: a frozen
graph is immutable, densely indexed and flat-array backed, so it can be
serialized once per worker process and searched concurrently with zero
coordination.  :class:`repro.engine.DCCEngine` drives it, and
``search_dccs(..., jobs=N)`` is a one-query engine.  Only greedy's
candidate family runs on the pool, because its pooled answer is bitwise
equal to the sequential ``gd_dccs``; bottom-up and top-down run their
sequential algorithms in process.  So every engine answer equals
``search_dccs(..., jobs=None)``; see :mod:`repro.parallel.search` and
``docs/architecture.md``.

Pool lifecycle is split from per-search submission: a
:class:`~repro.parallel.executor.WorkerPool` ships the graph once per
worker process and then serves any number of greedy queries, each
crossing the process boundary as a tiny ``(method, d, s, k, options)``
spec (:class:`~repro.parallel.plan.Query`).  A one-shot search wraps a
short-lived engine; a long-lived :class:`repro.engine.DCCEngine` keeps
its pool warm, and a batch pipelines through it in
:class:`repro.aio.AsyncDCCHost`'s dispatchers, which start every query
of a drained batch before collecting any.

Layout
------
* :mod:`~repro.parallel.serialize` — one-shot graph payloads (the frozen
  CSR arrays ship as flat buffers);
* :mod:`~repro.parallel.plan` — query specs and deterministic greedy
  planning (``make_query`` / ``plan_query``), shared by orchestrator and
  workers;
* :mod:`~repro.parallel.worker` — greedy shard execution and the
  per-query context cache, shared by the inline path and the worker
  processes;
* :mod:`~repro.parallel.executor` — pool lifecycle and the chunked shard
  queue (``usable_cpus`` / ``check_jobs`` / ``effective_jobs`` /
  ``WorkerPool``);
* :mod:`~repro.parallel.search` — orchestration: start (greedy: plan and
  submit; bottom-up and top-down: run in process), collect, merge.
"""

from repro.parallel.executor import (
    MAX_WORKERS,
    WorkerPool,
    check_jobs,
    effective_jobs,
    live_pool_count,
    usable_cpus,
)
from repro.parallel.plan import Query, make_query, plan_query
from repro.parallel.search import PendingQuery, start_query
from repro.parallel.serialize import graph_payload, payload_graph
from repro.parallel.worker import QueryRunnerCache, ShardRunner

__all__ = [
    "start_query",
    "PendingQuery",
    "check_jobs",
    "effective_jobs",
    "live_pool_count",
    "usable_cpus",
    "WorkerPool",
    "MAX_WORKERS",
    "Query",
    "make_query",
    "plan_query",
    "graph_payload",
    "payload_graph",
    "QueryRunnerCache",
    "ShardRunner",
]

"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads:

* ``search_200k``: ``repro.core.search_dccs`` on a 200k-vertex
  ``synthetic_multilayer`` graph (see ``library.py``);
* ``serve_read``: warm cached searches over ``repro serve --port``;
* ``serve_write``: one-edge updates, each followed by four searches,
  over the same server (see ``serving.py``).

Inputs are generated from ``--seed``.  With ``--trace 0`` the last line
of standard output is a JSON object with every end-to-end metric; with
``--trace 1`` half the run is untraced and half is traced, and the
metrics are the per-layer ones.  The line before it holds provenance:
machine, versions, sample counts, tail percentiles, server counters.
"""

import argparse
import json
import math
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search_200k", "serve_read", "serve_write")


def per_layer():
    """``{name: unit}`` of every per-layer metric ``BENCHMARK.json`` lists.

    Library times are self seconds per pass of four queries; serving times
    are self milliseconds per search request (per update for the update
    layers); counts are totals over the traced window.  A layer a
    workload does not exercise reads 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        entries = json.load(handle)["per_layer"]
    return {entry["name"]: entry["unit"] for entry in entries}


def pin_to_one_cpu():
    """Run the benchmark, and every process it starts, on one CPU.

    On a host shared with other tenants each vCPU slows down on its own
    schedule, and a request that wakes a process on another vCPU pays a
    cross-CPU wake-up whose cost swings with the host's load.  With the
    client, the server and its pool on one CPU only that CPU's quiet
    stretches matter: five ``serve_read`` runs spread 0.01 that way,
    against 0.10-0.32 in sets taken the same hour with client and server
    on separate CPUs.  Returns the CPU, or None where affinity cannot be
    set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def commit():
    """The checked-out commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program source at {}; run from the root of a "
              "checkout".format(src), file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    cpu = pin_to_one_cpu()

    import numpy

    from repro.graph.kernels import resolve_kernel

    if args.workload == "search_200k":
        import library

        report = library.run(args.seed, args.seconds, args.trace)
    else:
        import serving

        report = serving.run(args.seed, args.seconds, args.trace,
                             write=args.workload == "serve_write")

    if args.trace:
        units = per_layer()
        unknown = set(report["per_layer"]) - set(units)
        if unknown:
            raise KeyError("per-layer metrics missing from BENCHMARK.json: "
                           "{}".format(sorted(unknown)))
        metrics = {name: (report["per_layer"].get(name, 0.0), unit)
                   for name, unit in units.items()}
    else:
        metrics = report["metrics"]
    correct = report["correct"] and all(
        math.isfinite(value) for value, _ in metrics.values())
    provenance = dict(report["provenance"])
    provenance.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_tier": resolve_kernel("auto"),
        "commit": commit(),
        "attempted": report["attempted"],
        "succeeded": report["attempted"] - report["failed"],
        "failed": report["failed"],
    })
    result = {
        "correct": bool(correct),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = os.path.join(HERE, "out", "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    with open(record, "w") as handle:
        json.dump({"provenance": provenance, "result": result}, handle,
                  indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The wfsat benchmark: end-to-end CLI times, or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload heavy|corpus --seed N \\
        --seconds S --trace 0|1

Each run starts fresh processes (``worker.py``): a few that only set the
workload up, to time set-up, and one that sets up and then sends the
workload's requests through ``wfsat.cli.main`` one after another for
``--seconds`` (at least one full pass).  The outputs are then checked
(``checks.py``) without the clock running.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The line before it holds the workload's size properties,
the failure rate, ``request_p95_ms`` and facts about the machine and the
build.  The exit
code is 1 when any output check fails; the run's work directory under
``perfbench/_work`` is then kept for inspection, else removed.

``--update-pins`` records the current sizes, report digests and costs as
the expected ones in ``pins.json``; use it only at the default seed and
only when a change to the reports is intended.

Metrics (per pass = one run through the workload's request list):

* ``setup_s``: median over the run's set-ups of process start to inputs
  written and ``wfsat.cli`` imported.
* ``check_s`` / ``enumerate_s``: the summed wall time of one pass's
  ``check`` / ``enumerate`` requests, each request's time being its best
  over the run's passes.  The best pass is the figure that repeats from
  run to run on a machine whose speed drifts; ``corpus`` makes several
  passes, ``heavy`` usually one.
* ``request_p50_ms`` / ``request_p95_ms``: percentiles of the latencies
  of every request of every pass, so that costs the program incurs only
  now and then (collector pauses, pool start-up) show in them.  The p95
  is printed but not declared in ``BENCHMARK.json``: when other load
  shares the machine it rises by up to half from run to run, beyond any
  bound the benchmark may set.
* ``peak_rss_mb``: the measured process's peak resident set after its
  requests.

With ``--trace 1`` the layers named in ``EXERCISED`` must have been
called, or the run fails: each workload is there to exercise them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
PINS = HERE / "pins.json"
SETUP_RUNS = 5
"""Set-ups per run: SETUP_RUNS - 1 set-up-only processes plus the measured one."""
EXERCISED = {
    "heavy": ("arrangements.count_sequences.calls", "solver.decompose_constraint.calls"),
    "corpus": ("solver.min_auth_weight.calls", "solver.linear_sum_assignment.calls"),
}
"""Per-layer counts that must not be 0 in a workload's traced run."""
DEADLINE_S = 170.0
"""A run must end within 180 s; workers are killed after this long."""

sys.path.insert(0, str(ROOT / "src"))


def spawn(args, workdir: Path, started: float, setup_only: bool) -> dict:
    """Run one worker process to completion; returns its result."""
    workdir.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    remaining = DEADLINE_S - (time.monotonic() - started)
    subprocess.run(
        [*command, "--started", repr(time.time())],
        cwd=ROOT,
        check=True,
        timeout=max(remaining, 1.0),
        stdout=subprocess.DEVNULL,
    )
    return json.loads((workdir / "worker.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_times(passes) -> dict[str, tuple[str, float]]:
    """Each request's verb and best latency over the run's passes.

    This machine's speed drifts by tens of percent over seconds, and the
    drift only ever slows a request down; a request's fastest pass is the
    figure that repeats best from run to run (as with ``timeit``).
    """
    seen: dict[str, tuple[str, list]] = {}
    for calls in passes:
        for c in calls:
            seen.setdefault(c["label"], (c["verb"], []))[1].append(c["seconds"])
    return {label: (verb, min(times)) for label, (verb, times) in seen.items()}


def verb_seconds(requests: dict, verb: str) -> float:
    return sum(seconds for v, seconds in requests.values() if v == verb)


def end_to_end(setups: list[float], raw: dict) -> dict[str, float]:
    requests = best_times(raw["passes"])
    latencies = [c["seconds"] * 1000 for calls in raw["passes"] for c in calls]
    return {
        "setup_s": statistics.median(setups),
        "check_s": verb_seconds(requests, "check"),
        "enumerate_s": verb_seconds(requests, "enumerate"),
        "request_p50_ms": statistics.median(latencies),
        "request_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict) -> dict[str, float]:
    layers = dict(raw["layers"])
    untraced = verb_seconds(best_times(raw["untraced_passes"]), "check")
    layers["trace.overhead_ratio"] = verb_seconds(best_times(raw["passes"]), "check") / untraced
    return layers


def environment(raw: dict) -> dict:
    import numpy
    import scipy

    commit = ""
    if (ROOT / ".git").exists():  # else git would search the parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    pools = [size for size in raw["pool_sizes"] if size is not None]
    return {
        "nproc": os.cpu_count(),
        "default_jobs_effective": max(pools, default=1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit or "unknown",
    }


def check(args, work: Path, pins: dict, raw: dict) -> tuple[list[str], set[str], dict]:
    """Run every output check; returns failures, failed labels and sizes."""
    import checks
    import workloads
    from wfsat.io import load_schema

    requests = workloads.build(args.workload, args.seed, work / "check-inputs")
    checker = checks.Checker(args.workload, args.seed, {} if args.update_pins else pins)
    failed = checker.check_calls(requests, raw["passes"])
    final = {c["label"]: c for c in raw["passes"][-1]}
    sizes = {"schemas": 0, "instances": 0, "arrangements": 0, "sequences": 0, "steps": 0, "users": 0}
    digests, invariants, sized = {}, {}, set()
    for request in requests:
        call = final[request.label]
        digests[request.label] = call["sha256"]
        report = checker.check_report(request, call)
        if report is None:
            failed.add(request.label)
            continue
        invariants[request.label] = checks.invariants(report)
        if report["aggregates"] is not None and request.schema not in sized:
            sized.add(request.schema)
            schema = load_schema(request.schema)
            sizes["schemas"] += 1
            sizes["steps"] += len(schema.steps)
            sizes["users"] += len(schema.users)
            for key in ("instances", "arrangements", "sequences"):
                sizes[key] += report["totals"][key]
    sizes["components"] = raw["components_per_pass"]
    if args.update_pins:
        pins.update(default_seed=args.seed, sizes=sizes, sha256=digests)
        if args.workload != "corpus":
            pins["invariants"] = invariants
    elif args.seed == pins.get("default_seed") or args.workload != "corpus":
        if sizes != pins.get("sizes"):
            checker.fail("sizes", f"{sizes} differ from the pinned {pins.get('sizes')}")
    return checker.failures, failed, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("heavy", "corpus"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    all_pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pins = all_pins.setdefault(args.workload, {})

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    setups = [
        spawn(args, work / f"setup{k}", started, setup_only=True)["setup_s"]
        for k in range(SETUP_RUNS - 1)
    ]
    raw = spawn(args, work / "run", started, setup_only=False)
    setups.append(raw["setup_s"])

    failures, failed, sizes = check(args, work, pins, raw)
    values = per_layer(raw) if args.trace else end_to_end(setups, raw)
    if args.trace:
        for name in EXERCISED[args.workload]:
            if not values[name]:
                failures.append(f"{name}: the layer was never called")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    calls = [c for p in raw["passes"] for c in p]
    attempted = len(calls)
    failed_calls = sum(1 for c in calls if c["label"] in failed)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "passes": len(raw["passes"]),
                "sizes": sizes,
                "fail_rate": failed_calls / attempted,
                "request_p95_ms": values.get("request_p95_ms"),
                "environment": environment(raw),
            },
            sort_keys=True,
        )
    )
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.update_pins and not failures:
        PINS.write_text(json.dumps(all_pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_calls,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    if failures:
        return 1
    shutil.rmtree(work)  # heavy's reports alone take 125 MB; kept only when a check fails
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, then time its CLI requests.

``run.py`` starts this script once per set-up probe (``--setup-only``)
and once for the measured run, so that the measured process's peak
memory belongs to one workload alone.  Set-up time runs from the
``--started`` wall-clock stamp the parent took just before starting the
process until the inputs are written and ``wfsat.cli`` is imported.

Requests go out one after another (a closed loop with one client) and
call ``wfsat.cli.main(argv)`` in-process with the CLI's default flags.
Each report is written to a file, as a user redirecting stdout would;
its sha256 is taken after the clock stops.  Passes over the request
list repeat until ``--seconds`` have gone by (at least one pass).

With ``--trace 1``, untraced passes of the ``check`` requests come first,
for ``--seconds``, as the base of ``trace.overhead_ratio``; then the
layers are instrumented (see ``tracing.py``) and traced passes follow.

The result is one JSON object written to ``<workdir>/worker.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def call(cli, request, out_dir: Path) -> dict:
    """Run one request; returns its timing, exit code and output digest."""
    out = out_dir / (request.label.replace("/", "__") + ".json")
    err = io.StringIO()
    error = None
    with open(out, "w", encoding="utf-8") as sink:
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = cli.main(list(request.argv))
        except Exception:  # a crash is a failed request, not a failed benchmark
            code, error = None, traceback.format_exc()
        sink.flush()
        seconds = time.perf_counter() - started
    return {
        "label": request.label,
        "verb": request.verb,
        "code": code,
        "seconds": seconds,
        "sha256": _sha256(out),
        "output": str(out),
        "stderr": err.getvalue(),
        "error": error,
    }


def repeat(cli, requests, out_dir: Path, seconds: float) -> list[list[dict]]:
    """Passes over ``requests`` until ``seconds`` have gone by; at least one."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append([call(cli, r, out_dir) for r in requests])
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    import wfsat.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"wfsat was imported from {cli.__file__}, not from this checkout")
    requests = workloads.build(args.workload, args.seed, args.workdir / "inputs")
    setup_s = time.time() - args.started
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(cli, requests, args))
    (args.workdir / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(cli, requests, args) -> dict:
    import tracing

    out_dir = args.workdir / "outputs"
    out_dir.mkdir(parents=True, exist_ok=True)
    patches = tracing.Patches()
    result: dict = {}
    if args.trace:
        checks = [r for r in requests if r.verb == "check"]
        result["untraced_passes"] = repeat(cli, checks, out_dir, args.seconds)
        tracer = tracing.Tracer()
        tracing.instrument(tracer, patches)
    # Both spies cost one extra call per analysis and per solved component.
    pool_sizes = tracing.spy_pools(patches, tracing.ContextPool if args.trace else ThreadPoolExecutor)
    components = tracing.spy_components(patches)
    try:
        passes = repeat(cli, requests, out_dir, args.seconds)
    finally:
        patches.undo()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["passes"] = passes
    result["pool_sizes"] = sorted(set(pool_sizes), key=str)
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer, len(passes))
    result["components_per_pass"] = sum(components) / len(passes)
    return result


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's traced heavy run still finds the layers it requires.

``perfbench/run.py`` fails a traced run when a layer named in its
``EXERCISED`` table was never called, and ``perfbench/tracing.py``
reaches each layer through the module attributes the program calls it
by.  A refactor that stops calling such a layer, or calls it by another
name, fails the benchmark without failing any other test; this test
runs the heavy workload's two requests under the same instrumentation.
The benchmark's files are imported read-only.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import sys
from pathlib import Path

import wfsat.arrangements
import wfsat.cli
from wfsat.arrangements import eliminate_xor, enumerate_arrangements

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """The benchmark module ``perfbench/<name>.py``, under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def test_heavy_trace_reaches_every_exercised_layer(tmp_path, heavy_schema):
    tracing, workloads, run = load("tracing"), load("workloads"), load("run")
    requests = workloads.build("heavy", 1, tmp_path)
    assert [r.verb for r in requests] == ["check", "enumerate"]
    assert requests[0].argv[: len(workloads.HEAVY_CHECK)] == workloads.HEAVY_CHECK
    original = wfsat.arrangements.count_sequences

    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.instrument(tracer, patches)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes = [wfsat.cli.main(list(r.argv)) for r in requests]
    finally:
        patches.undo()
    assert wfsat.arrangements.count_sequences is original
    assert codes == [0, 0]

    layers = tracing.layer_metrics(tracer, passes=1)
    for name in run.EXERCISED["heavy"]:
        assert layers[name] > 0, name
    # Each request counts the linear extensions of each of heavy's 1,024
    # distinct slot contents once.
    assert layers["sequences.count_linear_extensions.calls"] == 2_048
    # Class sizes are counted once per arrangement table, in each request.
    tables = sum(
        len(enumerate_arrangements(instance).blocks)
        for instance in eliminate_xor(heavy_schema.workflow)
    )
    assert tables == 24
    assert layers["arrangements.count_sequences.calls"] == 2 * tables

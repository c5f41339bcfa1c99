"""Self-time arithmetic and live span recording."""

import threading

import pytest

import tracing
import wfsat.decisions
from tracing import ContextPool, Patches, Tracer, covered


def test_covered_is_the_union_of_intervals():
    assert covered([]) == 0
    assert covered([(0, 2), (1, 3)]) == 3
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 5), (1, 2), (3, 4)]) == 5
    assert covered([(2, 2), (3, 1)]) == 0


def synthetic() -> Tracer:
    """A root with a nested child in its own thread and two overlapping
    children in two other threads, as a thread pool makes them."""
    tracer = Tracer()
    main, w1, w2 = tracer.new_buffer(), tracer.new_buffer(), tracer.new_buffer()
    root = tracer.add(main, "root", -1, 0.0, 10.0)
    child = tracer.add(main, "child", root, 1.0, 3.0)
    tracer.add(main, "leaf", child, 1.5, 2.5)
    tracer.add(w1, "task", root, 4.0, 8.0)
    tracer.add(w2, "task", root, 5.0, 9.0)
    tracer.add(w2, "task", root, 9.5, 11.0)  # outlives its parent: clipped
    return tracer


def test_self_time_subtracts_the_union_of_children():
    stats = synthetic().span_stats()
    # root: 10 s minus [1,3] and the union [4,9] and [9.5,10] of its tasks
    assert stats["root"]["self_s"] == pytest.approx(10 - 2 - 5 - 0.5)
    assert stats["child"]["self_s"] == pytest.approx(1.0)
    assert stats["leaf"]["self_s"] == pytest.approx(1.0)
    assert stats["task"]["self_s"] == pytest.approx(4 + 4 + 1.5)
    assert stats["task"]["calls"] == 3


def test_children_summed_across_threads_exceed_wall_time():
    stats = synthetic().span_stats()["root"]
    assert stats["child_sum_s"] == pytest.approx(2 + 4 + 4 + 1.5)
    assert stats["workers"] == 2


def test_pool_tasks_name_the_submitting_span_as_parent():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def task(_):
        barrier.wait()  # both workers hold a task at once
        return 1

    traced_task = tracer.span("task", task)

    def fan_out():
        with ContextPool(max_workers=2) as pool:
            return sum(pool.map(traced_task, range(2)))

    assert tracer.span("root", fan_out)() == 2
    main = tracer.buffers[0]
    root = tracing.span_id(0, main.slot)
    parents = [
        buf.parent[i]
        for buf in tracer.buffers
        for i, nid in enumerate(buf.name)
        if tracer.names[nid] == "task"
    ]
    assert parents == [root, root]
    stats = tracer.span_stats()
    assert stats["task"]["calls"] == 2
    assert stats["root"]["workers"] == 2


def test_instrumentation_is_undone():
    original = wfsat.decisions.count_sequences
    less = wfsat.model.Poset.less
    patches = Patches()
    tracing.instrument(Tracer(), patches)
    assert wfsat.decisions.count_sequences is not original
    assert wfsat.model.Poset.less is not less
    patches.undo()
    assert wfsat.decisions.count_sequences is original
    assert wfsat.model.Poset.less is less


def test_layer_metrics_of_a_traced_analysis():
    import workloads

    tracer, patches = Tracer(), Patches()
    tracing.instrument(tracer, patches)
    try:
        wfsat.decisions.analyze(workloads.scaling_schema(), jobs=1)
    finally:
        patches.undo()
    layers = tracing.layer_metrics(tracer, passes=1)
    assert layers["decisions.analyze.calls"] == 1
    assert layers["arrangements.enumerate_arrangements.arrangements"] == 80
    assert layers["solver.min_cost_arrangement.calls"] == 80
    assert layers["arrangements.count_sequences.calls"] == 80
    looked_up = layers["solver.SolveCache.hits"] + layers["solver.SolveCache.misses"]
    assert layers["solver.solve_vwsp.calls"] == layers["solver.SolveCache.misses"] > 0
    assert looked_up > 0 and layers["solver.solve_vwsp.partitions"] > 0
    assert layers["model.Poset.less.calls"] > 0

"""Generator determinism and the invariance of the seeded renaming."""

import json
import random

import pytest

import workloads
from wfsat.decisions import analyze
from wfsat.io import parse_ccws


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    first = workloads.build(workload, 3, tmp_path / "a")
    second = workloads.build(workload, 3, tmp_path / "b")
    assert [(r.label, r.argv[:-1]) for r in first] == [(r.label, r.argv[:-1]) for r in second]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(workload, tmp_path):
    workloads.build(workload, 3, tmp_path / "a")
    workloads.build(workload, 4, tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_renaming_keeps_costs_and_counts():
    doc = workloads._doc(workloads.scaling_schema())
    renamed = workloads.relabel(doc, random.Random(5))
    assert renamed != doc
    before = analyze(parse_ccws(json.dumps(doc)), jobs=1)
    after = analyze(parse_ccws(json.dumps(renamed)), jobs=1)
    assert [(r.count, r.min_cost) for r in before.records] == [(r.count, r.min_cost) for r in after.records]
    assert (before.cache_hits, before.cache_misses) == (after.cache_hits, after.cache_misses)

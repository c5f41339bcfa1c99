from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wfsat.arrangements import (
    Arrangement,
    arrangement_of,
    eliminate_xor,
    enumerate_arrangements,
)
from wfsat.errors import SizeLimit
from wfsat.model import Schema, par, seq, step
from wfsat.oracle import (
    oracle_decide,
    oracle_min_cost_sequence,
    plan_cost,
    sigma,
    sigma_count,
)

from helpers import class_size
from randgen import random_tree


class TestSigma:
    def test_purchase_order_has_seven_sequences(self, purchase_order):
        assert sigma_count(purchase_order.workflow) == 7
        assert len(sigma(purchase_order.workflow)) == 7

    def test_purchase_order_no_release_sequences(self, purchase_order_no_release):
        assert set(sigma(purchase_order_no_release.workflow)) == {
            ("s1", "s2", "s4", "s3", "s5", "s6"),
            ("s1", "s2", "s3", "s4", "s5", "s6"),
            ("s1", "s2", "s3", "s5", "s4", "s6"),
            ("s1", "s2", "s4", "s3p", "s6"),
            ("s1", "s2", "s3p", "s4", "s6"),
        }

    def test_count_matches_generation(self):
        rng = random.Random(77)
        for _ in range(50):
            tree = random_tree(rng, rng.randint(1, 5), rng.randint(0, 2), rng.randint(0, 2))
            seqs = sigma(tree, cap=50_000)
            assert sigma_count(tree) == len(seqs) == len(set(seqs))

    def test_cap(self, purchase_order):
        with pytest.raises(SizeLimit):
            sigma(purchase_order.workflow, cap=3)


class TestMinCostSequence:
    def test_restricted_released_sequence_is_free(self, purchase_order_restricted):
        got = oracle_min_cost_sequence(("s1", "s2", "s3", "s5", "r", "s4", "s6"), purchase_order_restricted)
        assert got.total == 0

    def test_restricted_blocked_sequence_costs_five(self, purchase_order_restricted):
        got = oracle_min_cost_sequence(("s1", "s2", "s4", "s3", "s5", "r", "s6"), purchase_order_restricted)
        assert got.total == 5

    def test_unconstrained_fully_authorized(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={s: frozenset(("u1",)) for s in ("a", "b")},
            default_unauth_penalty=1,
        )
        assert oracle_min_cost_sequence(("a", "b"), schema).total == 0

    def test_witness_cost_consistency(self, purchase_order_restricted):
        for s in sigma(purchase_order_restricted.workflow):
            got = oracle_min_cost_sequence(s, purchase_order_restricted)
            assert plan_cost(s, got.plan, purchase_order_restricted) == got.total

    def test_plan_cap(self, purchase_order_restricted):
        with pytest.raises(SizeLimit):
            oracle_min_cost_sequence(
                ("s1", "s2", "s3", "s5", "r", "s4", "s6"), purchase_order_restricted, cap=10
            )


class TestOracleDecide:
    def test_restricted_decisions(self, purchase_order_restricted):
        report = oracle_decide(purchase_order_restricted, budget=0, probability=Fraction(2, 7))
        assert report.total_sequences == 7
        assert report.approx is True
        assert report.bounded is False
        assert report.strong is False
        assert oracle_decide(purchase_order_restricted, budget=3).expected is False
        assert report.expected_cost == Fraction(25, 7)

    def test_unconstrained_schema_everything_yes(self):
        schema = Schema(
            workflow=par(step("a"), step("b")),
            users=("u1", "u2"),
            authorizations={s: frozenset(("u1", "u2")) for s in ("a", "b")},
            default_unauth_penalty=1,
        )
        report = oracle_decide(schema, budget=0, probability=1)
        assert report.strong and report.bounded and report.expected and report.approx

    def test_class_minima_constant_within_class(self, purchase_order_restricted, small_corpus):
        for schema in [purchase_order_restricted] + small_corpus[:20]:
            report = oracle_decide(schema)
            for cls in report.classes:
                assert len(set(cls.min_costs)) == 1

    def test_grouping_reproduces_arrangements(self, purchase_order_restricted, small_corpus):
        for schema in [purchase_order_restricted] + small_corpus[:20]:
            report = oracle_decide(schema)
            oracle_classes = {
                (cls.release_order, tuple(frozenset(s) for s in cls.slots)): cls.count
                for cls in report.classes
            }
            pipeline_classes = {}
            for inst in eliminate_xor(schema.workflow):
                for arr in enumerate_arrangements(inst):
                    key = (arr.release_order, tuple(frozenset(s) for s in arr.slots))
                    pipeline_classes[key] = class_size(arr)
            assert oracle_classes == pipeline_classes


def class_ends(arrangement: Arrangement) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The first and the last sequence of an arrangement's class.

    Both join the slots by the release order.  The first runs each slot in
    canonical order; the last runs each slot by always taking, of the
    steps whose predecessors in the slot have run, the one latest in
    canonical order.
    """
    poset = arrangement.owner.poset
    first: list[str] = []
    last: list[str] = []
    for d, slot in enumerate(arrangement.slots):
        if d:
            first.append(arrangement.release_order[d - 1])
            last.append(arrangement.release_order[d - 1])
        first.extend(slot)
        left = list(slot)
        while left:
            pick = next(s for s in reversed(left) if not any(poset.less(t, s) for t in left))
            left.remove(pick)
            last.append(pick)
    return tuple(first), tuple(last)


def test_oracle_prices_a_sample_of_heavy_witnesses(heavy_schema, heavy_analysis):
    # The heavy schema has 11,531,520 sequences, far beyond the oracle's
    # reach, so price each sampled record's witness plan on the first and
    # the last sequence of its class instead.
    records = random.Random(18).sample(heavy_analysis.records, 300)
    for record in records:
        arrangement = record.arrangement
        for sequence in class_ends(arrangement):
            assert arrangement_of(sequence, arrangement.owner) == arrangement
            assert plan_cost(sequence, record.solution.plan, heavy_schema) == record.min_cost

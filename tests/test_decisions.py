from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from wfsat import arrangements, decisions, solver
from wfsat.arrangements import (
    count_sequences,
    eliminate_xor,
    enumerate_arrangements,
)
from wfsat.decisions import (
    analyze,
    check_approx,
    check_bounded_cost,
    check_expected_cost,
    check_strong_sat,
    min_budget_bounded,
    min_budget_expected,
)
from wfsat.errors import ZeroWeight
from wfsat.model import Schema, WeightedConstraint, par, release, seq, step, xor
from wfsat.oracle import oracle_decide
from wfsat.sequences import count_linear_extensions, sequence_count
from wfsat.solver import cost_keys, cost_signature, min_cost_arrangement

from helpers import arrangements_by_filter, class_size, span_grouping
from randgen import random_schema
from test_acceptance import synthetic_schema

REFERENCE_ORDER = [
    (("s1", "s2", "s3", "s5"), ("s4", "s6")),
    (("s1", "s2", "s3", "s5", "s4"), ("s6",)),
    (("s1", "s2", "s3p", "s4"), ("s6",)),
    (("s1", "s2", "s3p"), ("s4", "s6")),
]


def by_slots(analysis):
    return {r.arrangement.slots: r for r in analysis.records}


class TestAnalyze:
    def test_purchase_order_records(self, purchase_order):
        analysis = analyze(purchase_order)
        assert len(analysis.records) == 4
        assert analysis.total_sequences == 7
        counts = by_slots(analysis)
        assert [counts[s].count for s in REFERENCE_ORDER] == [1, 3, 2, 1]

    def test_release_free_schema_single_record(self):
        schema = Schema(
            workflow=par(step("a"), seq(step("b"), step("c"))),
            users=("u1",),
            authorizations={s: frozenset(("u1",)) for s in ("a", "b", "c")},
            default_unauth_penalty=1,
        )
        analysis = analyze(schema)
        assert len(analysis.records) == 1
        assert analysis.records[0].count == sequence_count(schema.workflow) == 3

    def test_restricted_costs_in_reference_order(self, purchase_order_restricted):
        analysis = analyze(purchase_order_restricted)
        records = by_slots(analysis)
        assert [records[s].min_cost for s in REFERENCE_ORDER] == [0, 5, 5, 0]

    def test_records_and_arrangements_have_no_dict(self, purchase_order_restricted):
        for record in analyze(purchase_order_restricted).records:
            assert not hasattr(record, "__dict__")
            assert not hasattr(record.arrangement, "__dict__")

    def test_jobs_do_not_change_records(self, purchase_order_restricted):
        a1 = analyze(purchase_order_restricted, jobs=1)
        a8 = analyze(purchase_order_restricted, jobs=8)
        key = lambda a: [
            (r.arrangement.owner.index, r.arrangement.slots, r.count, r.min_cost, r.solution.plan)
            for r in a.records
        ]
        assert key(a1) == key(a8)


class TestMass:
    def test_matches_oracle_min_costs(self, small_corpus):
        # Cost is invariant within a class: summing class sizes by arrangement
        # cost gives the oracle's per-sequence cost histogram.
        for schema in small_corpus:
            assert analyze(schema).mass == Counter(oracle_decide(schema).min_costs)

    @pytest.mark.parametrize("seed", [2, 4, 10, 17])
    def test_sums_to_sigma_beyond_oracle_scale(self, seed):
        schema = random_schema(seed, max_steps=10, max_releases=3, max_effort=None)
        analysis = analyze(schema)
        assert sum(analysis.mass.values()) == sum(sequence_count(i.ast) for i in analysis.instances)

    def test_heavy_class_sizes_add_up_to_sigma(self, heavy_analysis):
        # Per instance, the class sizes of its 86,011 arrangements in all
        # count each of its execution sequences once.
        sizes = [0] * len(heavy_analysis.instances)
        for record in heavy_analysis.records:
            sizes[record.arrangement.owner.index] += record.count
        assert sizes == [sequence_count(i.ast) for i in heavy_analysis.instances]
        assert heavy_analysis.total_sequences == sum(sizes) == 11_531_520


def assert_counts_without_the_memo(analysis) -> int:
    """Each record's count is the product of its slots' linear-extension
    counts, computed per instance without the shared ``slot_counts`` memo.
    Returns the number of slots held by more than one instance."""
    fresh: dict = {}
    holders: dict = {}
    for record in analysis.records:
        owner = record.arrangement.owner
        product = 1
        for slot in record.arrangement.slots:
            key = owner.index, slot
            if key not in fresh:
                fresh[key] = count_linear_extensions(owner.ast, slot)
            product *= fresh[key]
            holders.setdefault(slot, set()).add(owner.index)
        assert record.count == product
    memo = analysis.instances[0].slot_counts
    assert all(instance.slot_counts is memo for instance in analysis.instances)
    return sum(len(h) > 1 for h in holders.values())


class TestSharedSlotCounts:
    def test_heavy(self, heavy_analysis):
        assert assert_counts_without_the_memo(heavy_analysis) > 0

    def test_corpus(self, sweep_corpus):
        shared = [assert_counts_without_the_memo(analyze(schema)) for schema in sweep_corpus]
        assert sum(shared) > 0

    def test_instances_sharing_slots(self):
        # Both instances hold the slot (a, b, d) of three parallel steps,
        # six orders in each, and the slot (b, d) after either release.
        schema = Schema(
            workflow=par(
                seq(step("a"), xor(release("r1"), seq(release("r2"), step("c")))),
                par(step("b"), step("d")),
            ),
            users=("u1", "u2"),
            authorizations={s: frozenset({"u1"}) for s in ("a", "b", "c", "d")},
        )
        analysis = analyze(schema)
        assert len(analysis.instances) == 2
        assert assert_counts_without_the_memo(analysis) >= 2
        assert analysis.instances[0].slot_counts[("a", "b", "d")] == 6


def assert_sequence_contract(view, seed: int) -> list:
    """``view`` reads like the list of what iterating it yields; returns that list."""
    items = list(view)
    assert len(view) == len(items) > 0
    assert list(view) == items  # re-iterable
    rng = random.Random(seed)
    for i in {0, len(items) - 1, *rng.sample(range(len(items)), min(len(items), 20))}:
        assert view[i] == items[i]
        assert view[i - len(items)] == items[i]
    for i in (len(items), -len(items) - 1):
        with pytest.raises(IndexError):
            view[i]
    k = min(len(items), 30)
    assert random.Random(seed).sample(view, k) == random.Random(seed).sample(items, k)
    return items


class TestRecordColumns:
    """Records read from an analysis's columns equal the reference pipeline."""

    def assert_matches_reference(self, schema):
        analysis = analyze(schema)
        records = assert_sequence_contract(analysis.records, seed=len(analysis.records))
        expected = [
            (inst, arr) for inst in analysis.instances for arr in arrangements_by_filter(inst)
        ]
        assert [r.arrangement for r in records] == [arr for _, arr in expected]
        for record, (inst, _) in zip(records, expected):
            assert record.arrangement.owner is inst
            assert record.count == class_size(record.arrangement)
            assert record.min_cost == min_cost_arrangement(record.arrangement, schema).total

    def test_corpus(self, sweep_corpus):
        for schema in sweep_corpus:
            self.assert_matches_reference(schema)

    def test_fixtures(self, purchase_order, purchase_order_restricted, purchase_order_no_release):
        for schema in (purchase_order, purchase_order_restricted, purchase_order_no_release):
            self.assert_matches_reference(schema)

    def test_heavy(self, heavy_schema, heavy_analysis):
        records = assert_sequence_contract(heavy_analysis.records, seed=7)
        assert len(records) == 86_011
        assert all(r.count == class_size(r.arrangement) for r in records)
        for record in random.Random(21).sample(records, 40):
            assert record.min_cost == min_cost_arrangement(record.arrangement, heavy_schema).total

    def test_enumerated_arrangements_are_a_sequence(self, heavy_analysis, purchase_order):
        for inst in heavy_analysis.instances + eliminate_xor(purchase_order.workflow):
            assert_sequence_contract(enumerate_arrangements(inst), seed=inst.index)

    def test_heavy_analysis_holds_little_memory(self, heavy_schema):
        # Three columns per release order, about 40 bytes per arrangement:
        # 86,011 arrangements with one Arrangement and one record object
        # each held 16 MB.
        tracemalloc.start()
        try:
            analysis = analyze(heavy_schema)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(analysis.records) == 86_011
        assert held < 6_000_000


class TestTableColumns:
    """``analyze`` prices and counts each arrangement table column by
    column; every row agrees with the per-arrangement reference."""

    @staticmethod
    def assert_rows_match(schema) -> int:
        rows = 0
        for inst in eliminate_xor(schema.workflow):
            weights, grouping = cost_keys(schema, inst.steps)
            for table in enumerate_arrangements(inst, weights).blocks:
                keys, sizes = table.keys, count_sequences(table)
                assert len(keys) == len(sizes) == len(table)
                # Equal signatures of a table share one int.
                assert len(set(map(id, keys))) == len(set(keys))
                for key, size, arrangement in zip(keys, sizes, table):
                    assert key == cost_signature(arrangement, schema)
                    assert grouping(key) == span_grouping(arrangement, schema)
                    assert size == class_size(arrangement)
                rows += len(table)
        return rows

    @staticmethod
    def counted_slots(monkeypatch, schema) -> tuple[Counter, set]:
        """The slot contents ``analyze`` counts linear extensions of, with
        their multiplicity, and the distinct slots of its records."""
        counted = Counter()
        count = arrangements.count_linear_extensions

        def recording(ast, slot):
            counted[slot] += 1
            return count(ast, slot)

        with monkeypatch.context() as patch:
            patch.setattr(arrangements, "count_linear_extensions", recording)
            analysis = analyze(schema)
        return counted, {slot for r in analysis.records for slot in r.arrangement.slots}

    def test_corpus(self, sweep_corpus):
        assert sum(map(self.assert_rows_match, sweep_corpus)) > 0

    def test_fixtures(self, purchase_order, purchase_order_restricted, purchase_order_no_release):
        for schema in (purchase_order, purchase_order_restricted, purchase_order_no_release):
            assert self.assert_rows_match(schema) > 0

    def test_heavy(self, heavy_schema):
        assert self.assert_rows_match(heavy_schema) == 86_011

    def test_signatures_wider_than_64_bits(self):
        schema = wide_signature_schema()
        assert self.assert_rows_match(schema) == 16
        inst, = eliminate_xor(schema.workflow)
        weights, _ = cost_keys(schema, inst.steps)
        keys = {k for t in enumerate_arrangements(inst, weights).blocks for k in t.keys}
        assert max(keys).bit_length() > 64
        assert len(keys) == 16
        for record in analyze(schema).records:
            assert record.solution == min_cost_arrangement(record.arrangement, schema)

    def test_enumeration_without_weights_has_no_keys(self, purchase_order):
        for inst in eliminate_xor(purchase_order.workflow):
            assert all(t.keys is None for t in enumerate_arrangements(inst).blocks)

    def test_analysis_keeps_no_key_column(self, purchase_order_restricted):
        assert all(t.arrangements.keys is None for t in analyze(purchase_order_restricted).records.blocks)

    def test_each_slot_counted_once(
        self, monkeypatch, sweep_corpus, purchase_order, purchase_order_restricted,
        purchase_order_no_release,
    ):
        fixtures = [purchase_order, purchase_order_restricted, purchase_order_no_release]
        for schema in sweep_corpus + fixtures:
            counted, held = self.counted_slots(monkeypatch, schema)
            assert set(counted) == held
            assert max(counted.values()) == 1

    def test_heavy_slots_counted_once(self, monkeypatch, heavy_schema):
        counted, held = self.counted_slots(monkeypatch, heavy_schema)
        assert set(counted) == held
        assert sum(counted.values()) == len(held) == 1_024


class TestPlanColumn:
    """Each table lists every plan its rows use once, in the order of the
    rows' first use: the renderer builds one frame per listed plan."""

    @staticmethod
    def assert_plan_column(analysis) -> int:
        for table in analysis.records.blocks:
            plans, ids = table.plans, table.plan_ids
            assert ids.typecode == "I" and len(ids) == len(table)
            assert len(set(map(id, plans))) == len(plans) and None not in plans
            assert max(ids, default=-1) < len(plans)
            # Every plan is used, and ids first appear as 0, 1, 2, ...
            assert list(dict.fromkeys(ids)) == list(range(len(plans)))
        return sum(len(t.plans) for t in analysis.records.blocks)

    def test_corpus(self, small_corpus):
        assert sum(self.assert_plan_column(analyze(s)) for s in small_corpus) > len(small_corpus)

    def test_fixtures(self, purchase_order, purchase_order_restricted, purchase_order_no_release):
        for schema in (purchase_order, purchase_order_restricted, purchase_order_no_release):
            assert self.assert_plan_column(analyze(schema)) > 0

    def test_heavy(self, heavy_analysis):
        tables = heavy_analysis.records.blocks
        assert self.assert_plan_column(heavy_analysis) < len(heavy_analysis.records) // 10
        assert all(len(t.plans) > 1 for t in tables)


class TestStrongSat:
    def test_restricted_not_strongly_satisfiable(self, purchase_order_restricted):
        answer, failing = check_strong_sat(purchase_order_restricted)
        assert answer is False
        assert failing is not None and failing.min_cost == 5

    def test_unconstrained_fully_authorized(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1", "u2"),
            authorizations={s: frozenset(("u1", "u2")) for s in ("a", "b")},
            default_unauth_penalty=1,
        )
        assert check_strong_sat(schema) == (True, None)

    def test_restricted_with_extra_authorization_becomes_satisfiable(self, purchase_order_restricted):
        widened = dict(purchase_order_restricted.authorizations)
        widened["s4"] = frozenset(("u1", "u2"))
        schema = Schema(
            workflow=purchase_order_restricted.workflow,
            users=purchase_order_restricted.users,
            authorizations=widened,
            default_unauth_penalty=purchase_order_restricted.default_unauth_penalty,
            constraints=purchase_order_restricted.constraints,
        )
        answer, _ = check_strong_sat(schema)
        assert answer is True
        # Oracle agreement, sequence by sequence.
        from wfsat.oracle import oracle_decide

        assert oracle_decide(schema).strong is True

    def test_zero_weight_guard(self):
        base = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1", "u2"),
            authorizations={"a": frozenset(("u1",)), "b": frozenset(("u1",))},
            default_unauth_penalty=0,
        )
        with pytest.raises(ZeroWeight):
            check_strong_sat(base)
        zero_constraint = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1", "u2"),
            authorizations={s: frozenset(("u1", "u2")) for s in ("a", "b")},
            default_unauth_penalty=1,
            constraints=(
                WeightedConstraint(id="c", kind="sod", scope=("a", "b"), weight=0),
            ),
        )
        with pytest.raises(ZeroWeight):
            check_strong_sat(zero_constraint)

    def test_zero_weight_schema_raises_before_analysis(self, monkeypatch):
        def analyze_unreached(*args, **kwargs):
            raise AssertionError("analyze ran before the weight check")

        monkeypatch.setattr(decisions, "analyze", analyze_unreached)
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1", "u2"),
            authorizations={"a": frozenset(("u1",)), "b": frozenset(("u1",))},
            default_unauth_penalty=0,
        )
        with pytest.raises(ZeroWeight):
            check_strong_sat(schema)

    def test_zero_penalty_harmless_when_fully_authorized(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={s: frozenset(("u1",)) for s in ("a", "b")},
            default_unauth_penalty=0,
        )
        assert check_strong_sat(schema)[0] is True


def wide_signature_schema() -> Schema:
    """Four parallel steps beside one release point, under 20 constraints
    that each split all four at it: 16 arrangements, and signatures of 80
    one-bit fields, whose top fields are set when s4 follows r1."""
    steps = ("s1", "s2", "s3", "s4")
    constraints = tuple(
        WeightedConstraint(
            id=f"c{i}", kind="atmost", scope=steps, k=1 + i % 3, release=("r1",), weight=1 + i % 4
        )
        for i in range(20)
    )
    return Schema(
        workflow=par(par(step("s1"), step("s2")), par(release("r1"), par(step("s3"), step("s4")))),
        users=("u1", "u2", "u3"),
        authorizations={s: frozenset({"u1", "u2"}) for s in steps},
        constraints=constraints,
    )


def piece_of(constraint, arrangement, schema) -> tuple:
    """The (constraint id, present scope steps, labels) of one constraint's
    decomposition at an arrangement: all that decomposition reads.
    ``schema`` holds that constraint alone."""
    present = tuple(s for s in constraint.scope if s in arrangement.owner.steps)
    return constraint.id, present, span_grouping(arrangement, schema)


def alone(schema, constraint):
    return dataclasses.replace(schema, constraints=(constraint,))


class TestSharedDecomposition:
    """``analyze`` decomposes each constraint once per distinct piece, for
    all instances together."""

    @staticmethod
    def decomposed(monkeypatch, schema) -> list[tuple]:
        """The piece of every ``decompose_constraint`` call of one
        ``analyze``, patched wherever a module holds it, as the
        benchmark's tracer patches it."""
        calls = []
        original = solver.decompose_constraint

        def recording(constraint, arrangement, schema):
            calls.append(piece_of(constraint, arrangement, alone(schema, constraint)))
            return original(constraint, arrangement, schema)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "wfsat"]
        with monkeypatch.context() as patch:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch.setattr(module, attr, recording)
            analyze(schema)
        return calls

    @staticmethod
    def pieces(schema) -> set[tuple]:
        # span_grouping concatenates each constraint's labels, one per
        # present scope step, in constraint order.
        out = set()
        for inst in eliminate_xor(schema.workflow):
            scopes = [(c.id, tuple(s for s in c.scope if s in inst.steps)) for c in schema.constraints]
            scopes = [(i, scope) for i, scope in scopes if scope]
            for grouped in {span_grouping(arr, schema) for arr in enumerate_arrangements(inst)}:
                labels = iter(grouped)
                out.update(
                    (i, scope, tuple(itertools.islice(labels, len(scope)))) for i, scope in scopes
                )
        return out

    def assert_one_call_per_piece(self, monkeypatch, schema) -> int:
        calls = self.decomposed(monkeypatch, schema)
        assert len(calls) == len(set(calls))
        assert set(calls) == self.pieces(schema)
        return len(calls)

    def test_corpus(self, monkeypatch, small_corpus):
        assert sum(self.assert_one_call_per_piece(monkeypatch, s) for s in small_corpus) > 0

    def test_heavy(self, monkeypatch, heavy_schema):
        # 300 groupings over 3 instances and 9 constraints.
        assert self.assert_one_call_per_piece(monkeypatch, heavy_schema) == 29

    def test_scaling_schema(self, monkeypatch):
        assert self.assert_one_call_per_piece(monkeypatch, synthetic_schema()) > 0


class TestSolveCount:
    @staticmethod
    def solves(monkeypatch, schema) -> int:
        calls = []
        solve = decisions.solve_components

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(decisions, "solve_components", counted)
        analyze(schema)
        return len(calls)

    @staticmethod
    def groupings(schema) -> int:
        return len(
            {
                (i, span_grouping(arr, schema))
                for i, inst in enumerate(eliminate_xor(schema.workflow))
                for arr in enumerate_arrangements(inst)
            }
        )

    def test_one_solve_per_decomposition_grouping(self, monkeypatch, small_corpus):
        for schema in small_corpus:
            assert self.solves(monkeypatch, schema) == self.groupings(schema)

    def test_scaling_schema_solve_count(self, monkeypatch):
        schema = synthetic_schema()
        assert self.solves(monkeypatch, schema) == self.groupings(schema) == 12


class TestBoundedCost:
    def test_restricted_budget_5_yes(self, purchase_order_restricted):
        assert check_bounded_cost(purchase_order_restricted, 5) is True

    def test_restricted_budget_4_no(self, purchase_order_restricted):
        assert check_bounded_cost(purchase_order_restricted, 4) is False

    def test_budget_zero_equals_strong_sat(self, purchase_order_restricted, small_corpus):
        for schema in [purchase_order_restricted] + small_corpus[:10]:
            try:
                strong, _ = check_strong_sat(schema)
            except ZeroWeight:
                continue
            assert check_bounded_cost(schema, 0) == strong


class TestExpectedCost:
    def test_restricted_expected_cost_value(self, purchase_order_restricted):
        analysis = analyze(purchase_order_restricted)
        assert analysis.expected_cost == Fraction(25, 7)

    def test_restricted_thresholds(self, purchase_order_restricted):
        assert check_expected_cost(purchase_order_restricted, 4) is True
        assert check_expected_cost(purchase_order_restricted, 3) is False
        assert check_expected_cost(purchase_order_restricted, Fraction(25, 7)) is True  # boundary

    def test_zero_cost_schema(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1", "u2"),
            authorizations={s: frozenset(("u1", "u2")) for s in ("a", "b")},
            default_unauth_penalty=1,
        )
        assert check_expected_cost(schema, 0) is True


class TestApprox:
    def test_restricted(self, purchase_order_restricted):
        assert check_approx(purchase_order_restricted, 0, Fraction(2, 7)) is True
        assert check_approx(purchase_order_restricted, 0, Fraction(3, 7)) is False

    def test_probability_zero_is_always_yes(self, small_corpus):
        for schema in small_corpus[:10]:
            assert check_approx(schema, 0, 0) is True

    def test_probability_one_equals_bounded(self, purchase_order_restricted, small_corpus):
        rng = random.Random(2)
        for schema in [purchase_order_restricted] + small_corpus[:10]:
            analysis = analyze(schema)
            budget = Fraction(rng.randint(0, analysis.max_cost + 1))
            assert check_approx(analysis, budget, 1) == check_bounded_cost(analysis, budget)


class TestMinBudget:
    def test_restricted(self, purchase_order_restricted):
        assert min_budget_bounded(purchase_order_restricted) == 5
        assert min_budget_expected(purchase_order_restricted) == Fraction(25, 7)

    def test_zero_cost_schema(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={s: frozenset(("u1",)) for s in ("a", "b")},
            default_unauth_penalty=1,
        )
        assert min_budget_bounded(schema) == 0
        assert min_budget_expected(schema) == 0

    def test_single_arrangement_schema_both_equal(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={"a": frozenset(("u1",)), "b": frozenset(("u1",))},
            default_unauth_penalty=1,
            constraints=(
                WeightedConstraint(id="c", kind="sod", scope=("a", "b"), weight=7),
            ),
        )
        assert min_budget_bounded(schema) == min_budget_expected(schema) == 7

    def test_minimality_and_monotonicity(self, small_corpus):
        for schema in small_corpus[:20]:
            analysis = analyze(schema)
            b = min_budget_bounded(analysis)
            assert check_bounded_cost(analysis, b) is True
            if b > 0:
                assert check_bounded_cost(analysis, b - Fraction(1, 1000)) is False
            e = min_budget_expected(analysis)
            assert check_expected_cost(analysis, e) is True
            if e > 0:
                assert check_expected_cost(analysis, e - Fraction(1, 1000)) is False
            assert e <= b  # mean never exceeds max
            # budget monotonicity
            assert check_bounded_cost(analysis, b + 1) is True
            assert check_expected_cost(analysis, e + 1) is True
            assert check_approx(analysis, b, Fraction(1, 2)) is True

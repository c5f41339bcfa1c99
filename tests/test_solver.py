from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsat import solver
from wfsat.arrangements import eliminate_xor, enumerate_arrangements
from wfsat.decisions import analyze
from wfsat.errors import TooManyBlocks
from wfsat.model import (
    Schema,
    WeightedConstraint,
    par,
    seq,
    step,
)
from wfsat.oracle import oracle_min_cost_sequence, plan_cost
from wfsat.sequences import gen_sequences
from wfsat.solver import (
    ClassicalConstraint,
    CostedPlan,
    Partition,
    SolveCache,
    cost_keys,
    cost_signature,
    decompose_constraint,
    iter_partitions,
    min_auth_weight,
    min_cost_arrangement,
    pattern_constraint_weight,
    solve_vwsp,
)

from helpers import (
    bell,
    block_rows,
    exhaustive_min_plan,
    exhaustive_solve_vwsp,
    min_plan_total,
    signature_by_slots,
    span_grouping,
)
from randgen import random_schema


def tiny_schema(users, auth, constraints=(), penalty=3, steps=("s", "t")):
    node = par(step(steps[0]), par(step(steps[1]), step("pad"))) if len(steps) == 3 else (
        par(step(steps[0]), step(steps[1])) if len(steps) == 2 else step(steps[0])
    )
    auth = {k: frozenset(v) for k, v in auth.items()}
    for s in steps:
        auth.setdefault(s, frozenset(users))
    return Schema(
        workflow=node,
        users=tuple(users),
        authorizations=auth,
        default_unauth_penalty=penalty,
        constraints=tuple(constraints),
    )


class TestDecompose:
    def find_arrangement(self, schema, slots):
        for inst in eliminate_xor(schema.workflow):
            for arr in enumerate_arrangements(inst):
                if arr.slots == slots:
                    return arr
        raise AssertionError("arrangement not found")

    def test_released_sod_becomes_vacuous(self, purchase_order_restricted):
        c = next(x for x in purchase_order_restricted.constraints if x.id == "c_create_payment")
        arr = self.find_arrangement(purchase_order_restricted, (("s1", "s2", "s3", "s5"), ("s4", "s6")))
        assert decompose_constraint(c, arr, purchase_order_restricted) == []

    def test_unreleased_sod_stays_active(self, purchase_order_restricted):
        c = next(x for x in purchase_order_restricted.constraints if x.id == "c_create_payment")
        arr = self.find_arrangement(purchase_order_restricted, (("s1", "s2", "s3", "s5", "s4"), ("s6",)))
        (only,) = decompose_constraint(c, arr, purchase_order_restricted)
        assert only.scope == ("s1", "s4")
        assert (only.bound, only.k) == ("atleast", 2)
        assert only.origin == ("c_create_payment", 0)

    def test_atleast_threshold_drops_by_absent_steps(self):
        # atleast({a,b,c}, 3) split at r into {a,b} | {c}: the {a,b} side
        # needs 3-1 = 2 distinct users, the {c} side is vacuous.  Verified
        # against the extendability oracle below.
        schema = Schema(
            workflow=seq(par(step("a"), step("b")), seq(step("r_pt"), step("c"))),
            users=("u1", "u2", "u3"),
            authorizations={s: frozenset(("u1", "u2", "u3")) for s in ("a", "b", "c", "r_pt")},
            constraints=(),
        )
        from wfsat.model import restricted_threshold

        assert restricted_threshold("atleast", 3, 3, 2, 3) == 2
        assert restricted_threshold("atleast", 3, 3, 1, 3) is None

    @given(
        st.integers(min_value=1, max_value=4),  # users
        st.integers(min_value=1, max_value=4),  # scope size
        st.data(),
    )
    @settings(max_examples=200)
    def test_restriction_matches_extendability_oracle(self, n_users, scope_size, data):
        # Independent oracle: a subscope assignment satisfies the restricted
        # constraint iff it extends to a full-scope assignment satisfying
        # the original bound.
        from wfsat.model import restricted_threshold, violation_units

        bound = data.draw(st.sampled_from(["atmost", "atleast"]))
        k = data.draw(st.integers(min_value=1, max_value=scope_size))
        sub_size = data.draw(st.integers(min_value=0, max_value=scope_size))
        users = [f"u{i}" for i in range(n_users)]
        scope = [f"s{i}" for i in range(scope_size)]
        sub = scope[:sub_size]
        rest = scope[sub_size:]

        threshold = restricted_threshold(bound, k, scope_size, sub_size, n_users)

        def satisfies_original(assignment: dict) -> bool:
            distinct = len(set(assignment.values()))
            return distinct <= k if bound == "atmost" else distinct >= k

        for partial in itertools.product(users, repeat=sub_size):
            g = dict(zip(sub, partial))
            extendable = any(
                satisfies_original({**g, **dict(zip(rest, completion))})
                for completion in itertools.product(users, repeat=len(rest))
            )
            if threshold is None:
                restricted_ok = True
            else:
                restricted_ok = (
                    violation_units(bound, threshold, len(set(partial))) == 0
                )
            if sub_size == 0:
                continue
            assert restricted_ok == extendable

    def test_skips_release_points_absent_from_instance(self, purchase_order_restricted):
        # In the lower-branch instance the constraint's release point r is
        # present; fabricate one whose release point never occurs there.
        c = WeightedConstraint(
            id="ghost", kind="sod", scope=("s1", "s4"), release=("ghost_r",), weight=5
        )
        arr = self.find_arrangement(purchase_order_restricted, (("s1", "s2", "s3p"), ("s4", "s6")))
        (only,) = decompose_constraint(c, arr, purchase_order_restricted)
        assert only.scope == ("s1", "s4")  # applies whole, nothing released


class TestPatternWeight:
    def c(self, kind, scope, weight, k=None):
        wc = WeightedConstraint(id="c", kind=kind, scope=scope, weight=weight, k=k)
        bound, kk = wc.bound()
        return ClassicalConstraint(bound, kk, scope, weight, ("c", 0))

    def test_sod_same_block(self):
        p = Partition((("s", "t"),))
        assert pattern_constraint_weight(p, [self.c("sod", ("s", "t"), 5)]) == 5

    def test_bod_different_blocks(self):
        p = Partition((("s",), ("t",)))
        assert pattern_constraint_weight(p, [self.c("bod", ("s", "t"), 4)]) == 4

    def test_atmost_excess_blocks(self):
        p = Partition((("a",), ("b",), ("c",)))
        assert pattern_constraint_weight(p, [self.c("atmost", ("a", "b", "c"), 2, k=1)]) == 4

    def test_satisfied_costs_nothing(self):
        p = Partition((("s",), ("t",)))
        assert pattern_constraint_weight(p, [self.c("sod", ("s", "t"), 5)]) == 0


class TestMinAuthWeight:
    def test_partially_authorized(self):
        schema = tiny_schema(
            ("u1", "u2"), {"s": ("u1",), "t": ("u1",)}, penalty=3
        )
        # Both injective assignments leave one step unauthorized: cost 3.
        cost, users = min_auth_weight(block_rows(Partition((("s",), ("t",))), schema), schema.users)
        assert cost == 3
        assert users == ("u1", "u2")  # lexicographically first optimum

    def test_fully_authorized_is_free(self):
        schema = tiny_schema(("u1", "u2"), {})
        cost, _ = min_auth_weight(block_rows(Partition((("s",), ("t",))), schema), schema.users)
        assert cost == 0

    def test_unauthorized_block_pays_per_step(self):
        schema = tiny_schema(("u1",), {"s": (), "t": ()}, penalty=10)
        cost, users = min_auth_weight(block_rows(Partition((("s", "t"),),), schema), schema.users)
        assert cost == 20
        assert users == ("u1",)

    def test_too_many_blocks(self):
        schema = tiny_schema(("u1",), {})
        with pytest.raises(TooManyBlocks):
            min_auth_weight(block_rows(Partition((("s",), ("t",))), schema), schema.users)

    def test_no_blocks_cost_nothing(self):
        schema = tiny_schema(("u1",), {})
        assert min_auth_weight(block_rows(Partition(()), schema), schema.users) == (0, ())

    def test_matches_exhaustive_assignment_search(self):
        rng = random.Random(99)
        for _ in range(60):
            n_users = rng.randint(1, 5)
            n_blocks = rng.randint(1, n_users)
            users = tuple(f"u{i}" for i in range(n_users))
            blocks = tuple((f"s{i}",) for i in range(n_blocks))
            auth = {
                f"s{i}": frozenset(rng.sample(users, rng.randint(0, n_users)))
                for i in range(n_blocks)
            }
            schema = Schema(
                workflow=seq(*(step(f"s{i}") for i in range(n_blocks)))
                if n_blocks > 1
                else step("s0"),
                users=users,
                authorizations=auth,
                default_unauth_penalty=rng.randint(1, 7),
            )
            rows = block_rows(Partition(blocks), schema)
            got_cost, got_users = min_auth_weight(rows, schema.users)
            best = None
            best_vec = None
            for assign in itertools.permutations(range(n_users), n_blocks):
                c = sum(
                    schema.penalty(b[0])
                    for b, u in zip(blocks, assign)
                    if not schema.authorized(b[0], users[u])
                )
                if best is None or c < best:
                    best, best_vec = c, assign
            assert got_cost == best
            assert got_users == tuple(users[u] for u in best_vec)


class TestSolveVwsp:
    def test_sod_with_shared_authorized_user(self):
        schema = tiny_schema(("u1", "u2"), {"s": ("u1",), "t": ("u1",)}, penalty=3)
        c = ClassicalConstraint("atleast", 2, ("s", "t"), 5, ("c", 0))
        got = solve_vwsp(("s", "t"), [c], schema)
        # Oracle: enumerate all four plans.
        best = min(
            (3 if pu != "u1" else 0) + (3 if pt != "u1" else 0) + (5 if pu == pt else 0)
            for pu in ("u1", "u2")
            for pt in ("u1", "u2")
        )
        assert best == 3
        assert got.total == 3
        assert got.plan in ({"s": "u1", "t": "u2"}, {"s": "u2", "t": "u1"})

    def test_unconstrained_fully_authorized(self):
        schema = tiny_schema(("u1", "u2"), {})
        assert solve_vwsp(("s", "t"), [], schema).total == 0

    def test_single_user_sod_must_collide(self):
        schema = tiny_schema(("u1",), {})
        c = ClassicalConstraint("atleast", 2, ("s", "t"), 5, ("c", 0))
        got = solve_vwsp(("s", "t"), [c], schema)
        assert got.total == 5  # only one plan exists
        assert got.plan == {"s": "u1", "t": "u1"}

    def test_empty_steps(self):
        schema = tiny_schema(("u1",), {})
        got = solve_vwsp((), [], schema)
        assert got.total == 0 and got.plan == {}

    def test_steps_without_users(self):
        with pytest.raises(TooManyBlocks, match="no users"):
            solve_vwsp(("s", "t"), [], tiny_schema((), {}))

    def test_partition_counter_bounded_by_bell(self):
        rng = random.Random(1)
        for _ in range(20):
            schema = random_schema(rng.randint(0, 10_000), max_releases=0, max_xors=0)
            stats = {}
            solve_vwsp(schema.steps, [], schema, stats=stats)
            if schema.steps:
                assert stats["partitions_visited"] <= bell(len(schema.steps))

    def test_equals_exhaustive_enumeration_release_free(self):
        rng = random.Random(17)
        for i in range(25):
            schema = random_schema(20_000 + i, max_steps=5, max_users=4, max_releases=0, max_xors=0)
            inst = eliminate_xor(schema.workflow)[0]
            (arr,) = enumerate_arrangements(inst)
            got = min_cost_arrangement(arr, schema)
            assert got.total == exhaustive_min_plan(schema)


@st.composite
def components(draw):
    """A schema and classical constraints over all its steps: at most 7
    steps and 5 users, penalties from 0, at-most and at-least bounds."""
    steps = tuple(f"s{i}" for i in range(draw(st.integers(1, 7))))
    users = tuple(f"u{i}" for i in range(draw(st.integers(1, 5))))
    schema = Schema(
        workflow=par(*(step(s) for s in steps)),
        users=users,
        authorizations={
            s: frozenset(draw(st.sets(st.sampled_from(users)))) for s in steps
        },
        default_unauth_penalty=draw(st.integers(0, 4)),
        step_unauth_penalty=draw(
            st.dictionaries(st.sampled_from(steps), st.integers(0, 4))
        ),
    )
    constraints = []
    for i in range(draw(st.integers(0, 5))):
        scope = draw(st.lists(st.sampled_from(steps), min_size=1, unique=True))
        constraints.append(
            ClassicalConstraint(
                bound=draw(st.sampled_from(("atmost", "atleast"))),
                k=draw(st.integers(1, len(scope) + 1)),
                scope=schema.sort_canonical(scope),
                weight=draw(st.integers(1, 5)),
                origin=(f"c{i}", 0),
            )
        )
    return schema, constraints


class TestPrunedScan:
    """The pruned partition scan against the scan of every partition."""

    @settings(max_examples=200)
    @given(components())
    def test_equals_the_full_scan(self, component):
        schema, constraints = component
        pruned, full = {}, {}
        got = solve_vwsp(schema.steps, constraints, schema, pruned)
        assert got == exhaustive_solve_vwsp(schema.steps, constraints, schema, full)
        assert 1 <= pruned["partitions_visited"] <= full["partitions_visited"]

    def test_equals_the_full_scan_on_every_solved_component(
        self, heavy_components, sweep_components
    ):
        solved = heavy_components + sweep_components
        assert len(heavy_components) == 43
        assert len(solved) == 650
        for steps, constraints, schema in solved:
            assert solve_vwsp(steps, constraints, schema) == exhaustive_solve_vwsp(
                steps, constraints, schema
            )

    def test_heavy_totals_are_the_least_over_all_plans(self, heavy_components):
        for steps, constraints, schema in heavy_components:
            assert solve_vwsp(steps, constraints, schema).total == min_plan_total(
                steps, constraints, schema
            )

    def sod_ring(self):
        """sod on each neighbouring pair of a 10-step ring, 10 users who may
        run everything, and the full scan's witness: the first 2-colouring
        in restricted-growth order, matched to u0 and u1."""
        steps = tuple(f"s{i}" for i in range(10))
        users = tuple(f"u{i}" for i in range(10))
        schema = Schema(
            workflow=par(*(step(s) for s in steps)),
            users=users,
            authorizations={s: frozenset(users) for s in steps},
            default_unauth_penalty=1,
        )
        ring = [
            ClassicalConstraint("atleast", 2, (steps[i], steps[(i + 1) % 10]), 1, (f"c{i}", 0))
            for i in range(10)
        ]
        return schema, ring, CostedPlan({s: users[i % 2] for i, s in enumerate(steps)}, 0, 0)

    def test_zero_optimum_ring_prices_one_leaf_per_step(self):
        # The full scan prices all 115,975 partitions; the pruned scan
        # prices 10 leaves and ends on the full scan's witness.
        schema, ring, witness = self.sod_ring()
        stats: dict = {}
        assert solve_vwsp(schema.steps, ring, schema, stats) == witness
        assert stats["partitions_visited"] == 10

    def test_leaves_are_priced_from_the_scan(self, monkeypatch):
        # The schema is read once per step and user, for the scan's penalty
        # table, and no leaf sums its constraint weights again.
        schema, ring, witness = self.sod_ring()
        lookups = 0
        authorized = Schema.authorized

        def counting(self, step_id, user):
            nonlocal lookups
            lookups += 1
            return authorized(self, step_id, user)

        def refuse(partition, constraints):
            raise AssertionError("a leaf summed its constraint weights again")

        monkeypatch.setattr(Schema, "authorized", counting)
        monkeypatch.setattr(solver, "pattern_constraint_weight", refuse)
        assert solve_vwsp(schema.steps, ring, schema) == witness
        assert lookups == len(schema.steps) * len(schema.users) == 100


class TestIterPartitions:
    def test_counts_match_bell(self):
        items = tuple("abcd")
        assert sum(1 for _ in iter_partitions(items, 4)) == bell(4)

    def test_block_cap(self):
        parts = list(iter_partitions(tuple("abc"), 2))
        assert all(len(p.blocks) <= 2 for p in parts)
        assert len(parts) == 4  # S(3,1) + S(3,2) = 1 + 3

    def test_restricted_growth_canonical_order(self):
        parts = list(iter_partitions(("a", "b"), 2))
        assert parts[0] == Partition((("a", "b"),))
        assert parts[1] == Partition((("a",), ("b",)))

    def test_no_items_one_empty_partition(self):
        assert list(iter_partitions([], 3)) == [Partition(())]


class TestMinCostArrangement:
    def by_slots(self, schema):
        return {
            arr.slots: arr
            for inst in eliminate_xor(schema.workflow)
            for arr in enumerate_arrangements(inst)
        }

    def test_restricted_costs_against_oracle(self, purchase_order_restricted):
        # Oracle first: minimum over every sequence of the class, each by
        # full plan enumeration; within a class they must all agree.
        arrs = self.by_slots(purchase_order_restricted)
        released = arrs[(("s1", "s2", "s3", "s5"), ("s4", "s6"))]
        blocked = arrs[(("s1", "s2", "s3", "s5", "s4"), ("s6",))]
        oracle_released = oracle_min_cost_sequence(
            ("s1", "s2", "s3", "s5", "r", "s4", "s6"), purchase_order_restricted
        ).total
        oracle_blocked = oracle_min_cost_sequence(
            ("s1", "s2", "s4", "s3", "s5", "r", "s6"), purchase_order_restricted
        ).total
        assert oracle_released == 0 and oracle_blocked == 5
        assert min_cost_arrangement(released, purchase_order_restricted).total == 0
        assert min_cost_arrangement(blocked, purchase_order_restricted).total == 5

    def test_no_constraints_full_authorization(self):
        schema = tiny_schema(("u1", "u2"), {})
        arrs = self.by_slots(schema)
        ((_, arr),) = arrs.items()
        assert min_cost_arrangement(arr, schema).total == 0

    def test_witness_achieves_reported_cost(self, purchase_order_restricted, small_corpus):
        for schema in [purchase_order_restricted] + small_corpus[:15]:
            for inst in eliminate_xor(schema.workflow):
                rel = set(inst.releases)
                for arr in enumerate_arrangements(inst):
                    got = min_cost_arrangement(arr, schema)
                    seqs = gen_sequences(inst.ast)
                    arr_key = (arr.release_order, tuple(frozenset(s) for s in arr.slots))
                    member = next(s for s in seqs if _key_of(s, rel) == arr_key)
                    assert plan_cost(member, got.plan, schema) == got.total
                    assert got.total == got.constraint_weight + got.authorization_weight

    def test_cache_reuses_components_without_changing_results(self, purchase_order_restricted):
        no_cache = analyze(purchase_order_restricted)
        cache = SolveCache()
        for inst in eliminate_xor(purchase_order_restricted.workflow):
            for arr in enumerate_arrangements(inst):
                min_cost_arrangement(arr, purchase_order_restricted, cache)
        assert cache.hits > 0
        redo = analyze(purchase_order_restricted)
        assert [r.min_cost for r in no_cache.records] == [r.min_cost for r in redo.records]


class TestCostSignature:
    @pytest.fixture
    def schemas(
        self, small_corpus, purchase_order, purchase_order_restricted, purchase_order_no_release
    ):
        return small_corpus + [purchase_order, purchase_order_restricted, purchase_order_no_release]

    def test_equal_signatures_have_equal_plans(self, schemas):
        # The invariant analyze's memo relies on, witness included.
        for schema in schemas:
            for inst in eliminate_xor(schema.workflow):
                seen = {}
                for arr in enumerate_arrangements(inst):
                    got = min_cost_arrangement(arr, schema, cache=None)
                    first = seen.setdefault(cost_signature(arr, schema), got)
                    assert got == first
                    assert list(got.plan.items()) == list(first.plan.items())

    def test_equal_groupings_have_equal_plans(self, schemas):
        # The invariant analyze's grouping memo relies on, witness included.
        coarser = 0
        for schema in schemas:
            signatures = groupings = 0
            for inst in eliminate_xor(schema.workflow):
                _, grouping = cost_keys(schema, inst.steps)
                seen_signatures = set()
                seen = {}
                for arr in enumerate_arrangements(inst):
                    signature = cost_signature(arr, schema)
                    key = span_grouping(arr, schema)
                    assert grouping(signature) == key
                    got = min_cost_arrangement(arr, schema, cache=None)
                    first = seen.setdefault(key, got)
                    assert got == first
                    assert list(got.plan.items()) == list(first.plan.items())
                    seen_signatures.add(signature)
                signatures += len(seen_signatures)
                groupings += len(seen)
            coarser += groupings < signatures
        assert coarser > 0

    @pytest.fixture(scope="class")
    def wide_fields(self):
        """Two random schemas of 8-10 steps and 4 release points, each given
        a constraint over 3 of them and one over all 4: 2- and 3-bit fields."""
        out = []
        for seed, scope in ((10, ("s7", "s2", "s1")), (178, ("s6", "s3", "s2"))):
            schema = random_schema(seed, max_steps=10, max_releases=4, max_effort=None)
            releases = tuple(sorted(schema.releases))
            wide = (
                WeightedConstraint(id="w3", kind="atmost", scope=scope, release=releases[:3], weight=2, k=1),
                WeightedConstraint(id="w4", kind="atleast", scope=scope, release=releases, weight=3, k=2),
            )
            out.append(dataclasses.replace(schema, constraints=schema.constraints + wide))
        return out

    def test_wide_fields_reach_their_top_segment(self, wide_fields):
        # Every release point of w3, and of w4, is placed before a scope step.
        for schema in wide_fields:
            wide = schema.constraints[-2:]
            assert [len(c.release) for c in wide] == [3, 4]
            for c in wide:
                alone = dataclasses.replace(schema, constraints=(c,))
                top = max(
                    max(signature_by_slots(arr, alone), default=0)
                    for inst in eliminate_xor(schema.workflow)
                    for arr in enumerate_arrangements(inst)
                )
                assert top == len(c.release)

    def test_packed_key_matches_the_slot_walk(self, schemas, wide_fields):
        # Within an instance the int key and the reference tuple tell the same
        # arrangements apart, and the grouping read back from the int is the
        # span grouping.
        for schema in schemas + wide_fields:
            for inst in eliminate_xor(schema.workflow):
                _, grouping = cost_keys(schema, inst.steps)
                tuple_of, key_of = {}, {}
                for arr in enumerate_arrangements(inst):
                    key = cost_signature(arr, schema)
                    reference = signature_by_slots(arr, schema)
                    assert type(key) is int
                    assert tuple_of.setdefault(key, reference) == reference
                    assert key_of.setdefault(reference, key) == key
                    assert grouping(key) == span_grouping(arr, schema)

    def test_analyze_records_match_uncached_solves(self, schemas):
        for schema in schemas:
            for record in analyze(schema).records:
                assert record.solution == min_cost_arrangement(record.arrangement, schema, cache=None)

    def test_crossing_a_release_point_changes_signature(self, purchase_order_restricted):
        schema = purchase_order_restricted
        by_slots = {
            arr.slots: arr
            for inst in eliminate_xor(schema.workflow)
            for arr in enumerate_arrangements(inst)
        }
        # s4 before or after r: the payment SoD is released only after r.
        pairs = [
            ((("s1", "s2", "s3", "s5"), ("s4", "s6")), (("s1", "s2", "s3", "s5", "s4"), ("s6",))),
            ((("s1", "s2", "s3p"), ("s4", "s6")), (("s1", "s2", "s3p", "s4"), ("s6",))),
        ]
        for after, before in pairs:
            released, blocked = by_slots[after], by_slots[before]
            assert min_cost_arrangement(released, schema).total == 0
            assert min_cost_arrangement(blocked, schema).total == 5
            assert cost_signature(released, schema) != cost_signature(blocked, schema)


def _key_of(sequence, releases):
    release_order = tuple(x for x in sequence if x in releases)
    slots: list[list[str]] = [[]]
    for x in sequence:
        if x in releases:
            slots.append([])
        else:
            slots[-1].append(x)
    return release_order, tuple(frozenset(s) for s in slots)


class TestStructuralProperties:
    def test_user_permutation_invariance(self, small_corpus):
        rng = random.Random(4)
        for schema in small_corpus[:20]:
            users = list(schema.users)
            renamed = users[:]
            rng.shuffle(renamed)
            mapping = dict(zip(users, renamed))
            permuted = Schema(
                workflow=schema.workflow,
                users=tuple(mapping[u] for u in schema.users),
                authorizations={
                    s: frozenset(mapping[u] for u in granted)
                    for s, granted in schema.authorizations.items()
                },
                default_unauth_penalty=schema.default_unauth_penalty,
                step_unauth_penalty=schema.step_unauth_penalty,
                constraints=schema.constraints,
            )
            base = analyze(schema)
            perm = analyze(permuted)
            assert [r.min_cost for r in base.records] == [r.min_cost for r in perm.records]
            for a, b in zip(base.records, perm.records):
                assert {s: mapping[u] for s, u in a.solution.plan.items()} == b.solution.plan

    def test_monotone_in_constraints_and_authorizations(self, small_corpus):
        rng = random.Random(8)
        for schema in small_corpus[:15]:
            if len(schema.steps) < 2:
                continue
            base = analyze(schema)
            extra_scope = tuple(rng.sample(list(schema.steps), 2))
            from wfsat.model import exclusive_pairs

            if frozenset(extra_scope) in exclusive_pairs(schema.workflow):
                continue
            stronger = Schema(
                workflow=schema.workflow,
                users=schema.users,
                authorizations=schema.authorizations,
                default_unauth_penalty=schema.default_unauth_penalty,
                step_unauth_penalty=schema.step_unauth_penalty,
                constraints=schema.constraints
                + (WeightedConstraint(id="extra", kind="sod", scope=extra_scope, weight=3),),
            )
            for a, b in zip(base.records, analyze(stronger).records):
                assert b.min_cost >= a.min_cost

            victim = rng.choice(list(schema.steps))
            granted = sorted(schema.authorizations[victim])
            if len(granted) > 1:
                reduced_auth = dict(schema.authorizations)
                reduced_auth[victim] = frozenset(granted[1:])
                weaker = Schema(
                    workflow=schema.workflow,
                    users=schema.users,
                    authorizations=reduced_auth,
                    default_unauth_penalty=schema.default_unauth_penalty,
                    step_unauth_penalty=schema.step_unauth_penalty,
                    constraints=schema.constraints,
                )
                for a, b in zip(base.records, analyze(weaker).records):
                    assert b.min_cost >= a.min_cost

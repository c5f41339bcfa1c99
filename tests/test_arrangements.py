from __future__ import annotations

import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsat.arrangements import (
    arrangement_of,
    eliminate_xor,
    enumerate_arrangements,
)
from wfsat.errors import NotASequence, XorPresent
from wfsat.model import element_order, par, release, seq, step, step_ids, xor
from wfsat.oracle import sigma
from wfsat.sequences import (
    count_linear_extensions,
    equivalent,
    gen_sequences,
    iter_sequences,
    sequence_count,
)

from helpers import arrangements_by_filter, class_size, linear_extensions_by_filter
from randgen import random_schema, random_tree

EXPECTED_ARRANGEMENTS = [
    # (release order, slots, class size) for the purchase-order example.
    (("r",), (("s1", "s2", "s3", "s5"), ("s4", "s6")), 1),
    (("r",), (("s1", "s2", "s3", "s5", "s4"), ("s6",)), 3),
    (("r",), (("s1", "s2", "s3p", "s4"), ("s6",)), 2),
    (("r",), (("s1", "s2", "s3p"), ("s4", "s6")), 1),
]


def arrangement_key(arr):
    return arr.release_order, arr.slots


class TestEliminateXor:
    def test_purchase_order_two_instances(self, purchase_order):
        instances = eliminate_xor(purchase_order.workflow)
        assert len(instances) == 2
        assert set(instances[0].steps) == {"s1", "s2", "s3", "s5", "s4", "s6"}
        assert set(instances[1].steps) == {"s1", "s2", "s3p", "s4", "s6"}
        assert [dict(i.choices) for i in instances] == [
            {"$.0.1.0.0": "left"},
            {"$.0.1.0.0": "right"},
        ]

    def test_nested_xor_prunes_dead_choices(self):
        node = xor(xor(step("a"), step("b")), step("c"))
        instances = eliminate_xor(node)
        assert [i.steps for i in instances] == [("a",), ("b",), ("c",)]

    def test_xor_free_tree(self):
        node = seq(step("a"), step("b"))
        instances = eliminate_xor(node)
        assert len(instances) == 1
        assert instances[0].choices == ()

    def test_instances_have_distinct_vertex_sets(self):
        rng = random.Random(5)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(2, 6), rng.randint(0, 2), rng.randint(0, 3))
            instances = eliminate_xor(tree)
            vertex_sets = [frozenset(element_order(i.ast)) for i in instances]
            assert len(set(vertex_sets)) == len(vertex_sets)

    def test_union_of_instance_sequences_is_direct_sigma(self):
        # The recursive algebra with the xor-union rule is the independent
        # description of the same sequence set.
        rng = random.Random(31)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(1, 5), rng.randint(0, 2), rng.randint(0, 2))
            via_instances = set()
            for inst in eliminate_xor(tree):
                via_instances.update(gen_sequences(inst.ast))
            assert via_instances == set(sigma(tree, cap=10_000))


class TestEnumerateArrangements:
    def test_purchase_order_upper_instance(self, purchase_order):
        upper = eliminate_xor(purchase_order.workflow)[0]
        got = {arrangement_key(a) for a in enumerate_arrangements(upper)}
        assert got == {
            (("r",), (("s1", "s2", "s3", "s5"), ("s4", "s6"))),
            (("r",), (("s1", "s2", "s3", "s5", "s4"), ("s6",))),
        }

    def test_purchase_order_lower_instance(self, purchase_order):
        lower = eliminate_xor(purchase_order.workflow)[1]
        got = {arrangement_key(a) for a in enumerate_arrangements(lower)}
        assert got == {
            (("r",), (("s1", "s2", "s3p", "s4"), ("s6",))),
            (("r",), (("s1", "s2", "s3p"), ("s4", "s6"))),
        }

    def test_no_release_points_single_arrangement(self):
        node = par(step("a"), step("b"))
        instance = eliminate_xor(node)[0]
        arrangements = enumerate_arrangements(instance)
        assert len(arrangements) == 1
        assert arrangements[0].release_order == ()
        assert arrangements[0].slots == (("a", "b"),)

    def test_purchase_order_census(self, purchase_order):
        instances = eliminate_xor(purchase_order.workflow)
        got = {
            arrangement_key(a): class_size(a)
            for inst in instances
            for a in enumerate_arrangements(inst)
        }
        assert got == {(row[0], row[1]): row[2] for row in EXPECTED_ARRANGEMENTS}

    def test_matches_product_and_filter_reference(
        self, small_corpus, purchase_order, purchase_order_restricted, purchase_order_no_release
    ):
        # Element for element and in order, including larger schemas where
        # the reference rejects most of the vectors it tries.
        schemas = small_corpus + [purchase_order, purchase_order_restricted, purchase_order_no_release]
        schemas += [random_schema(seed, max_steps=10, max_releases=3, max_effort=None) for seed in (2, 4)]
        for schema in schemas:
            for inst in eliminate_xor(schema.workflow):
                assert list(enumerate_arrangements(inst)) == arrangements_by_filter(inst)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 6),
        n_releases=st.integers(0, 3),
        n_xors=st.integers(0, 2),
    )
    def test_random_trees_match_the_reference(self, seed, n_steps, n_releases, n_xors):
        # The odometer places the last step in all of its slots in one loop.
        tree = random_tree(random.Random(seed), n_steps, n_releases, n_xors)
        for inst in eliminate_xor(tree):
            assert list(enumerate_arrangements(inst)) == arrangements_by_filter(inst)

    @pytest.mark.parametrize(
        "tree, expected",
        [
            (step("a"), [((), (("a",),))]),
            (seq(release("r1"), step("a"), release("r2")), [(("r1", "r2"), ((), ("a",), ()))]),
            # The last step, b, starts in the slot of its predecessor a.
            (
                par(seq(step("a"), step("b")), release("r")),
                [(("r",), (("a", "b"), ())), (("r",), (("a",), ("b",))), (("r",), ((), ("a", "b")))],
            ),
        ],
        ids=["one-step", "one-step-between-releases", "last-step-after-a-predecessor"],
    )
    def test_small_instances(self, tree, expected):
        (inst,) = eliminate_xor(tree)
        assert [arrangement_key(a) for a in enumerate_arrangements(inst)] == expected

    def test_an_instance_without_steps(self):
        without = eliminate_xor(xor(step("a"), release("r")))[1]
        assert (without.steps, without.releases) == ((), ("r",))
        (arrangement,) = enumerate_arrangements(without)
        assert arrangement_key(arrangement) == (("r",), ((), ()))
        table = enumerate_arrangements(without, lambda order: []).blocks[0]
        assert table.keys == [0]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 6),
        n_releases=st.integers(0, 5),
        n_xors=st.integers(0, 2),
    )
    def test_release_orders_are_the_restricted_linear_extensions(
        self, seed, n_steps, n_releases, n_xors
    ):
        tree = random_tree(random.Random(seed), n_steps, n_releases, n_xors)
        for inst in eliminate_xor(tree):
            poset, releases = inst.poset, inst.releases
            restricted = poset.restrict(releases)
            assert restricted.elements == tuple(sorted(releases, key=poset.index.__getitem__))
            for a in releases:
                for b in releases:
                    assert restricted.less(a, b) == poset.less(a, b)
            orders = list(iter_sequences(restricted))
            by_filter = linear_extensions_by_filter(poset, releases)
            assert orders == sorted(by_filter, key=lambda o: [poset.index[r] for r in o])
            assert len(orders) == count_linear_extensions(inst.ast, releases)

    def test_many_sequential_release_points(self):
        # One release order among 10! permutations: enumeration must not
        # visit the others.
        nodes = [step("s0")]
        for i in range(10):
            nodes += [release(f"r{i}"), step(f"s{i + 1}")]
        (inst,) = eliminate_xor(seq(*nodes))
        started = time.perf_counter()
        (arr,) = enumerate_arrangements(inst)
        assert time.perf_counter() - started < 1.0
        assert arr.release_order == tuple(f"r{i}" for i in range(10))
        assert arr.slots == tuple((f"s{i}",) for i in range(11))

    def test_equal_slots_are_one_tuple(
        self, small_corpus, purchase_order, purchase_order_restricted, purchase_order_no_release
    ):
        schemas = [*small_corpus, purchase_order, purchase_order_restricted, purchase_order_no_release]
        for schema in schemas:
            for inst in eliminate_xor(schema.workflow):
                slots = [slot for arr in enumerate_arrangements(inst) for slot in arr.slots]
                assert len({id(slot) for slot in slots}) == len(set(slots))

    def test_long_chain_does_not_recurse_per_step(self):
        # Three chunks of 200 steps between two release points.  Everything
        # else that walks the tree runs under the default limit; the
        # enumeration itself gets only a little stack above the caller's.
        chunks = [[f"s{i}" for i in range(k, k + 200)] for k in (0, 200, 400)]
        nodes = [*map(step, chunks[0]), release("r1"), *map(step, chunks[1])]
        nodes += [release("r2"), *map(step, chunks[2])]
        (inst,) = eliminate_xor(seq(*nodes))
        assert len(inst.steps) == 600 and inst.releases == ("r1", "r2")
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            (arr,) = enumerate_arrangements(inst)
        finally:
            sys.setrecursionlimit(limit)
        assert arr.release_order == ("r1", "r2")
        assert arr.slots == tuple(map(tuple, chunks))

    def test_emitted_arrangements_satisfy_invariants(self, small_corpus):
        for schema in small_corpus[:30]:
            for inst in eliminate_xor(schema.workflow):
                poset = inst.poset
                for arr in enumerate_arrangements(inst):
                    q = len(arr.release_order) + 1
                    assert len(arr.slots) == q
                    flat = [s for slot in arr.slots for s in slot]
                    assert sorted(flat) == sorted(inst.steps)  # partition
                    for i, a in enumerate(arr.release_order):
                        for b in arr.release_order[i + 1 :]:
                            assert not poset.less(b, a)  # release linext
                    for i, slot in enumerate(arr.slots):
                        for s in slot:
                            assert not any(
                                poset.less(r, s) for r in arr.release_order[i:]
                            )
                            assert not any(
                                poset.less(s, r) for r in arr.release_order[:i]
                            )
                    for i, slot in enumerate(arr.slots):
                        for j in range(i + 1, q):
                            for s in slot:
                                for s2 in arr.slots[j]:
                                    assert not poset.less(s2, s)


class TestClassesMatchEquivalence:
    def grouped_by_equivalence(self, instance):
        rel = set(instance.releases)
        groups: list[list] = []
        for s in gen_sequences(instance.ast):
            for g in groups:
                if equivalent(s, g[0], rel):
                    g.append(s)
                    break
            else:
                groups.append([s])
        return groups

    def test_same_classes_and_counts(self, small_corpus, purchase_order):
        schemas = [purchase_order] + small_corpus[:25]
        for schema in schemas:
            for inst in eliminate_xor(schema.workflow):
                arrangements = enumerate_arrangements(inst)
                groups = self.grouped_by_equivalence(inst)
                assert len(arrangements) == len(groups)
                by_key = {arrangement_key(a): a for a in arrangements}
                for g in groups:
                    key = arrangement_key(arrangement_of(g[0], inst))
                    assert key in by_key
                    assert class_size(by_key[key]) == len(g)
                    # every member of the group maps to the same arrangement
                    assert {arrangement_key(arrangement_of(s, inst)) for s in g} == {key}

    def test_partition_property(self, sweep_corpus):
        # Classes partition the sequence set: every sequence lands in exactly
        # one emitted arrangement and the class sizes add up to |Sigma|.
        for schema in sweep_corpus:
            total = 0
            all_seqs = set()
            for inst in eliminate_xor(schema.workflow):
                seqs = gen_sequences(inst.ast)
                all_seqs.update(seqs)
                keys = [arrangement_key(a) for a in enumerate_arrangements(inst)]
                assert len(set(keys)) == len(keys)  # no duplicate classes
                membership = [arrangement_key(arrangement_of(s, inst)) for s in seqs]
                assert set(membership) == set(keys)
                total += sum(
                    class_size(a) for a in enumerate_arrangements(inst)
                )
            assert total == len(all_seqs)

    def test_slot_extension_product_is_class_size(self, purchase_order):
        for inst in eliminate_xor(purchase_order.workflow):
            rel = set(inst.releases)
            seqs = gen_sequences(inst.ast)
            for arr in enumerate_arrangements(inst):
                member = next(
                    s for s in seqs if arrangement_key(arrangement_of(s, inst)) == arrangement_key(arr)
                )
                members = sum(1 for s in seqs if equivalent(s, member, rel))
                product = 1
                for slot in arr.slots:
                    product *= count_linear_extensions(inst.ast, slot)
                assert class_size(arr) == members == product


class TestArrangementOf:
    def test_known_sequence_classes(self, purchase_order):
        upper, lower = eliminate_xor(purchase_order.workflow)
        arr = arrangement_of(("s1", "s2", "s4", "s3", "s5", "r", "s6"), upper)
        assert arrangement_key(arr) == (("r",), (("s1", "s2", "s3", "s5", "s4"), ("s6",)))
        arr = arrangement_of(("s1", "s2", "s3", "s5", "r", "s4", "s6"), upper)
        assert arrangement_key(arr) == (("r",), (("s1", "s2", "s3", "s5"), ("s4", "s6")))
        arr = arrangement_of(("s1", "s2", "s3p", "r", "s4", "s6"), lower)
        assert arrangement_key(arr) == (("r",), (("s1", "s2", "s3p"), ("s4", "s6")))

    def test_release_free_instance(self):
        inst = eliminate_xor(par(step("a"), step("b")))[0]
        arr = arrangement_of(("b", "a"), inst)
        assert arr.slots == (("a", "b"),)

    def test_rejects_non_sequences(self, purchase_order):
        upper = eliminate_xor(purchase_order.workflow)[0]
        with pytest.raises(NotASequence):
            arrangement_of(("s2", "s1", "s3", "s5", "r", "s4", "s6"), upper)
        with pytest.raises(NotASequence):
            arrangement_of(("s1", "s2"), upper)

    def test_consistent_with_equivalence(self, purchase_order):
        for inst in eliminate_xor(purchase_order.workflow):
            rel = set(inst.releases)
            seqs = gen_sequences(inst.ast)
            for a, b in itertools.combinations(seqs, 2):
                same = arrangement_key(arrangement_of(a, inst)) == arrangement_key(
                    arrangement_of(b, inst)
                )
                assert same == equivalent(a, b, rel)


def test_count_sequences_chain_slots_is_one():
    node = seq(step("a"), step("b"), step("c"))
    inst = eliminate_xor(node)[0]
    (arr,) = enumerate_arrangements(inst)
    assert class_size(arr) == 1


@pytest.mark.parametrize("seed", [2, 4, 10, 17])
def test_class_sizes_sum_to_sigma_beyond_oracle_scale(seed):
    # Up to 6.6 million sequences per instance: too many to generate, so the
    # class sizes are checked against |Sigma| alone.
    schema = random_schema(seed, max_steps=10, max_releases=3, max_effort=None)
    assert 8 <= len(step_ids(schema.workflow)) <= 10
    for inst in eliminate_xor(schema.workflow):
        arrangements = enumerate_arrangements(inst)
        assert sum(class_size(a) for a in arrangements) == sequence_count(inst.ast)


def test_count_linear_extensions_rejects_xor():
    # The xor lies outside the subset and still makes the order undefined.
    with pytest.raises(XorPresent):
        count_linear_extensions(seq(step("a"), xor(step("b"), step("c"))), ("a",))

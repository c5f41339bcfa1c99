from __future__ import annotations

import itertools
import random
import sys

import pytest

from wfsat.arrangements import eliminate_xor
from wfsat.errors import XorPresent
from wfsat.model import (
    Schema,
    WeightedConstraint,
    compile_poset,
    element_order,
    exclusive_pairs,
    par,
    seq,
    step,
    validate_schema,
    xor,
)
from wfsat.sequences import gen_sequences

from helpers import compile_poset_by_recursion, linear_extensions_by_filter
from randgen import random_tree


def upper_branch_instance():
    # Purchase-order workflow with the high-value branch selected.
    return seq(step("s1"), step("s2"), par(seq(step("s3"), step("s5")), step("s4")), step("s6"))


class TestCompilePoset:
    def test_seq_orders_elements(self):
        p = compile_poset(seq(step("s1"), step("s2")))
        assert p.less("s1", "s2")
        assert not p.less("s2", "s1")

    def test_par_leaves_elements_incomparable(self):
        p = compile_poset(par(step("s3"), step("s4")))
        assert not p.comparable("s3", "s4")

    def test_purchase_order_upper_branch_structure(self):
        p = compile_poset(upper_branch_instance())
        assert p.less("s1", "s2") and p.less("s2", "s3") and p.less("s3", "s5")
        assert p.less("s5", "s6") and p.less("s4", "s6") and p.less("s2", "s4")
        assert not p.comparable("s4", "s3")
        assert not p.comparable("s4", "s5")

    def test_rejects_xor(self):
        with pytest.raises(XorPresent):
            compile_poset(xor(step("a"), step("b")))
        with pytest.raises(XorPresent):
            compile_poset(seq(step("a"), par(step("b"), xor(step("c"), step("d")))))

    def test_equals_the_recursive_reference(
        self, sweep_corpus, purchase_order, purchase_order_restricted, purchase_order_no_release
    ):
        schemas = [*sweep_corpus, purchase_order, purchase_order_restricted, purchase_order_no_release]
        instances = [inst for schema in schemas for inst in eliminate_xor(schema.workflow)]
        assert len(instances) > len(schemas)
        for inst in instances:
            assert compile_poset(inst.ast) == compile_poset_by_recursion(inst.ast)

    def test_long_chain_does_not_recurse_per_element(self):
        # The tree nests 1,200 levels deep; the pass gets only a little
        # stack above the caller's.
        names = [f"s{i}" for i in range(1200)]
        node = seq(*map(step, names))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            poset = compile_poset(node)
        finally:
            sys.setrecursionlimit(limit)
        assert poset.elements == tuple(names)
        assert poset.successors == tuple((1 << 1200) - (1 << i + 1) for i in range(1200))

    def test_element_list_is_canonical_traversal(self):
        node = upper_branch_instance()
        assert compile_poset(node).elements == element_order(node)

    def test_random_trees_yield_strict_partial_orders(self):
        rng = random.Random(42)
        for _ in range(1000):
            tree = random_tree(rng, rng.randint(1, 7), rng.randint(0, 2), 0)
            p = compile_poset(tree)
            for a, b in itertools.product(p.elements, repeat=2):
                assert not (p.less(a, b) and p.less(b, a))  # irreflexive, asymmetric
            for a, b, c in itertools.product(p.elements, repeat=3):
                if p.less(a, b) and p.less(b, c):
                    assert p.less(a, c)  # transitive

    def test_order_agrees_with_every_generated_sequence(self):
        rng = random.Random(7)
        for _ in range(60):
            tree = random_tree(rng, rng.randint(1, 5), rng.randint(0, 2), 0)
            p = compile_poset(tree)
            if len(p.elements) > 7:
                continue
            seqs = gen_sequences(tree)
            for a in p.elements:
                for b in p.elements:
                    if a == b:
                        continue
                    always_before = all(s.index(a) < s.index(b) for s in seqs)
                    assert p.less(a, b) == always_before


class TestExclusivePairs:
    def test_purchase_order_xor(self):
        branchy = xor(seq(step("s3"), step("s5")), step("s3p"))
        assert exclusive_pairs(branchy) == {
            frozenset(("s3", "s3p")),
            frozenset(("s5", "s3p")),
        }

    def test_xor_free_tree_has_none(self):
        assert exclusive_pairs(upper_branch_instance()) == set()

    def test_nested_xor(self):
        node = xor(step("a"), xor(step("b"), step("c")))
        assert exclusive_pairs(node) == {
            frozenset(("a", "b")),
            frozenset(("a", "c")),
            frozenset(("b", "c")),
        }

    def test_exclusive_steps_never_cooccur(self):
        from wfsat.oracle import sigma

        rng = random.Random(11)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(2, 5), rng.randint(0, 1), rng.randint(1, 2))
            pairs = exclusive_pairs(tree)
            for s in sigma(tree, cap=500):
                present = set(s)
                for pair in pairs:
                    assert not pair <= present


class TestValidateSchema:
    def test_purchase_order_fixture_is_valid(self, purchase_order):
        assert validate_schema(purchase_order) == []

    def test_exclusive_steps_in_scope(self, purchase_order):
        bad = Schema(
            workflow=purchase_order.workflow,
            users=purchase_order.users,
            authorizations=purchase_order.authorizations,
            default_unauth_penalty=10,
            constraints=(
                WeightedConstraint(id="bad", kind="sod", scope=("s3", "s3p"), weight=1),
            ),
        )
        assert any(v.code == "exclusive-scope" for v in validate_schema(bad))

    def test_step_without_authorized_user(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={"a": frozenset(("u1",))},
            default_unauth_penalty=0,
        )
        report = validate_schema(schema)
        assert any(v.code == "unauthorized-step" and "b" in v.ids for v in report)

    def test_duplicate_leaf_ids(self):
        schema = Schema(
            workflow=seq(step("a"), step("a")),
            users=("u1",),
            authorizations={"a": frozenset(("u1",))},
        )
        assert any(v.code == "duplicate-id" for v in validate_schema(schema))

    def test_bad_k_and_weight(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={"a": frozenset(("u1",)), "b": frozenset(("u1",))},
            constraints=(
                WeightedConstraint(id="c1", kind="atmost", scope=("a", "b"), weight=1, k=5),
                WeightedConstraint(id="c2", kind="sod", scope=("a", "b"), weight=0),
            ),
        )
        codes = {v.code for v in validate_schema(schema)}
        assert "bad-k" in codes and "bad-weight" in codes

    def test_unknown_kind(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={"a": frozenset(("u1",)), "b": frozenset(("u1",))},
            constraints=(WeightedConstraint(id="c1", kind="mystery", scope=("a", "b"), weight=1),),
        )
        assert [v.code for v in validate_schema(schema)] == ["unknown-kind"]


def test_gen_sequences_equal_linear_extensions_small():
    # Cross-check against the independent permutation filter.
    rng = random.Random(3)
    for _ in range(50):
        tree = random_tree(rng, rng.randint(1, 5), rng.randint(0, 2), 0)
        p = compile_poset(tree)
        if len(p.elements) > 7:
            continue
        assert set(gen_sequences(tree)) == linear_extensions_by_filter(p, p.elements)

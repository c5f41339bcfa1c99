from __future__ import annotations

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsat.arrangements import eliminate_xor
from wfsat.errors import NotInSequence, OverlapError, SizeLimit
from wfsat.model import compile_poset, par, seq, step
from wfsat.sequences import (
    between,
    concat,
    count_linear_extensions,
    equivalent,
    gen_sequences,
    interleave,
    left,
    right,
    sequence_count,
)

from helpers import linear_extensions_by_filter
from randgen import random_tree


class TestAlgebra:
    def test_concat(self):
        assert concat(("s1",), ("s2",)) == ("s1", "s2")
        assert concat(("s1", "s2"), ()) == ("s1", "s2")
        assert concat(("s1", "s2"), ("s4", "s3")) == ("s1", "s2", "s4", "s3")

    def test_concat_rejects_overlap(self):
        with pytest.raises(OverlapError):
            concat(("a", "b"), ("b",))

    def test_interleave_two_singletons(self):
        assert set(interleave(("x",), ("y",))) == {("x", "y"), ("y", "x")}

    def test_interleave_empty_is_identity(self):
        assert interleave(("a", "b"), ()) == [("a", "b")]
        assert interleave((), ("a", "b")) == [("a", "b")]

    def test_interleave_pair_with_singleton(self):
        # C(3, 1) = 3 shuffles, by direct enumeration.
        got = set(interleave(("s3", "s5"), ("s4",)))
        assert got == {("s3", "s5", "s4"), ("s3", "s4", "s5"), ("s4", "s3", "s5")}
        assert len(got) == 3

    @given(
        st.integers(min_value=0, max_value=6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=10 - n))
        )
    )
    @settings(max_examples=100)
    def test_interleave_count_is_binomial(self, sizes):
        n, m = sizes
        a = tuple(f"a{i}" for i in range(n))
        b = tuple(f"b{i}" for i in range(m))
        shuffles = interleave(a, b)
        assert len(shuffles) == comb(n + m, n)
        assert len(set(shuffles)) == len(shuffles)
        for s in shuffles:
            assert tuple(x for x in s if x in a) == a
            assert tuple(x for x in s if x in b) == b


class TestGenSequences:
    def test_purchase_order_no_release_upper_branch(self, purchase_order_no_release):
        upper = eliminate_xor(purchase_order_no_release.workflow)[0]
        assert set(gen_sequences(upper.ast)) == {
            ("s1", "s2", "s4", "s3", "s5", "s6"),
            ("s1", "s2", "s3", "s4", "s5", "s6"),
            ("s1", "s2", "s3", "s5", "s4", "s6"),
        }

    def test_purchase_order_lower_branch(self, purchase_order):
        lower = eliminate_xor(purchase_order.workflow)[1]
        assert set(gen_sequences(lower.ast)) == {
            ("s1", "s2", "s3p", "s4", "r", "s6"),
            ("s1", "s2", "s4", "s3p", "r", "s6"),
            ("s1", "s2", "s3p", "r", "s4", "s6"),
        }

    def test_chain_has_single_sequence(self):
        chain = seq(step("a"), step("b"), step("c"), step("d"))
        assert gen_sequences(chain) == [("a", "b", "c", "d")]

    def test_canonical_order_and_count(self):
        node = par(seq(step("a"), step("b")), step("c"))
        seqs = gen_sequences(node)
        assert len(seqs) == sequence_count(node) == 3
        index = {"a": 0, "b": 1, "c": 2}
        keys = [tuple(index[x] for x in s) for s in seqs]
        assert keys == sorted(keys)

    def test_size_limit(self):
        node = par(step("a"), par(step("b"), step("c")))
        with pytest.raises(SizeLimit):
            gen_sequences(node, cap=5)

    def test_matches_permutation_filter(self):
        rng = random.Random(19)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(1, 5), rng.randint(0, 2), 0)
            p = compile_poset(tree)
            if len(p.elements) > 7:
                continue
            got = gen_sequences(tree)
            assert len(set(got)) == len(got)
            assert set(got) == linear_extensions_by_filter(p, p.elements)


class TestSlicing:
    def test_right(self):
        assert right(("s1", "s2", "r", "s4"), "s2") == ("r", "s4")

    def test_between(self):
        assert between(("s1", "r1", "s2", "r2"), "r1", "r2") == ("s2",)

    def test_left_of_first_element(self):
        assert left(("s1", "s2"), "s1") == ()

    def test_missing_element(self):
        with pytest.raises(NotInSequence):
            right(("s1",), "s9")
        with pytest.raises(NotInSequence):
            between(("s1", "s2"), "s2", "s1")


class TestEquivalence:
    def test_same_arrangement(self):
        a = ("s1", "s2", "s3", "s4", "s5", "r", "s6")
        b = ("s1", "s2", "s4", "s3", "s5", "r", "s6")
        assert equivalent(a, b, {"r"})

    def test_step_changes_sides_of_release(self):
        a = ("s1", "s2", "s3", "s5", "s4", "r", "s6")
        b = ("s1", "s2", "s3", "s5", "r", "s4", "s6")
        assert not equivalent(a, b, {"r"})

    def test_reflexive(self):
        s = ("s1", "r", "s2")
        assert equivalent(s, s, {"r"})

    def test_different_step_sets(self):
        assert not equivalent(("s1", "r", "s2"), ("s1", "r", "s3"), {"r"})

    def test_equivalence_relation_on_generated_sequences(self, purchase_order, small_corpus):
        for schema in [purchase_order] + small_corpus[:12]:
            for instance in eliminate_xor(schema.workflow):
                rel = set(instance.releases)
                seqs = gen_sequences(instance.ast)
                if len(seqs) > 14:
                    seqs = seqs[:14]
                for a in seqs:
                    assert equivalent(a, a, rel)
                    for b in seqs:
                        assert equivalent(a, b, rel) == equivalent(b, a, rel)
                for a, b, c in itertools.product(seqs, repeat=3):
                    if equivalent(a, b, rel) and equivalent(b, c, rel):
                        assert equivalent(a, c, rel)


class TestCountLinearExtensions:
    def test_chain(self):
        tree = seq(step("a"), step("b"), step("c"))
        assert count_linear_extensions(tree, ("a", "b", "c")) == 1

    def test_antichain(self):
        tree = par(step("a"), par(step("b"), step("c")))
        assert count_linear_extensions(tree, ("a", "b", "c")) == 6

    def test_purchase_order_upper_prefix(self, purchase_order):
        upper = eliminate_xor(purchase_order.workflow)[0]
        assert count_linear_extensions(upper.ast, ("s1", "s2", "s3", "s4", "s5")) == 3

    def test_empty_subset(self, purchase_order):
        upper = eliminate_xor(purchase_order.workflow)[0]
        assert count_linear_extensions(upper.ast, ()) == 1

    def test_matches_filter_on_random_subsets(self):
        rng = random.Random(23)
        for _ in range(30):
            tree = random_tree(rng, rng.randint(1, 6), rng.randint(0, 1), 0)
            p = compile_poset(tree)
            els = list(p.elements)
            subset = rng.sample(els, rng.randint(0, min(6, len(els))))
            assert count_linear_extensions(tree, subset) == len(
                linear_extensions_by_filter(p, sorted(subset))
            )

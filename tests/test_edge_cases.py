"""Edge cases cutting across modules: empty slots, multi-release
constraints, release-only workflows, and the matching's tie-break."""

from __future__ import annotations

import itertools
import random

import pytest

from wfsat.arrangements import eliminate_xor, enumerate_arrangements
from wfsat.decisions import analyze, check_approx, check_strong_sat
from wfsat.model import Schema, WeightedConstraint, par, release, seq, step
from wfsat.oracle import oracle_decide
from wfsat.solver import (
    Partition,
    decompose_constraint,
    linear_sum_assignment,
    min_auth_weight,
)

from helpers import bell, block_rows, exhaustive_solve_vwsp
from randgen import corpus


def test_empty_slots_are_represented():
    # seq(r1, s, r2): nothing before the first or after the second release.
    schema = Schema(
        workflow=seq(release("r1"), step("s"), release("r2")),
        users=("u1",),
        authorizations={"s": frozenset(("u1",))},
        default_unauth_penalty=1,
    )
    (instance,) = eliminate_xor(schema.workflow)
    (arrangement,) = enumerate_arrangements(instance)
    assert arrangement.release_order == ("r1", "r2")
    assert arrangement.slots == ((), ("s",), ())
    analysis = analyze(schema)
    assert analysis.total_sequences == 1
    assert analysis.records[0].min_cost == 0


def test_release_only_workflow():
    schema = Schema(
        workflow=par(release("r1"), release("r2")),
        users=("u1",),
        authorizations={},
        default_unauth_penalty=1,
    )
    analysis = analyze(schema)
    assert analysis.total_sequences == 2
    assert all(r.min_cost == 0 for r in analysis.records)
    assert check_strong_sat(analysis) == (True, None)
    assert oracle_decide(schema).strong is True


def chain_with_two_releases(users, constraints):
    return Schema(
        workflow=seq(step("a"), release("r1"), step("b"), release("r2"), step("c")),
        users=users,
        authorizations={s: frozenset((users[0],)) for s in ("a", "b", "c")},
        default_unauth_penalty=1,
        constraints=constraints,
    )


def test_constraint_with_two_release_points_spans_three_segments():
    # a | r1 | b | r2 | c with atleast({a, b, c}, 2) released at r1 and r2:
    # each singleton segment can borrow the two absent steps, so every
    # segment is vacuous and one user can legally run everything.
    released = WeightedConstraint(
        id="c", kind="atleast", scope=("a", "b", "c"), k=2,
        release=("r1", "r2"), weight=9,
    )
    schema = chain_with_two_releases(("u1", "u2"), (released,))
    (instance,) = eliminate_xor(schema.workflow)
    (arrangement,) = enumerate_arrangements(instance)
    assert decompose_constraint(released, arrangement, schema) == []
    assert check_strong_sat(schema)[0] is True
    # Without the release points the same constraint bites: spread one step
    # to the unauthorized second user (penalty 1) rather than pay weight 9.
    tight = WeightedConstraint(id="c", kind="atleast", scope=("a", "b", "c"), k=2, weight=9)
    schema = chain_with_two_releases(("u1", "u2"), (tight,))
    assert analyze(schema).max_cost == 1
    assert oracle_decide(schema).max_cost == 1


def test_atleast_with_too_few_users_is_violated_in_every_segment():
    # With a single user the at-least-2 family is empty, so no subscope
    # assignment extends to a satisfying one: the released variant is
    # violated once per non-empty segment, the unreleased one just once.
    released = WeightedConstraint(
        id="c", kind="atleast", scope=("a", "b", "c"), k=2,
        release=("r1", "r2"), weight=9,
    )
    schema = chain_with_two_releases(("u1",), (released,))
    assert analyze(schema).max_cost == 27
    assert oracle_decide(schema).max_cost == 27
    tight = WeightedConstraint(id="c", kind="atleast", scope=("a", "b", "c"), k=2, weight=9)
    schema = chain_with_two_releases(("u1",), (tight,))
    assert analyze(schema).max_cost == 9
    assert oracle_decide(schema).max_cost == 9


def test_partition_counter_hits_bell_exactly_with_enough_users():
    from wfsat.solver import solve_vwsp

    schema = Schema(
        workflow=seq(step("a"), step("b"), step("c"), step("d")),
        users=("u1", "u2", "u3", "u4", "u5"),
        authorizations={s: frozenset(("u1",)) for s in ("a", "b", "c", "d")},
        default_unauth_penalty=1,
    )
    stats: dict = {}
    expected = exhaustive_solve_vwsp(schema.steps, [], schema, stats=stats)
    assert stats["partitions_visited"] == bell(4)
    # The first partition, all steps on u1, costs 0, which no other
    # partition can beat, so the pruned scan prices only that one.
    stats = {}
    assert solve_vwsp(schema.steps, [], schema, stats=stats) == expected
    assert stats["partitions_visited"] == 1


def blocks_with_costs(cost):
    """A partition and a schema whose block-to-user costs are ``cost``.

    Entries lie in 0..7: block b holds three steps with penalties 1, 2
    and 4, and user u may run the step of penalty ``2**k`` unless bit k of
    ``cost[b][u]`` is set.
    """
    users = tuple(f"u{i}" for i in range(len(cost[0])))
    blocks = tuple(tuple(f"b{b}p{k}" for k in range(3)) for b in range(len(cost)))
    schema = Schema(
        workflow=par(*(step(s) for block in blocks for s in block)),
        users=users,
        authorizations={
            f"b{b}p{k}": frozenset(u for u, c in zip(users, row) if not c >> k & 1)
            for b, row in enumerate(cost)
            for k in range(3)
        },
        step_unauth_penalty={s: 1 << k for block in blocks for k, s in enumerate(block)},
    )
    return Partition(blocks), schema


def test_hungarian_path_matches_enumeration():
    # The matching is one Hungarian run on lexicographically perturbed
    # costs.  Check its value and user vector against the exhaustive
    # lexicographic optimum on random rectangular matrices, on shapes from
    # 6,720 to 60,480 injective assignments (5 x 11, 55,440, is the shape
    # of the benchmark's 11-user schemas), and on the cost ranges {0} and
    # {0, 1}, where the tie-break decides everything.
    rng = random.Random(123)
    shapes = [(b, rng.randint(b, 6)) for b in (rng.randint(1, 4) for _ in range(40))]
    shapes += [(5, 8), (4, 10), (5, 10), (6, 9), (5, 11), (5, 11)]
    for blocks, n_users in shapes:
        for top in (0, 1, 7):
            cost = [[rng.randint(0, top) for _ in range(n_users)] for _ in range(blocks)]
            partition, schema = blocks_with_costs(cost)
            got_value, got_users = min_auth_weight(block_rows(partition, schema), schema.users)
            best = None
            best_assign = None
            for assign in itertools.permutations(range(n_users), blocks):
                value = sum(cost[b][u] for b, u in enumerate(assign))
                if best is None or value < best:
                    best, best_assign = value, assign
            assert got_value == best
            assert got_users == tuple(schema.users[u] for u in best_assign)
            plain = linear_sum_assignment(cost)
            assert len(set(plain)) == blocks
            assert sum(cost[b][u] for b, u in enumerate(plain)) == best
    # The empty matrix: no rows to match.
    assert linear_sum_assignment([]) == []


def test_matching_rejects_more_rows_than_columns():
    # Two rows, one column: no matching covers every row.
    with pytest.raises(ValueError, match="2 rows"):
        linear_sum_assignment([[1], [2]])


def test_min_auth_weight_large_user_pool():
    # 9 users, 2 blocks: an authorization pattern with a unique optimum,
    # away from the lexicographically first users.
    users = tuple(f"u{i}" for i in range(9))
    auth = {"a": frozenset(("u7",)), "b": frozenset(("u3",))}
    schema = Schema(
        workflow=seq(step("a"), step("b")),
        users=users,
        authorizations=auth,
        default_unauth_penalty=5,
    )
    cost, assigned = min_auth_weight(block_rows(Partition((("a",), ("b",))), schema), schema.users)
    assert cost == 0
    assert assigned == ("u7", "u3")


def test_approx_monotone_downward_in_probability():
    from fractions import Fraction

    for schema in corpus(15, seed_base=90_000):
        analysis = analyze(schema)
        total = analysis.total_sequences
        budget = Fraction(analysis.max_cost, 2)
        answers = [
            check_approx(analysis, budget, Fraction(k, total)) for k in range(total + 1)
        ]
        # Once no at some p, no at every larger p.
        assert answers == sorted(answers, reverse=True)

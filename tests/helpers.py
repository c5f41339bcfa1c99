"""Small independent utilities shared by the test modules.

The brute-force routines here are deliberately written from the problem
definitions (permutation filters, full plan enumeration) so they can
serve as oracles for the package's algorithms.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from math import comb

from wfsat.arrangements import Arrangement, XorFreeInstance
from wfsat.cli import main
from wfsat.model import Poset, Schema, violation_units


def run_cli(*args: str) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, buf.getvalue()


def bell(n: int) -> int:
    """Bell numbers via the binomial recurrence."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m - 1, k) * values[k] for k in range(m)))
    return values[n]


def linear_extensions_by_filter(poset: Poset, elements) -> set[tuple[str, ...]]:
    """All linear extensions of the induced subposet, by permutation filter."""
    elements = tuple(elements)
    out = set()
    for perm in itertools.permutations(elements):
        if all(
            not poset.less(perm[j], perm[i])
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
        ):
            out.add(perm)
    return out


def release_free_plan_cost(plan: dict[str, str], schema: Schema) -> int:
    """Direct plan cost when no constraint has applicable release points.

    Authorization cost is per-step additive; each constraint charges its
    weight times the distance of |plan(scope)| from its cardinality bound.
    """
    total = sum(
        schema.penalty(s) for s, u in plan.items() if not schema.authorized(s, u)
    )
    for c in schema.constraints:
        bound, k = c.bound()
        distinct = len({plan[s] for s in c.scope})
        total += c.weight * violation_units(bound, k, distinct)
    return total


def exhaustive_min_plan(schema: Schema) -> int:
    """Minimum release-free plan cost over all total plans, by enumeration."""
    best = None
    for assignment in itertools.product(schema.users, repeat=len(schema.steps)):
        plan = dict(zip(schema.steps, assignment))
        cost = release_free_plan_cost(plan, schema)
        if best is None or cost < best:
            best = cost
    return best


def arrangements_by_filter(instance: XorFreeInstance) -> list[Arrangement]:
    """All arrangements of an instance, by product-and-filter over slot vectors.

    Same canonical order as ``enumerate_arrangements``: valid release
    permutations lexicographically, then every slot vector in the per-step
    feasible intervals in mixed-radix order, rejecting those that place a
    step after a successor.
    """
    poset = instance.poset
    releases = list(instance.releases)
    steps = list(instance.steps)
    q = len(releases) + 1
    order_pairs = [
        (i, j)
        for i, a in enumerate(steps)
        for j, b in enumerate(steps)
        if i != j and poset.less(a, b)
    ]
    out: list[Arrangement] = []
    for perm in itertools.permutations(releases):
        if any(
            poset.less(perm[j], perm[i]) for i in range(len(perm)) for j in range(i + 1, len(perm))
        ):
            continue
        ranges = []
        for s in steps:
            lo, hi = 0, q - 1
            for j, r in enumerate(perm):
                if poset.less(r, s):
                    lo = max(lo, j + 1)
                if poset.less(s, r):
                    hi = min(hi, j)
            if lo > hi:
                break
            ranges.append(range(lo, hi + 1))
        else:
            for digits in itertools.product(*ranges):
                if any(digits[i] > digits[j] for i, j in order_pairs):
                    continue
                slots: list[list[str]] = [[] for _ in range(q)]
                for s, d in zip(steps, digits):
                    slots[d].append(s)
                out.append(
                    Arrangement(
                        release_order=tuple(perm),
                        slots=tuple(tuple(slot) for slot in slots),
                        owner=instance,
                    )
                )
    return out

"""Small independent utilities shared by the test modules.

The brute-force routines here are deliberately written from the problem
definitions (permutation filters, full plan enumeration) so they can
serve as oracles for the package's algorithms.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
from math import comb

from wfsat.arrangements import Arrangement, XorFreeInstance
from wfsat.cli import main
from wfsat.errors import XorPresent
from wfsat.model import (
    CompositionNode,
    Par,
    Poset,
    ReleaseLeaf,
    Schema,
    Seq,
    StepLeaf,
    Xor,
    element_order,
    violation_units,
)
from wfsat.sequences import count_linear_extensions
from wfsat.solver import (
    CostedPlan,
    Partition,
    iter_partitions,
    min_auth_weight,
    pattern_constraint_weight,
)


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


def compile_poset_by_recursion(node: CompositionNode) -> Poset:
    """The induced order, by a recursion that ORs each serial node's right
    side into every element of its left side."""
    order = element_order(node)
    successors = [0] * len(order)
    cursor = 0

    def visit(nd: CompositionNode) -> tuple[int, int]:
        nonlocal cursor
        if isinstance(nd, (StepLeaf, ReleaseLeaf)):
            cursor += 1
            return cursor - 1, cursor
        if isinstance(nd, Xor):
            raise XorPresent("cannot compile a poset while xor nodes remain")
        l0, l1 = visit(nd.left)
        r0, r1 = visit(nd.right)
        if isinstance(nd, Seq):
            for i in range(l0, l1):
                successors[i] |= (1 << r1) - (1 << r0)
        return l0, r1

    visit(node)
    return Poset(order, tuple(successors))


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


def block_rows(partition: Partition, schema: Schema) -> list[list[int]]:
    """Each block's penalty row: for every user, the summed unauthorized
    penalties of the block's steps that the user may not run."""
    rows = []
    for block in partition.blocks:
        row = []
        for u in schema.users:
            row.append(sum(schema.penalty(s) for s in block if not schema.authorized(s, u)))
        rows.append(row)
    return rows


def exhaustive_solve_vwsp(steps, constraints, schema: Schema, stats: dict | None = None) -> CostedPlan:
    """:func:`wfsat.solver.solve_vwsp` by a scan of every partition.

    Visits every partition of :func:`wfsat.solver.iter_partitions` and
    keeps the first whose total is strictly below the best so far, so it
    returns the same witness as the pruned scan, and counts every
    partition in ``stats["partitions_visited"]``.
    """
    steps = schema.sort_canonical(set(steps))
    if not steps:
        return CostedPlan({}, 0, 0)
    best = None
    for partition in iter_partitions(steps, min(len(steps), len(schema.users))):
        if stats is not None:
            stats["partitions_visited"] = stats.get("partitions_visited", 0) + 1
        cw = pattern_constraint_weight(partition, constraints)
        if best is not None and cw >= best.total:
            continue
        aw, block_users = min_auth_weight(block_rows(partition, schema), schema.users)
        if best is None or cw + aw < best.total:
            plan = {s: u for block, u in zip(partition.blocks, block_users) for s in block}
            best = CostedPlan(plan, cw, aw)
    return best


def min_plan_total(steps, constraints, schema: Schema) -> int:
    """Least total cost of a plan of ``steps`` under classical constraints,
    over all |U|^n plans."""
    steps = tuple(steps)
    best = None
    for users in itertools.product(schema.users, repeat=len(steps)):
        plan = dict(zip(steps, users))
        total = sum(schema.penalty(s) for s, u in plan.items() if not schema.authorized(s, u))
        for c in constraints:
            total += c.weight * violation_units(c.bound, c.k, len({plan[s] for s in c.scope}))
        if best is None or total < best:
            best = total
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


def class_size(arrangement: Arrangement) -> int:
    """The number of execution sequences in the arrangement's class: the
    product of its slots' linear-extension counts, each counted afresh."""
    size = 1
    for slot in arrangement.slots:
        size *= count_linear_extensions(arrangement.owner.ast, slot)
    return size


def signature_by_slots(arrangement: Arrangement, schema: Schema) -> tuple[int, ...]:
    """The cost signature as a tuple, by a walk over the slots.

    For each constraint in order and each of its scope steps the
    arrangement executes, in scope order: the number of the constraint's
    release points placed before the step's slot.  The reference for
    :func:`wfsat.solver.cost_signature`, which packs the same entries into
    one ``int``.
    """
    slot_of = {s: d for d, slot in enumerate(arrangement.slots) for s in slot}
    out: list[int] = []
    for c in schema.constraints:
        passed = [0]
        for r in arrangement.release_order:
            passed.append(passed[-1] + (r in c.release))
        out.extend(passed[slot_of[s]] for s in c.scope if s in slot_of)
    return tuple(out)


def span_grouping(arrangement: Arrangement, schema: Schema) -> tuple[int, ...]:
    """Which scope steps of each constraint share a release span.

    Walks the arrangement as S1, r1, S2, ..., Sq, counting each
    constraint's release points as they pass, so every executed scope step
    gets the number of its span.  Per constraint, in scope order, the
    spans are renumbered 0, 1, ... by first appearance; the constraints'
    numbers are concatenated in constraint order.
    """
    out: list[int] = []
    for c in schema.constraints:
        span_of: dict[str, int] = {}
        passed = 0
        for d, slot in enumerate(arrangement.slots):
            if d:
                passed += arrangement.release_order[d - 1] in c.release
            for s in slot:
                span_of[s] = passed
        renumbered: dict[int, int] = {}
        for s in c.scope:
            if s in span_of:
                out.append(renumbered.setdefault(span_of[s], len(renumbered)))
    return tuple(out)


def export_dot_by_contraction(node: CompositionNode) -> str:
    """Workflow DAG in DOT form, by wrapping every element and contracting.

    The reference for :func:`wfsat.io.export_dot`, which builds the
    contracted graph directly and must give the same text.

    Mirrors the usual drawing convention: a distinguished input/output
    pair wraps the workflow, every parallel and xor composition keeps its
    fork/join vertices, and orchestration points with a single neighbor
    on each side are contracted into edges.  Steps render as boxes,
    release points as circles, orchestration points unstyled.
    """
    vertices: list[tuple[str, str]] = []  # (name, kind) in creation order
    edges: set[tuple[str, str]] = set()
    counters = {"par": 0, "xor": 0, "leaf": 0}
    taken = set(element_order(node))

    def unique(name: str) -> str:
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    def fresh(kind: str) -> tuple[str, str]:
        counters[kind] += 1
        if kind == "leaf":
            return unique(f"__in_{counters['leaf']}"), unique(f"__out_{counters['leaf']}")
        n = counters[kind]
        return unique(f"alpha_{kind}_{n}"), unique(f"omega_{kind}_{n}")

    def build(nd: CompositionNode) -> tuple[str, str]:
        if isinstance(nd, (StepLeaf, ReleaseLeaf)):
            name = nd.step if isinstance(nd, StepLeaf) else nd.release
            kind = "step" if isinstance(nd, StepLeaf) else "release"
            a, o = fresh("leaf")
            vertices.append((a, "orch"))
            vertices.append((name, kind))
            vertices.append((o, "orch"))
            edges.add((a, name))
            edges.add((name, o))
            return a, o
        if isinstance(nd, Seq):
            i1, o1 = build(nd.left)
            i2, o2 = build(nd.right)
            edges.add((o1, i2))
            return i1, o2
        kind = "par" if isinstance(nd, Par) else "xor"
        a, o = fresh(kind)
        vertices.append((a, "orch"))
        i1, o1 = build(nd.left)
        i2, o2 = build(nd.right)
        vertices.append((o, "orch"))
        edges.add((a, i1))
        edges.add((a, i2))
        edges.add((o1, o))
        edges.add((o2, o))
        return a, o

    outer_alpha = unique("alpha")
    outer_omega = unique("omega")
    vertices.append((outer_alpha, "orch"))
    inner_in, inner_out = build(node)
    vertices.append((outer_omega, "orch"))
    edges.add((outer_alpha, inner_in))
    edges.add((inner_out, outer_omega))

    # Contract orchestration vertices with one in- and one out-neighbor.
    keep = {outer_alpha, outer_omega}
    changed = True
    while changed:
        changed = False
        for name, kind in vertices:
            if kind != "orch" or name in keep:
                continue
            ins = [e for e in edges if e[1] == name]
            outs = [e for e in edges if e[0] == name]
            if len(ins) == 1 and len(outs) == 1:
                edges.discard(ins[0])
                edges.discard(outs[0])
                edges.add((ins[0][0], outs[0][1]))
                vertices.remove((name, kind))
                changed = True
                break

    shapes = {"step": " [shape=box]", "release": " [shape=circle]", "orch": ""}
    order = {name: i for i, (name, _) in enumerate(vertices)}
    lines = ["digraph workflow {"]
    for name, kind in vertices:
        lines.append(f'  "{name}"{shapes[kind]};')
    for src, dst in sorted(edges, key=lambda e: (order[e[0]], order[e[1]])):
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# Metamorphic transforms: each gives a schema whose mass table follows
# from the original's by the definitions alone.


def _fresh(taken: set[str], stem: str) -> str:
    """``stem``, primed until it is not in ``taken``; the result is taken."""
    while stem in taken:
        stem += "'"
    taken.add(stem)
    return stem


def swap_operands(schema: Schema) -> Schema:
    """The schema with the two operands of every ``par`` and ``xor`` swapped."""

    def swap(node: CompositionNode) -> CompositionNode:
        if isinstance(node, (StepLeaf, ReleaseLeaf)):
            return node
        left, right = swap(node.left), swap(node.right)
        return Seq(left, right) if isinstance(node, Seq) else type(node)(right, left)

    return dataclasses.replace(schema, workflow=swap(schema.workflow))


def append_free_release(schema: Schema) -> Schema:
    """``seq(W, release(r))`` for a fresh ``r`` that no constraint names."""
    r = _fresh(set(element_order(schema.workflow)), "r_free")
    return dataclasses.replace(schema, workflow=Seq(schema.workflow, ReleaseLeaf(r)))


def split_weights(schema: Schema) -> Schema:
    """Every constraint of weight w >= 2 split into two copies, of weights
    1 and w - 1; the second takes a fresh id."""
    taken = {c.id for c in schema.constraints}
    constraints = []
    for c in schema.constraints:
        if c.weight < 2:
            constraints.append(c)
            continue
        constraints.append(dataclasses.replace(c, weight=1))
        constraints.append(dataclasses.replace(c, id=_fresh(taken, c.id), weight=c.weight - 1))
    return dataclasses.replace(schema, constraints=tuple(constraints))


def scale_costs(schema: Schema, k: int) -> Schema:
    """Every constraint weight and unauthorized penalty multiplied by ``k``."""
    return dataclasses.replace(
        schema,
        default_unauth_penalty=k * schema.default_unauth_penalty,
        step_unauth_penalty={s: k * p for s, p in schema.step_unauth_penalty.items()},
        constraints=tuple(dataclasses.replace(c, weight=k * c.weight) for c in schema.constraints),
    )


def rename_users(schema: Schema) -> tuple[Schema, dict[str, str]]:
    """Every user renamed, with ``schema.users``' order kept, and the renaming.

    The new names sort in the reverse of that order, so a tie-break that
    read names rather than positions would show.
    """
    n = len(schema.users)
    names = {u: f"user{n - i:03d}" for i, u in enumerate(schema.users)}
    renamed = dataclasses.replace(
        schema,
        users=tuple(map(names.__getitem__, schema.users)),
        authorizations={s: frozenset(map(names.__getitem__, us)) for s, us in schema.authorizations.items()},
    )
    return renamed, names


def refold(schema: Schema) -> Schema:
    """Every chain of ``seq`` (or of ``par``) operands nested to the left.

    ``seq(a, seq(b, c))`` becomes ``seq(seq(a, b), c)``; the leaves keep
    their left-to-right order.
    """

    def operands(node: CompositionNode, op: type) -> list[CompositionNode]:
        if type(node) is op:
            return operands(node.left, op) + operands(node.right, op)
        return [fold(node)]

    def fold(node: CompositionNode) -> CompositionNode:
        if isinstance(node, (StepLeaf, ReleaseLeaf)):
            return node
        if isinstance(node, Xor):
            return Xor(fold(node.left), fold(node.right))
        op = type(node)
        left, *rights = operands(node, op)
        for right in rights:
            left = op(left, right)
        return left

    return dataclasses.replace(schema, workflow=fold(schema.workflow))

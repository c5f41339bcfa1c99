"""Exact minimum-cost plan computation for one execution arrangement.

Constraints are decomposed at release points into release-free classical
constraints, then a single Valued WSP is solved over the arrangement's
steps.  Because every supported constraint is user-independent, plan cost
depends on the plan only through its kernel partition (which steps share
a user), so the solver runs a pruned partition scan: a depth-first walk
over restricted-growth digits that cuts every prefix whose lower bound
reaches the best total so far.  The bound is the weight of the
constraints whose scope is fully placed plus the least entry of each
block's per-user penalty row; it never exceeds the cost of a completion
because penalties are non-negative and constraint weights positive, as
schema validation requires.  The first minimizing partition in
restricted-growth order is never cut, so it stays the witness.  A leaf
is priced from what the scan already holds: its constraint weight is the
scan's running constraint sum, and its blocks' penalty rows, kept for the
bound, go to an exact minimum-cost injective matching of blocks to users:
one Hungarian run on lexicographically perturbed costs, so the matching's
tie-break is canonical too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import add

from .arrangements import Arrangement
from .errors import TooManyBlocks
from .model import (
    Memo,
    Plan,
    Schema,
    WeightedConstraint,
    restricted_threshold,
    violation_units,
)

@dataclass(frozen=True)
class ClassicalConstraint:
    """A release-free cardinality bound on the users of a step set.

    Produced by restricting a weighted constraint to one subscope;
    ``origin`` records the parent constraint id and subscope index.
    """

    bound: str
    k: int
    scope: tuple[str, ...]
    weight: int
    origin: tuple[str, int]

    def key(self):
        return (self.bound, self.k, self.scope, self.weight)


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks covering a step set, in restricted-growth order."""

    blocks: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class CostedPlan:
    plan: Plan
    constraint_weight: int
    authorization_weight: int

    @property
    def total(self) -> int:
        return self.constraint_weight + self.authorization_weight


def _segment_of_slot(
    release_order: tuple[str, ...], constraint: WeightedConstraint
) -> list[int]:
    """The segment of the constraint each slot falls in: the number of the
    constraint's release points placed before the slot."""
    wanted = set(constraint.release)
    out = [0]
    for r in release_order:
        out.append(out[-1] + (r in wanted))
    return out


def decompose_constraint(
    constraint: WeightedConstraint, arrangement: Arrangement, schema: Schema
) -> list[ClassicalConstraint]:
    """Split a constraint at its release points into classical constraints.

    The arrangement's slot structure fixes which steps fall between which
    consecutive release points of the constraint.  Release points absent
    from the instance are skipped; scope steps absent from the arrangement
    drop out by intersection; vacuous subscopes are omitted.
    """
    bound, k = constraint.bound()
    segment_of_slot = _segment_of_slot(arrangement.release_order, constraint)
    segments: list[list[str]] = [[] for _ in range(segment_of_slot[-1] + 1)]
    for slot, i in zip(arrangement.slots, segment_of_slot):
        segments[i].extend(slot)

    scope = set(constraint.scope)
    out: list[ClassicalConstraint] = []
    for i, segment in enumerate(segments):
        sub = [s for s in segment if s in scope]
        threshold = restricted_threshold(
            bound, k, len(constraint.scope), len(sub), len(schema.users)
        )
        if threshold is None:
            continue
        out.append(
            ClassicalConstraint(
                bound=bound,
                k=threshold,
                scope=schema.sort_canonical(sub),
                weight=constraint.weight,
                origin=(constraint.id, i),
            )
        )
    return out


def cost_signature(arrangement: Arrangement, schema: Schema) -> int:
    """The coarse part of an arrangement that fixes its minimum-cost plan.

    For each constraint, one entry per scope step of the arrangement: the
    number of the constraint's release points placed before the step's
    slot, which is the index of the segment :func:`decompose_constraint`
    puts the step in.  The entries are packed into one ``int``, in
    constraint order and then scope order, each in a bit field of its own.
    A segment index never exceeds the constraint's release count, so a
    field of ``max(1, len(constraint.release).bit_length())`` bits holds
    it.  The layout depends only on the schema and the steps of the
    arrangement's instance, ``arrangement.owner``, so within one instance
    equal signatures mean equal entries.  The fields of all constraints
    together can span more than 64 bits.

    The signature is finer than the solve needs.  Decomposition reads of
    each constraint only which of its scope steps share a segment: a
    subscope's threshold depends on sizes alone, its scope is sorted
    canonically, and a segment holding no scope step is vacuous.  The
    segment index survives only in the order of the classical constraints
    and in ``ClassicalConstraint.origin``; the components, the solve key
    and the summed weights read neither.  So arrangements of an instance
    whose signatures agree after their grouping (see :func:`cost_keys`)
    relabels each constraint's segments by first appearance share their
    minimum-cost plan, witness included, and ``analyze`` runs one solve
    per decomposition grouping.  The signature is the sum of each step's
    part for its slot, the ``weights`` of :func:`cost_keys`, which
    :func:`~wfsat.arrangements.enumerate_arrangements` sums as it places
    the steps.
    """
    steps = arrangement.owner.steps
    weights, _ = cost_keys(schema, steps)
    parts = dict(zip(steps, weights(arrangement.release_order)))
    return sum(parts[s][d] for d, slot in enumerate(arrangement.slots) for s in slot)


def cost_keys(schema: Schema, steps):
    """``(weights, grouping)`` for arrangements over ``steps``.

    The entries' bit fields are laid out once.  ``weights(release_order)``
    lists, for each of ``steps`` in turn, its part of the
    :func:`cost_signature` in each slot: the segment index of each of the
    step's scope entries, shifted to its field.  Steps own disjoint
    fields, so an arrangement's signature is the sum of its steps' parts
    for their slots.  ``grouping(signature)`` reads each constraint's
    chunk of fields back and relabels its entries by first appearance,
    so it records only which of the constraint's scope steps share a
    segment; the labels are concatenated in constraint order, and each
    chunk is decoded once per distinct value of the chunk.
    """
    fields: dict[str, list[tuple[int, int]]] = {s: [] for s in steps}  # (constraint, offset)
    chunks: list[tuple[int, int, Memo]] = []  # per constraint: (offset, mask, labels by value)
    offset = 0
    for i, c in enumerate(schema.constraints):
        width = max(1, len(c.release).bit_length())
        start = offset
        for s in c.scope:
            if s in fields:
                fields[s].append((i, offset))
                offset += width
        if offset > start:
            chunks.append((start, (1 << offset - start) - 1, Memo(_chunk_labels(width, offset - start))))

    def weights(release_order: tuple[str, ...]) -> list[list[int]]:
        segments = [_segment_of_slot(release_order, c) for c in schema.constraints]
        q = len(release_order) + 1
        return [
            [sum(segments[i][d] << o for i, o in fields[s]) for d in range(q)] for s in steps
        ]

    def grouping(signature: int) -> tuple[int, ...]:
        out: list[int] = []
        for start, mask, labels in chunks:
            out += labels[signature >> start & mask]
        return tuple(out)

    return weights, grouping


def _chunk_labels(width: int, bits: int):
    """Decoder of one constraint's chunk of ``bits`` bits, in fields of
    ``width`` bits: each field's value relabelled by first appearance,
    lowest field first."""
    mask = (1 << width) - 1

    def labels(chunk: int) -> tuple[int, ...]:
        seen: dict[int, int] = {}
        return tuple(seen.setdefault(chunk >> o & mask, len(seen)) for o in range(0, bits, width))

    return labels


def iter_partitions(items, max_blocks: int):
    """Set partitions of ``items`` with at most ``max_blocks`` blocks.

    Yields in lexicographic restricted-growth order: element i joins block
    ``digit[i]`` where digit 0..(current block count) and digit order is
    ascending, so the all-in-one-block partition comes first.
    """
    items = tuple(items)
    n = len(items)
    if n == 0:
        yield Partition(())
        return
    digits = [0] * n

    def rec(i: int, used: int):
        if i == n:
            blocks: list[list[str]] = [[] for _ in range(used)]
            for x, d in zip(items, digits):
                blocks[d].append(x)
            yield Partition(tuple(tuple(b) for b in blocks))
            return
        for d in range(min(used + 1, max_blocks)):
            digits[i] = d
            yield from rec(i + 1, max(used, d + 1))

    yield from rec(0, 0)


def pattern_constraint_weight(partition: Partition, constraints) -> int:
    """Total constraint violation cost of every plan with this kernel.

    User-independent constraints only see how many distinct blocks the
    scope touches, so the weight is a function of the partition alone.
    """
    block_of = {
        s: bi for bi, block in enumerate(partition.blocks) for s in block
    }
    total = 0
    for c in constraints:
        d = len({block_of[s] for s in c.scope})
        total += c.weight * violation_units(c.bound, c.k, d)
    return total


def min_auth_weight(rows, users) -> tuple[int, tuple[str, ...]]:
    """Cheapest injective assignment of blocks to distinct ``users``.

    ``rows[b][u]`` is block b's penalty row entry for ``users[u]``: the
    summed unauthorized penalties of the block's steps that the user may
    not run, as :func:`solve_vwsp` keeps them during its scan.  Ties
    resolve to the lexicographically smallest user-index vector over the
    blocks.  One Hungarian run on perturbed costs
    ``rows[b][u] * U**B + u * U**(B - 1 - b)`` (B blocks, U users) finds
    both: the second terms sum to the user-index vector read as a base-U
    number, which is below ``U**B``, so they only break cost ties.
    """
    if len(rows) > len(users):
        raise TooManyBlocks(f"{len(rows)} blocks for {len(users)} users")
    if not rows:
        return 0, ()
    n, m = len(rows), len(users)
    assign = linear_sum_assignment(
        [[c * m**n + u * m ** (n - 1 - b) for u, c in enumerate(row)] for b, row in enumerate(rows)]
    )
    return sum(rows[b][u] for b, u in enumerate(assign)), tuple(users[u] for u in assign)


def linear_sum_assignment(cost) -> list[int]:
    """The column of each row in a minimum-sum matching of rows to distinct columns.

    ``cost`` is a rows x columns matrix of integers with rows <= columns;
    more rows than columns raise ``ValueError``, since some row would find
    no free column.  The Hungarian method with potentials: each row in
    turn joins the matching along a shortest augmenting path in reduced
    costs, in O(rows**2 * columns) exact integer steps.  Row and column
    numbers in the arrays below are one-based; column 0 stands for the
    row being added.
    """
    n, m = len(cost), len(cost[0]) if cost else 0
    if n > m:
        raise ValueError(f"{n} rows cannot be matched to {m} distinct columns")
    row_pot = [0] * (n + 1)
    col_pot = [0] * (m + 1)
    row_of = [0] * (m + 1)  # row matched to each column, 0 for none
    for i in range(1, n + 1):
        row_of[0] = i
        way = [0] * (m + 1)
        slack = [inf] * (m + 1)
        used = [False] * (m + 1)
        j0 = 0
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            row, u0 = cost[i0 - 1], row_pot[i0]
            delta, j1 = inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - u0 - col_pot[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    row_pot[row_of[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = {row_of[j]: j - 1 for j in range(1, m + 1) if row_of[j]}
    return [col_of[i] for i in range(1, n + 1)]


def solve_vwsp(
    steps, constraints, schema: Schema, stats: dict | None = None
) -> CostedPlan:
    """Globally minimum-cost plan over all assignments of ``steps`` to users.

    Every plan's kernel is a set partition of the steps into at most
    ``len(schema.users)`` blocks; within a partition the constraint weight
    is constant and the matching is optimal.  The partitions are walked
    depth first over restricted-growth digits, steps in canonical order,
    which visits the leaves in the order of :func:`iter_partitions`.  A
    prefix is pruned when its lower bound reaches the best total found so
    far.  The bound is the weight of the constraints whose scope is fully
    placed, plus the least entry of each block's penalty row (the block's
    cost on each user).  Placing more steps adds non-negative penalties to
    rows, opens rows of non-negative entries and leaves placed constraints
    as they are, and the matching pays at least each block's least entry,
    so no completion costs less than its prefix's bound.  At a leaf the
    bound is the constraint weight plus the row minima, so the leaf needs
    no skip of its own, and the leaf is priced from the scan's state: the
    constraint weight is the bound less the row minima, the authorization
    weight is :func:`min_auth_weight` on the rows, and each step takes its
    block's user.  ``stats["partitions_visited"]`` counts the leaves that
    are priced.

    The witness is canonical: the first minimizing partition in
    restricted-growth order, then the matching tie-break.  Each prefix of
    that partition bounds at most the minimum, which is below the best
    total of every leaf before it, so no prefix of it is pruned, and a
    best total is replaced only by a smaller one, as in the full scan.
    The bound rests on non-negative penalties and positive constraint
    weights, which :func:`~wfsat.model.validate_schema` requires.
    """
    steps = schema.sort_canonical(set(steps))
    if not steps:
        return CostedPlan({}, 0, 0)
    users = schema.users
    if not users:
        raise TooManyBlocks("no users to assign")
    n = len(steps)
    max_blocks = min(n, len(users))
    penalties = [
        [0 if schema.authorized(s, u) else schema.penalty(s) for u in users] for s in steps
    ]
    index = {s: i for i, s in enumerate(steps)}
    closing: list[list[tuple[ClassicalConstraint, list[int]]]] = [[] for _ in steps]
    for c in constraints:
        scope = [index[s] for s in c.scope]
        closing[max(scope, default=0)].append((c, scope))

    best: CostedPlan | None = None
    limit = inf  # best.total once a leaf is priced
    digits = [-1] * n  # block of each placed step; -1 before step i is placed
    rows: list[list[int]] = []  # penalty row of each block of the prefix
    replaced: list[list[int] | None] = [None] * n  # row step i's block had before it
    bound = [0] * (n + 1)  # lower bound of the prefix of each length
    i = 0
    while i >= 0:
        d = digits[i]
        if d >= 0:  # take step i out of block d
            if replaced[i] is None:
                rows.pop()
            else:
                rows[d] = replaced[i]
        d += 1
        if d == min(len(rows) + 1, max_blocks):
            digits[i] = -1
            i -= 1
            continue
        digits[i] = d
        # ``raised``: how much step i adds to the sum of the row minima.
        if d == len(rows):
            replaced[i] = None
            rows.append(penalties[i])
            raised = min(penalties[i])
        else:
            old = replaced[i] = rows[d]
            row = rows[d] = list(map(add, old, penalties[i]))
            raised = min(row) - min(old)
        lower = bound[i] + raised + sum(
            c.weight * violation_units(c.bound, c.k, len({digits[j] for j in scope}))
            for c, scope in closing[i]
        )
        if lower >= limit:
            continue
        if i + 1 < n:
            i += 1
            bound[i] = lower
            continue
        if stats is not None:
            stats["partitions_visited"] = stats.get("partitions_visited", 0) + 1
        aw, block_users = min_auth_weight(rows, users)
        cw = lower - sum(map(min, rows))
        if cw + aw < limit:
            best = CostedPlan({s: block_users[b] for s, b in zip(steps, digits)}, cw, aw)
            limit = best.total
    return best


class SolveCache:
    """Memo of component solutions, keyed by step set and constraint multiset."""

    def __init__(self):
        self._table: dict = {}
        self.hits = 0
        self.misses = 0

    def solve(self, steps, constraints, schema: Schema) -> CostedPlan:
        key = (tuple(steps), tuple(sorted(c.key() for c in constraints)))
        found = self._table.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        solution = solve_vwsp(steps, constraints, schema)
        self._table[key] = solution
        return solution


def min_cost_arrangement(
    arrangement: Arrangement, schema: Schema, cache: SolveCache | None = None
) -> CostedPlan:
    """Minimum total cost over all plans for the arrangement's steps.

    The schema's constraints are decomposed at the arrangement's release
    points (:func:`decompose_constraint`) and the arrangement's steps are
    solved under them by :func:`solve_components`, memoized in ``cache``,
    a fresh one if none is given.
    """
    if cache is None:
        cache = SolveCache()
    classical = [
        cc
        for c in schema.constraints
        for cc in decompose_constraint(c, arrangement, schema)
    ]
    # Slots partition the owner's steps, which are in canonical order.
    return solve_components(arrangement.owner.steps, classical, schema, cache)


def solve_components(
    steps: tuple[str, ...], classical: list[ClassicalConstraint], schema: Schema, cache: SolveCache
) -> CostedPlan:
    """Minimum total cost over all plans for ``steps``, in canonical order,
    under the release-free ``classical`` constraints over them.

    The constraints induce a graph joining steps that share a subscope;
    connected components interact through neither constraints nor the
    per-step additive authorization cost, so they are solved
    independently (and memoized in ``cache``) and their costs summed.
    The order of ``classical`` changes nothing.
    """
    parent = {s: s for s in steps}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cc in classical:
        anchor = cc.scope[0]
        for s in cc.scope[1:]:
            parent[find(s)] = find(anchor)

    # Made in step order, so in the canonical order of their first steps.
    components: dict[str, list[str]] = {}
    for s in steps:
        components.setdefault(find(s), []).append(s)

    plan: Plan = {}
    constraint_weight = 0
    authorization_weight = 0
    for component in components.values():
        member = set(component)
        local = [cc for cc in classical if cc.scope[0] in member]
        solution = cache.solve(tuple(component), local, schema)
        plan.update(solution.plan)
        constraint_weight += solution.constraint_weight
        authorization_weight += solution.authorization_weight
    return CostedPlan(plan, constraint_weight, authorization_weight)

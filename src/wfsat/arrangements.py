"""Xor elimination and execution-arrangement enumeration.

An arrangement is an equivalence class of execution sequences that agree
on the order of release points, the executed step set, and each step's
position relative to the release points.  It is represented compactly as
alternating step slots and release points (S1, r1, S2, ..., r_{q-1}, Sq).
All sequences of one arrangement admit plans of identical cost, and that
cost depends only on the arrangement's decomposition grouping (see
:func:`wfsat.solver.cost_signature`), so the pipeline runs one solve per
decomposition grouping.

The enumeration is an odometer loop, not a recursion, so a long chain of
steps costs no stack.  It grows each slot one step at a time from tuples
it has already made, numbering each distinct slot content once, and
writes the arrangements of each release order into one
:class:`ArrangementTable`: a flat array of slot ids, q per arrangement,
and, when given the steps' cost-signature parts, a column of each
arrangement's signature, summed as the steps are placed.  The tables of
one instance make up a :class:`Chain`, a sequence that builds each
:class:`Arrangement` only when it is read.  :func:`count_sequences`
reads a table's class sizes column by column, one count per slot id.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from operator import index as as_index, mul

from .errors import NotASequence
from .model import (
    CompositionNode,
    Memo,
    Par,
    Poset,
    ReleaseLeaf,
    Seq,
    StepLeaf,
    Xor,
    compile_poset,
    release_ids,
    step_ids,
)
from .sequences import Sequence, count_linear_extensions, iter_sequences


@dataclass(frozen=True)
class XorFreeInstance:
    """One xor-free workflow obtained by fixing a branch at every live xor.

    ``choices`` maps the path of each xor node in the original tree
    (``$`` is the root, ``.0``/``.1`` descend left/right) to the branch
    kept in this instance, and ``index`` is the instance's position in
    :func:`eliminate_xor`'s list.  An arrangement's instance is
    ``arrangement.owner``.  ``poset`` is compiled when first read.
    ``slot_counts`` memoizes the linear-extension count of each slot
    content for :func:`count_sequences`, and the instances of one
    :func:`eliminate_xor` call share it: a slot never holds steps from
    both branches of an xor, so its steps are ordered alike, and counted
    alike, in every instance that holds them.
    """

    ast: CompositionNode
    choices: tuple[tuple[str, str], ...]
    index: int
    slot_counts: dict[tuple[str, ...], int] = field(compare=False, repr=False)

    @cached_property
    def poset(self) -> Poset:
        return compile_poset(self.ast)

    @cached_property
    def steps(self) -> tuple[str, ...]:
        return step_ids(self.ast)

    @cached_property
    def releases(self) -> tuple[str, ...]:
        return release_ids(self.ast)


@dataclass(frozen=True, slots=True)
class Arrangement:
    """Compact representative (S1, r1, ..., r_{q-1}, Sq) of one ~-class.

    ``slots`` has exactly ``len(release_order) + 1`` entries, each sorted
    canonically; empty slots are permitted.  The arrangements read from
    one :func:`enumerate_arrangements` result share one tuple per
    distinct slot content.  Slots partition the owner's steps, the
    release order linearly extends the owner's poset, and no ordering
    constraint of the poset crosses the slot structure backwards.
    """

    release_order: tuple[str, ...]
    slots: tuple[tuple[str, ...], ...]
    owner: XorFreeInstance = field(compare=False, repr=False)


def _position(index, size: int) -> int:
    """``index`` as a position in ``range(size)``, counting back if negative."""
    i = as_index(index)
    if i < 0:
        i += size
    if not 0 <= i < size:
        raise IndexError("index out of range")
    return i


@dataclass(frozen=True, slots=True, eq=False)
class ArrangementTable(abc.Sequence):
    """The arrangements of one instance with one release order, as columns.

    ``ids`` holds q slot ids per arrangement, in canonical order, where
    q is ``len(release_order) + 1``; id k stands for ``slots[k]``, the
    list of distinct slot contents that the tables of one
    :func:`enumerate_arrangements` call share.  The release order and
    the owner are stored once.  Reading an arrangement builds it.
    ``keys``, when :func:`enumerate_arrangements` was given weights,
    holds each arrangement's cost signature (exact ints, with one object
    per distinct value), and is otherwise ``None``.
    """

    owner: XorFreeInstance
    release_order: tuple[str, ...]
    slots: list[tuple[str, ...]]
    ids: array
    keys: list[int] | None = None

    def __len__(self) -> int:
        return len(self.ids) // (len(self.release_order) + 1)

    def __getitem__(self, index) -> Arrangement:
        q = len(self.release_order) + 1
        i = _position(index, len(self)) * q
        row = tuple(map(self.slots.__getitem__, self.ids[i : i + q]))
        return Arrangement(self.release_order, row, self.owner)

    def __iter__(self) -> abc.Iterator[Arrangement]:
        slot, order, owner = self.slots.__getitem__, self.release_order, self.owner
        for row in zip(*[iter(self.ids)] * (len(order) + 1)):
            yield Arrangement(order, tuple(map(slot, row)), owner)


class Chain(abc.Sequence):
    """The items of ``blocks``, a list of sized sequences, as one sequence.

    Iteration runs through the blocks in turn; indexing finds the block
    by bisection over their running lengths.
    """

    __slots__ = ("blocks", "_ends")

    def __init__(self, blocks: list):
        self.blocks = blocks
        self._ends = list(itertools.accumulate(map(len, blocks)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        i = _position(index, len(self))
        b = bisect_right(self._ends, i)
        return self.blocks[b][i - self._ends[b - 1] if b else i]

    def __iter__(self):
        return itertools.chain.from_iterable(self.blocks)


def eliminate_xor(root: CompositionNode) -> list[XorFreeInstance]:
    """Expand every xor into its two branches, in canonical order.

    Left choices come before right choices, depth first, so the first
    instance keeps every left branch.  Xor nodes inside discarded
    branches never surface as choices.  The instances are numbered in
    this order and share one ``slot_counts`` memo.
    """

    def expand(node: CompositionNode, path: str):
        if isinstance(node, (StepLeaf, ReleaseLeaf)):
            return [(node, ())]
        lefts = expand(node.left, path + ".0")
        rights = expand(node.right, path + ".1")
        if isinstance(node, Xor):
            return [(ast, ((path, "left"),) + ch) for ast, ch in lefts] + [
                (ast, ((path, "right"),) + ch) for ast, ch in rights
            ]
        op = Seq if isinstance(node, Seq) else Par
        return [
            (op(la, ra), lch + rch)
            for la, lch in lefts
            for ra, rch in rights
        ]

    slot_counts: dict[tuple[str, ...], int] = {}
    return [
        XorFreeInstance(ast, tuple(sorted(ch)), i, slot_counts)
        for i, (ast, ch) in enumerate(expand(root, "$"))
    ]


def enumerate_arrangements(instance: XorFreeInstance, weights=None) -> Chain:
    """All execution arrangements of an xor-free instance, canonically ordered.

    Release orders are the linear extensions of the poset restricted to the
    release points, generated by :func:`iter_sequences` in lexicographic
    order of the canonical element index; for each, step slot vectors are
    visited in mixed-radix order, restricted up front to each step's
    feasible slot interval implied by its comparabilities with the release
    points.  That interval is never empty: a release point below a step is,
    by transitivity, below every release point above it, so every release
    order puts it first.  Digits are assigned depth first in step order,
    which linearly extends the poset, so each step's digit starts at the
    largest digit of its predecessors and no infeasible vector is built.

    The walk is an odometer over a stack of digits: it descends placing
    each step at its lowest digit, and places the last step in each of
    its slots in turn in one loop, emitting a slot vector for each; then
    it moves the deepest other step that can still go up one slot and
    descends again.  Slots are held as ids into one list of distinct
    slot contents.  Placing a step looks the grown slot's id up in a
    memo kept for the whole call, and backtracking puts the old id back,
    so every distinct slot content is built and numbered once.  An
    emitted vector is q ids appended to its release order's
    :class:`ArrangementTable`; the result is the :class:`Chain` of those
    tables, one per release order, and builds each :class:`Arrangement`
    only when it is read.

    ``weights``, when given, is the first half of
    :func:`wfsat.solver.cost_keys`: ``weights(release_order)[j][d]`` is
    step j's part of the cost signature in slot d.  The odometer then
    keeps a running sum per depth, adds the placed step's part as it
    descends, and appends the full sum of each emitted vector, the last
    step's part included, to its table's ``keys``, one ``int`` object
    per distinct signature.
    """
    poset = instance.poset
    steps = list(instance.steps)
    n = len(steps)
    q = len(instance.releases) + 1

    preds = [[i for i in range(j) if poset.less(steps[i], steps[j])] for j in range(n)]

    tables: list[ArrangementTable] = []
    slots: list[tuple[str, ...]] = [()]  # id 0 is the empty slot
    # grown[k * n + j] is the id of slots[k] + (steps[j],), for j < n - 1,
    # and grown_last[k] that of slots[k] + (steps[n - 1],).
    grown: dict[int, int] = {}
    grown_last: dict[int, int] = {}
    intern = {}.setdefault
    keys = None
    for release_order in iter_sequences(poset.restrict(instance.releases)):
        # Feasible slot interval per step: a step sits after every release
        # point below it and before every release point above it.
        lows, highs = [], []
        for s in steps:
            lo, hi = 0, q - 1
            for k, r in enumerate(release_order):
                if poset.less(r, s):
                    lo = max(lo, k + 1)
                if poset.less(s, r):
                    hi = min(hi, k)
            lows.append(lo)
            highs.append(hi)
        ids = array("I")
        if weights is not None:
            parts = weights(release_order)
            keys = []
            # sums[j] is the signature part of the steps placed before step j.
            sums = [0] * n
        # Step j sits in slot digits[j], whose id it grew from below[j].
        row = [0] * q
        digits = [0] * n
        below = [0] * n
        if not n:
            ids.fromlist(row)
            if keys is not None:
                keys.append(0)
        last = n - 1
        j, d = (0, lows[0]) if n else (-1, 0)  # step 0 has no predecessors
        while j >= 0:
            if j == last:
                # The last step, in each of its slots in turn: one row each.
                if keys is not None:
                    base, part = sums[j], parts[j]
                for d in range(d, highs[j] + 1):
                    slot = row[d]
                    new = grown_last.get(slot)
                    if new is None:
                        new = grown_last[slot] = len(slots)
                        slots.append(slots[slot] + (steps[j],))
                    row[d] = new
                    ids.fromlist(row)
                    row[d] = slot
                    if keys is not None:
                        total = base + part[d]
                        keys.append(intern(total, total))
            elif d <= highs[j]:
                slot = below[j] = row[d]
                key = slot * n + j
                new = grown.get(key)
                if new is None:
                    new = grown[key] = len(slots)
                    slots.append(slots[slot] + (steps[j],))
                row[d] = new
                digits[j] = d
                if keys is not None:
                    sums[j + 1] = sums[j] + parts[j][d]
                j += 1
                d = lows[j]
                for i in preds[j]:
                    if digits[i] > d:
                        d = digits[i]
                continue
            # Take the last placed step out and move it one slot up.
            j -= 1
            if j >= 0:
                d = digits[j]
                row[d] = below[j]
                d += 1
        tables.append(ArrangementTable(instance, release_order, slots, ids, keys))
    return Chain(tables)


def arrangement_of(sequence: Sequence, instance: XorFreeInstance) -> Arrangement:
    """The unique arrangement whose class contains the given sequence."""
    elements = set(instance.poset.elements)
    if set(sequence) != elements or len(set(sequence)) != len(sequence):
        raise NotASequence("sequence does not cover the instance's elements exactly once")
    position = {x: i for i, x in enumerate(sequence)}
    for i, a in enumerate(sequence):
        for b in sequence[i + 1 :]:
            if instance.poset.less(b, a):
                raise NotASequence(f"{b} must precede {a}")

    release_set = set(instance.releases)
    release_order = tuple(x for x in sequence if x in release_set)
    q = len(release_order) + 1
    slots: list[list[str]] = [[] for _ in range(q)]
    boundary = [position[r] for r in release_order]
    for s in instance.steps:  # in canonical order, so each slot is sorted
        slot = sum(1 for b in boundary if b < position[s])
        slots[slot].append(s)
    return Arrangement(
        release_order=release_order,
        slots=tuple(map(tuple, slots)),
        owner=instance,
    )


def count_sequences(table: ArrangementTable) -> list[int]:
    """The class size of every arrangement of ``table``: its number of
    execution sequences.

    Within a slot any linear extension of the induced subposet may appear,
    and slots are independent, so a class size is the product of its
    per-slot linear-extension counts.  Each slot id's count is read once
    per table, through the instances' shared ``owner.slot_counts``, and
    the q columns of counts are multiplied together.
    """
    owner, slots, q = table.owner, table.slots, len(table.release_order) + 1
    memo = owner.slot_counts

    def slot_count(k: int) -> int:
        slot = slots[k]
        count = memo.get(slot)
        if count is None:
            count = memo[slot] = count_linear_extensions(owner.ast, slot)
        return count

    count = Memo(slot_count)
    out = map(count.__getitem__, table.ids[::q])
    for d in range(1, q):
        out = map(mul, out, map(count.__getitem__, table.ids[d::q]))
    return list(out)

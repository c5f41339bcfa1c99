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
it has already made, so the arrangements of one enumeration share one
tuple per distinct slot content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import NotASequence
from .model import (
    CompositionNode,
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
    ``slot_counts`` memoizes :func:`count_sequences` per slot, and the
    instances of one :func:`eliminate_xor` call share it: a slot never
    holds steps from both branches of an xor, so its steps are ordered
    alike, and counted alike, in every instance that holds them.
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
    canonically; empty slots are permitted.  Within one
    :func:`enumerate_arrangements` call, equal slots are the same tuple
    object, shared between the arrangements.  Slots partition the owner's
    steps, the release order linearly extends the owner's poset, and no
    ordering constraint of the poset crosses the slot structure backwards.
    """

    release_order: tuple[str, ...]
    slots: tuple[tuple[str, ...], ...]
    owner: XorFreeInstance = field(compare=False, repr=False)


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


def enumerate_arrangements(instance: XorFreeInstance) -> list[Arrangement]:
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
    each step at its lowest digit, emits the slot vector, then moves the
    last step that can still go up one slot and descends again.  Placing
    a step appends it to its slot's tuple through a memo kept for the
    whole call, and backtracking puts the old tuple back, so every
    distinct slot content is built once and shared by every arrangement
    that holds it.
    """
    poset = instance.poset
    steps = list(instance.steps)
    n = len(steps)
    q = len(instance.releases) + 1

    preds = [[i for i in range(j) if poset.less(steps[i], steps[j])] for j in range(n)]

    out: list[Arrangement] = []
    # extended[id(slot), j] is slot + (steps[j],).  It keeps every tuple it
    # made alive until the call returns, so no id is reused meanwhile.
    extended: dict[tuple[int, int], tuple[str, ...]] = {}
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
        # Step j sits in slot digits[j], which it grew from below[j].
        slots: list[tuple[str, ...]] = [()] * q
        digits = [0] * n
        below: list[tuple[str, ...]] = [()] * n
        j, d = 0, lows[0] if n else 0  # step 0 has no predecessors
        while j >= 0:
            if j < n and d <= highs[j]:
                slot = below[j] = slots[d]
                key = (id(slot), j)
                grown = extended.get(key)
                if grown is None:
                    grown = extended[key] = slot + (steps[j],)
                slots[d] = grown
                digits[j] = d
                j += 1
                if j < n:
                    d = lows[j]
                    for i in preds[j]:
                        if digits[i] > d:
                            d = digits[i]
                continue
            if j == n:
                out.append(
                    Arrangement(release_order=release_order, slots=tuple(slots), owner=instance)
                )
            # Take the last placed step out and move it one slot up.
            j -= 1
            if j >= 0:
                d = digits[j]
                slots[d] = below[j]
                d += 1
    return out


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


def count_sequences(arrangement: Arrangement) -> int:
    """Number of execution sequences in the arrangement's class.

    Within a slot any linear extension of the induced subposet may appear,
    and slots are independent, so the class size is the product of the
    per-slot linear-extension counts.
    """
    owner = arrangement.owner
    total = 1
    for slot in arrangement.slots:
        count = owner.slot_counts.get(slot)
        if count is None:
            count = owner.slot_counts[slot] = count_linear_extensions(owner.ast, slot)
        total *= count
    return total

"""Xor elimination and execution-arrangement enumeration.

An arrangement is an equivalence class of execution sequences that agree
on the order of release points, the executed step set, and each step's
position relative to the release points.  It is represented compactly as
alternating step slots and release points (S1, r1, S2, ..., r_{q-1}, Sq).
All sequences of one arrangement admit plans of identical cost, and that
cost depends only on the arrangement's cost signature (see
:func:`wfsat.solver.cost_signature`), so the solver runs one optimization
per cost signature.
"""

from __future__ import annotations

import itertools
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
from .sequences import Sequence, count_linear_extensions


@dataclass(frozen=True)
class XorFreeInstance:
    """One xor-free workflow obtained by fixing a branch at every live xor.

    ``choices`` maps the path of each xor node in the original tree
    (``$`` is the root, ``.0``/``.1`` descend left/right) to the branch
    kept in this instance.  ``slot_counts`` memoizes
    :func:`count_sequences` per slot, as a slot's count depends only on
    the instance and the slot.
    """

    ast: CompositionNode
    poset: Poset
    choices: tuple[tuple[str, str], ...]
    slot_counts: dict[tuple[str, ...], int] = field(
        default_factory=dict, compare=False, repr=False
    )

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
    canonically; empty slots are permitted.  Slots partition the owner's
    steps, the release order linearly extends the owner's poset, and no
    ordering constraint of the poset crosses the slot structure backwards.
    """

    release_order: tuple[str, ...]
    slots: tuple[tuple[str, ...], ...]
    owner: XorFreeInstance = field(compare=False, repr=False)

    def step_set(self) -> frozenset[str]:
        return frozenset(s for slot in self.slots for s in slot)


def eliminate_xor(root: CompositionNode) -> list[XorFreeInstance]:
    """Expand every xor into its two branches, in canonical order.

    Left choices come before right choices, depth first, so the first
    instance keeps every left branch.  Xor nodes inside discarded
    branches never surface as choices.
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

    return [
        XorFreeInstance(ast=ast, poset=compile_poset(ast), choices=tuple(sorted(ch)))
        for ast, ch in expand(root, "$")
    ]


def enumerate_arrangements(instance: XorFreeInstance) -> list[Arrangement]:
    """All execution arrangements of an xor-free instance, canonically ordered.

    Release-point permutations that linearly extend the poset are visited
    in lexicographic order of the canonical element index; for each, step
    slot vectors are visited in mixed-radix order, restricted up front to
    each step's feasible slot interval implied by its comparabilities with
    the release points.  Digits are assigned depth first in step order,
    which linearly extends the poset, so each step's digit starts at the
    largest digit of its predecessors and no infeasible vector is built.
    """
    poset = instance.poset
    releases = list(instance.releases)
    steps = list(instance.steps)
    n = len(steps)
    q = len(releases) + 1

    preds = [[i for i in range(j) if poset.less(steps[i], steps[j])] for j in range(n)]

    out: list[Arrangement] = []
    for perm in itertools.permutations(releases):
        if any(
            poset.less(perm[j], perm[i]) for i in range(len(perm)) for j in range(i + 1, len(perm))
        ):
            continue
        # Feasible slot interval per step: a step sits after every release
        # point below it and before every release point above it.
        lows, highs = [], []
        for s in steps:
            lo, hi = 0, q - 1
            for j, r in enumerate(perm):
                if poset.less(r, s):
                    lo = max(lo, j + 1)
                if poset.less(s, r):
                    hi = min(hi, j)
            if lo > hi:
                break
            lows.append(lo)
            highs.append(hi)
        else:
            release_order = tuple(perm)
            digits = [0] * n

            def place(j: int) -> None:
                if j == n:
                    slots: list[list[str]] = [[] for _ in range(q)]
                    for s, d in zip(steps, digits):
                        slots[d].append(s)
                    out.append(
                        Arrangement(
                            release_order=release_order,
                            slots=tuple(tuple(slot) for slot in slots),
                            owner=instance,
                        )
                    )
                    return
                lo = max([lows[j]] + [digits[i] for i in preds[j]])
                for d in range(lo, highs[j] + 1):
                    digits[j] = d
                    place(j + 1)

            place(0)
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
    for s in instance.steps:
        slot = sum(1 for b in boundary if b < position[s])
        slots[slot].append(s)
    return Arrangement(
        release_order=release_order,
        slots=tuple(instance.poset.sort_canonical(slot) for slot in slots),
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

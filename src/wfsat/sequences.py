"""Execution-sequence algebra for xor-free workflows.

An execution sequence is one possible total order of the steps and
release points of a workflow instance, i.e. a linear extension of the
instance's partial order.  Serial composition concatenates the sequence
sets of its sides, parallel composition interleaves them in every
order-preserving way.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .errors import NotInSequence, OverlapError, SizeLimit, XorPresent
from .model import (
    CompositionNode,
    Par,
    Poset,
    ReleaseLeaf,
    Seq,
    StepLeaf,
    compile_poset,
    element_order,
)

Sequence = tuple[str, ...]

DEFAULT_SEQUENCE_CAP = 200_000
"""Guard for exhaustive generation; the algebra counts before it generates."""


def concat(a: Sequence, b: Sequence) -> Sequence:
    """a followed by b; operands must not share elements."""
    if set(a) & set(b):
        raise OverlapError(f"sequences share elements: {sorted(set(a) & set(b))}")
    return tuple(a) + tuple(b)


def interleave(a: Sequence, b: Sequence) -> list[Sequence]:
    """All order-preserving shuffles of a and b (C(|a|+|b|, |a|) of them)."""
    if set(a) & set(b):
        raise OverlapError(f"sequences share elements: {sorted(set(a) & set(b))}")

    def shuffle(x: Sequence, y: Sequence) -> list[Sequence]:
        if not x:
            return [tuple(y)]
        if not y:
            return [tuple(x)]
        return [(x[0], *s) for s in shuffle(x[1:], y)] + [
            (y[0], *s) for s in shuffle(x, y[1:])
        ]

    return shuffle(tuple(a), tuple(b))


def sequence_count(node: CompositionNode) -> int:
    """|Σ(node)| for an xor-free tree, computed without generating anything."""
    return _extensions(node, frozenset(element_order(node)))[1]


def gen_sequences(
    node: CompositionNode, cap: int | None = DEFAULT_SEQUENCE_CAP
) -> list[Sequence]:
    """Every execution sequence of an xor-free tree, canonically ordered.

    The result is duplicate-free and sorted lexicographically by the
    canonical element index (left-to-right leaf order), so reports built
    from it are byte-reproducible.
    """
    total = sequence_count(node)  # raises XorPresent on xor nodes
    if cap is not None and total > cap:
        raise SizeLimit(f"{total} execution sequences exceed cap {cap}", total, cap)
    return list(iter_sequences(compile_poset(node)))


def iter_sequences(poset: Poset) -> Iterator[Sequence]:
    """The linear extensions of ``poset`` in the order of :func:`gen_sequences`.

    Depth first: each position takes, in element order, every element
    whose predecessors are all placed, so the extensions come out sorted
    by canonical element index one at a time, never collected.  The prefix
    is a stack of indexes; a popped index k resumes its position at k + 1.
    """
    elements = poset.elements
    n = len(elements)
    preds = [
        sum(1 << i for i, later in enumerate(poset.successors) if later >> j & 1)
        for j in range(n)
    ]
    taken: list[int] = []
    placed = j = 0  # j: the next candidate for the position after the prefix
    while True:
        if j == 0 and len(taken) == n:
            yield tuple(elements[k] for k in taken)
        while j < n and (placed >> j & 1 or preds[j] & placed != preds[j]):
            j += 1
        if j < n:
            taken.append(j)
            placed |= 1 << j
            j = 0
        elif taken:
            j = taken.pop()
            placed ^= 1 << j
            j += 1
        else:
            return


def left(sequence: Sequence, v: str) -> Sequence:
    """Prefix of the sequence strictly before v."""
    return sequence[: _position(sequence, v)]


def right(sequence: Sequence, v: str) -> Sequence:
    """Suffix of the sequence strictly after v."""
    return sequence[_position(sequence, v) + 1 :]


def between(sequence: Sequence, u: str, v: str) -> Sequence:
    """Infix strictly between u and v; u must occur before v."""
    i = _position(sequence, u)
    j = _position(sequence, v)
    if i >= j:
        raise NotInSequence(f"{u} does not precede {v} in the sequence")
    return sequence[i + 1 : j]


def _position(sequence: Sequence, v: str) -> int:
    try:
        return sequence.index(v)
    except ValueError:
        raise NotInSequence(f"{v} does not occur in the sequence") from None


def equivalent(a: Sequence, b: Sequence, releases) -> bool:
    """Whether two sequences of one schema lie in the same arrangement.

    True iff they order the same release points identically, execute the
    same steps, and every shared step sees the same set of release points
    to its right.
    """
    rel = set(releases)
    if tuple(x for x in a if x in rel) != tuple(x for x in b if x in rel):
        return False
    steps_a = frozenset(x for x in a if x not in rel)
    steps_b = frozenset(x for x in b if x not in rel)
    if steps_a != steps_b:
        return False
    return _releases_right(a, rel) == _releases_right(b, rel)


def _releases_right(sequence: Sequence, rel: set[str]) -> dict[str, frozenset[str]]:
    after: set[str] = set()
    out: dict[str, frozenset[str]] = {}
    for x in reversed(sequence):
        if x in rel:
            after.add(x)
        else:
            out[x] = frozenset(after)
    return out


def count_linear_extensions(node: CompositionNode, subset) -> int:
    """Exact number of linear extensions of an xor-free tree's order on ``subset``.

    The order of a seq/par tree is series-parallel, and its restriction to
    a subset is the order of the tree pruned to that subset, so the count
    has a closed form (Möhring 1989): the product of the sides' counts for
    ``seq``, times the binomial of the sides' sizes for ``par``.
    """
    return _extensions(node, frozenset(subset))[1]


def _extensions(node: CompositionNode, keep: frozenset[str]) -> tuple[int, int]:
    """(size, linear extensions) of ``node`` pruned to the elements in ``keep``."""
    if isinstance(node, StepLeaf):
        return (1, 1) if node.step in keep else (0, 1)
    if isinstance(node, ReleaseLeaf):
        return (1, 1) if node.release in keep else (0, 1)
    if isinstance(node, (Seq, Par)):
        nl, cl = _extensions(node.left, keep)
        nr, cr = _extensions(node.right, keep)
        count = cl * cr
        if isinstance(node, Par):
            count *= comb(nl + nr, nl)
        return nl + nr, count
    raise XorPresent("counting sequences requires an xor-free workflow")

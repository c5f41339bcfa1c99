"""Domain model for constrained compositional workflow schemas.

A workflow is a binary composition tree over step and release-point
leaves.  Serial composition orders every element of the left subtree
before every element of the right one, parallel composition leaves the
two sides mutually unordered, and xor composition executes exactly one
side per workflow instance.  For an xor-free instance the tree induces
a strict partial order on its steps and release points, materialized by
:func:`compile_poset`.

The module also houses the constraint catalog.  Every supported
constraint kind is user-independent and reduces to a cardinality bound
on the number of distinct users appearing on its scope, which is what
makes pattern-based solving exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Union

from .errors import XorPresent

Plan = dict[str, str]
"""A (partial) assignment of steps to users."""


class Memo(dict):
    """``memo[key]`` is ``make(key)``, made on first use."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


# ---------------------------------------------------------------------------
# Composition trees


@dataclass(frozen=True)
class StepLeaf:
    step: str


@dataclass(frozen=True)
class ReleaseLeaf:
    release: str


@dataclass(frozen=True)
class Seq:
    left: "CompositionNode"
    right: "CompositionNode"


@dataclass(frozen=True)
class Par:
    left: "CompositionNode"
    right: "CompositionNode"


@dataclass(frozen=True)
class Xor:
    left: "CompositionNode"
    right: "CompositionNode"


CompositionNode = Union[StepLeaf, ReleaseLeaf, Seq, Par, Xor]


def seq(*nodes: CompositionNode) -> CompositionNode:
    """Left-fold nodes under serial composition."""
    return _fold(Seq, nodes)


def par(*nodes: CompositionNode) -> CompositionNode:
    """Left-fold nodes under parallel composition."""
    return _fold(Par, nodes)


def xor(*nodes: CompositionNode) -> CompositionNode:
    """Left-fold nodes under xor composition."""
    return _fold(Xor, nodes)


def step(name: str) -> StepLeaf:
    return StepLeaf(name)


def release(name: str) -> ReleaseLeaf:
    return ReleaseLeaf(name)


def _fold(op, nodes):
    if not nodes:
        raise ValueError("composition requires at least one operand")
    acc = nodes[0]
    for nd in nodes[1:]:
        acc = op(acc, nd)
    return acc


def iter_leaves(node: CompositionNode) -> Iterator[StepLeaf | ReleaseLeaf]:
    """Leaves in left-to-right order; this order is the canonical one."""
    stack = [node]
    while stack:
        nd = stack.pop()
        if isinstance(nd, (StepLeaf, ReleaseLeaf)):
            yield nd
        else:
            stack.append(nd.right)
            stack.append(nd.left)


def element_order(node: CompositionNode) -> tuple[str, ...]:
    """Ids of all leaves in canonical (left-to-right) order."""
    return tuple(
        leaf.step if isinstance(leaf, StepLeaf) else leaf.release
        for leaf in iter_leaves(node)
    )


def step_ids(node: CompositionNode) -> tuple[str, ...]:
    return tuple(l.step for l in iter_leaves(node) if isinstance(l, StepLeaf))


def release_ids(node: CompositionNode) -> tuple[str, ...]:
    return tuple(l.release for l in iter_leaves(node) if isinstance(l, ReleaseLeaf))


def duplicate_leaf_ids(node: CompositionNode) -> tuple[str, ...]:
    """Ids appearing in more than one leaf (each id must occur exactly once)."""
    seen: set[str] = set()
    dups: list[str] = []
    for name in element_order(node):
        if name in seen and name not in dups:
            dups.append(name)
        seen.add(name)
    return tuple(dups)


def exclusive_pairs(node: CompositionNode) -> set[frozenset[str]]:
    """All unordered pairs with one element in each branch of some xor node.

    Two exclusive elements never occur together in an execution sequence.
    """
    pairs: set[frozenset[str]] = set()

    def visit(nd: CompositionNode) -> None:
        if isinstance(nd, (StepLeaf, ReleaseLeaf)):
            return
        if isinstance(nd, Xor):
            for a in element_order(nd.left):
                for b in element_order(nd.right):
                    pairs.add(frozenset((a, b)))
        visit(nd.left)
        visit(nd.right)

    visit(node)
    return pairs


# ---------------------------------------------------------------------------
# Partial orders


@dataclass(frozen=True)
class Poset:
    """Strict partial order over a fixed element list.

    ``elements`` is a canonical linear extension (the workflow's
    left-to-right leaf order).  ``successors[i]`` is a bitmask over element
    indices: bit j is set iff element i must precede element j.
    """

    elements: tuple[str, ...]
    successors: tuple[int, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def less(self, a: str, b: str) -> bool:
        index = self.index
        return self.successors[index[a]] >> index[b] & 1 == 1

    def comparable(self, a: str, b: str) -> bool:
        return self.less(a, b) or self.less(b, a)

    def restrict(self, ids) -> Poset:
        """The induced order on ``ids``, its elements in canonical order."""
        keep = sorted(map(self.index.__getitem__, ids))
        return Poset(
            tuple(self.elements[i] for i in keep),
            tuple(
                sum(1 << k for k, j in enumerate(keep) if self.successors[i] >> j & 1)
                for i in keep
            ),
        )


def compile_poset(node: CompositionNode) -> Poset:
    """Induced order on the steps and release points of an xor-free tree.

    u < v iff some serial composition puts u's subtree before v's; the two
    sides of a parallel composition stay incomparable.  The element list is
    the left-to-right leaf order, which is always a linear extension.

    One right-to-left pass over an explicit stack: each leaf's successor
    mask is the "after" mask its subtree carries, and a serial node's left
    side adds the indexes its right side took.
    """
    order = element_order(node)
    successors = [0] * len(order)
    end = len(order)  # leaves at indexes end.. are numbered
    stack: list[tuple[CompositionNode, int, int | None]] = [(node, 0, None)]
    while stack:
        nd, after, right_end = stack.pop()
        if right_end is not None:  # the left side of a Seq whose right side ends there
            after |= (1 << right_end) - (1 << end)
        if isinstance(nd, (StepLeaf, ReleaseLeaf)):
            end -= 1
            successors[end] = after
        elif isinstance(nd, Xor):
            raise XorPresent("cannot compile a poset while xor nodes remain")
        else:
            stack.append((nd.left, after, end if isinstance(nd, Seq) else None))
            stack.append((nd.right, after, None))
    return Poset(order, tuple(successors))


# ---------------------------------------------------------------------------
# Constraints

CONSTRAINT_KINDS = ("sod", "bod", "atmost", "atleast")

ATMOST = "atmost"
ATLEAST = "atleast"


@dataclass(frozen=True)
class WeightedConstraint:
    """A user-independent constraint with release points and a unit penalty.

    ``scope`` lists the governed steps, ``release`` the release points that
    reset the constraint: the constraint applies independently within each
    span between consecutive release points of an execution sequence.
    """

    id: str
    kind: str
    scope: tuple[str, ...]
    release: tuple[str, ...] = ()
    weight: int = 1
    k: int | None = None

    def bound(self) -> tuple[str, int]:
        """The cardinality bound this kind places on distinct users.

        Separation of duty on two steps is at-least-2 distinct users;
        binding of duty is at-most-1.
        """
        if self.kind == "sod":
            return ATLEAST, 2
        if self.kind == "bod":
            return ATMOST, 1
        if self.kind in (ATMOST, ATLEAST):
            if self.k is None:
                raise ValueError(f"constraint {self.id}: {self.kind} needs k")
            return self.kind, self.k
        raise ValueError(f"constraint {self.id}: unknown kind {self.kind!r}")


def restricted_threshold(
    bound: str, k: int, full_scope_size: int, sub_size: int, n_users: int
) -> int | None:
    """Threshold of a cardinality bound restricted to a subscope.

    Returns None when the restricted constraint is vacuous.  Restriction
    keeps exactly the subscope assignments extendable to a full-scope
    assignment satisfying the bound.  An at-most bound survives unchanged:
    the absent steps can reuse users already present.  For an at-least
    bound each of the ``full - sub`` absent steps can contribute one fresh
    user, lowering the threshold; and when fewer than k users exist at all,
    no extension can reach k distinct users, so the subscope is forced into
    permanent violation.
    """
    if sub_size == 0:
        return None
    if bound == ATMOST:
        return None if k >= sub_size else k
    t = k - (full_scope_size - sub_size)
    if n_users < k:
        t = max(t, min(sub_size, n_users) + 1)
    return None if t <= 1 else t


def violation_units(bound: str, k: int, distinct: int) -> int:
    """Graded violation magnitude: distance of ``distinct`` from the bound."""
    if bound == ATMOST:
        return max(0, distinct - k)
    return max(0, k - distinct)


# ---------------------------------------------------------------------------
# Schemas


@dataclass(frozen=True, eq=False)
class Schema:
    """A constrained compositional workflow schema.

    ``users`` is ordered; its order is canonical and drives every
    tie-break downstream.  ``authorizations`` maps each step to the users
    allowed to execute it; executing a step without authorization costs
    that step's unauthorized penalty.  ``budget`` and ``probability`` are
    optional per-file defaults for the decision procedures.
    """

    workflow: CompositionNode
    users: tuple[str, ...]
    authorizations: Mapping[str, frozenset[str]]
    default_unauth_penalty: int = 0
    step_unauth_penalty: Mapping[str, int] = field(default_factory=dict)
    constraints: tuple[WeightedConstraint, ...] = ()
    budget: Fraction | None = None
    probability: Fraction | None = None

    @cached_property
    def element_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(element_order(self.workflow))}

    @cached_property
    def steps(self) -> tuple[str, ...]:
        return step_ids(self.workflow)

    @cached_property
    def releases(self) -> tuple[str, ...]:
        return release_ids(self.workflow)

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    def penalty(self, step_id: str) -> int:
        return self.step_unauth_penalty.get(step_id, self.default_unauth_penalty)

    def authorized(self, step_id: str, user: str) -> bool:
        return user in self.authorizations.get(step_id, frozenset())

    def sort_canonical(self, ids) -> tuple[str, ...]:
        return tuple(sorted(ids, key=self.element_index.__getitem__))


@dataclass(frozen=True)
class Violation:
    """One broken schema invariant, with the offending ids."""

    code: str
    message: str
    ids: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate_schema(schema: Schema) -> list[Violation]:
    """Check every schema invariant; an empty report means the schema is valid."""
    out: list[Violation] = []
    dups = duplicate_leaf_ids(schema.workflow)
    if dups:
        out.append(Violation("duplicate-id", f"leaf ids appear more than once: {', '.join(dups)}", dups))
    steps = set(schema.steps)
    releases = set(schema.releases)
    if steps & releases:
        both = tuple(sorted(steps & releases))
        out.append(Violation("duplicate-id", f"ids used as both step and release: {', '.join(both)}", both))

    seen_users: set[str] = set()
    for u in schema.users:
        if u in seen_users:
            out.append(Violation("duplicate-user", f"user {u} declared twice", (u,)))
        seen_users.add(u)

    for s, granted in schema.authorizations.items():
        if s not in steps:
            out.append(Violation("unknown-step", f"authorization for undeclared step {s}", (s,)))
        for u in sorted(granted):
            if u not in seen_users:
                out.append(Violation("unknown-user", f"authorization of undeclared user {u}", (s, u)))

    for s in schema.steps:
        if not schema.authorizations.get(s):
            out.append(Violation("unauthorized-step", f"step {s} has no authorized user", (s,)))

    if schema.default_unauth_penalty < 0:
        out.append(Violation("negative-penalty", "default unauthorized penalty is negative"))
    for s, p in schema.step_unauth_penalty.items():
        if s not in steps:
            out.append(Violation("unknown-step", f"penalty for undeclared step {s}", (s,)))
        if p < 0:
            out.append(Violation("negative-penalty", f"penalty for step {s} is negative", (s,)))

    exclusive = exclusive_pairs(schema.workflow)
    seen_cids: set[str] = set()
    for c in schema.constraints:
        if c.id in seen_cids:
            out.append(Violation("duplicate-constraint", f"constraint id {c.id} declared twice", (c.id,)))
        seen_cids.add(c.id)
        if c.kind not in CONSTRAINT_KINDS:
            out.append(Violation("unknown-kind", f"constraint {c.id} has unknown kind {c.kind!r}", (c.id,)))
            continue
        scope = set(c.scope)
        if len(scope) != len(c.scope):
            out.append(Violation("duplicate-scope-step", f"constraint {c.id} repeats a scope step", (c.id,)))
        unknown = scope - steps
        if unknown:
            out.append(
                Violation("unknown-step", f"constraint {c.id} scope has undeclared steps: "
                          f"{', '.join(sorted(unknown))}", (c.id, *sorted(unknown)))
            )
        unknown_r = set(c.release) - releases
        if unknown_r:
            out.append(
                Violation("unknown-release", f"constraint {c.id} releases undeclared points: "
                          f"{', '.join(sorted(unknown_r))}", (c.id, *sorted(unknown_r)))
            )
        if c.kind in ("sod", "bod") and len(scope) != 2:
            out.append(Violation("bad-scope", f"constraint {c.id}: {c.kind} needs a two-step scope", (c.id,)))
        if c.kind in (ATMOST, ATLEAST):
            if c.k is None or not 1 <= c.k <= len(c.scope):
                out.append(Violation("bad-k", f"constraint {c.id}: k must satisfy 1 <= k <= |scope|", (c.id,)))
        if c.weight <= 0:
            out.append(Violation("bad-weight", f"constraint {c.id}: weight must be positive", (c.id,)))
        for a in sorted(scope):
            for b in sorted(scope):
                if a < b and frozenset((a, b)) in exclusive:
                    out.append(
                        Violation("exclusive-scope",
                                  f"constraint {c.id}: exclusive steps {a}, {b} share a scope", (c.id, a, b))
                    )

    if schema.budget is not None and schema.budget < 0:
        out.append(Violation("bad-budget", "budget must be non-negative"))
    if schema.probability is not None and not 0 <= schema.probability <= 1:
        out.append(Violation("bad-probability", "probability must lie in [0, 1]"))
    return out

"""Top-level decision procedures under the uniform sequence distribution.

Every procedure runs the same pipeline once: eliminate xor branchings,
enumerate the execution arrangements of each xor-free instance with
each one's cost signature, summed from per-step parts as the steps are
placed, read each table's class sizes (the number of sequences in each
arrangement's class) column by column with
:func:`~wfsat.arrangements.count_sequences`, and run one solve per
decomposition grouping (arrangements of an instance that split every
constraint's scope steps alike at its release points share their
minimum-cost plan), decomposing each constraint once per distinct split
of its present scope steps.  The pipeline fills one table,
``Analysis.mass``: the number of execution sequences at each minimum
cost.  Every decision reads that table: strong satisfiability (no
sequence above cost zero), bounded cost (max cost within budget),
bounded expected cost (sequence-weighted mean within budget, in exact
rational arithmetic) and the probability of completing within budget.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from .arrangements import (
    Arrangement,
    ArrangementTable,
    Chain,
    XorFreeInstance,
    count_sequences,
    eliminate_xor,
    enumerate_arrangements,
)
from .errors import ZeroWeight
from .model import Schema
from .solver import (
    ClassicalConstraint,
    CostedPlan,
    SolveCache,
    cost_keys,
    decompose_constraint,
    solve_components,
)


@dataclass(slots=True)
class ArrangementRecord:
    """One arrangement with its class size and, once solved, minimum-cost plan.

    The arrangement's instance is ``record.arrangement.owner``.  An
    analysis keeps no records: it builds each one when it is read from
    ``Analysis.records``.  Code that renders or tests records may build
    them directly.
    """

    arrangement: Arrangement
    count: int
    solution: CostedPlan | None = None

    @property
    def min_cost(self) -> int:
        return self.solution.total


@dataclass(frozen=True, slots=True, eq=False)
class RecordTable(Sequence):
    """One :class:`ArrangementTable` with two columns parallel to it.

    ``counts`` holds each arrangement's class size, a list because class
    sizes are unbounded ints.  ``plans`` lists the table's distinct
    minimum-cost plans, ``None`` standing for nothing solved, and the
    array ``plan_ids`` holds each arrangement's index into it:
    arrangement i's plan is ``plans[plan_ids[i]]``.  :func:`analyze`
    lists each plan once, in the order its id first appears in the
    column.  Reading a row builds its :class:`ArrangementRecord`.
    """

    arrangements: ArrangementTable
    counts: list[int]
    plans: list[CostedPlan | None]
    plan_ids: array

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index) -> ArrangementRecord:
        plan = self.plans[self.plan_ids[index]]
        return ArrangementRecord(self.arrangements[index], self.counts[index], plan)

    def __iter__(self) -> Iterator[ArrangementRecord]:
        plans = map(self.plans.__getitem__, self.plan_ids)
        return map(ArrangementRecord, self.arrangements, self.counts, plans)


@dataclass
class Analysis:
    """Per-arrangement records for a schema, in canonical order.

    ``records`` is a sized, indexable and re-iterable view over one
    :class:`RecordTable` per (instance, release order), the ``blocks`` of
    a :class:`~wfsat.arrangements.Chain`; it builds each
    :class:`ArrangementRecord` when it is read.  ``mass`` maps each
    minimum cost to the number of execution sequences at that cost; the
    aggregates below read only this table.
    """

    schema: Schema
    instances: list[XorFreeInstance]
    records: Chain  # of RecordTable blocks
    mass: dict[int, int]
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_sequences(self) -> int:
        return sum(self.mass.values())

    @property
    def max_cost(self) -> int:
        return max(self.mass)

    @property
    def expected_cost(self) -> Fraction:
        """Mean minimum cost over all execution sequences, exactly."""
        return Fraction(sum(c * n for c, n in self.mass.items()), self.total_sequences)

    def within_budget(self, budget: Fraction) -> int:
        """Number of sequences whose arrangement fits the budget."""
        return sum(n for c, n in self.mass.items() if c <= budget)


def analyze(schema: Schema, jobs: int | None = 1) -> Analysis:
    """Run the full pipeline; records come out in canonical order.

    Arrangements of one instance with equal decomposition groupings share
    one minimum-cost plan (see :func:`wfsat.solver.cost_signature`), so
    there is one solve per decomposition grouping.  Each instance sets up
    its cost keys once (:func:`wfsat.solver.cost_keys`), and
    :func:`~wfsat.arrangements.enumerate_arrangements` sums each row's
    cost signature from the steps' parts as it places them, into a key
    column per :class:`ArrangementTable`.  The class sizes are read
    column by column, one count per slot id, by
    :func:`~wfsat.arrangements.count_sequences`.  The grouping is decoded
    once per distinct signature of a table.  Each new grouping's
    classical constraints come, per constraint, from a memo on
    (constraint id, present scope steps, labels) that all instances
    share, since decomposition reads nothing else; only a miss builds
    the row and calls :func:`~wfsat.solver.decompose_constraint`.  They
    are solved by :func:`~wfsat.solver.solve_components`.  ``mass`` adds
    the class sizes summed per signature.  Beside each table are kept its
    class sizes and a plan-id column into its distinct plans, listed in
    the order their signatures first appear (:class:`RecordTable`); the
    key column is dropped once its table is priced, and no arrangement
    or record is kept.  The analysis is serial.  ``jobs`` is accepted
    for compatibility and ignored.
    """
    instances = eliminate_xor(schema.workflow)
    cache = SolveCache()
    pieces: dict[tuple, list[ClassicalConstraint]] = {}
    tables: list[RecordTable] = []
    mass: dict[int, int] = {}
    for instance in instances:
        by_signature: dict[int, CostedPlan] = {}
        by_grouping: dict[tuple[int, ...], CostedPlan] = {}
        weights, grouping = cost_keys(schema, instance.steps)
        # Each constraint's present scope steps, which number its labels in
        # a grouping; constraints with none decompose to nothing.
        present = set(instance.steps)
        scopes = [(c, tuple(s for s in c.scope if s in present)) for c in schema.constraints]
        scopes = [(c, scope) for c, scope in scopes if scope]
        for arrangements in enumerate_arrangements(instance, weights).blocks:
            keys = arrangements.keys
            counts = count_sequences(arrangements)
            # Class sizes summed per signature.  The sums keep the signatures'
            # order of first appearance, so each new grouping solves its first row.
            sums = dict.fromkeys(keys, 0)
            for key, count in zip(keys, counts):
                sums[key] += count
            # The table's distinct plans, in the order their signatures first appear.
            plans: list[CostedPlan] = []
            index: dict[int, int] = {}  # id(plan) -> its position in plans
            plan_of: dict[int, int] = {}  # signature -> its plan's position
            for key, count in sums.items():
                solution = by_signature.get(key)
                if solution is None:
                    grouped = grouping(key)
                    solution = by_grouping.get(grouped)
                    if solution is None:
                        arrangement = None
                        classical: list[ClassicalConstraint] = []
                        start = 0
                        for c, scope in scopes:
                            piece = (c.id, scope, grouped[start : start + len(scope)])
                            start += len(scope)
                            found = pieces.get(piece)
                            if found is None:
                                if arrangement is None:
                                    arrangement = arrangements[keys.index(key)]
                                found = pieces[piece] = decompose_constraint(c, arrangement, schema)
                            classical += found
                        solution = by_grouping[grouped] = solve_components(
                            instance.steps, classical, schema, cache
                        )
                    by_signature[key] = solution
                plan_of[key] = index.setdefault(id(solution), len(plans))
                if len(index) > len(plans):
                    plans.append(solution)
                total = solution.total
                mass[total] = mass.get(total, 0) + count
            plan_ids = array("I", map(plan_of.__getitem__, keys))
            # The analysis keeps every table; it needs no key column.
            tables.append(RecordTable(replace(arrangements, keys=None), counts, plans, plan_ids))
    return Analysis(
        schema=schema,
        instances=instances,
        records=Chain(tables),
        mass=mass,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def _as_analysis(schema_or_analysis) -> Analysis:
    if isinstance(schema_or_analysis, Analysis):
        return schema_or_analysis
    return analyze(schema_or_analysis)


def guard_zero_weights(schema: Schema) -> None:
    """Raise ``ZeroWeight`` unless every violation costs something.

    A zero weight would let a violated schema pass for a satisfiable one.
    The test reads only the schema, so it can run before the analysis.
    """
    for c in schema.constraints:
        if c.weight <= 0:
            raise ZeroWeight(f"constraint {c.id} has non-positive weight")
    for s in schema.steps:
        if schema.penalty(s) == 0:
            granted = schema.authorizations.get(s, frozenset())
            if any(u not in granted for u in schema.users):
                raise ZeroWeight(
                    f"step {s} can be executed without authorization at zero penalty"
                )


def check_strong_sat(schema_or_analysis) -> tuple[bool, ArrangementRecord | None]:
    """Whether every execution sequence admits a zero-cost plan.

    By cost invariance within a class and positivity of all weights, this
    holds iff every arrangement's minimum cost is zero.  Returns the first
    failing arrangement as a witness.  The weights are checked before
    any analysis runs.
    """
    if isinstance(schema_or_analysis, Analysis):
        guard_zero_weights(schema_or_analysis.schema)
    else:
        guard_zero_weights(schema_or_analysis)
    analysis = _as_analysis(schema_or_analysis)
    if analysis.max_cost == 0:
        return True, None
    return False, next(r for r in analysis.records if r.min_cost > 0)


def check_bounded_cost(schema_or_analysis, budget) -> bool:
    """Every arrangement has a plan within the budget."""
    return _as_analysis(schema_or_analysis).max_cost <= Fraction(budget)


def check_expected_cost(schema_or_analysis, budget) -> bool:
    """The sequence-weighted mean minimum cost is within the budget."""
    return _as_analysis(schema_or_analysis).expected_cost <= Fraction(budget)


def check_approx(schema_or_analysis, budget, probability) -> bool:
    """At least the given fraction of sequences completes within the budget."""
    analysis = _as_analysis(schema_or_analysis)
    return analysis.within_budget(Fraction(budget)) >= Fraction(probability) * analysis.total_sequences


def min_budget_bounded(schema_or_analysis) -> Fraction:
    """Smallest budget with bounded cost: the maximum arrangement cost."""
    return Fraction(_as_analysis(schema_or_analysis).max_cost)


def min_budget_expected(schema_or_analysis) -> Fraction:
    """Smallest budget with bounded expected cost: the mean cost."""
    return _as_analysis(schema_or_analysis).expected_cost

"""Top-level decision procedures under the uniform sequence distribution.

Every procedure runs the same pipeline once: eliminate xor branchings,
enumerate the execution arrangements of each xor-free instance, count the
sequences in each arrangement's class, and solve one Valued WSP per cost
signature (arrangements of an instance with equal signatures share their
minimum-cost plan).  The aggregates then answer strong satisfiability
(every arrangement at cost zero), bounded cost (max cost within budget),
bounded expected cost (sequence-weighted mean within budget, in exact
rational arithmetic) and the probability of completing within budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .arrangements import (
    Arrangement,
    XorFreeInstance,
    count_sequences,
    eliminate_xor,
    enumerate_arrangements,
)
from .errors import ZeroWeight
from .model import Schema
from .solver import CostedPlan, SolveCache, min_cost_arrangement, signature_function


@dataclass
class ArrangementRecord:
    """One arrangement with its class size and minimum-cost plan."""

    instance_index: int
    arrangement: Arrangement
    count: int
    solution: CostedPlan

    @property
    def min_cost(self) -> int:
        return self.solution.total


@dataclass
class Analysis:
    """Per-arrangement records for a schema, in canonical order."""

    schema: Schema
    instances: list[XorFreeInstance]
    records: list[ArrangementRecord]
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_sequences(self) -> int:
        return sum(r.count for r in self.records)

    @property
    def max_cost(self) -> int:
        return max(r.min_cost for r in self.records)

    @property
    def expected_cost(self) -> Fraction:
        """Mean minimum cost over all execution sequences, exactly."""
        return Fraction(
            sum(r.count * r.min_cost for r in self.records), self.total_sequences
        )

    def within_budget(self, budget: Fraction) -> int:
        """Number of sequences whose arrangement fits the budget."""
        return sum(r.count for r in self.records if r.min_cost <= budget)


def analyze(schema: Schema, jobs: int | None = 1) -> Analysis:
    """Run the full pipeline; records come out in canonical order.

    Arrangements of one instance with equal cost signatures share one
    minimum-cost plan, so it is computed once per signature.  The
    analysis is serial.  ``jobs`` is accepted for compatibility and
    ignored.
    """
    instances = eliminate_xor(schema.workflow)
    cache = SolveCache()
    records = []
    for i, instance in enumerate(instances):
        by_signature: dict[tuple[int, ...], CostedPlan] = {}
        arrangements = enumerate_arrangements(instance)
        for order, group in itertools.groupby(arrangements, attrgetter("release_order")):
            signature = signature_function(order, schema)
            for arrangement in group:
                key = signature(arrangement)
                solution = by_signature.get(key)
                if solution is None:
                    solution = by_signature[key] = min_cost_arrangement(
                        arrangement, schema, cache
                    )
                records.append(
                    ArrangementRecord(
                        instance_index=i,
                        arrangement=arrangement,
                        count=count_sequences(arrangement),
                        solution=solution,
                    )
                )
    return Analysis(
        schema=schema,
        instances=instances,
        records=records,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def _as_analysis(schema_or_analysis) -> Analysis:
    if isinstance(schema_or_analysis, Analysis):
        return schema_or_analysis
    return analyze(schema_or_analysis)


def _guard_zero_weights(schema: Schema) -> None:
    # A zero weight would let a violated schema pass for a satisfiable one.
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
    failing arrangement as a witness.
    """
    analysis = _as_analysis(schema_or_analysis)
    _guard_zero_weights(analysis.schema)
    for record in analysis.records:
        if record.min_cost > 0:
            return False, record
    return True, None


def check_bounded_cost(schema_or_analysis, budget) -> bool:
    """Every arrangement has a plan within the budget."""
    analysis = _as_analysis(schema_or_analysis)
    return analysis.max_cost <= Fraction(budget)


def check_expected_cost(schema_or_analysis, budget) -> bool:
    """The sequence-weighted mean minimum cost is within the budget."""
    analysis = _as_analysis(schema_or_analysis)
    budget = Fraction(budget)
    # Cross-multiplied form of expected_cost <= budget; exact.
    return sum(r.count * r.min_cost for r in analysis.records) <= budget * analysis.total_sequences


def check_approx(schema_or_analysis, budget, probability) -> bool:
    """At least the given fraction of sequences completes within the budget."""
    analysis = _as_analysis(schema_or_analysis)
    b = analysis.within_budget(Fraction(budget))
    return b >= Fraction(probability) * analysis.total_sequences


def min_budget_bounded(schema_or_analysis) -> Fraction:
    """Smallest budget with bounded cost: the maximum arrangement cost."""
    analysis = _as_analysis(schema_or_analysis)
    return Fraction(analysis.max_cost)


def min_budget_expected(schema_or_analysis) -> Fraction:
    """Smallest budget with bounded expected cost: the mean cost."""
    analysis = _as_analysis(schema_or_analysis)
    return analysis.expected_cost

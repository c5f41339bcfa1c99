"""Exact relations between the mass tables of two schemas.

The oracle stops at small schemas.  Each relation here follows from the
definitions alone, so it holds at any size, and its transform (in
``helpers``) shares no code with the pipeline beyond building a
``Schema``.  Every relation runs over the 200-schema sweep corpus, the
three fixtures and the heavy schema.
"""

from __future__ import annotations

import pytest

from wfsat.decisions import analyze

from helpers import (
    append_free_release,
    refold,
    rename_users,
    scale_costs,
    split_weights,
    swap_operands,
)


@pytest.fixture(scope="module")
def masses(
    sweep_corpus, purchase_order, purchase_order_restricted, purchase_order_no_release,
    heavy_schema, heavy_analysis,
):
    """(schema, mass table) of every input."""
    fixtures = [purchase_order, purchase_order_restricted, purchase_order_no_release]
    return [(s, analyze(s).mass) for s in sweep_corpus + fixtures] + [
        (heavy_schema, heavy_analysis.mass)
    ]


def mismatches(masses, transform, expected=lambda mass: mass) -> list[int]:
    """Positions of the inputs whose transformed schema's mass is not ``expected``."""
    return [
        i
        for i, (schema, mass) in enumerate(masses)
        if analyze(transform(schema)).mass != expected(mass)
    ]


def test_inputs_end_with_the_heavy_mass_table(masses):
    assert len(masses) == 204
    assert masses[-1][1] == {0: 2_239_704, 3: 7_324_116, 6: 1_967_700}


def test_swapping_par_and_xor_operands_keeps_the_mass(masses):
    assert sum(swap_operands(s).workflow != s.workflow for s, _ in masses) > 100
    assert mismatches(masses, swap_operands) == []


def test_a_free_release_point_keeps_the_mass(masses):
    assert mismatches(masses, append_free_release) == []


def test_splitting_weights_keeps_the_mass(masses):
    split = [(s, m) for s, m in masses if any(c.weight >= 2 for c in s.constraints)]
    assert len(split) > 100 and split[-1][0] is masses[-1][0]  # heavy among them
    assert mismatches(split, split_weights) == []


def test_scaling_costs_scales_every_cost(masses):
    scaled = mismatches(
        masses, lambda s: scale_costs(s, 3), lambda mass: {3 * c: n for c, n in mass.items()}
    )
    assert scaled == []


def test_refolding_seq_and_par_keeps_the_mass(masses):
    refolded = [refold(s).workflow != s.workflow for s, _ in masses]
    assert sum(refolded) > 50 and refolded[-1]  # heavy among them
    assert mismatches(masses, refold) == []


def renamed_rows(analysis, names: dict[str, str]) -> list[tuple]:
    """Each record's arrangement, count, costs and witness, the witness's
    users renamed by ``names``."""
    return [
        (
            r.arrangement,
            r.count,
            r.solution.constraint_weight,
            r.solution.authorization_weight,
            {s: names[u] for s, u in r.solution.plan.items()},
        )
        for r in analysis.records
    ]


def test_renaming_users_renames_the_witnesses(masses):
    for schema, _ in masses:
        renamed, names = rename_users(schema)
        identity = {u: u for u in renamed.users}
        assert renamed_rows(analyze(schema), names) == renamed_rows(analyze(renamed), identity)

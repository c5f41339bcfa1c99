from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from wfsat import solver
from wfsat.decisions import analyze
from wfsat.io import load_schema
from wfsat.oracle import oracle_decide

from randgen import corpus, random_schema

# CI runners are slower and noisier than a workstation; a property test
# that runs an exhaustive reference must not fail on the default deadline.
settings.register_profile("ci", deadline=None, print_blob=True)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def purchase_order():
    return load_schema(FIXTURES / "purchase_order.json")


@pytest.fixture(scope="session")
def purchase_order_restricted():
    return load_schema(FIXTURES / "purchase_order_restricted.json")


@pytest.fixture(scope="session")
def purchase_order_no_release():
    return load_schema(FIXTURES / "purchase_order_no_release.json")


@pytest.fixture(scope="session")
def small_corpus():
    """60 deterministic random schemas for module-level invariants."""
    return corpus(60, seed_base=10_000)


@pytest.fixture(scope="session")
def sweep_corpus():
    """The 200-schema corpus driving the oracle-equivalence acceptance sweep."""
    return corpus(200, seed_base=0)


@pytest.fixture(scope="session")
def sweep_oracle(sweep_corpus):
    """Brute-force reports for the sweep corpus, computed once per session."""
    return [oracle_decide(schema) for schema in sweep_corpus]


def solved_components(schemas) -> list[tuple]:
    """(steps, classical constraints, schema) of every solve that ``analyze``
    runs on each schema, in call order.

    Each analysis has a cache of its own, so the list holds each schema's
    distinct components once.
    """
    calls = []
    solve_vwsp = solver.solve_vwsp

    def recording(steps, constraints, schema, stats=None):
        calls.append((tuple(steps), tuple(constraints), schema))
        return solve_vwsp(steps, constraints, schema, stats)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "solve_vwsp", recording)
        for schema in schemas:
            analyze(schema)
    return calls


@pytest.fixture(scope="session")
def heavy_schema():
    """The benchmark's heavy schema: 12 steps, 4 release points, 86,011 arrangements."""
    return random_schema(
        7, max_effort=None, max_steps=12, max_users=8, max_releases=4, max_xors=2,
        max_constraints=10,
    )


@pytest.fixture(scope="session")
def heavy_analysis(heavy_schema):
    """``analyze`` of the heavy schema, run once per session."""
    return analyze(heavy_schema)


@pytest.fixture(scope="session")
def heavy_components(heavy_schema):
    """The distinct components ``analyze`` solves for the heavy schema."""
    return solved_components([heavy_schema])


@pytest.fixture(scope="session")
def sweep_components(sweep_corpus):
    """The distinct components ``analyze`` solves for each sweep schema."""
    return solved_components(sweep_corpus)

"""Machine-readable report construction for the command-line surface.

Reports are plain dicts rendered through :func:`wfsat.io.iter_canonical_json`,
so identical analyses produce identical bytes, and streamed: arrangement
and sequence records are :class:`Records`, sized and lazy, built one
record at a time as the report is written, so a report is never held
whole in memory.  The shape is published as a JSON Schema in
``report-schema.json`` next to this module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from importlib import resources

from .decisions import Analysis, ArrangementRecord
from .oracle import OracleReport


def report_schema() -> dict:
    import json

    with resources.files("wfsat").joinpath("report-schema.json").open("rb") as fh:
        return json.load(fh)


def _rat(value) -> str | None:
    return None if value is None else str(Fraction(value))


def arrangement_record(record: ArrangementRecord) -> dict:
    """One arrangement as a report record; cost fields are None without a solution."""
    arrangement, solution = record.arrangement, record.solution
    return {
        "type": "arrangement",
        "instance": record.instance_index,
        "choices": dict(arrangement.owner.choices),
        "release_order": list(arrangement.release_order),
        "slots": [list(slot) for slot in arrangement.slots],
        "count": record.count,
        "min_cost": None if solution is None else solution.total,
        "constraint_cost": None if solution is None else solution.constraint_weight,
        "authorization_cost": None if solution is None else solution.authorization_weight,
        "witness": None if solution is None else dict(solution.plan),
    }


class Records:
    """Report records built lazily, one per row of ``rows``.

    ``len()`` is ``len(rows)``; each iteration maps ``build`` over the rows
    afresh, so a record exists only while it is being written.
    """

    def __init__(self, rows: Sequence, build: Callable[..., dict]):
        self._rows = rows
        self._build = build

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return map(self._build, self._rows)


def arrangement_records(analysis: Analysis) -> Records:
    return Records(analysis.records, arrangement_record)


def analysis_totals(analysis: Analysis) -> dict:
    return {
        "instances": len(analysis.instances),
        "arrangements": len(analysis.records),
        "sequences": analysis.total_sequences,
    }


def analysis_aggregates(analysis: Analysis, budget: Fraction | None) -> dict:
    return {
        "max_cost": analysis.max_cost,
        "expected_cost": _rat(analysis.expected_cost),
        "within_budget": None if budget is None else analysis.within_budget(budget),
    }


def build_report(
    problem: str,
    *,
    records: Records | list[dict],
    totals: dict,
    answer: bool | None = None,
    value=None,
    budget=None,
    probability=None,
    aggregates: dict | None = None,
    seconds: float | None = None,
) -> dict:
    report = {
        "problem": problem,
        "answer": answer,
        "value": _rat(value),
        "budget": _rat(budget),
        "probability": _rat(probability),
        "totals": totals,
        "aggregates": aggregates,
        "records": records,
    }
    if seconds is not None:
        report["timings"] = {"seconds": seconds}
    return report


def oracle_records(report: OracleReport) -> list[dict]:
    return [
        {
            "type": "class",
            "release_order": list(cls.release_order),
            "slots": [list(slot) for slot in cls.slots],
            "count": cls.count,
            "min_cost": cls.min_cost,
        }
        for cls in report.classes
    ]


def oracle_totals(report: OracleReport) -> dict:
    return {
        "instances": None,
        "arrangements": len(report.classes),
        "sequences": report.total_sequences,
    }


def oracle_aggregates(report: OracleReport) -> dict:
    return {
        "max_cost": report.max_cost,
        "expected_cost": _rat(report.expected_cost),
        "within_budget": report.within_budget,
    }

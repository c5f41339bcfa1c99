"""Machine-readable report construction for the command-line surface.

Reports are plain dicts rendered through :func:`wfsat.io.iter_canonical_json`,
so identical analyses produce identical bytes, and streamed: records
are lazy iterables, built one record at a time as the report is
written, so a report is never held whole in memory.  Arrangement records
are :class:`ArrangementRecords`, sized and re-iterable, and skip the
dict: their text is put together from the fixed sorted-key template and
fragments memoized per report, since most of it repeats.  The cost
fields and the witness depend only on the solution, ``choices`` only on
the instance, ``release_order`` only on the order and each slot only on
itself.  The shape is published as a JSON Schema in
``report-schema.json`` next to this module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from importlib import resources

from .decisions import Analysis, ArrangementRecord
from .io import Prerendered, _render
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


class ArrangementRecords(Prerendered):
    """:func:`arrangement_record` of each row, written from memoized text.

    ``len()`` is ``len(rows)``; each iteration builds the records afresh,
    so a record exists only while it is being written.
    """

    def __init__(self, rows: Sequence[ArrangementRecord]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return map(arrangement_record, self._rows)

    def texts(self, pad: str) -> Iterator[str]:
        return map(_arrangement_text(pad), self._rows)


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, made on first use."""

    def __init__(self, make: Callable):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


_FIELDS = (
    # The keys of arrangement_record, sorted: the order they are written in.
    "authorization_cost",
    "choices",
    "constraint_cost",
    "count",
    "instance",
    "min_cost",
    "release_order",
    "slots",
    "type",
    "witness",
)
_SOLUTION_FIELDS = ("authorization_cost", "constraint_cost", "min_cost", "witness")


def _arrangement_text(pad: str) -> Callable[[ArrangementRecord], str]:
    """A renderer of arrangement records nested at ``pad``, with its memos.

    Its text equals ``_render(arrangement_record(record), pad)``.  Slots
    are memoized one by one, never as whole vectors, whose number grows
    with the records'.  Solutions are keyed by identity, which stays
    stable while the records being written hold them.
    """
    field = pad + "  "
    item = field + "  "
    template = "{{" + field + ("," + field).join(f'"{k}": {{}}' for k in _FIELDS) + pad + "}}"
    choices = _Memo(lambda c: _render(dict(c), field))
    orders = _Memo(lambda order: _render(order, field))
    slot = _Memo(lambda s: _render(s, item)).__getitem__
    comma = "," + item
    solutions: dict[int, tuple[str, ...]] = {}
    shared: dict[str, str] = {}  # one copy of each text: solutions mostly share them

    def text(record: ArrangementRecord) -> str:
        solved = solutions.get(id(record.solution))
        if solved is None:
            reference = arrangement_record(record)
            rendered = (_render(reference[k], field) for k in _SOLUTION_FIELDS)
            solved = solutions[id(record.solution)] = tuple(
                shared.setdefault(t, t) for t in rendered
            )
        authorization, constraint, total, witness = solved
        arrangement = record.arrangement
        return template.format(  # positionally, in the order of _FIELDS
            authorization,
            choices[arrangement.owner.choices],
            constraint,
            record.count,
            record.instance_index,
            total,
            orders[arrangement.release_order],
            # An arrangement has at least one slot.
            "[" + item + comma.join(map(slot, arrangement.slots)) + field + "]",
            '"arrangement"',
            witness,
        )

    return text


def arrangement_records(analysis: Analysis) -> ArrangementRecords:
    return ArrangementRecords(analysis.records)


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
    records: Iterable[dict],
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

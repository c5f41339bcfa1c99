"""Machine-readable report construction for the command-line surface.

Reports are plain dicts rendered through :func:`wfsat.io.iter_canonical_json`,
so identical analyses produce identical bytes, and streamed: records
are lazy iterables, built one record at a time as the report is
written, so a report is never held whole in memory.  Arrangement records
are :class:`ArrangementRecords`, sized and re-iterable, and skip the
dict: each solution and instance has one frame, its reference record
rendered once with the count, release order and slots left as holes,
and each record fills those holes.  The release order and each slot are
memoized on their content, so only the class size is written afresh per
record.  The shape is published as a JSON Schema in
``report-schema.json`` next to this module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import replace
from fractions import Fraction
from importlib import resources

from .decisions import Analysis, ArrangementRecord
from .io import Prerendered, _render
from .model import Memo
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
        "instance": arrangement.owner.index,
        "choices": dict(arrangement.owner.choices),
        "release_order": arrangement.release_order,
        "slots": arrangement.slots,
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


# Stands in for a record's count, release order and slots in its frame.
_HOLE = "\0"


def _arrangement_text(pad: str) -> Callable[[ArrangementRecord], str]:
    """A renderer of arrangement records nested at ``pad``, with its memos.

    Its text equals ``_render(arrangement_record(record), pad)``.  A
    record's frame is that reference text for the same row with its
    count, release order and slots set to ``_HOLE``, split at the hole
    into four pieces; the record fills the holes with its own three, in
    the order ``io`` writes their keys.  Memoized are:

    * the frame, on the solution and the instance.  Unsolved rows of
      every instance share the solution ``None``, so the instance is
      part of the key.
    * the release order, on its content.
    * each slot, on its content, never whole slot vectors, whose number
      grows with the records'.

    Solutions and instances are keyed by identity, which stays stable
    while the records being written hold them.  An id that renders like
    the hole splits a frame into more than four pieces: ``ValueError``.
    """
    field = pad + "  "
    item = field + "  "
    hole = _render(_HOLE, pad)
    frames: dict[tuple[int, int], tuple[str, str, str, str]] = {}
    orders = Memo(lambda order: _render(order, field))
    slot = Memo(lambda s: item + _render(s, item)).__getitem__

    def text(record: ArrangementRecord) -> str:
        arrangement = record.arrangement
        key = id(record.solution), id(arrangement.owner)
        frame = frames.get(key)
        if frame is None:
            blank = replace(arrangement, release_order=_HOLE, slots=_HOLE)
            holes = replace(record, count=_HOLE, arrangement=blank)
            head, mid, between, tail = _render(arrangement_record(holes), pad).split(hole)
            # The slots are filled in as an array; an arrangement has at least one.
            frame = frames[key] = head, mid, between + "[", field + "]" + tail
        head, mid, between, tail = frame
        slots = ",".join(map(slot, arrangement.slots))
        order = orders[arrangement.release_order]
        return "".join((head, str(record.count), mid, order, between, slots, tail))

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

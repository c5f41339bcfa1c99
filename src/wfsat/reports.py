"""Machine-readable report construction for the command-line surface.

Reports are plain dicts rendered through :func:`wfsat.io.iter_canonical_json`,
so identical analyses produce identical bytes, and streamed: records
are lazy iterables, rendered as the report is written and handed to the
writer in blocks of a few dozen, so a report is never held whole in
memory.  Arrangement records are :class:`ArrangementRecords`, sized and
re-iterable, and are written straight from the columns of their
:class:`~wfsat.decisions.RecordTable` blocks, column by column, with no
record or dict built and no Python code run per row: each plan and
instance has one frame, its reference record rendered once with the
count, release order and slots left as holes, and each row fills those
holes.  A row draws its frame's pieces by its plan id, its slots' texts
from a list indexed by slot id and its class size's text from a memo
on the value, so each row's text is one join of lookups.
The shape is published as a JSON Schema in ``report-schema.json`` next
to this module.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from importlib import resources

from .arrangements import Arrangement, Chain
from .decisions import Analysis, ArrangementRecord, RecordTable
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

    ``rows`` is a :class:`~wfsat.arrangements.Chain` of
    :class:`RecordTable`, such as an analysis's records.  ``len()`` is
    ``len(rows)``; each iteration builds the records afresh, so a record
    exists only while it is being written.
    """

    def __init__(self, rows: Chain):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return map(arrangement_record, self._rows)

    def texts(self, pad: str) -> Iterator[str]:
        return itertools.chain.from_iterable(map(_arrangement_texts(pad), self._rows.blocks))


# Stands in for a record's count, release order and slots in its frame.
_HOLE = "\0"


def _arrangement_texts(pad: str) -> Callable[[RecordTable], Iterator[str]]:
    """A renderer of record tables nested at ``pad``, with its memos.

    Each text it yields equals ``_render(arrangement_record(record),
    pad)`` for the table's record in that row.  A row's frame is that
    reference text for a record with the row's instance and plan and
    with its count, release order and slots set to ``_HOLE``, split at
    the hole into four pieces; the row fills the holes with its own
    three, in the order ``io`` writes their keys.  Memoized are:

    * the frame, on the plan and the instance.  Unsolved rows of every
      instance share the plan ``None``, so the instance is part of the
      key.
    * the release order, on its content.
    * the text of every slot of a slot list, in a list indexed by slot
      id, built when the first table of that list is rendered.
    * the text of each class size, on its value.

    A table is rendered column by column, with no Python code run per
    row: the frame pieces of each of the table's plans are listed once,
    by plan id, with the release order already between them, and ``map``
    and ``zip`` then draw each row's frame pieces by its plan id, its
    count and the text of each of its slot ids into one ``"".join``.
    Every column is an iterator over the table's own columns, so
    rendering holds nothing per row.

    Plans, instances and slot lists are keyed by identity, which stays
    stable while the tables being written hold them.  An id that
    renders like the hole splits a frame into more than four pieces:
    ``ValueError``.
    """
    field = pad + "  "
    item = field + "  "
    hole = _render(_HOLE, pad)
    frames: dict[tuple[int, int], tuple[str, str, str, str]] = {}
    orders = Memo(lambda order: _render(order, field))
    slot_texts: dict[int, list[str]] = {}
    count_texts = Memo(str)

    def frame(owner, plan) -> tuple[str, str, str, str]:
        holes = ArrangementRecord(Arrangement(_HOLE, _HOLE, owner), _HOLE, plan)
        head, mid, between, tail = _render(arrangement_record(holes), pad).split(hole)
        # The slots are filled in as an array; an arrangement has at least one.
        return head, mid, between + "[", field + "]" + tail

    def texts(table: RecordTable) -> Iterator[str]:
        arrangements, plan_ids = table.arrangements, table.plan_ids
        owner, slots = arrangements.owner, arrangements.slots
        slot = slot_texts.get(id(slots))
        if slot is None:
            slot = slot_texts[id(slots)] = [item + _render(s, item) for s in slots]
        order = orders[arrangements.release_order]
        heads, mids, tails = [], [], []
        for plan in table.plans:
            pieces = frames.get((id(plan), id(owner)))
            if pieces is None:
                pieces = frames[id(plan), id(owner)] = frame(owner, plan)
            head, mid, between, tail = pieces
            heads.append(head)
            mids.append(mid + order + between)
            tails.append(tail)
        # zip draws from its arguments left to right, so the slot column,
        # passed at several places, gives each of them its next item: the
        # texts of a row's slot ids, each after the first behind a comma.
        slot_column = map(slot.__getitem__, arrangements.ids)
        later_slots = [itertools.repeat(","), slot_column] * len(arrangements.release_order)
        return map(
            "".join,
            zip(
                map(heads.__getitem__, plan_ids),
                map(count_texts.__getitem__, table.counts),
                map(mids.__getitem__, plan_ids),
                slot_column,
                *later_slots,
                map(tails.__getitem__, plan_ids),
            ),
        )

    return texts


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

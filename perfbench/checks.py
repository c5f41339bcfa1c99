"""Output checks, run after the measured process has exited.

Nothing here is timed.  Every request must exit with 0 or 1 (1 only for
a ``check`` whose answer is no) and give the same bytes in every pass.
Its report must validate against the program's ``report-schema.json``
and its arrangement counts must add up to ``totals.sequences``, which
must equal the sequence count computed from the xor-free instances.
``corpus`` reports must also agree with the brute-force oracle.  For the
default seed each report's sha256 must equal the one pinned in
``pins.json``; for ``heavy``, whose seed only renames steps and users,
totals and costs must equal the pinned ones for every seed.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import jsonschema

from wfsat.arrangements import eliminate_xor
from wfsat.io import load_schema
from wfsat.oracle import oracle_decide
from wfsat.reports import report_schema
from wfsat.sequences import sequence_count

FULL_VALIDATION_RECORDS = 1_000
"""Reports with more records get their envelope and a seeded sample of
this many records validated: the reference validator takes more than a
millisecond per record, and ``heavy`` reports hold 86,011."""


def _flag(argv, name: str):
    return Fraction(argv[argv.index(name) + 1]) if name in argv else None


def _problem(argv) -> str:
    verb = argv[0]
    if verb == "solve":
        return "solve"
    if verb == "enumerate":
        return f"enumerate-{argv[argv.index('--what') + 1]}"
    return f"{verb}-{argv[argv.index('--mode') + 1]}"


def _classes(records) -> dict:
    return {
        (tuple(r["release_order"]), tuple(frozenset(s) for s in r["slots"])): (r["count"], r["min_cost"])
        for r in records
    }


@dataclasses.dataclass
class Checker:
    workload: str
    seed: int
    pins: dict
    failures: list = dataclasses.field(default_factory=list)

    def __post_init__(self):
        self._validator = jsonschema.Draft202012Validator(report_schema())
        self._schemas: dict = {}
        self._oracles: dict = {}

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")

    def schema(self, path: str):
        if path not in self._schemas:
            self._schemas[path] = load_schema(path)
        return self._schemas[path]

    def oracle(self, path: str):
        if path not in self._oracles:
            self._oracles[path] = oracle_decide(self.schema(path))
        return self._oracles[path]

    def check_calls(self, requests, passes) -> set[str]:
        """Exit codes, crashes and pass-to-pass determinism; returns failed labels."""
        failed = set()
        final = {c["label"]: c for c in passes[-1]}
        by_label = {r.label: r for r in requests}
        for calls in passes:
            for c in calls:
                label = c["label"]
                allowed = (0, 1) if by_label[label].verb == "check" else (0,)
                if c["error"] is not None:
                    self.fail(label, "raised\n" + c["error"])
                elif c["code"] not in allowed:
                    self.fail(label, f"exit code {c['code']}: {c['stderr'].strip()}")
                elif c["sha256"] != final[label]["sha256"]:
                    self.fail(label, "output differs between passes")
                else:
                    continue
                failed.add(label)
        return failed

    def check_report(self, request, call) -> dict | None:
        """Validate one request's final output; returns the parsed report."""
        label, argv = request.label, request.argv
        before = len(self.failures)
        with open(call["output"], encoding="utf-8") as fh:
            try:
                report = json.load(fh)
            except json.JSONDecodeError as exc:
                self.fail(label, f"output is not JSON: {exc}")
                return None
        self._validate(label, report)
        if report.get("problem") != _problem(argv):
            self.fail(label, f"problem {report.get('problem')!r} for {' '.join(argv[:-1])}")
        if request.verb == "check" and (call["code"] == 0) != (report.get("answer") is True):
            self.fail(label, f"exit code {call['code']} disagrees with answer {report.get('answer')}")
        records = report.get("records", [])
        totals = report.get("totals") or {}
        if sum(r.get("count", 0) for r in records) != totals.get("sequences"):
            self.fail(label, "record counts do not add up to totals.sequences")
        if len(records) != totals.get("arrangements"):
            self.fail(label, "record count differs from totals.arrangements")
        instances = eliminate_xor(self.schema(request.schema).workflow)
        if totals.get("sequences") != sum(sequence_count(i.ast) for i in instances):
            self.fail(label, "totals.sequences differs from the instances' sequence count")
        if self.workload == "corpus":
            self._against_oracle(request, report)
        self._against_pins(request, call, report)
        return report if len(self.failures) == before else None

    def _validate(self, label: str, report: dict) -> None:
        records = report.get("records")
        if isinstance(records, list) and len(records) > FULL_VALIDATION_RECORDS:
            sample = random.Random(f"{label}-{self.seed}").sample(records, FULL_VALIDATION_RECORDS)
            report = dict(report, records=sample)
        error = jsonschema.exceptions.best_match(self._validator.iter_errors(report))
        if error is not None:
            self.fail(label, f"report-schema violation at {error.json_path}: {error.message}")

    def _against_oracle(self, request, report: dict) -> None:
        label, argv = request.label, request.argv
        schema = self.schema(request.schema)
        budget = _flag(argv, "--budget")
        if budget is None:
            budget = schema.budget
        probability = _flag(argv, "--prob")
        if probability is None:
            probability = schema.probability
        oracle = dataclasses.replace(self.oracle(request.schema), budget=budget, probability=probability)
        if report["totals"]["sequences"] != oracle.total_sequences:
            self.fail(label, "sequence total differs from the oracle's")
        if report["totals"]["arrangements"] != len(oracle.classes):
            self.fail(label, "arrangement count differs from the oracle's class count")
        if request.verb == "enumerate":
            return
        expected = {(c.release_order, tuple(frozenset(s) for s in c.slots)): (c.count, c.min_cost) for c in oracle.classes}
        if _classes(report["records"]) != expected:
            self.fail(label, "per-arrangement counts or costs differ from the oracle's")
        aggregates = report["aggregates"]
        within = None if budget is None or request.verb == "min-budget" else oracle.within_budget
        wanted = {
            "max_cost": oracle.max_cost,
            "expected_cost": str(oracle.expected_cost),
            "within_budget": within,
        }
        if aggregates != wanted:
            self.fail(label, f"aggregates {aggregates} differ from the oracle's {wanted}")
        mode = argv[argv.index("--mode") + 1] if "--mode" in argv else None
        if request.verb == "check":
            answer = getattr(oracle, mode)
            if report["answer"] != answer:
                self.fail(label, f"answer {report['answer']} differs from the oracle's {answer}")
        elif request.verb == "min-budget":
            value = oracle.max_cost if mode == "bounded" else oracle.expected_cost
            if report["value"] != str(Fraction(value)):
                self.fail(label, f"value {report['value']} differs from the oracle's {value}")

    def _against_pins(self, request, call, report: dict) -> None:
        label = request.label
        if self.seed == self.pins.get("default_seed"):
            pinned = self.pins.get("sha256", {}).get(label)
            if pinned != call["sha256"]:
                self.fail(label, f"sha256 {call['sha256']} differs from the pinned {pinned}")
        invariant = self.pins.get("invariants", {}).get(label)
        if invariant is not None and invariant != invariants(report):
            self.fail(label, f"totals or costs {invariants(report)} differ from the pinned {invariant}")


def invariants(report: dict) -> dict:
    """The parts of a report that renaming steps and users leaves unchanged."""
    aggregates = report.get("aggregates") or {}
    return {
        "totals": report["totals"],
        "max_cost": aggregates.get("max_cost"),
        "expected_cost": aggregates.get("expected_cost"),
    }

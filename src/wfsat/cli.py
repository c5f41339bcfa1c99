"""Command-line interface.

One binary, orthogonal verbs:

* ``check``      decide strong | bounded | expected | approx
* ``solve``      per-arrangement minimum-cost plans
* ``enumerate``  instances | arrangements | sequences
* ``oracle``     brute-force mirror of ``check``
* ``min-budget`` smallest budget for bounded | expected
* ``export-dot`` workflow DAG for visualization

Reports are canonical JSON streamed to stdout; diagnostics go to stderr.
A reader that closes the pipe early ends the output quietly.  Exit
codes: 0 decision yes (or success), 1 decision no, 2 usage/parse error,
3 enumeration size limit or nesting too deep, with nothing written to
stdout.  Timings are opt-in (``--timings``) so that reports stay
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from array import array
from fractions import Fraction

from . import decisions, oracle, reports
from .arrangements import Chain, count_sequences, eliminate_xor, enumerate_arrangements
from .decisions import RecordTable
from .errors import SizeLimit, WfsatError
from .io import export_dot, iter_canonical_json, load_schema
from .sequences import DEFAULT_SEQUENCE_CAP, iter_sequences, sequence_count


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        return args.run(args, started)
    except SizeLimit as exc:
        print(f"wfsat: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # The tree walkers recurse once per nesting level, and a long
        # seq/par/xor list folds into that many levels.
        print(
            f"wfsat: workflow nesting exceeds the recursion limit of {sys.getrecursionlimit()}",
            file=sys.stderr,
        )
        return 3
    except (_UsageError, OSError, WfsatError) as exc:
        print(f"wfsat: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wfsat", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    check = sub.add_parser("check", help="decide a satisfiability problem")
    check.add_argument("--mode", required=True, choices=["strong", "bounded", "expected", "approx"])
    _common(check, jobs=True)
    check.set_defaults(run=_run_check)

    solve = sub.add_parser("solve", help="minimum-cost plan per arrangement")
    _common(solve, jobs=True)
    solve.set_defaults(run=_run_solve)

    enum = sub.add_parser("enumerate", help="list instances, arrangements or sequences")
    enum.add_argument("--what", required=True, choices=["instances", "arrangements", "sequences"])
    _common(enum, jobs=True, limit=True)
    enum.set_defaults(run=_run_enumerate)

    orc = sub.add_parser("oracle", help="brute-force mirror of check")
    orc.add_argument("--mode", required=True, choices=["strong", "bounded", "expected", "approx"])
    _common(orc, limit=True)
    orc.set_defaults(run=_run_oracle)

    budget = sub.add_parser("min-budget", help="smallest budget admitting a yes answer")
    budget.add_argument("--mode", required=True, choices=["bounded", "expected"])
    _common(budget, jobs=True)
    budget.set_defaults(run=_run_min_budget)

    dot = sub.add_parser("export-dot", help="emit the workflow DAG in DOT form")
    dot.add_argument("file")
    dot.set_defaults(run=_run_export_dot)

    # Only the verbs that read a flag accept it.
    for verb in (check, solve, orc):
        verb.add_argument("--budget", help="rational budget, overrides the file's value")
    for verb in (check, orc):
        verb.add_argument("--prob", help="rational probability, overrides the file's value")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _common(sub: argparse.ArgumentParser, jobs: bool = False, limit: bool = False) -> None:
    sub.add_argument("file")
    sub.add_argument(
        "--timings",
        action="store_true",
        help="include the wall-clock seconds from the start of the verb to the start of "
        "writing the report: loading, analysis and setting records up, not rendering them",
    )
    if jobs:
        sub.add_argument(
            "--jobs", type=_positive_int, default=None, help="ignored; analysis is serial"
        )
    if limit:
        sub.add_argument(
            "--limit",
            type=_positive_int,
            default=None,
            help="sequence cap, read only by enumerate --what sequences and oracle",
        )


def _rational(args, schema, name: str, required: bool) -> Fraction | None:
    """The ``budget`` or ``probability`` flag as a rational, else the file's value."""
    flag, text = ("--budget", args.budget) if name == "budget" else ("--prob", args.prob)
    if text is None:
        value = getattr(schema, name)
    else:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f'{flag} must be a rational "p" or "p/q": {text!r}') from None
    if value is None:
        if required:
            raise _UsageError(f"this mode needs {flag} (or a {name} in the file)")
    elif name == "budget" and value < 0:
        raise _UsageError("budget must be non-negative")
    elif name == "probability" and not 0 <= value <= 1:
        raise _UsageError("probability must lie in [0, 1]")
    return value


def _emit(report: dict) -> None:
    _write(iter_canonical_json(report))


def _write(pieces) -> None:
    """Write text pieces to stdout; a closed pipe ends the output quietly."""
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point the descriptor at devnull so that the
        # flush at shutdown cannot fail again (see "Note on SIGPIPE" in the
        # signal module's docs); an in-process stream may have none.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except io.UnsupportedOperation:
            pass
        finally:
            os.close(devnull)


def _seconds(args, started: float) -> float | None:
    return time.perf_counter() - started if args.timings else None


def _emit_analysis(args, started: float, problem: str, analysis, budget=None, **fields) -> None:
    _emit(
        reports.build_report(
            problem,
            budget=budget,
            totals=reports.analysis_totals(analysis),
            aggregates=reports.analysis_aggregates(analysis, budget),
            records=reports.arrangement_records(analysis),
            seconds=_seconds(args, started),
            **fields,
        )
    )


def _decision_inputs(args):
    """The schema, budget and probability that ``check`` and ``oracle`` read.

    Both flags are checked in every mode; only ``approx`` keeps the probability.
    """
    schema = load_schema(args.file)
    budget = _rational(args, schema, "budget", required=args.mode != "strong")
    probability = _rational(args, schema, "probability", required=args.mode == "approx")
    if args.mode == "strong":
        decisions.guard_zero_weights(schema)
    return schema, budget, probability if args.mode == "approx" else None


def _run_check(args, started: float) -> int:
    schema, budget, probability = _decision_inputs(args)
    analysis = decisions.analyze(schema)
    if args.mode == "strong":
        answer, _ = decisions.check_strong_sat(analysis)
    elif args.mode == "bounded":
        answer = decisions.check_bounded_cost(analysis, budget)
    elif args.mode == "expected":
        answer = decisions.check_expected_cost(analysis, budget)
    else:
        answer = decisions.check_approx(analysis, budget, probability)
    _emit_analysis(
        args, started, f"check-{args.mode}", analysis, budget, answer=answer, probability=probability
    )
    return 0 if answer else 1


def _run_solve(args, started: float) -> int:
    schema = load_schema(args.file)
    budget = _rational(args, schema, "budget", required=False)
    _emit_analysis(args, started, "solve", decisions.analyze(schema), budget)
    return 0


def _run_enumerate(args, started: float) -> int:
    schema = load_schema(args.file)
    instances = eliminate_xor(schema.workflow)
    total = sum(sequence_count(inst.ast) for inst in instances)
    arrangements = None
    if args.what == "instances":
        records = [
            {
                "type": "instance",
                "instance": inst.index,
                "choices": dict(inst.choices),
                "steps": list(inst.steps),
                "releases": list(inst.releases),
            }
            for inst in instances
        ]
    elif args.what == "arrangements":
        # Unsolved records, counted up front for their number; rendered as written.
        tables = [
            RecordTable(table, count_sequences(table), [None], array("I", [0]) * len(table))
            for inst in instances
            for table in enumerate_arrangements(inst).blocks
        ]
        records = reports.ArrangementRecords(Chain(tables))
        arrangements = len(records)
    else:
        cap = args.limit if args.limit is not None else DEFAULT_SEQUENCE_CAP
        if total > cap:
            raise SizeLimit(f"{total} execution sequences exceed cap {cap}", total, cap)
        records = (
            {"type": "sequence", "instance": inst.index, "elements": list(s)}
            for inst in instances
            for s in iter_sequences(inst.poset)
        )
    _emit(
        reports.build_report(
            f"enumerate-{args.what}",
            totals={"instances": len(instances), "arrangements": arrangements, "sequences": total},
            records=records,
            seconds=_seconds(args, started),
        )
    )
    return 0


def _run_oracle(args, started: float) -> int:
    schema, budget, probability = _decision_inputs(args)
    cap = args.limit if args.limit is not None else oracle.DEFAULT_ORACLE_CAP
    result = oracle.oracle_decide(schema, budget=budget, probability=probability, cap=cap)
    answer = getattr(result, args.mode)
    _emit(
        reports.build_report(
            f"oracle-{args.mode}",
            answer=answer,
            budget=budget,
            probability=probability,
            totals=reports.oracle_totals(result),
            aggregates=reports.oracle_aggregates(result),
            records=reports.oracle_records(result),
            seconds=_seconds(args, started),
        )
    )
    return 0 if answer else 1


def _run_min_budget(args, started: float) -> int:
    analysis = decisions.analyze(load_schema(args.file))
    if args.mode == "bounded":
        value = decisions.min_budget_bounded(analysis)
    else:
        value = decisions.min_budget_expected(analysis)
    _emit_analysis(args, started, f"min-budget-{args.mode}", analysis, value=value)
    return 0


def _run_export_dot(args, started: float) -> int:
    schema = load_schema(args.file)
    _write([export_dot(schema.workflow)])
    return 0


if __name__ == "__main__":
    sys.exit(main())

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import wfsat
from wfsat.cli import _build_parser, main
from wfsat.io import save_schema
from wfsat.reports import report_schema

from helpers import run_cli
from randgen import random_schema

FIXTURES = Path(__file__).parent / "fixtures"
RESTRICTED = str(FIXTURES / "purchase_order_restricted.json")
PO = str(FIXTURES / "purchase_order.json")
FIG2 = str(FIXTURES / "purchase_order_no_release.json")
COST_FIELDS = ("min_cost", "constraint_cost", "authorization_cost", "witness")


def src_env() -> dict:
    """The environment for a child interpreter that imports this wfsat."""
    return {**os.environ, "PYTHONPATH": str(Path(wfsat.__file__).parents[1])}


def run_json(*args):
    code, out = run_cli(*args)
    report = json.loads(out)
    jsonschema.validate(report, report_schema())
    return code, report


class TestCheck:
    def test_bounded_budget_5(self):
        code, report = run_json("check", "--mode", "bounded", "--budget", "5", RESTRICTED)
        assert code == 0
        assert report["answer"] is True
        assert report["aggregates"]["max_cost"] == 5
        assert report["totals"] == {"instances": 2, "arrangements": 4, "sequences": 7}

    def test_bounded_budget_4(self):
        code, report = run_json("check", "--mode", "bounded", "--budget", "4", RESTRICTED)
        assert code == 1
        assert report["answer"] is False

    def test_strong(self):
        code, report = run_json("check", "--mode", "strong", RESTRICTED)
        assert code == 1
        assert report["answer"] is False

    def test_expected_boundary(self):
        code, report = run_json("check", "--mode", "expected", "--budget", "25/7", RESTRICTED)
        assert code == 0
        assert report["aggregates"]["expected_cost"] == "25/7"

    def test_approx(self):
        code, _ = run_json("check", "--mode", "approx", "--budget", "0", "--prob", "2/7", RESTRICTED)
        assert code == 0
        code, report = run_json("check", "--mode", "approx", "--budget", "0", "--prob", "3/7", RESTRICTED)
        assert code == 1
        assert report["probability"] == "3/7"
        assert report["aggregates"]["within_budget"] == 2

    def test_budget_from_file(self, tmp_path):
        doc = json.loads(Path(RESTRICTED).read_text())
        doc["budget"] = "5"
        doc["probability"] = "2/7"
        path = tmp_path / "with_defaults.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("check", "--mode", "approx", str(path))
        assert code == 0
        assert report["budget"] == "5"
        # flag overrides the file value
        code, report = run_json("check", "--mode", "bounded", "--budget", "4", str(path))
        assert code == 1
        assert report["budget"] == "4"


class TestSolve:
    def test_records_carry_witnesses(self):
        code, report = run_json("solve", RESTRICTED)
        assert code == 0
        assert report["answer"] is None
        assert len(report["records"]) == 4
        for record in report["records"]:
            assert record["min_cost"] == record["constraint_cost"] + record["authorization_cost"]
            assert set(record["witness"]) == {s for slot in record["slots"] for s in slot}


class TestEnumerate:
    def test_arrangements_table1(self):
        code, report = run_json("enumerate", "--what", "arrangements", PO)
        assert code == 0
        assert report["totals"] == {"instances": 2, "arrangements": 4, "sequences": 7}
        counts = {
            (tuple(r["release_order"]), tuple(tuple(s) for s in r["slots"])): r["count"]
            for r in report["records"]
        }
        assert counts == {
            (("r",), (("s1", "s2", "s3", "s5"), ("s4", "s6"))): 1,
            (("r",), (("s1", "s2", "s3", "s5", "s4"), ("s6",))): 3,
            (("r",), (("s1", "s2", "s3p", "s4"), ("s6",))): 2,
            (("r",), (("s1", "s2", "s3p"), ("s4", "s6"))): 1,
        }

    def test_instances(self):
        code, report = run_json("enumerate", "--what", "instances", PO)
        assert code == 0
        assert [r["steps"] for r in report["records"]] == [
            ["s1", "s2", "s3", "s5", "s4", "s6"],
            ["s1", "s2", "s3p", "s4", "s6"],
        ]

    def test_instances_compile_no_order(self, monkeypatch):
        # Listing instances reads their steps and releases, never their posets.
        fixtures = (PO, RESTRICTED, FIG2)
        expected = [run_cli("enumerate", "--what", "instances", f) for f in fixtures]

        def compile_poset(node):
            raise AssertionError("an instance's order was compiled")

        monkeypatch.setattr(wfsat.arrangements, "compile_poset", compile_poset)
        for f, (code, out) in zip(fixtures, expected):
            assert code == 0
            assert run_cli("enumerate", "--what", "instances", f) == (0, out)

    def test_sequences_purchase_order_no_release(self):
        code, report = run_json("enumerate", "--what", "sequences", FIG2)
        assert code == 0
        assert [r["elements"] for r in report["records"]] == [
            ["s1", "s2", "s3", "s5", "s4", "s6"],
            ["s1", "s2", "s3", "s4", "s5", "s6"],
            ["s1", "s2", "s4", "s3", "s5", "s6"],
            ["s1", "s2", "s3p", "s4", "s6"],
            ["s1", "s2", "s4", "s3p", "s6"],
        ]

    @pytest.mark.parametrize("fixture", [PO, RESTRICTED, FIG2, "random"])
    def test_arrangement_records_match_solve(self, fixture, tmp_path):
        # Both verbs build their records through one builder; only solve fills the costs.
        if fixture == "random":
            fixture = str(tmp_path / "random.json")
            schema = random_schema(4, max_effort=None, max_steps=8, max_releases=2, max_xors=1)
            save_schema(schema, fixture)
        _, listed = run_json("enumerate", "--what", "arrangements", fixture)
        _, solved = run_json("solve", fixture)
        assert len(listed["records"]) > 1
        assert listed["records"] == [
            {**r, **dict.fromkeys(COST_FIELDS)} for r in solved["records"]
        ]

    def test_sequence_cap_exit_code(self):
        assert run_cli("enumerate", "--what", "sequences", "--limit", "2", PO) == (3, "")

    def test_sequence_cap_counts_every_instance(self):
        # Each instance alone fits under 5; together they hold 7 sequences.
        code, out = run_cli("enumerate", "--what", "sequences", "--limit", "5", PO)
        assert (code, out) == (3, "")
        code, report = run_json("enumerate", "--what", "sequences", "--limit", "7", PO)
        assert code == 0 and len(report["records"]) == report["totals"]["sequences"] == 7


class TestOracleVerb:
    @pytest.mark.parametrize(
        "mode,extra,expected",
        [
            ("strong", [], 1),
            ("bounded", ["--budget", "5"], 0),
            ("bounded", ["--budget", "4"], 1),
            ("expected", ["--budget", "4"], 0),
            ("expected", ["--budget", "3"], 1),
            ("approx", ["--budget", "0", "--prob", "2/7"], 0),
            ("approx", ["--budget", "0", "--prob", "3/7"], 1),
        ],
    )
    def test_mirrors_check(self, mode, extra, expected):
        code, report = run_json("oracle", "--mode", mode, *extra, RESTRICTED)
        assert code == expected
        check_code, _ = run_json("check", "--mode", mode, *extra, RESTRICTED)
        assert check_code == code
        assert report["totals"]["sequences"] == 7

    def test_limit_exit_code(self):
        assert run_cli("oracle", "--mode", "strong", "--limit", "3", RESTRICTED) == (3, "")


class TestDecisionInputs:
    """``check`` and ``oracle`` read the budget and probability alike."""

    @pytest.mark.parametrize("verb", ["check", "oracle"])
    @pytest.mark.parametrize(
        "in_file, args, expected",
        [
            ({}, ("bounded",), (2, "this mode needs --budget (or a budget in the file)")),
            ({}, ("approx", "--budget", "0"), (2, "this mode needs --prob (or a probability in the file)")),
            ({}, ("bounded", "--budget", "-1"), (2, "budget must be non-negative")),
            ({}, ("approx", "--budget", "0", "--prob", "2"), (2, "probability must lie in [0, 1]")),
            ({}, ("expected", "--budget", "four"), (2, '--budget must be a rational "p" or "p/q": \'four\'')),
            ({}, ("strong", "--prob", "1/0"), (2, '--prob must be a rational "p" or "p/q": \'1/0\'')),
            # The file's budget 4 and probability 3/7 answer no; the flags answer yes.
            ({"budget": "4"}, ("bounded", "--budget", "5"), (0, "")),
            ({"budget": "0", "probability": "3/7"}, ("approx", "--prob", "2/7"), (0, "")),
        ],
    )
    def test_both_verbs_agree(self, verb, in_file, args, expected, tmp_path):
        path = tmp_path / "restricted.json"
        path.write_text(json.dumps({**json.loads(Path(RESTRICTED).read_text()), **in_file}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, "--mode", *args, str(path)])
        code_expected, line = expected
        assert (code, err.getvalue()) == (code_expected, f"wfsat: {line}\n" if line else "")


class TestMinBudget:
    def test_bounded(self):
        code, report = run_json("min-budget", "--mode", "bounded", RESTRICTED)
        assert code == 0
        assert report["value"] == "5"

    def test_expected(self):
        code, report = run_json("min-budget", "--mode", "expected", RESTRICTED)
        assert code == 0
        assert report["value"] == "25/7"


class TestExportDot:
    def test_emits_digraph(self):
        code, out = run_cli("export-dot", PO)
        assert code == 0
        assert out.startswith("digraph workflow {")


class TestDeepWorkflows:
    """A long seq list folds into one nesting level per element."""

    @staticmethod
    def run_chain(tmp_path, args, leaves: int) -> subprocess.CompletedProcess:
        # A child interpreter, so the stack starts as shallow as the CLI's own.
        steps = [f"s{i}" for i in range(leaves)]
        doc = {
            "workflow": {"seq": [{"step": s} for s in steps]},
            "users": ["u1"],
            "authorizations": {s: ["u1"] for s in steps},
            "default_unauth_penalty": 1,
            "constraints": [],
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        return subprocess.run(
            [sys.executable, "-m", "wfsat.cli", *args, str(path)],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "--mode", "strong"),
            ("enumerate", "--what", "arrangements"),
            ("export-dot",),
            ("enumerate", "--what", "sequences"),
        ],
    )
    @pytest.mark.parametrize("leaves, expected", [(900, 0), (1200, 3)])
    def test_nesting_depth_exit_code(self, tmp_path, args, leaves, expected):
        proc = self.run_chain(tmp_path, args, leaves)
        assert proc.returncode == expected
        if expected == 3:
            assert proc.stdout == ""
            assert proc.stderr == (
                f"wfsat: workflow nesting exceeds the recursion limit of {sys.getrecursionlimit()}\n"
            )
        else:
            assert proc.stderr == ""

    def test_sequences_are_written_whole_just_below_the_limit(self, tmp_path):
        # The tree walkers that run before the report still fit at 988
        # levels; the sequence generator runs while the report is written.
        proc = self.run_chain(tmp_path, ("enumerate", "--what", "sequences"), 988)
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert report["records"] == [
            {"type": "sequence", "instance": 0, "elements": [f"s{i}" for i in range(988)]}
        ]


class TestErrors:
    def test_missing_file(self):
        assert run_cli("check", "--mode", "strong", "/nonexistent.json")[0] == 2

    def test_invalid_document(self, tmp_path):
        # Malformed JSON, then bytes that are not UTF-8: a usage error with
        # a located message, never the decision "no".
        path = tmp_path / "broken.json"
        inputs = ((b"{]", "wfsat: line 1 column 2: "), (b'{"users": ["\xff"]}', "wfsat: $: "))
        for content, located in inputs:
            path.write_bytes(content)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", "--mode", "strong", str(path)])
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith(located)

    def test_missing_budget(self):
        assert run_cli("check", "--mode", "bounded", RESTRICTED)[0] == 2

    def test_missing_probability(self):
        assert run_cli("check", "--mode", "approx", "--budget", "0", RESTRICTED)[0] == 2

    def test_bad_rational_flag(self):
        assert run_cli("check", "--mode", "bounded", "--budget", "five", RESTRICTED)[0] == 2

    @pytest.mark.parametrize(
        "verb", [("enumerate", "--what", "sequences"), ("oracle", "--mode", "strong")]
    )
    def test_nonpositive_limit(self, verb):
        assert run_cli(*verb, "--limit", "-3", PO)[0] == 2
        assert run_cli(*verb, "--limit", "0", PO)[0] == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "--mode", "bounded"),
            ("check", "--mode", "approx", "--budget", "3", "--prob", "2"),
            ("check", "--mode", "bounded", "--budget", "abc"),
            ("solve", "--budget", "-1"),
            ("solve", "--prob", "1/2"),
            ("enumerate", "--what", "arrangements", "--budget", "5"),
            ("enumerate", "--what", "arrangements", "--prob", "1/2"),
            ("min-budget", "--mode", "bounded", "--budget", "5"),
            ("min-budget", "--mode", "bounded", "--prob", "1/2"),
        ],
    )
    def test_bad_flags_fail_before_analysis(self, args, monkeypatch):
        def analyze(*_, **__):
            raise AssertionError("analysis ran before the flags were checked")

        monkeypatch.setattr(wfsat.decisions, "analyze", analyze)
        assert run_cli(*args, RESTRICTED)[0] == 2

    def test_unknown_verb(self):
        assert run_cli("frobnicate", RESTRICTED)[0] == 2

    def test_zero_weight_guard_maps_to_usage_error(self, tmp_path, monkeypatch):
        doc = json.loads(Path(RESTRICTED).read_text())
        doc["default_unauth_penalty"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))

        def analyze(*_, **__):
            raise AssertionError("analysis ran before the weights were checked")

        monkeypatch.setattr(wfsat.decisions, "analyze", analyze)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", "--mode", "strong", str(path)])
        assert code == 2
        assert "without authorization at zero penalty" in err.getvalue()

    @pytest.mark.parametrize("verb", ["check", "oracle"])
    def test_strong_mode_rejects_a_free_unauthorized_step(self, verb, tmp_path):
        # u3 may run s1 unauthorized at no cost: the oracle verb, which
        # answers yes on this schema when unguarded, must refuse it as check does.
        doc = json.loads(Path(PO).read_text())
        doc["step_unauth_penalty"] = {"s1": 0}
        path = tmp_path / "free_s1.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, "--mode", "strong", str(path)])
        assert code == 2
        assert "step s1 can be executed without authorization" in err.getvalue()


class _ClosingStdout(io.StringIO):
    """A stdout whose reader goes away after ``limit`` characters."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def write(self, text: str) -> int:
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


class TestClosedStdout:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (("check", "--mode", "bounded", "--budget", "4", RESTRICTED), 1),
            (("solve", RESTRICTED), 0),
            (("export-dot", RESTRICTED), 0),
        ],
    )
    def test_in_process_stream_keeps_the_verbs_exit_code(self, args, expected):
        out, err = _ClosingStdout(limit=40), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
        assert (code, err.getvalue()) == (expected, "")
        assert len(out.getvalue()) <= 40

    def test_pipe_closed_by_reader_exits_quietly(self, tmp_path):
        # The report must outgrow the pipe buffer (64 KiB on Linux) so
        # that the writer is still writing when the reader goes away.
        path = tmp_path / "big.json"
        schema = random_schema(4, max_effort=None, max_steps=8, max_releases=2, max_xors=1)
        save_schema(schema, path)
        _, report = run_cli("solve", str(path))
        assert len(report) > 65536
        # Writing more after main() returns checks that stdout now goes to
        # devnull, so that nothing can fail at the flush on shutdown either.
        script = (
            "import sys; from wfsat.cli import main; "
            "c = main(sys.argv[1:]); print(1); sys.exit(c)"
        )
        with subprocess.Popen(
            [sys.executable, "-c", script, "solve", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        ) as proc:
            assert proc.stdout.read(10) == report[:10].encode()
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert (proc.returncode, stderr) == (0, b"")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("enumerate", "--what", "arrangements", PO),
            ("solve", RESTRICTED),
            ("check", "--mode", "bounded", "--budget", "5", RESTRICTED),
        ],
    )
    def test_jobs_do_not_change_bytes(self, args):
        _, one = run_cli(*args, "--jobs", "1")
        _, eight = run_cli(*args, "--jobs", "8")
        assert one == eight

    def test_repeated_runs_identical(self):
        _, first = run_cli("solve", RESTRICTED)
        _, second = run_cli("solve", RESTRICTED)
        assert first == second


class TestTimings:
    def test_opt_in_only(self):
        _, out = run_cli("solve", RESTRICTED)
        assert "timings" not in json.loads(out)
        _, out = run_cli("solve", RESTRICTED, "--timings")
        report = json.loads(out)
        jsonschema.validate(report, report_schema())
        assert report["timings"]["seconds"] >= 0


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "wfsat.cli", "min-budget", "--mode", "bounded", RESTRICTED],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "5"


def test_imports_need_neither_numpy_nor_scipy():
    # wfsat and its CLI run on the standard library alone.
    script = "import sys, wfsat, wfsat.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_readme_synopsis_lists_each_verbs_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    (verbs,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for verb, sub in verbs.choices.items():
        # A verb's synopsis line starts with the verb and ends with its FILE.
        (line,) = (x for x in readme if x.startswith(f"wfsat {verb} ") and x.endswith(" FILE"))
        options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z]+", line)) == options, verb

from __future__ import annotations

import contextlib
import dataclasses
import enum
import itertools
import json
import math
import random
import re
import time
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsat import decisions, reports
from wfsat.arrangements import (
    ArrangementTable,
    Chain,
    eliminate_xor,
    enumerate_arrangements,
)
from wfsat.cli import main
from wfsat.decisions import RecordTable
from wfsat.errors import SchemaSemanticError, SchemaSyntaxError
from wfsat.io import (
    _BLOCK,
    Prerendered,
    _render,
    canonical_json,
    export_dot,
    iter_canonical_json,
    load_schema,
    parse_ccws,
    save_schema,
    write_ccws,
)
from wfsat.model import Schema, par, release, seq, step, validate_schema, xor

from helpers import class_size, export_dot_by_contraction, run_cli
from randgen import corpus, random_schema

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ["purchase_order.json", "purchase_order_restricted.json", "purchase_order_no_release.json"]


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def assert_same_texts(got, expected) -> None:
    """``got == expected`` for two lists of record texts, or two texts.

    pytest's diff of two multi-kilobyte reports can run for minutes, so
    this compares the lengths, then names the first record (a list
    element, or a line of a text) that differs and shows only that one.
    It passes exactly when the two are equal.
    """
    what = "record"
    if isinstance(expected, str):
        got, expected, what = got.splitlines(keepends=True), expected.splitlines(keepends=True), "line"
    got, expected = list(got), list(expected)
    first = next(
        (i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected))
    )
    if len(got) != len(expected):
        pytest.fail(f"{len(got)} {what}s, expected {len(expected)}; first differing {what}: {first}")
    if first < len(got):
        pytest.fail(f"{what} {first} differs:\n{got[first]!r}\nexpected\n{expected[first]!r}")


class TestParse:
    def test_purchase_order_shape(self, purchase_order):
        assert len(purchase_order.steps) == 7
        assert len(purchase_order.releases) == 1
        assert len(purchase_order.constraints) == 6
        assert purchase_order.users == ("u1", "u2", "u3")

    def test_unknown_step_in_scope(self):
        doc = json.loads(fixture_text("purchase_order.json"))
        doc["constraints"][0]["scope"] = ["s1", "s9"]
        with pytest.raises(SchemaSemanticError) as err:
            parse_ccws(json.dumps(doc))
        assert any(v.code == "unknown-step" for v in err.value.violations)

    def test_invalid_json_reports_position(self):
        with pytest.raises(SchemaSyntaxError) as err:
            parse_ccws("{invalid")
        assert "line" in str(err.value)

    def test_budget_and_probability(self):
        doc = json.loads(fixture_text("purchase_order_restricted.json"))
        doc["budget"] = "25/7"
        doc["probability"] = "2/7"
        schema = parse_ccws(json.dumps(doc))
        assert schema.budget == Fraction(25, 7)
        assert schema.probability == Fraction(2, 7)

    def test_integer_budget_is_a_fraction(self):
        doc = json.loads(fixture_text("purchase_order_restricted.json"))
        doc["budget"] = 5
        budget = parse_ccws(json.dumps(doc)).budget
        assert type(budget) is Fraction and budget == 5

    def test_top_level_array_rejected(self):
        with pytest.raises(SchemaSyntaxError, match="must be a JSON object"):
            parse_ccws("[]")


MUTATIONS_SYNTAX = [
    lambda d: d.update(extra_key=1),
    lambda d: d.pop("users"),
    lambda d: d["users"].append("not an id!"),
    lambda d: d["users"].append("u9\n"),  # trailing newline
    lambda d: d.__setitem__("workflow", {"seq": []}),
    lambda d: d.__setitem__("workflow", {"step": "s1", "release": "r"}),
    lambda d: d["constraints"][0].update(k=1),  # sod takes no k
    lambda d: d["constraints"][0].pop("weight"),
    lambda d: d["constraints"][0].update(kind="mystery"),
    lambda d: d.__setitem__("budget", "1/0"),
    lambda d: d.__setitem__("budget", "half"),
    lambda d: d.__setitem__("default_unauth_penalty", "10"),
    lambda d: d.__setitem__("users", "u1"),  # not a list
    lambda d: d.__setitem__("workflow", {"loop": [{"step": "s1"}]}),  # unknown node kind
    lambda d: d["constraints"][0].update(note="x"),  # unknown constraint key
    lambda d: d["constraints"][0].update(kind="atmost"),  # atmost without k
    lambda d: d.__setitem__("budget", 2.5),  # not a rational string
]

MUTATIONS_SEMANTIC = [
    lambda d: d["users"].append("u1"),  # duplicate user
    lambda d: d["constraints"][0].update(scope=["s1", "s9"]),
    lambda d: d["constraints"][0].update(scope=["s1", "s2", "s4"]),  # sod arity
    lambda d: d["constraints"][0].update(release=["nope"]),
    lambda d: d["constraints"][0].update(weight=0),
    lambda d: d["constraints"][0].update(id="c_create_sign"),  # duplicate id
    lambda d: d["constraints"][0].update(scope=["s3", "s3p"]),  # exclusive steps
    lambda d: d["constraints"][5].update(kind="atmost", k=9),  # k out of range
    lambda d: d["authorizations"].__setitem__("s1", []),  # no authorized user
    lambda d: d["authorizations"].__setitem__("s1", ["u9"]),
    lambda d: d["authorizations"].__setitem__("s9", ["u1"]),
    lambda d: d.__setitem__("default_unauth_penalty", -1),
    lambda d: d.__setitem__("step_unauth_penalty", {"s1": -2}),
    lambda d: d.__setitem__("budget", "-5"),
    lambda d: d.__setitem__("probability", "9/7"),
    lambda d: d["workflow"]["seq"].append({"step": "s1"}),  # duplicate leaf
    lambda d: d["workflow"]["seq"].append({"release": "s1"}),  # step and release
    lambda d: d.__setitem__("step_unauth_penalty", {"s9": 2}),  # undeclared step
    lambda d: d["constraints"][0].update(scope=["s1", "s2", "s2"]),  # repeated scope step
]


class TestMutations:
    @pytest.mark.parametrize("mutate", MUTATIONS_SYNTAX)
    def test_syntax_mutations_rejected(self, mutate):
        doc = json.loads(fixture_text("purchase_order.json"))
        mutate(doc)
        with pytest.raises(SchemaSyntaxError):
            parse_ccws(json.dumps(doc))

    @pytest.mark.parametrize("mutate", MUTATIONS_SEMANTIC)
    def test_semantic_mutations_rejected(self, mutate):
        doc = json.loads(fixture_text("purchase_order.json"))
        mutate(doc)
        with pytest.raises(SchemaSemanticError):
            parse_ccws(json.dumps(doc))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["purchase_order.json", "purchase_order_restricted.json", "purchase_order_no_release.json"]
    )
    def test_corpus_files_stable_after_one_canonicalization(self, name):
        once = write_ccws(parse_ccws(fixture_text(name)))
        twice = write_ccws(parse_ccws(once))
        assert twice == once

    def test_random_schemas_round_trip(self):
        for schema in corpus(500, seed_base=50_000):
            text = write_ccws(schema)
            reparsed = parse_ccws(text)
            assert write_ccws(reparsed) == text
            again = parse_ccws(write_ccws(reparsed))
            assert again.workflow == reparsed.workflow
            assert again.users == reparsed.users
            assert again.authorizations == reparsed.authorizations
            assert again.constraints == reparsed.constraints

    def test_empty_constraints_serialized_explicitly(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={s: frozenset(("u1",)) for s in ("a", "b")},
            default_unauth_penalty=1,
        )
        assert '"constraints": []' in write_ccws(schema)

    def test_rational_budget_rendering(self):
        schema = Schema(
            workflow=seq(step("a"), step("b")),
            users=("u1",),
            authorizations={s: frozenset(("u1",)) for s in ("a", "b")},
            default_unauth_penalty=1,
            budget=Fraction(25, 7),
            probability=Fraction(2, 7),
        )
        assert '"budget": "25/7"' in write_ccws(schema)
        assert '"probability": "2/7"' in write_ccws(schema)
        round_tripped = parse_ccws(write_ccws(schema))
        assert round_tripped.budget == Fraction(25, 7)
        assert round_tripped.probability == Fraction(2, 7)


def json_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


_TEXT = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600')
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, 2**64, -(2**70), 10**300])
    | st.integers()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 0.1])
    | st.floats()
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_TEXT, inner),
    max_leaves=30,
)


def as_iterators(value):
    """``value`` with every list and tuple replaced by a one-shot iterator."""
    if isinstance(value, dict):
        return {k: as_iterators(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (as_iterators(v) for v in value)
    return value


class _CountingSink:
    """A text stream that counts what it is given and keeps none of it."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)

    def flush(self) -> None:
        pass


def arrangement_shaped(i: int) -> dict:
    steps = [f"s{j}" for j in range(12)]
    return {
        "type": "arrangement",
        "instance": i % 3,
        "choices": {"$.0.1": "left"},
        "release_order": ["r2", "r1", "r3"],
        "slots": [steps[:3], steps[3:8], [], steps[8:]],
        "count": 60 + i,
        "min_cost": i % 7,
        "constraint_cost": 0,
        "authorization_cost": i % 7,
        "witness": {s: f"u{(i + j) % 5}" for j, s in enumerate(steps)},
    }


class TestCanonicalJson:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_matches_json_dumps_byte_for_byte(self, value):
        assert canonical_json(value) == json_dumps(value)
        assert "".join(iter_canonical_json(value)) == json_dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(_VALUES)
    def test_iterators_render_like_lists(self, value):
        assert canonical_json(as_iterators(value)) == json_dumps(value)

    def test_empty_containers_at_depth(self):
        value = {"a": [[], {}, [[{}]], {"b": {"c": []}}], "d": {}, "e": ()}
        assert canonical_json(value) == json_dumps(value)
        assert canonical_json(as_iterators(value)) == json_dumps(value)

    def test_booleans_beside_integers(self):
        value = [True, 1, False, 0, None, {"t": True, "one": 1, "f": False, "zero": 0}]
        assert canonical_json(value) == json_dumps(value)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, b"k", ("k",)])
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError):
            canonical_json({"outer": [{key: 1}]})
        with pytest.raises(TypeError):
            list(iter_canonical_json({key: 1}))

    def test_str_subclasses_render_as_strings(self):
        class Sub(str):
            pass

        text = '{"x": 1}'
        for value in (Sub(text), text):
            assert canonical_json({"a": [value]}) == '{\n  "a": [\n    "{\\"x\\": 1}"\n  ]\n}\n'
            assert canonical_json({"a": value, "b": [[value]]}) == json_dumps({"a": text, "b": [[text]]})

        class IntSub(int):
            pass

        class FloatSub(float):
            pass

        class Level(enum.IntEnum):
            HIGH = 3

        for value, text in ((IntSub(7), "7"), (FloatSub(0.5), "0.5"), (Level.HIGH, "3")):
            assert canonical_json({"a": [value]}) == '{\n  "a": [\n    ' + text + '\n  ]\n}\n'
            assert canonical_json({"a": value, "b": [[value]]}) == json_dumps({"a": value, "b": [[value]]})

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"x": Fraction(1, 2)})

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "--mode", "strong"),
            ("check", "--mode", "bounded"),
            ("check", "--mode", "expected"),
            ("check", "--mode", "approx"),
            ("solve",),
            ("enumerate", "--what", "instances"),
            ("enumerate", "--what", "arrangements"),
            ("enumerate", "--what", "sequences"),
            ("oracle", "--mode", "strong"),
            ("oracle", "--mode", "bounded"),
            ("oracle", "--mode", "expected"),
            ("oracle", "--mode", "approx"),
            ("min-budget", "--mode", "bounded"),
            ("min-budget", "--mode", "expected"),
        ],
    )
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_cli_reports_are_json_dumps_text(self, args, name):
        flags = READ_FLAGS.get(args[0], ())
        code, out = run_cli(*args, *flags, str(FIXTURES / name))
        assert code in (0, 1)
        assert out == json_dumps(json.loads(out))


# The value flags each verb reads; the other verbs reject them.
READ_FLAGS = {
    "check": ("--budget", "5", "--prob", "1/2"),
    "oracle": ("--budget", "5", "--prob", "1/2"),
    "solve": ("--budget", "5"),
}


def unsolved_tables(schema: Schema) -> Chain:
    """The rows of ``enumerate --what arrangements``: record tables without a solution."""
    return Chain(
        [
            RecordTable(table, [class_size(arr) for arr in table], [None], array("I", [0]) * len(table))
            for inst in eliminate_xor(schema.workflow)
            for table in enumerate_arrangements(inst).blocks
        ]
    )


class TestRecordText:
    def test_a_differing_report_fails_fast(self):
        texts = [json_dumps({"record": i, "pad": "x" * 500}) for i in range(4_096)]
        changed = texts[:4_000] + ["{}"] + texts[4_001:]
        assert_same_texts(iter(texts), list(texts))
        assert_same_texts("".join(texts), "".join(texts))
        with pytest.raises(pytest.fail.Exception, match="^record 4000 differs"):
            assert_same_texts(changed, texts)
        with pytest.raises(pytest.fail.Exception, match="^4095 records, expected 4096; first differing record: 4095$"):
            assert_same_texts(texts[:-1], texts)
        with pytest.raises(pytest.fail.Exception, match="lines, expected"):
            assert_same_texts("".join(changed), "".join(texts))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equals_the_reference_renderer(self, seed):
        schema = random_schema(seed, max_steps=8, max_releases=3, max_effort=None)
        solved = decisions.analyze(schema).records
        unsolved = unsolved_tables(schema)
        # Each solved table with every other plan set to None, listed last.
        mixed = Chain(
            [
                RecordTable(
                    t.arrangements,
                    t.counts,
                    [*t.plans, None],
                    array("I", (p if i % 2 == 0 else len(t.plans) for i, p in enumerate(t.plan_ids))),
                )
                for t in solved.blocks
            ]
        )
        for rows in (solved, unsolved, mixed):
            records = reports.ArrangementRecords(rows)
            for pad in ("\n", "\n    ", "\n" + " " * 10):
                expected = [_render(reports.arrangement_record(r), pad) for r in rows]
                assert_same_texts(records.texts(pad), expected)

    def test_unsolved_rows_keep_their_instance_choices(self):
        # Unsolved rows of both instances share the solution None and the
        # same slot contents; only the instance tells their choices apart.
        schema = Schema(
            workflow=par(seq(step("s1"), xor(release("r1"), release("r2"))), step("s2")),
            users=("u1",),
            authorizations={"s1": frozenset({"u1"}), "s2": frozenset({"u1"})},
        )
        assert validate_schema(schema) == []
        rows = unsolved_tables(schema)
        slots = [{r.arrangement.slots for r in rows if r.arrangement.owner.index == i} for i in (0, 1)]
        assert slots[0] == slots[1]
        for pad in ("\n", "\n    "):
            expected = [_render(reports.arrangement_record(r), pad) for r in rows]
            assert_same_texts(reports.ArrangementRecords(rows).texts(pad), expected)

    def test_follows_the_fields_of_the_reference_record(self, purchase_order, monkeypatch):
        # Two more fields, one sorting just before "count", one after "witness".
        plain = reports.arrangement_record

        def extended(record):
            return {**plain(record), "cost_note": [record.arrangement.owner.index], "zone": "z"}

        monkeypatch.setattr(reports, "arrangement_record", extended)
        solved = decisions.analyze(purchase_order).records
        rows = Chain(solved.blocks + unsolved_tables(purchase_order).blocks)
        for pad in ("\n", "\n    "):
            expected = [_render(extended(r), pad) for r in rows]
            assert_same_texts(reports.ArrangementRecords(rows).texts(pad), expected)

    def test_an_id_that_renders_like_the_hole_raises(self):
        # A library-built schema skips the id syntax check; its one user
        # appears in the witness with the text that marks a hole.
        schema = Schema(
            workflow=step("s1"), users=(reports._HOLE,), authorizations={"s1": frozenset({reports._HOLE})}
        )
        rows = decisions.analyze(schema).records
        with pytest.raises(ValueError, match="expected 4"):
            list(reports.ArrangementRecords(rows).texts("\n"))

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_written_at_the_depth_of_the_stream(self, depth, purchase_order):
        records = reports.arrangement_records(decisions.analyze(purchase_order))
        report, plain = {"records": records}, {"records": list(records)}
        for _ in range(depth):
            report, plain = {"outer": report}, {"outer": plain}
        assert_same_texts(canonical_json(report), json_dumps(plain))


class _Listed(Prerendered):
    """A list whose elements are rendered by the reference renderer."""

    def __init__(self, items: list):
        self._items = items

    def __iter__(self):
        return iter(self._items)

    def texts(self, pad: str):
        return map(_render, self._items, itertools.repeat(pad))


BLOCK_EDGES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
ARRAY_KINDS = {"list": list, "iterator": iter, "prerendered": _Listed}


def element(i: int) -> dict:
    return {"i": i, "name": f"e{i}", "tags": ["t"] * (i % 3)}


class TestBlocks:
    @pytest.mark.parametrize("kind", sorted(ARRAY_KINDS))
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("k", BLOCK_EDGES)
    def test_block_edges_render_like_json_dumps(self, k, depth, kind):
        items = [element(i) for i in range(k)]
        value, plain = ARRAY_KINDS[kind](items), items
        for _ in range(depth):
            # A sibling on each side: the array's pieces start after a key
            # and end before the next one.
            value, plain = {"a": 0, "b": value, "c": [1]}, {"a": 0, "b": plain, "c": [1]}
        assert canonical_json(value) == json_dumps(plain)

    @pytest.mark.parametrize("kind", sorted(ARRAY_KINDS))
    @pytest.mark.parametrize("k", [*BLOCK_EDGES, 10 * _BLOCK + 3])
    def test_an_array_reaches_the_writer_in_blocks(self, k, kind):
        items = [element(i) for i in range(k)]
        pieces = list(iter_canonical_json(ARRAY_KINDS[kind](items)))
        assert "".join(pieces) == json_dumps(items)
        assert len(pieces) <= math.ceil(k / _BLOCK) + 3


def two_instance_tables() -> list[RecordTable]:
    """The record tables of a schema with two instances, 8 rows each."""
    schema = Schema(
        workflow=par(seq(step("s1"), xor(release("r1"), release("r2"))), step("s2"), step("s3"), step("s4")),
        users=("u1", "u2"),
        authorizations={s: frozenset({"u1"}) for s in ("s1", "s2", "s3", "s4")},
    )
    assert validate_schema(schema) == []
    return decisions.analyze(schema).records.blocks


class TestRecordColumns:
    def test_an_empty_table_renders_nothing(self, purchase_order):
        tables = decisions.analyze(purchase_order).records.blocks
        arrangements = tables[0].arrangements
        empty = RecordTable(
            ArrangementTable(arrangements.owner, arrangements.release_order, arrangements.slots, array("I")),
            [],
            [],
            array("I"),
        )
        assert list(reports._arrangement_texts("\n")(empty)) == []
        assert list(reports.ArrangementRecords(Chain([empty])).texts("\n")) == []
        assert canonical_json({"records": reports.ArrangementRecords(Chain([empty, empty]))}) == json_dumps(
            {"records": []}
        )
        # Empty tables before, between and after others, across block edges.
        blocks = [empty]
        for _ in range(_BLOCK):
            blocks += [*tables, empty]
        records = reports.ArrangementRecords(Chain(blocks))
        assert len(records) == _BLOCK * len(Chain(tables))
        assert_same_texts(canonical_json({"records": records}), json_dumps({"records": list(records)}))

    def test_rows_interleaving_solutions_render_like_the_reference(self):
        tables = []
        for table in two_instance_tables():
            solved = table.plans[0]
            # Three distinct plans and None, in a cycle of ids that does not
            # divide the table's length; both instances' tables hold None.
            plans = [
                solved,
                None,
                dataclasses.replace(solved, constraint_weight=solved.constraint_weight + 3),
                dataclasses.replace(solved, authorization_weight=solved.authorization_weight + 5),
            ]
            cycle = [0, 1, 2, 3, 1]
            plan_ids = array("I", (cycle[i % len(cycle)] for i in range(len(table))))
            tables.append(RecordTable(table.arrangements, table.counts, plans, plan_ids))
        assert [len(t.plans) for t in tables] == [len(set(t.plan_ids)) for t in tables] == [4, 4]
        rows = Chain(tables)
        assert {r.arrangement.owner.index for r in rows if r.solution is None} == {0, 1}
        records = reports.ArrangementRecords(rows)
        for pad in ("\n", "\n    "):
            expected = [_render(reports.arrangement_record(r), pad) for r in rows]
            assert_same_texts(records.texts(pad), expected)
        assert_same_texts(canonical_json({"records": records}), json_dumps({"records": list(records)}))


class TestStreaming:
    def test_peak_memory_is_a_small_fraction_of_the_output(self):
        n = 20_000
        report = {
            "problem": "solve",
            "totals": {"arrangements": n},
            "records": map(arrangement_shaped, range(n)),
        }
        tracemalloc.start()
        try:
            written = 0
            for piece in iter_canonical_json(report):
                written += len(piece)  # a sink that discards what it is given
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written > 10_000_000
        assert peak < written / 20

    def test_cli_streams_sequences_in_bounded_memory(self, tmp_path):
        # 8 parallel steps: 40,320 sequences, generated while they are written.
        steps = [f"s{j}" for j in range(8)]
        path = tmp_path / "parallel.json"
        save_schema(
            Schema(
                workflow=par(*(step(s) for s in steps)),
                users=("u1",),
                authorizations={s: frozenset(("u1",)) for s in steps},
            ),
            path,
        )
        args = ["enumerate", "--what", "sequences", str(path)]
        sink = _CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written > 5_000_000
        assert peak < sink.written / 20
        _, out = run_cli(*args)
        assert len(out) == sink.written
        assert [tuple(r["elements"]) for r in json.loads(out)["records"]] == list(
            itertools.permutations(steps)
        )

    def test_record_text_memos_stay_small(self):
        # 4**6 arrangements, one per slot vector, drawn from 2**6 distinct slots.
        steps = [f"s{j}" for j in range(6)]
        schema = Schema(
            workflow=par(*(step(s) for s in steps), seq(release("r1"), release("r2"), release("r3"))),
            users=("u1", "u2"),
            authorizations={s: frozenset(("u1",)) for s in steps},
        )
        records = reports.arrangement_records(decisions.analyze(schema))
        assert len(records) == 4**6
        sink = _CountingSink()
        tracemalloc.start()
        try:
            sink.writelines(iter_canonical_json({"records": records}))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.written > 2_000_000
        assert peak < sink.written / 20

    def test_arrangement_records_are_sized_and_reiterable(self):
        analysis = decisions.analyze(load_schema(FIXTURES / "purchase_order.json"))
        records = reports.arrangement_records(analysis)
        assert len(records) == len(analysis.records) == 4
        first = list(records)
        assert first == list(records)
        assert [r["count"] for r in first] == [r.count for r in analysis.records]


def dot_vertices(text: str) -> set[str]:
    return {
        m.group(1)
        for line in text.splitlines()
        if "->" not in line and (m := re.match(r'\s*"([^"]+)"', line))
    }


def dot_edges(text: str) -> set[tuple[str, str]]:
    return {
        (m.group(1), m.group(2))
        for line in text.splitlines()
        if (m := re.match(r'\s*"([^"]+)" -> "([^"]+)"', line))
    }


class TestExportDot:
    def test_single_step_is_three_vertex_path(self):
        text = export_dot(step("s"))
        assert dot_vertices(text) == {"alpha", "s", "omega"}
        assert dot_edges(text) == {("alpha", "s"), ("s", "omega")}

    def test_par_of_two_steps(self):
        text = export_dot(par(step("a"), step("b")))
        assert len(dot_vertices(text)) == 6
        assert len(dot_edges(text)) == 6

    def test_purchase_order_vertices(self, purchase_order):
        text = export_dot(purchase_order.workflow)
        assert dot_vertices(text) == {
            "alpha", "omega",
            "alpha_par_1", "omega_par_1",
            "alpha_xor_1", "omega_xor_1",
            "r", "s1", "s2", "s3", "s3p", "s4", "s5", "s6",
        }
        assert '"r" [shape=circle];' in text
        assert '"s1" [shape=box];' in text

    def test_deterministic(self, purchase_order):
        assert export_dot(purchase_order.workflow) == export_dot(purchase_order.workflow)

    def test_matches_contraction_reference(self):
        trees = [load_schema(FIXTURES / name).workflow for name in FIXTURE_NAMES]
        trees += [random_dot_tree(random.Random(seed)) for seed in range(1000)]
        for node in trees:
            assert export_dot(node) == export_dot_by_contraction(node), node

    def test_large_workflow_exports_quickly(self):
        node = seq(*(par(step(f"a{i}"), step(f"b{i}")) for i in range(200)))
        started = time.perf_counter()
        text = export_dot(node)
        assert time.perf_counter() - started < 2.0
        assert len(dot_vertices(text)) == 2 + 2 * 200 + 400


# Ids that collide with the names the DOT export generates.
COLLIDING_IDS = ["alpha", "omega", "alpha_par_1", "omega_xor_1", "__in_1", "__out_1", "alpha_"]


def random_dot_tree(rng: random.Random):
    """A binary seq/par/xor tree of 1-14 distinct leaves, some of them releases."""
    ids = rng.sample(COLLIDING_IDS + [f"e{i}" for i in range(14)], rng.randint(1, 14))
    leaves = [release(i) if rng.random() < 0.2 else step(i) for i in ids]

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return leaves[lo]
        mid = rng.randint(lo + 1, hi - 1)
        return rng.choice([seq, par, xor])(build(lo, mid), build(mid, hi))

    return build(0, len(leaves))

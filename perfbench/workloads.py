"""Benchmark inputs: seeded schema generators and each workload's requests.

Every input is a schema file written into the run's work directory, and
the program under test only ever sees those files through its CLI.

* ``heavy``: one large schema (3 instances, 86,011 arrangements,
  11,531,520 sequences) and two requests, ``check --mode approx`` with
  fixed flags and ``enumerate --what arrangements``.  The seed renames
  its steps and users, which leaves every cost and every unit of work
  unchanged.
* ``corpus``: many oracle-scale random schemas (the test suite's
  ``randgen.corpus(n, seed_base=seed)``), the three reference fixtures,
  the acceptance scaling schema and three fixed schemas whose solver runs
  the Hungarian method.  Every schema gets every analysis verb, with
  seeded budgets and probabilities, in a seeded order.

The generator, the fixtures and the scaling schema are the test suite's
own (``tests/``); the sizes and digests pinned in ``pins.json`` catch a
change to any of them.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from wfsat.io import write_ccws
from wfsat.model import Schema, WeightedConstraint, par, seq, step

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.append(str(TESTS))

import randgen  # noqa: E402
from test_acceptance import synthetic_schema as scaling_schema  # noqa: E402

WORKLOADS = ("heavy", "corpus")
CORPUS_SIZE = 200
FIXTURES = TESTS / "fixtures"
HEAVY_CHECK = ("check", "--mode", "approx", "--budget", "3", "--prob", "1/2")


@dataclass(frozen=True)
class Request:
    """One CLI call: ``label`` is unique within a workload run."""

    label: str
    verb: str
    argv: tuple[str, ...]
    schema: str


# -- fixed schemas ------------------------------------------------------------


def heavy_schema() -> Schema:
    """The large schema of the baseline: 12 steps, 4 release points, 2 xors."""
    return randgen.random_schema(
        7,
        max_effort=None,
        max_steps=12,
        max_users=8,
        max_releases=4,
        max_xors=2,
        max_constraints=10,
    )


ASSIGNMENT_USERS = tuple(f"u{i}" for i in range(1, 12))
ASSIGNMENT_SHAPES = {
    # name -> (workflow over steps s1..s5, users authorised for s1..s5)
    "assign-seq": (
        lambda s: seq(*s),
        (("u1", "u2"), ("u2", "u3"), ("u4",), ("u5", "u6"), ("u7",)),
    ),
    "assign-par": (
        lambda s: seq(s[0], par(s[1], s[2]), s[3], s[4]),
        (("u3",), ("u3", "u8"), ("u9", "u10"), ("u11",), ("u1", "u11")),
    ),
    "assign-pairs": (
        lambda s: seq(par(s[0], s[1]), par(s[2], s[3]), s[4]),
        (("u6", "u7"), ("u2",), ("u2", "u5"), ("u5",), ("u4",)),
    ),
}


def assignment_schema(name: str) -> Schema:
    """Five steps joined by one ``atleast 5`` constraint, over 11 users.

    The five-block partition has 11!/6! = 55,440 injective assignments,
    above the 50,000 up to which ``solver.min_auth_weight`` enumerates
    them, so it is matched by the Hungarian method
    (``solver.linear_sum_assignment``); the 11^5 plans of a sequence stay
    within the brute-force oracle's cap.
    """
    shape, granted = ASSIGNMENT_SHAPES[name]
    steps = [f"s{i}" for i in range(1, 6)]
    return Schema(
        workflow=shape([step(s) for s in steps]),
        users=ASSIGNMENT_USERS,
        authorizations={s: frozenset(users) for s, users in zip(steps, granted)},
        default_unauth_penalty=5,
        constraints=(
            WeightedConstraint(id="c1", kind="atleast", scope=tuple(steps), k=5, weight=20),
        ),
    )


# -- documents ------------------------------------------------------------------


def _leaf_ids(node: dict, kind: str) -> list[str]:
    ((key, value),) = node.items()
    if key == kind:
        return [value]
    if key in ("step", "release"):
        return []
    return [x for child in value for x in _leaf_ids(child, kind)]


def _rename_tree(node: dict, names: dict[str, str]) -> dict:
    ((key, value),) = node.items()
    if key == "step":
        return {"step": names[value]}
    if key == "release":
        return node
    return {key: [_rename_tree(child, names) for child in value]}


def relabel(doc: dict, rng: random.Random) -> dict:
    """Rename steps and users by seeded permutations of their own names.

    The renamed schema is isomorphic to the original: the tree, the user
    order and every tie-break stay in place, so costs, counts and the
    work done are identical and reports differ only in the names.
    """
    steps = _leaf_ids(doc["workflow"], "step")
    step_names = dict(zip(steps, rng.sample(steps, len(steps))))
    users = doc["users"]
    user_names = dict(zip(users, rng.sample(users, len(users))))
    out = dict(doc)
    out["workflow"] = _rename_tree(doc["workflow"], step_names)
    out["users"] = [user_names[u] for u in users]
    out["authorizations"] = {
        step_names[s]: [user_names[u] for u in granted]
        for s, granted in doc["authorizations"].items()
    }
    if "step_unauth_penalty" in doc:
        out["step_unauth_penalty"] = {
            step_names[s]: p for s, p in doc["step_unauth_penalty"].items()
        }
    out["constraints"] = [
        dict(c, scope=[step_names[s] for s in c["scope"]]) for c in doc["constraints"]
    ]
    return out


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _doc(schema: Schema) -> dict:
    return json.loads(write_ccws(schema))


# -- requests ---------------------------------------------------------------------


def _decision_flags(rng: random.Random, mode: str) -> tuple[str, ...]:
    budget = str(Fraction(rng.randint(0, 24), rng.choice((1, 2, 4))))
    prob = str(Fraction(rng.randint(0, 8), 8))
    if mode == "strong":
        return ()
    if mode == "approx":
        return ("--budget", budget, "--prob", prob)
    return ("--budget", budget)


CHECK_MODES = ("strong", "bounded", "expected", "approx")


def _all_verbs(rng: random.Random, name: str, path: str) -> list[Request]:
    out = [
        Request(f"{name}/check-{mode}", "check", ("check", "--mode", mode, *_decision_flags(rng, mode), path), path)
        for mode in CHECK_MODES
    ]
    out += [
        Request(f"{name}/min-budget-{mode}", "min-budget", ("min-budget", "--mode", mode, path), path)
        for mode in ("bounded", "expected")
    ]
    out.append(Request(f"{name}/solve", "solve", ("solve", path), path))
    out.append(_enumerate(name, path))
    return out


def _enumerate(name: str, path: str) -> Request:
    return Request(
        f"{name}/enumerate-arrangements", "enumerate", ("enumerate", "--what", "arrangements", path), path
    )


def build(workload: str, seed: int, directory: Path) -> list[Request]:
    """Write the workload's schema files into ``directory``; return its requests.

    The same workload and seed always give the same files and requests.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}-{seed}")
    if workload == "heavy":
        path = _write(directory, "heavy", relabel(_doc(heavy_schema()), rng))
        return [Request("heavy/check", "check", (*HEAVY_CHECK, path), path), _enumerate("heavy", path)]
    if workload == "corpus":
        schemas = randgen.corpus(CORPUS_SIZE, seed_base=seed)
        docs = {f"corpus{seed + i}": _doc(s) for i, s in enumerate(schemas)}
        docs["scaling"] = _doc(scaling_schema())
        docs.update((name, _doc(assignment_schema(name))) for name in ASSIGNMENT_SHAPES)
        for fixture in sorted(FIXTURES.glob("*.json")):
            docs[fixture.stem] = json.loads(fixture.read_text(encoding="utf-8"))
        requests = [
            request
            for name, doc in docs.items()
            for request in _all_verbs(rng, name, _write(directory, name, doc))
        ]
        rng.shuffle(requests)
        return requests
    raise ValueError(f"unknown workload {workload!r}")

"""Byte identity of every CLI verb on the reference inputs.

``fixtures/digests/report_digests.json`` holds the exit code and the
sha256 of stdout for each (input, verb) pair below, and for two verbs on
the heavy schema: 86,011 arrangement records over 4 release points, which
the small inputs are too small to exercise.  A change that is meant to
leave reports alone must leave every digest alone.  To record the digests
again after a deliberate change to the report bytes, run
``PYTHONPATH=src python tests/test_report_digests.py``.

The digests live in a subdirectory because the benchmark corpus loads
every ``*.json`` directly under ``fixtures/`` as a schema.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wfsat.cli import main
from wfsat.io import save_schema

from randgen import random_schema
from test_acceptance import synthetic_schema

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "digests" / "report_digests.json"
INPUTS = ("purchase_order", "purchase_order_no_release", "purchase_order_restricted", "synthetic")
VERBS = {
    "check-strong": ("check", "--mode", "strong"),
    "check-bounded": ("check", "--mode", "bounded", "--budget", "5"),
    "check-expected": ("check", "--mode", "expected", "--budget", "5"),
    "check-approx": ("check", "--mode", "approx", "--budget", "3", "--prob", "1/2"),
    "solve": ("solve", "--budget", "2"),
    "min-budget-bounded": ("min-budget", "--mode", "bounded"),
    "min-budget-expected": ("min-budget", "--mode", "expected"),
    "enumerate-instances": ("enumerate", "--what", "instances"),
    "enumerate-arrangements": ("enumerate", "--what", "arrangements"),
    "enumerate-sequences": ("enumerate", "--what", "sequences"),
    "oracle-approx": ("oracle", "--mode", "approx", "--budget", "3", "--prob", "1/2"),
    "export-dot": ("export-dot",),
}


GENERATED = {
    "synthetic": synthetic_schema,
    "heavy": lambda: random_schema(
        7,
        max_effort=None,
        max_steps=12,
        max_users=8,
        max_releases=4,
        max_xors=2,
        max_constraints=10,
    ),
}


def input_path(name: str, directory: Path) -> Path:
    if name not in GENERATED:
        return FIXTURES / f"{name}.json"
    path = directory / f"{name}.json"
    save_schema(GENERATED[name](), path)
    return path


class _Sha256Stream(io.TextIOBase):
    """A text stream that hashes what is written to it, holding none of it.

    Heavy's reports run to 70 MB, too much to collect as one string.
    """

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode("utf-8"))
        return len(text)


def digest(name: str, verb: str, directory: Path) -> dict:
    out = _Sha256Stream()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*VERBS[verb], str(input_path(name, directory))])
    return {"exit": code, "sha256": out.hash.hexdigest()}


HEAVY_VERBS = ("check-approx", "enumerate-arrangements")
PAIRS = [(name, verb) for name in INPUTS for verb in VERBS] + [
    ("heavy", verb) for verb in HEAVY_VERBS
]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_pair_is_recorded(recorded):
    assert set(recorded) == {f"{name} {verb}" for name, verb in PAIRS}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name", INPUTS)
def test_report_bytes_are_unchanged(recorded, tmp_path, name, verb):
    assert digest(name, verb, tmp_path) == recorded[f"{name} {verb}"]


@pytest.mark.parametrize("verb", HEAVY_VERBS)
def test_heavy_report_bytes_are_unchanged(recorded, tmp_path, verb):
    assert digest("heavy", verb, tmp_path) == recorded[f"heavy {verb}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = {f"{name} {verb}": digest(name, verb, Path(scratch)) for name, verb in PAIRS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

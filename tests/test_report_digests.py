"""Byte identity of every CLI verb on the reference inputs.

``fixtures/digests/report_digests.json`` holds the exit code and the
sha256 of stdout for each (input, verb) pair below.  A change that is
meant to leave reports alone must leave every digest alone.  To record
the digests again after a deliberate change to the report bytes, run
``PYTHONPATH=src python tests/test_report_digests.py``.

The digests live in a subdirectory because the benchmark corpus loads
every ``*.json`` directly under ``fixtures/`` as a schema.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from wfsat.io import save_schema

from helpers import run_cli
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


def input_path(name: str, directory: Path) -> Path:
    if name != "synthetic":
        return FIXTURES / f"{name}.json"
    path = directory / "synthetic.json"
    save_schema(synthetic_schema(), path)
    return path


def digest(name: str, verb: str, directory: Path) -> dict:
    code, out = run_cli(*VERBS[verb], str(input_path(name, directory)))
    return {"exit": code, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_pair_is_recorded(recorded):
    assert set(recorded) == {f"{name} {verb}" for name in INPUTS for verb in VERBS}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name", INPUTS)
def test_report_bytes_are_unchanged(recorded, tmp_path, name, verb):
    assert digest(name, verb, tmp_path) == recorded[f"{name} {verb}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = {
            f"{name} {verb}": digest(name, verb, Path(scratch)) for name in INPUTS for verb in VERBS
        }
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

"""The output-byte contract: every golden case gives the digests it gave when recorded.

The corpus and its generator are in tests/golden/; see generate.py there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location("holoqsim_golden", GOLDEN / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_corpus_digests_are_unchanged(tmp_path):
    generate = _generator()
    recorded = json.loads((GOLDEN / "digests.json").read_text())
    here = generate.environment()
    if any(recorded[key] != here[key] for key in here):
        pytest.skip(f"digests were recorded on {', '.join(f'{k} {recorded[k]}' for k in here)}, "
                    f"this is {', '.join(f'{k} {v}' for k, v in here.items())}")
    corpus = json.loads((GOLDEN / "cases.json").read_text())
    assert corpus == generate.build_cases()  # cases.json is what the generator makes
    digests = generate.run_corpus(corpus, tmp_path)
    moved = [name for name, digest in recorded["cases"].items() if digests.get(name) != digest]
    assert digests.keys() == recorded["cases"].keys()
    assert moved == []


def test_refused_cases_give_their_recorded_digests(tmp_path):
    """The cases the CLI refuses with exit 2 print only an error text, with no
    float that BLAS can move, so unlike the full corpus they run on every
    Python and numpy version the tests run on."""
    recorded = json.loads((GOLDEN / "digests.json").read_text())["cases"]
    corpus = json.loads((GOLDEN / "cases.json").read_text())
    refused = [case for case in corpus["cases"] if recorded[case["name"]]["exit"] == 2]
    assert refused
    digests = _generator().run_corpus({"inputs": corpus["inputs"], "cases": refused}, tmp_path)
    assert digests == {case["name"]: recorded[case["name"]] for case in refused}


def test_check_names_what_moved_in_each_case_and_a_version_change_first():
    generate = _generator()
    stored = {"exit": 0, "stdout": "a", "stderr": "b",
              "files": {"out/x.json": "c", "out/y.csv": "d"}}
    assert generate.moved_parts(stored, json.loads(json.dumps(stored))) == []
    digest = {"exit": 2, "stdout": "a", "stderr": "e",
              "files": {"out/x.json": "c", "out/z.csv": "f"}}
    assert generate.moved_parts(stored, digest) == ["exit", "stderr", "out/y.csv", "out/z.csv"]
    assert generate.moved_parts(stored, None) == ["not run"]
    here = generate.environment()
    assert generate.environment_note(here) is None
    note = generate.environment_note({**here, "numpy": "0.0"})
    assert note.startswith("the digests were recorded on ") and "numpy 0.0" in note
    assert f"this is python {here['python']}, numpy {here['numpy']}" in note

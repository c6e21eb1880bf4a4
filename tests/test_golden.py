"""Golden-output gate: the CLI prints and writes exactly what ``tests/golden/expected.json`` holds.

``python tests/golden/regenerate.py`` rewrites the file; a change that does
so changes a CLI output on purpose and says why.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN_DIR / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_cli_outputs_match_the_golden_file_byte_for_byte(tmp_path):
    regenerate = load_regenerate()
    expected = json.loads(regenerate.EXPECTED.read_text(encoding="utf-8"))
    runs = regenerate.run_all(tmp_path)
    assert [run["argv"] for run in runs] == [run["argv"] for run in expected["runs"]]
    differing = [run["argv"] for run, want in zip(runs, expected["runs"]) if run != want]
    assert not differing, (f"{len(differing)} of {len(runs)} runs differ, first {differing[0]}; "
                           f"recorded with {expected['versions']}, running {regenerate.versions()}")

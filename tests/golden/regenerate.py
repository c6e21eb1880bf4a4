"""Rewrite ``expected.json``: the CLI's outputs on the golden configs.

Usage: ``python tests/golden/regenerate.py``.  Each run calls
``chiralwalk.cli.main`` in this process and records its stdout, stderr and
exit code verbatim, with the config directory and the output directory
replaced by placeholders, plus the sha256 of each file it writes.  The
numpy and scipy versions are stored beside the runs: outputs can move in
the last bit with either library.

``tests/test_golden.py`` repeats the runs and compares byte for byte, so a
change that regenerates this file changes a CLI output and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
EXPECTED = HERE / "expected.json"
CONFIG_TOKEN, OUT_TOKEN = "<configs>", "<out>"

# the shipped configs and their gamma = 0 twins, the reference walk at m = 3
# and the twins at m = +-3
REFERENCE = ("reference_um_m1", "reference_um_m2", "reference_mko", "reference_um_m3",
             "reference_um_m1_unitary", "reference_um_m2_unitary", "reference_mko_unitary",
             "reference_um_m3_unitary", "reference_um_m-3_unitary")
CORPUS = tuple(f"corpus-{i:03d}" for i in range(20))      # perfbench.inputs.corpus, seed 0


def commands() -> list:
    """Every golden run as an argv with the two placeholders."""
    runs = []
    for name in REFERENCE:
        config = f"{CONFIG_TOKEN}/{name}.json"
        runs += [["index", config],
                 ["spectrum", config, "--out", f"{OUT_TOKEN}/{name}.csv",
                  "--cloud-out", f"{OUT_TOKEN}/{name}.cloud.csv"],
                 ["verify", config],
                 ["verify", config, "--window", "150"],
                 ["plot", config, "--overlay-window", "60", "--out", f"{OUT_TOKEN}/{name}.svg"]]
    for name in CORPUS:
        runs += [["index", f"{CONFIG_TOKEN}/{name}.json"], ["spectrum", f"{CONFIG_TOKEN}/{name}.json"]]
    return runs


def run(argv: list, out_dir: Path) -> dict:
    """One CLI run with placeholders filled in, recorded with them put back."""
    from chiralwalk.cli import main

    def fill(text):
        return text.replace(CONFIG_TOKEN, str(CONFIG_DIR)).replace(OUT_TOKEN, str(out_dir))

    def restore(text):
        return text.replace(str(out_dir), OUT_TOKEN).replace(str(CONFIG_DIR), CONFIG_TOKEN)

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([fill(arg) for arg in argv])
    files = {arg: hashlib.sha256(Path(fill(arg)).read_bytes()).hexdigest()
             for arg in argv if arg.startswith(OUT_TOKEN)}
    return {"argv": argv, "exit": code, "stdout": restore(stdout.getvalue()),
            "stderr": restore(stderr.getvalue()), "files": files}


def versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def run_all(out_dir: Path) -> list:
    return [run(argv, out_dir) for argv in commands()]


def main():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    with tempfile.TemporaryDirectory() as out_dir:
        document = {"versions": versions(), "runs": run_all(Path(out_dir))}
    EXPECTED.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(document['runs'])} runs to {EXPECTED}")


if __name__ == "__main__":
    main()

"""Cold start of one workload, timed from outside by ``run.py``.

Usage: ``python3 perfbench/probe.py <spec.json>``.  Imports ``chiralwalk``
(and with it numpy and scipy), parses every config named in the spec through
the program's own parser, then runs one warm-up op: a list of CLI argv
(``"cli"``) or one chiral residual on a config's finite section
(``"section"``).  Exits 0 when everything ran.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(spec_path: str) -> int:
    import chiralwalk.cli
    import chiralwalk.config
    import chiralwalk.verify

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    for path in spec["configs"]:
        chiralwalk.config.load_model_config(path)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in spec.get("cli", []):
            if chiralwalk.cli.main(argv) in (1, 3):
                return 1
    if "section" in spec:
        params = chiralwalk.config.load_model_config(spec["section"]["config"]).build()
        grading_op, walk_op = chiralwalk.verify.build_pair(params)
        chiralwalk.verify.chiral_residual_operators(grading_op, walk_op, spec["section"]["window"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

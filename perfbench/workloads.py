"""The four workloads: their ops, their warm-up op and their output checks.

An op is one closed-loop request: one or two ``chiralwalk.cli.main`` calls
(captured stdout/stderr) or one library call.  Entry points are looked up
on their module at call time, so span wrappers installed by the tracer are
the functions that run.  An op fails when it raises or when the CLI exits
with 1 (usage/parse error) or 3 (verification failure); exit 2 (not
Fredholm) is an answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import chiralwalk.cli
import chiralwalk.config
import chiralwalk.index
import chiralwalk.models
import chiralwalk.verify

import inputs

NAMES = ("corpus", "near-tie", "golden", "sections")
SECTION_WINDOWS = (100, 200, 400)
WITNESS_WINDOWS = (150, 300, 600)
SECTION_CONFIGS = ("reference_um_m2", "reference_mko")
RESIDUAL_LIMIT = 1e-10


class CliExit(Exception):
    """The CLI returned a failing exit code (1 or 3)."""

    def __init__(self, code: int, text: str):
        super().__init__(f"exit {code}: {text.strip().splitlines()[-1] if text.strip() else ''}")
        self.code = code


def error_name(err: BaseException) -> str:
    return f"exit{err.code}" if isinstance(err, CliExit) else type(err).__name__


@dataclass
class CliResult:
    command: str
    code: int
    text: str
    seconds: float


def cli(argv) -> CliResult:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = chiralwalk.cli.main(argv)
    seconds = time.perf_counter() - start
    if code in (1, 3):
        raise CliExit(code, buf.getvalue())
    return CliResult(argv[0], code, buf.getvalue(), seconds)


@dataclass
class Op:
    key: str
    kind: str
    run: object                      # () -> output


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list                     # keys of ops run once, untimed, before measuring
    probe: dict                      # spec for the set-up probe (see probe.py)
    check: object                    # (key -> list of outputs) -> (problems, answers)
    may_fail: bool = False           # failed ops are counted, not a check failure


# ---------------------------------------------------------------------------
# parsing CLI text
# ---------------------------------------------------------------------------

_INDEX = re.compile(r"^index = (-?\d+)$", re.M)
_CASE = re.compile(r"^endpoint ([-+]inf): case (I{1,3}),", re.M)
_ORACLE = re.compile(r"sampling oracle: .* (ok|EXCEEDED)$", re.M)
_CHECK = re.compile(r"^(.+?): (PASS|FAIL) \(", re.M)


def parse_index(result: CliResult):
    if result.code == 2:
        return False, None
    found = _INDEX.findall(result.text)
    return True, int(found[-1]) if found else "missing"


def parse_spectrum(result: CliResult):
    cases = dict(_CASE.findall(result.text))
    oracle = _ORACLE.findall(result.text)
    csv = result.text[result.text.index("endpoint,kind"):] if "endpoint,kind" in result.text else ""
    sets = chiralwalk.cli.parse_spectrum_csv(csv) if csv else {}
    return cases, oracle, sets


def digest(answers) -> str:
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _stripped_index(document: dict):
    """Library index of the config with its overrides dropped."""
    params = chiralwalk.config.parse_model_config(inputs.strip_overrides(document)).build()
    if isinstance(params, chiralwalk.models.ModelParamsMko):
        params = chiralwalk.models.mko_to_um(params)[0]
    report = chiralwalk.index.compute_index(params)
    return report.fredholm, report.analytic_index


def _every(outputs: dict, key: str):
    """Non-failed outputs of one op over all passes."""
    return [out for out in outputs.get(key, []) if out is not None]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def corpus(rng, config_dir: str) -> Workload:
    cases = inputs.corpus(rng)
    paths = inputs.write_configs(cases, config_dir)
    ops = [Op(c.name, "index+spectrum",
              lambda p=paths[c.name]: (cli(["index", p]), cli(["spectrum", p])))
           for c in cases]

    def check(outputs):
        problems, answers = [], []
        for case in cases:
            runs = _every(outputs, case.name)
            if not runs:
                problems.append(f"{case.name}: no successful run")
                continue
            stripped = _stripped_index(case.document)
            for index_run, spectrum_run in runs:
                got = parse_index(index_run)
                cases_seen, oracle, sets = parse_spectrum(spectrum_run)
                if got != (case.fredholm, case.index):
                    problems.append(f"{case.name}: index {got}, expected {(case.fredholm, case.index)}")
                if got != stripped:
                    problems.append(f"{case.name}: index {got} changes to {stripped} without overrides")
                if oracle != ["ok", "ok"] or set(sets) != {"-inf", "+inf"}:
                    problems.append(f"{case.name}: spectrum oracle {oracle}, sets {sorted(sets)}")
            answers.append([case.name, got[0], got[1], cases_seen.get("-inf"), cases_seen.get("+inf")])
        return problems, answers

    return Workload("corpus", ops, [ops[0].key],
                    {"configs": list(paths.values()), "cli": [["index", paths[cases[0].name]],
                                                              ["spectrum", paths[cases[0].name]]]},
                    check)


# ---------------------------------------------------------------------------
# near-tie
# ---------------------------------------------------------------------------

def near_tie(rng, config_dir: str) -> Workload:
    cases = inputs.near_tie(rng)
    paths = inputs.write_configs(cases, config_dir)
    ops = [Op(c.name, "index", lambda p=paths[c.name]: cli(["index", p])) for c in cases]
    easiest = max(cases, key=lambda c: _near_margin(c.document))

    def check(outputs):
        problems = []
        for case in cases:
            for run in _every(outputs, case.name):
                got = parse_index(run)
                if got != (case.fredholm, case.index):
                    problems.append(f"{case.name}: index {got}, expected {(case.fredholm, case.index)}")
        return problems, [[c.name, c.fredholm, c.index] for c in cases]

    return Workload("near-tie", ops, [easiest.name],
                    {"configs": list(paths.values()), "cli": [["index", paths[easiest.name]]]},
                    check, may_fail=True)


def _near_margin(document: dict) -> float:
    """Smaller absolute Fredholm margin of the two endpoints."""
    prof = document["profiles"]

    def magnitude(v):
        return abs(complex(*v)) if isinstance(v, list) else abs(v)

    return min(
        abs(inputs.margin(prof["p"][side], magnitude(prof["q"][side]), prof["a"][side], prof["gamma"][side]))
        for side in ("left", "right")
    )


# ---------------------------------------------------------------------------
# golden
# ---------------------------------------------------------------------------

def golden(rng, config_dir: str, repo_configs: str) -> Workload:
    del rng                          # the golden inputs do not depend on the seed
    cases = inputs.golden(repo_configs)
    paths = inputs.write_configs(cases, config_dir)
    svg = {c.name: os.path.join(config_dir, f"{c.name}.svg") for c in cases}
    commands = {
        "index": lambda c: ["index", paths[c]],
        "spectrum": lambda c: ["spectrum", paths[c]],
        "verify": lambda c: ["verify", paths[c]],
        "plot": lambda c: ["plot", paths[c], "--overlay-window", "60", "--out", svg[c]],
    }
    ops = [Op(f"{c.name}/{cmd}", cmd, lambda argv=make(c.name): cli(argv))
           for c in cases for cmd, make in commands.items()]

    def check(outputs):
        problems, answers = [], []
        for case in cases:
            unitary = case.name.endswith("_unitary")
            want_case = "I" if unitary else "II"
            runs = {cmd: _every(outputs, f"{case.name}/{cmd}") for cmd in commands}
            if not all(runs.values()):
                problems.append(f"{case.name}: a subcommand never succeeded")
                continue
            for run in runs["index"]:
                if parse_index(run) != (True, case.index):
                    problems.append(f"{case.name}: index {parse_index(run)}, expected {case.index}")
            for run in runs["spectrum"]:
                tags, oracle, _ = parse_spectrum(run)
                if tags != {"-inf": want_case, "+inf": want_case} or oracle != ["ok", "ok"]:
                    problems.append(f"{case.name}: cases {tags}, oracle {oracle}")
            for run in runs["verify"]:
                checks = _CHECK.findall(run.text)
                if run.code != 0 or not checks or any(s != "PASS" for _, s in checks):
                    problems.append(f"{case.name}: verify {checks}")
                if unitary and ("bound states", "PASS") not in checks:
                    problems.append(f"{case.name}: bound-state check did not run")
            try:
                root = ET.parse(svg[case.name]).getroot()
                if not root.tag.endswith("svg") or len(root) < 4:
                    problems.append(f"{case.name}: plot is not a spectral SVG")
            except (OSError, ET.ParseError) as err:
                problems.append(f"{case.name}: plot unreadable ({err})")
            answers.append([case.name, parse_index(runs["index"][0]),
                            parse_spectrum(runs["spectrum"][0])[0],
                            _CHECK.findall(runs["verify"][0].text)])
        return problems, answers

    first = cases[0].name
    return Workload("golden", ops, [f"{first}/{cmd}" for cmd in commands],
                    {"configs": list(paths.values()), "cli": [commands["index"](first)]},
                    check)


# ---------------------------------------------------------------------------
# sections: finite-section ladder through the library
# ---------------------------------------------------------------------------

def sections(rng, config_dir: str, repo_configs: str) -> Workload:
    del rng                          # the ladder does not depend on the seed
    cases = [c for c in inputs.golden(repo_configs) if c.name in SECTION_CONFIGS]
    paths = inputs.write_configs(cases, config_dir)
    verify = chiralwalk.verify
    ops = []
    for case in cases:
        params = chiralwalk.config.load_model_config(paths[case.name]).build()
        grading_op, walk_op = verify.build_pair(params)
        is_mko = isinstance(params, chiralwalk.models.ModelParamsMko)
        um = chiralwalk.models.mko_to_um(params)[0] if is_mko else params
        for n in SECTION_WINDOWS:
            ops.append(Op(f"{case.name}/chiral/{n}", "residual",
                          lambda g=grading_op, w=walk_op, n=n: verify.chiral_residual_operators(g, w, n)))
            ops.append(Op(f"{case.name}/involution/{n}", "residual",
                          lambda g=grading_op, n=n: verify.involution_residual_operators(g, n)))
            if is_mko:
                ops.append(Op(f"{case.name}/equivalence/{n}", "residual",
                              lambda p=params, n=n: verify.equivalence_residual(p, n)))
        for n in WITNESS_WINDOWS:
            ops.append(Op(f"{case.name}/witness/{n}", "witness",
                          lambda u=um, n=n: verify.kernel_witness(u, n).count))

    def check(outputs):
        problems, answers = [], []
        for op in ops:
            runs = _every(outputs, op.key)
            if not runs:
                problems.append(f"{op.key}: no successful run")
                continue
            if op.kind == "residual":
                worst = max(runs)
                if not worst < RESIDUAL_LIMIT:
                    problems.append(f"{op.key}: residual {worst:.3e} >= {RESIDUAL_LIMIT:.0e}")
                answers.append([op.key, "below limit"])
            else:
                answers.append([op.key, sorted(set(runs))])
        for case in cases:
            top = _every(outputs, f"{case.name}/witness/{WITNESS_WINDOWS[-1]}")
            if top and min(top) < abs(case.index):
                problems.append(f"{case.name}: witness {min(top)} < |index| {abs(case.index)}")
        return problems, answers

    first = cases[0].name
    return Workload("sections", ops, [ops[0].key],
                    {"configs": list(paths.values()),
                     "section": {"config": paths[first], "window": SECTION_WINDOWS[0]}},
                    check)


def build(name: str, rng, config_dir: str, repo_configs: str) -> Workload:
    if name == "corpus":
        return corpus(rng, config_dir)
    if name == "near-tie":
        return near_tie(rng, config_dir)
    if name == "golden":
        return golden(rng, config_dir, repo_configs)
    if name == "sections":
        return sections(rng, config_dir, repo_configs)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

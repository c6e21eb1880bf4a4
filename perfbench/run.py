"""chiralwalk benchmark: one workload, one closed-loop client, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` and written as JSON
configs; ops then run back to back in whole passes over the inputs until
``--seconds`` have elapsed.  Output checks run after the timed loop.  The
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from span wrappers, alternating untraced and traced passes) with
``--trace 1``.  The full record, with the environment and the spans, goes
to ``.perfbench_results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import latency
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 0
SETUP_REPEATS = 5
CLI_COMMANDS = ("index", "spectrum", "verify", "plot")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.load.calls": "count",
    "config.load.self_ms": "ms",
    "models.build.calls": "count",
    "models.build.self_ms": "ms",
    "lattice.compose.calls": "count",
    "lattice.compose.self_ms": "ms",
    "lattice.finite_section.calls": "count",
    "lattice.finite_section.self_ms": "ms",
    "lattice.finite_section.mbytes_computed": "MB",
    "index.compute.calls": "count",
    "index.compute.self_ms": "ms",
    "index.winding_numeric.calls": "count",
    "index.winding_numeric.self_ms": "ms",
    "index.failed.SymbolNearZeroError": "count",
    "index.failed.NotFredholmError": "count",
    "index.failed.IndexDisagreementError": "count",
    "spectrum.essential.calls": "count",
    "spectrum.essential.self_ms": "ms",
    "spectrum.symbol_eigenvalues.self_ms": "ms",
    "spectrum.set_distance.self_ms": "ms",
    "spectrum.oracle_within_tol_ratio": "ratio",
    "verify.residual.calls": "count",
    "verify.residual.self_ms": "ms",
    "verify.dense_gflop_computed": "GFLOP",
    "verify.eig.calls": "count",
    "verify.eig.self_ms": "ms",
    "verify.witness.calls": "count",
    "verify.witness.self_ms": "ms",
    "verify.witness.max_window": "sites",
    "plotting.svg.calls": "count",
    "plotting.svg.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli_index_ms": "ms",
    "cli_spectrum_ms": "ms",
    "cli_verify_ms": "ms",
    "cli_plot_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class SetupError(RuntimeError):
    """The benchmark could not start; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "lib*openblas*.so*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "machine": platform.machine(),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

@dataclass
class PassRecord:
    traced: bool
    wall: float = 0.0
    samples: list = field(default_factory=list)      # (op key, seconds)
    outputs: dict = field(default_factory=dict)      # op key -> output, None when failed
    errors: Counter = field(default_factory=Counter)
    cli_seconds: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)


def measure_setup(workload, run_dir: str) -> list:
    """Wall time of fresh set-up processes; the first one is not counted."""
    spec = os.path.join(run_dir, "probe.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(workload.probe, handle)
    argv = [sys.executable, os.path.join(HERE, "probe.py"), spec]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return times[1:]


def _cli_split(op, output, seconds, into: Counter):
    """Add an op's time to its subcommands; a failed call keeps the op's time."""
    from workloads import CliResult

    results = output if isinstance(output, tuple) else (output,)
    if all(isinstance(r, CliResult) for r in results):
        for r in results:
            into[r.command] += r.seconds
    elif op.kind in CLI_COMMANDS:
        into[op.kind] += seconds


def run_pass(ops, traced: bool) -> PassRecord:
    import workloads

    record = PassRecord(traced)
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = op.key
            t0 = time.perf_counter()
            try:
                output = op.run()
            except Exception as err:               # the op failed; count it by type
                output = None
                record.errors[workloads.error_name(err)] += 1
            seconds = time.perf_counter() - t0
            record.samples.append((op.key, seconds))
            record.outputs[op.key] = output
            _cli_split(op, output, seconds, record.cli_seconds)
    finally:
        record.wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
            record.spans = tracer.spans
    return record


def measure(workload, seconds: float, trace: bool) -> list:
    """Whole passes until ``seconds`` elapse; with ``trace`` every second one is traced."""
    by_key = {op.key: op for op in workload.ops}
    for key in workload.warmup:
        try:
            by_key[key].run()
        except Exception:                          # failures are counted when measured
            pass
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload.ops, traced=trace and len(passes) % 2 == 1))
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _cli_ms(passes) -> dict:
    return {f"cli_{cmd}_ms": 1000.0 * statistics.median(p.cli_seconds[cmd] for p in passes)
            for cmd in CLI_COMMANDS}


def end_to_end(passes, setup_times) -> tuple:
    samples = [s for p in passes for s in p.samples]
    attempted = len(samples)
    failed = sum(sum(p.errors.values()) for p in passes)
    summary = latency.latency_summary(samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": attempted / sum(p.wall for p in passes),
        "op_p50_ms": summary["p50_ms"],
        "op_tail_ms": summary["tail_ms"],
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return metrics, summary


def per_layer(passes) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    layers = [spans.layer_metrics(p.spans) for p in traced]
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("cli_") or name == "trace.overhead_ratio":
            continue
        metrics[name] = statistics.median(layer.get(name, 0) for layer in layers)
    metrics.update(_cli_ms(plain))
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                       / statistics.median(p.wall for p in plain))
    return metrics


def check_outputs(workload, passes, seed: int) -> tuple:
    import workloads

    outputs: dict = {}
    for p in passes:
        for key, out in p.outputs.items():
            outputs.setdefault(key, []).append(out)
    problems, answers = workload.check(outputs)
    failed = sorted(key for key, outs in outputs.items() if None in outs)
    if failed and not workload.may_fail:
        problems.append(f"{len(failed)} ops failed, first {failed[0]}")
    answer_digest = workloads.digest(answers)
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
            stored = json.load(handle).get(workload.name)
        if stored != answer_digest:
            problems.append(f"answer digest {answer_digest} differs from stored {stored}")
    return problems, answer_digest


# ---------------------------------------------------------------------------

def _write_record(args, record: dict):
    out_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return path


def run(args) -> int:
    nproc = limit_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "chiralwalk", "__init__.py")):
        raise SetupError(f"no chiralwalk sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    import workloads

    if args.workload not in workloads.NAMES:
        raise SetupError(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, np.random.default_rng(args.seed),
                                   run_dir, os.path.join(ROOT, "configs"))
        setup_times = measure_setup(workload, run_dir)
        passes = measure(workload, args.seconds, bool(args.trace))
        e2e, tail = end_to_end([p for p in passes if not p.traced], setup_times)
        problems, answer_digest = check_outputs(workload, passes, args.seed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not os.listdir(os.path.dirname(run_dir)):
        os.rmdir(os.path.dirname(run_dir))

    metrics = per_layer(passes) if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    errors = sum((p.errors for p in passes), Counter())
    attempted = sum(len(p.samples) for p in passes)
    failed = sum(errors.values())
    plain = [p for p in passes if not p.traced]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "ops_per_pass": len(workload.ops),
        "pass_wall_s": [p.wall for p in passes],
        "pass_traced": [p.traced for p in passes],
        "op_seconds": [p.samples for p in passes],
        "setup_samples_s": setup_times,
        "op_tail": f"p{tail['tail_q']:g} over n={tail['n']} distinct ops (per-op means over passes)",
        "failed_ratio": failed / attempted,
        "failed_by_type": dict(errors),
        "end_to_end": e2e,
        **_cli_ms(plain),
        "answer_digest": answer_digest,
        "problems": problems,
    }
    env = environment(nproc)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    spans_out = [[[s.op, s.name, s.start, s.end, s.parent, s.error, s.attrs] for s in p.spans]
                 for p in passes if p.traced]
    path = _write_record(args, {"env": env, "report": report, "result": result, "spans": spans_out})

    print(f"environment: {json.dumps(env)}")
    for name, unit in END_TO_END.items():
        print(f"{args.workload} {name} = {e2e[name]:.6g} {unit}")
    for cmd in CLI_COMMANDS:
        print(f"{args.workload} cli_{cmd}_ms = {report[f'cli_{cmd}_ms']:.6g} ms (median over passes)")
    print(f"{args.workload} op_tail is {report['op_tail']}")
    print(f"{args.workload} failed_ratio = {report['failed_ratio']:.4g} "
          f"({failed} of {attempted}; by type {dict(errors) or 'none'})")
    print(f"{args.workload} answer digest {answer_digest}; record in {os.path.relpath(path, ROOT)}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

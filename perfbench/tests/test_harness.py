"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench/tests -q``."""

import importlib
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import latency  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# tail-percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, q", [(5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
                                  (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                  (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_beyond(n, q):
    assert latency.tail_percentile(n) == q
    if q is not None:
        assert round(n * (100 - q) / 100, 6) >= 10


def test_percentile_matches_numpy_linear():
    values = sorted(np.random.default_rng(3).exponential(size=37))
    for q in (0, 12.5, 50, 75, 90, 100):
        assert latency.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_latency_uses_one_mean_per_op():
    samples = [(f"op{i}", (i + 1) / 1000) for i in range(40)]
    samples += [("op0", 0.0005), ("op0", 0.0015)]                   # repeats keep op0's mean
    summary = latency.latency_summary(samples)
    assert summary["n"] == 40 and summary["tail_q"] == 75.0
    assert summary["p50_ms"] == pytest.approx(np.percentile(np.arange(1, 41), 50))
    assert summary["tail_ms"] == pytest.approx(np.percentile(np.arange(1, 41), 75))


def test_latency_tail_falls_back_to_median_for_few_ops():
    summary = latency.latency_summary([("a", 0.001), ("b", 0.003), ("c", 0.002)])
    assert summary["tail_q"] == 50.0 and summary["tail_ms"] == summary["p50_ms"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# self time on synthetic spans
# ---------------------------------------------------------------------------

def _synthetic():
    S = spans.Span
    return [
        S("cli", 0.0, 10.0),                                  # 0
        S("models.build", 1.0, 4.0, parent=0),                # 1
        S("models.build", 1.5, 2.5, parent=1),                # 2  nested, same group
        S("lattice.compose", 2.0, 2.25, parent=2),            # 3
        S("index.compute", 5.0, 9.0, parent=0, error="SymbolNearZeroError"),  # 4
        S("index.winding_numeric", 5.5, 8.5, parent=4, error="SymbolNearZeroError"),
    ]


def test_self_time_is_span_minus_direct_children():
    assert spans.self_times(_synthetic()) == pytest.approx([3.0, 2.0, 0.75, 0.25, 1.0, 3.0])


def test_layer_metrics_count_calls_once_per_group_nesting():
    layer = spans.layer_metrics(_synthetic())
    assert layer["cli.calls"] == 1 and layer["cli.self_ms"] == pytest.approx(3000.0)
    assert layer["models.build.calls"] == 1
    assert layer["models.build.self_ms"] == pytest.approx(2750.0)
    assert layer["lattice.compose.self_ms"] == pytest.approx(250.0)
    assert layer["index.failed.SymbolNearZeroError"] == 1
    total = sum(v for k, v in layer.items() if k.endswith(".self_ms"))
    assert total == pytest.approx(10000.0)                     # self times tile the root


# ---------------------------------------------------------------------------
# wrappers install and restore every attribute
# ---------------------------------------------------------------------------

def _snapshot():
    out = {}
    modules = {name: importlib.import_module(name) for name in spans.MODULES}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_tracer_replaces_every_binding_and_restores_identically():
    import chiralwalk
    import chiralwalk.cli
    import chiralwalk.index
    import chiralwalk.verify

    before = _snapshot()
    original = chiralwalk.index.compute_index
    tracer = spans.Tracer()
    with tracer:
        for namespace in (chiralwalk, chiralwalk.cli, chiralwalk.index, chiralwalk.verify):
            assert namespace.compute_index is not original
            assert namespace.compute_index.__wrapped__ is original
        assert chiralwalk.lattice.BandedOperator.finite_section.__wrapped__ is not None
        with pytest.raises(RuntimeError):
            tracer.install()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_records_errors_and_restores_after_exceptions():
    import chiralwalk.index

    original = chiralwalk.index.winding_numeric
    tracer = spans.Tracer()
    with pytest.raises(ValueError), tracer:
        raise ValueError("boom")
    assert chiralwalk.index.winding_numeric is original


# ---------------------------------------------------------------------------
# traced span counts on real workloads
# ---------------------------------------------------------------------------

def _traced_layers(workload, ops):
    record = run.run_pass(ops, traced=True)
    assert not record.errors or workload.name == "near-tie"
    return spans.layer_metrics(record.spans), record


def test_corpus_calls_compute_index_once_per_op_and_no_sections(tmp_path):
    workload = workloads.build("corpus", np.random.default_rng(5), str(tmp_path), "")
    ops = workload.ops[:6]
    layers, record = _traced_layers(workload, ops)
    assert layers["index.compute.calls"] == len(ops)
    assert layers["spectrum.essential.calls"] == len(ops)
    assert layers["cli.calls"] == 2 * len(ops)
    assert layers.get("lattice.finite_section.calls", 0) == 0
    assert layers.get("verify.eig.calls", 0) == 0
    assert record.errors == {}


def test_near_tie_calls_compute_index_once_per_op(tmp_path):
    workload = workloads.build("near-tie", np.random.default_rng(5), str(tmp_path), "")
    ops = workload.ops[:4]
    layers, record = _traced_layers(workload, ops)
    assert layers["index.compute.calls"] == len(ops)
    assert layers.get("index.failed.SymbolNearZeroError", 0) == record.errors.get("SymbolNearZeroError", 0)
    assert layers.get("lattice.finite_section.calls", 0) == 0


def test_unitary_twin_verify_eigensolves_twice(tmp_path):
    workload = workloads.build("golden", None, str(tmp_path), os.path.join(ROOT, "configs"))
    ops = [op for op in workload.ops if op.key == "reference_um_m1_unitary/verify"]
    layers, _ = _traced_layers(workload, ops)
    assert layers["verify.eig.calls"] == 2
    assert layers["verify.witness.calls"] == 1


def test_section_ladder_never_eigensolves(tmp_path):
    workload = workloads.build("sections", None, str(tmp_path), os.path.join(ROOT, "configs"))
    ops = [op for op in workload.ops if op.key.endswith("/100") or op.key.endswith("/150")]
    layers, _ = _traced_layers(workload, ops)
    assert layers.get("verify.eig.calls", 0) == 0
    assert layers["verify.residual.calls"] == 5
    assert layers["verify.witness.calls"] == 2


# ---------------------------------------------------------------------------
# inputs and the metric list
# ---------------------------------------------------------------------------

def test_inputs_repeat_for_a_seed():
    first = inputs.corpus(np.random.default_rng(11))
    second = inputs.corpus(np.random.default_rng(11))
    assert [c.document for c in first] == [c.document for c in second]
    assert [c.document for c in inputs.near_tie(np.random.default_rng(12))] != \
        [c.document for c in inputs.near_tie(np.random.default_rng(11))]


def test_near_tie_margins_span_the_stated_decades():
    cases = inputs.near_tie(np.random.default_rng(4))
    tiny = sorted(workloads._near_margin(c.document) for c in cases)
    assert 1e-6 <= tiny[0] < 1e-5 and 1e-3 < tiny[-1] <= 1e-2


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)

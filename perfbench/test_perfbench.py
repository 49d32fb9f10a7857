"""Self-tests of the benchmark.  Run from the checkout root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import requests  # noqa: E402

from lexrag import metrics, retrieval  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from stubserver import INJECT_EVERY, InjectionSchedule, StubServer  # noqa: E402

TINY_DOCS = 300


def tiny_context(tmp_path: Path, trace: bool = False, seed: int = 3) -> workloads.Context:
    return workloads.Context(
        root=ROOT,
        seed=seed,
        seconds=0.3,
        docs=TINY_DOCS,
        trace=trace,
        work=tmp_path,
        tracer=Tracer() if trace else None,
    )


def run_tiny(workload: str, trace: int, seed: int = 5) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--docs", str(TINY_DOCS)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["keyword_hits", "vector_fallback", "evaluate"])
def test_tiny_run_completes(workload, trace):
    info, result = run_tiny(workload, trace)
    assert info["error_rate"] == 0.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = workloads.LAYER_UNITS if trace else workloads.E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["vector_fallback", "evaluate"])
def test_digest_depends_only_on_the_seed(workload):
    untraced, _ = run_tiny(workload, trace=0, seed=9)
    traced, _ = run_tiny(workload, trace=1, seed=9)
    other, _ = run_tiny(workload, trace=0, seed=10)
    assert untraced["digest"] == traced["digest"] != other["digest"]


def test_host_clock_normalises_by_the_probes_around_an_interval():
    clock = hostspeed.HostClock()
    # Probes at t = 0..9 s: the host runs the kernel at nominal speed until
    # t = 4.5 s and at half speed after it.
    clock.stamps = [float(t) for t in range(10)]
    clock.times = [hostspeed.REFERENCE_S * (1 if t < 5 else 2) for t in range(10)]
    assert clock.normalise(0.2, 1.1, 1.3) == pytest.approx(0.2)
    assert clock.normalise(0.2, 8.1, 8.3) == pytest.approx(0.1)
    # An interval between t = 4 and 5: SIDE probes on each side, and the
    # median of an even count averages the two states.
    assert clock.speed(4.2, 4.4) == pytest.approx((1 + 2) / 2)
    assert clock.normalise(0.3, 9.5, 9.6) == pytest.approx(0.15)  # past the last probe


def test_host_clock_looks_as_far_out_as_a_long_interval_lasts():
    clock = hostspeed.HostClock()
    # A one-second step at 1.15-2.15 s, with a short slow spell on either
    # side of it and nominal speed around that.
    slow = {1.0, 1.1, 2.2, 2.3}
    clock.stamps = [round(0.1 * t, 1) for t in range(35) if not 1.2 <= 0.1 * t < 2.2]
    clock.times = [hostspeed.REFERENCE_S * (2 if t in slow else 1) for t in clock.stamps]
    assert clock.speed(1.15, 2.15) == pytest.approx(1.0)
    assert clock.speed(1.12, 1.14) == pytest.approx(2.0)  # short: nearest probes only


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["keyword_hits", "vector_fallback", "evaluate"]


def test_gate_trips_on_swapped_vector_hits(tmp_path, monkeypatch):
    original = retrieval.vector_topk

    def swapped(*args, **kwargs):
        hits = original(*args, **kwargs)
        return [hits[1], hits[0], *hits[2:]]

    monkeypatch.setattr(retrieval, "vector_topk", swapped)
    with pytest.raises(workloads.GateError, match="brute force"):
        workloads.vector_fallback(tiny_context(tmp_path))


def test_gate_trips_on_perturbed_metric(tmp_path, monkeypatch):
    original = metrics.rouge_l
    monkeypatch.setattr(metrics, "rouge_l", lambda h, r: original(h[1:], r))
    with pytest.raises(workloads.GateError, match="rouge_l"):
        workloads.evaluate(tiny_context(tmp_path))


def test_gate_trips_on_missing_keyword_hits(tmp_path, monkeypatch):
    monkeypatch.setattr(retrieval, "keyword_lookup", lambda index, phrase: [])
    with pytest.raises(workloads.GateError, match="planted headword"):
        workloads.keyword_hits(tiny_context(tmp_path))


def test_injection_schedule_repeats_for_a_seed():
    n = 20 * INJECT_EVERY
    first = [InjectionSchedule(7).status(i) for i in range(n)]
    again = [InjectionSchedule(7).status(i) for i in range(n)]
    other = [InjectionSchedule(8).status(i) for i in range(n)]
    assert first == again and first != other
    injected = [i for i, status in enumerate(first) if status != 200]
    assert len(injected) == n // INJECT_EVERY
    assert all(b - a >= 2 for a, b in zip(injected, injected[1:]))


def test_stub_serves_its_schedule(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    n = 3 * INJECT_EVERY
    with StubServer(seed=7, dim=4) as stub:
        statuses = [
            requests.post(stub.base_url + "/embeddings", json={"input": ["x"]}, timeout=10).status_code
            for _ in range(n)
        ]
    expected = [InjectionSchedule(7).status(i) for i in range(n)]
    assert statuses == expected == stub.statuses
    assert stub.injected == sum(status != 200 for status in expected) == 3


def test_traced_spans_nest(tmp_path):
    ctx = tiny_context(tmp_path, trace=True)
    outcome = workloads.vector_fallback(ctx)
    spans = outcome.spans
    names = [spans.names[i] for i in spans.name]
    topk = [i for i, name in enumerate(names) if name == "index.vector_topk"]
    assert topk
    for i in topk:
        retrieve = spans.parent[i]
        translate = spans.parent[retrieve]
        assert names[retrieve] == "retrieval.retrieve"
        assert names[translate] == "pipeline.translate"
        assert spans.op[i] == spans.op[retrieve] == spans.op[translate] > 0
        assert spans.start[translate] <= spans.start[retrieve] <= spans.start[i]
        assert spans.end[i] <= spans.end[retrieve] <= spans.end[translate]
    assert (spans.self_time >= -1e-9).all()
    assert outcome.metrics["retrieval.vector_path_share"] == 1.0
    assert outcome.metrics["index.vector_topk_calls"] == 1.0


def test_run_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

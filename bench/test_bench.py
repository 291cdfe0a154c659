"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench

They run every workload at smoke size, prove that each oracle notices an
injected fault, that tracing leaves reports byte-identical, and that the
tracer puts every patched attribute back.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import inputs
import oracle
import tracer
import worker  # puts the checkout's src/ on sys.path

from adoptindex import inference, tdist  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def smoke_job(workload: str, tmp_path: Path, seed: int = 3):
    made = inputs.make(workload, seed, tmp_path, smoke=True)
    job = json.loads(json.dumps(made.job))
    worker.prepare(job)
    return made, job


@contextmanager
def replaced_everywhere(original, replacement):
    """Rebind every package-level binding of ``original`` for the duration."""
    patched = []
    for mod in tracer.package_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                patched.append((mod, name))
                setattr(mod, name, replacement)
    try:
        yield
    finally:
        for mod, name in patched:
            setattr(mod, name, original)


def _scaled_variance(*args, **kwargs):
    v = FAULTS["variance"][0](*args, **kwargs)
    return dataclasses.replace(v, value=v.value * 1.01, contributions=v.contributions * 1.01)


def _point_interval(index, variance, level, df):
    ci = FAULTS["interval"][0](index, variance, level, df)
    return dataclasses.replace(ci, lower=index.value, upper=index.value)


def _zero_pvalue(*args, **kwargs):
    return 0.0


# fault name -> (original, replacement, {workload: op keys that must fail});
# None means every operation of the workload must fail
FAULTS = {
    "variance": (inference.index_variance, _scaled_variance, {
        "ingest": {"compute", "test-two", "test-one"},
        "montecarlo": {"variance-ratio"},
        "loo-scan": None,
    }),
    "interval": (inference.confidence_interval, _point_interval, {
        "ingest": {"compute"},
        "montecarlo": {"coverage"},
    }),
    "pvalue": (tdist.student_t_pvalue, _zero_pvalue, {
        "ingest": {"test-two", "test-one"},
        "montecarlo": {"size"},
        "loo-scan": None,
    }),
}
FAULT_CASES = [(f, w) for f, (_, _, hit) in FAULTS.items() for w in hit]


@pytest.mark.parametrize("fault,workload", FAULT_CASES)
def test_oracle_catches_injected_fault(fault, workload, tmp_path):
    made, job = smoke_job(workload, tmp_path)
    clean = worker.run_round(job, 0, None)
    assert oracle.check(made, [clean])[1] == []
    original, replacement, hit = FAULTS[fault]
    with replaced_everywhere(original, replacement):
        faulty = worker.run_round(job, 0, None)
    attempted, failures = oracle.check(made, [faulty])
    expected = hit[workload]
    want = attempted if expected is None else len(expected)
    failed_keys = {op["key"] for op in faulty["ops"]
                   if oracle.check(made, [{"ops": [op]}])[1]}
    if expected is not None:
        assert expected <= failed_keys, failures
    assert len(failures) >= want, failures


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_identical_with_tracing_on_and_off(workload, tmp_path):
    _, job = smoke_job(workload, tmp_path)
    plain = worker.run_round(job, 0, None)
    spans = tracer.Tracer()
    traced = worker.run_round(job, 0, spans)
    assert [op["out"] for op in traced["ops"]] == [op["out"] for op in plain["ops"]]
    if workload == "ingest":
        # the CLI's --format structured text, byte for byte
        assert all(isinstance(op["out"]["stdout"], str) for op in traced["ops"])
    assert spans.spans, "tracing recorded no spans"


def test_tracer_restores_every_patched_attribute(tmp_path):
    before = tracer.bindings_snapshot()
    original = inference.estimate_moments
    spans = tracer.Tracer()
    spans.install()
    try:
        # the from-import binding in inference is patched, not only the home module's
        assert inference.estimate_moments.__wrapped__ is original
        assert tracer.bindings_snapshot() != before
    finally:
        spans.uninstall()
    assert tracer.bindings_snapshot() == before


def test_self_times_account_for_traced_time(tmp_path):
    _, job = smoke_job("loo-scan", tmp_path)
    spans = tracer.Tracer()
    worker.run_round(job, 0, spans)
    path = tmp_path / "trace.npz"
    spans.save(str(path))
    summary = tracer.summarize(str(path))
    layers = sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + summary["bench.self_s"] == pytest.approx(summary["bench.s"], rel=1e-9)
    assert summary["inference.one_sample_test.calls"] == job["block"]
    assert summary["domain.without_row.rows"] == job["block"] * job["dataset"].n


def test_missing_target_reports_zero_calls(monkeypatch, tmp_path):
    monkeypatch.delattr(tracer.sys.modules["adoptindex.domain"].AdoptionDataset, "without_row")
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    path = tmp_path / "trace.npz"
    spans.save(str(path))
    assert tracer.summarize(str(path))["domain.without_row.calls"] == 0.0

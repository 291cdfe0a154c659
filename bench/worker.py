"""Run one workload in a fresh interpreter and record what it did.

Usage: python3 bench/worker.py JOB.json RESULT.jsonl

``run.py`` writes the job (input paths, time budget, trace flag) and
starts this script with BLAS/OpenMP threads pinned to 1. The worker is the
only process that imports adoptindex, from the checkout's ``src/``. It
runs one untimed warm-up round, then timed rounds until the budget is
spent, sampling the host-speed kernel (``hostspeed.py``) between
operations, and writes every output and timing to RESULT.jsonl: one line per
round, then a summary line. Checking the outputs is left to the caller,
outside the timed region.

With tracing on, rounds alternate between untraced and traced, so one run
yields both the per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import adoptindex  # noqa: E402
from adoptindex import cli, inference, simulation, tdist  # noqa: E402
from adoptindex.domain import ModelSpec, PmfSpec, StudySpec  # noqa: E402

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_ROUNDS = 4
KERNEL_EVERY_S = 0.25  # longest stretch of operations between host-speed samples


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, in MB.

    On Linux ``ru_maxrss`` keeps the parent's high-water mark across
    fork and exec, so it would report run.py's own peak; ``VmHWM`` belongs
    to the current address space only. Other systems fall back to
    ``getrusage``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def ingest_round(job: dict, _: int) -> list:
    spec, a, b, bad, row = (job[k] for k in ("spec", "a", "b", "bad", "row"))
    common = ["--spec", spec, "--format", "structured"]
    return [
        ("compute", lambda: _cli(["compute", *common, "--data", a])),
        ("test-two", lambda: _cli(["test-two", *common, "--data-a", a, "--data-b", b])),
        ("test-one", lambda: _cli(["test-one", *common, "--data", a, "--row", row])),
        ("reject", lambda: _cli(["compute", *common, "--data", bad])),
    ]


def _study_spec(models: list[dict]) -> StudySpec:
    return StudySpec(
        [ModelSpec(m["name"], m["m"], m.get("alpha", 1.0), m.get("beta", 1.0)) for m in models]
    )


def montecarlo_round(job: dict, _: int) -> list:
    ops = []
    for study in job["study_list"]:
        def run(study=study) -> dict:
            plan = simulation.SimulationPlan(
                pmf=PmfSpec(study["pmfs"], latent_correlation=study["latent_correlation"]),
                spec=_study_spec(study["models"]),
                n=study["n"],
                replications=study["replications"],
                seed=study["seed"],
                study=study["study"],
            )
            report = simulation.run_study(plan)
            return {"metrics": report.metrics, "replications": report.replications}

        ops.append((study["study"], run))
    return ops


def loo_round(job: dict, block: int) -> list:
    dataset = job["dataset"]
    ids = dataset.row_ids
    first = (block * job["block"]) % len(ids)
    ops = []
    for row in ids[first:first + job["block"]]:
        def run(row=row) -> dict:
            t = inference.one_sample_test(dataset, row_id=row)
            return {"statistic": t.statistic, "df": t.df, "p_value": t.p_value,
                    "reject": t.reject}

        ops.append((row, run))
    return ops


def prepare(job: dict) -> None:
    """Load what a round needs but a user would not pay per call."""
    if job["workload"] == "montecarlo":
        job["study_list"] = json.loads(Path(job["studies"]).read_text())["studies"]
    elif job["workload"] == "loo-scan":
        loaded = cli.load_spec(job["spec"])
        job["dataset"] = cli.load_dataset(job["data"], loaded["spec"], loaded["offset_flags"])


ROUNDS = {"ingest": ingest_round, "montecarlo": montecarlo_round, "loo-scan": loo_round}


def _quantile_cache():
    """The original lru-cached quantile, or None once a change drops the cache."""
    fn = getattr(tdist, "student_t_quantile", None)
    return fn if hasattr(fn, "cache_clear") else None


def run_round(job: dict, block: int, tracer: Tracer | None) -> dict:
    cache = _quantile_cache()
    if cache is not None:
        # a CLI user pays the quantile cache once per process, so every
        # timed round starts cold
        cache.cache_clear()
    ops = ROUNDS[job["workload"]](job, block)
    records = []
    kernel_s = [hostspeed.kernel()]
    if tracer is not None:
        tracer.install()
    try:
        since_kernel = 0.0
        for key, call in ops:
            t0 = time.perf_counter()
            with tracer.op() if tracer is not None else nullcontext():
                try:
                    out, error = call(), None
                except (Exception, SystemExit) as exc:  # counted as a failed operation
                    out, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            records.append({"key": key, "s": seconds, "out": out, "error": error})
            since_kernel += seconds
            if since_kernel >= KERNEL_EVERY_S:
                kernel_s.append(hostspeed.kernel())
                since_kernel = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    kernel_s.append(hostspeed.kernel())
    info = cache.cache_info() if cache is not None else None
    return {
        "traced": tracer is not None, "wall_s": sum(r["s"] for r in records),
        "kernel_s": statistics.median(kernel_s), "ops": records,
        "quantile_hits": info.hits if info else 0,
        "quantile_misses": info.misses if info else 0,
    }


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    prepare(job)
    tracer = Tracer() if job["trace"] else None
    run_round(job, 0, None)  # warm-up: imports, page cache, allocator
    deadline = time.perf_counter() + job["seconds"]
    # one JSON line per round, written when it ends, so the worker's memory
    # does not grow with the number of rounds a run fits in
    with open(result_path, "w", encoding="utf-8") as out:
        i = 0
        while time.perf_counter() < deadline or i < MIN_ROUNDS:
            traced = tracer is not None and i % 2 == 1
            # traced runs give each block one untraced and one traced pass
            block = i // 2 if tracer is not None else i
            out.write(json.dumps(run_round(job, block, tracer if traced else None)) + "\n")
            i += 1
        summary = {
            "peak_rss_mb": peak_rss_mb(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "adoptindex": getattr(adoptindex, "__version__", "unknown"),
        }
        out.write(json.dumps(summary) + "\n")
    if tracer is not None:
        tracer.save(str(Path(result_path).with_suffix(".npz")))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

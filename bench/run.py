"""adoptindex benchmark: one command per workload, outputs checked by oracles.

    python3 bench/run.py --workload {ingest,montecarlo,loo-scan} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed. The steps of one run:

1. generate the workload's inputs from ``--seed`` (``inputs.py``) into a
   scratch directory under ``.bench_work/`` in the checkout;
2. time a fresh interpreter importing ``adoptindex.cli`` several times
   (``setup_s``, the start-up every CLI call pays);
3. run the workload in one fresh worker process (``worker.py``) with
   BLAS/OpenMP pinned to one thread, for ``--seconds`` of timed rounds;
4. check every recorded output against the oracles (``oracle.py``),
   outside the timed region;
5. print one line per metric, then, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the JSON metrics are the end-to-end metrics of
BENCHMARK.json, with times rescaled to reference seconds by the host-speed
kernel in ``hostspeed.py``; the raw wall-clock figures and the workload's
own metrics (rows/s per CLI command, replications/s per study, tests/s)
are printed on the lines before it.
With ``--trace 1`` the worker alternates untraced and traced rounds and
the JSON metrics are the per-layer metrics, per traced round.
``--smoke`` shrinks every input so a run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = tuple(inputs.MAKERS)
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

# Per-workload metrics printed before the JSON line: (name, unit, better,
# operation key or None for every operation, work units per operation or
# None to report the operation's seconds). Each is a median over rounds.
def _reps(study: str):
    return lambda mat: next(s["replications"] for s in mat["studies"] if s["study"] == study)


DETAIL = {
    "ingest": [
        ("compute_rows_per_s", "rows/s", "higher", "compute", lambda mat: len(mat["a"])),
        ("test_two_rows_per_s", "rows/s", "higher", "test-two",
         lambda mat: len(mat["a"]) + len(mat["b"])),
        ("test_one_s", "s", "lower", "test-one", None),
        ("reject_s", "s", "lower", "reject", None),
    ],
    "montecarlo": [
        ("coverage_reps_per_s", "1/s", "higher", "coverage", _reps("coverage")),
        ("size_reps_per_s", "1/s", "higher", "size", _reps("size")),
        ("copula_reps_per_s", "1/s", "higher", "variance-ratio", _reps("variance-ratio")),
    ],
    "loo-scan": [("loo_tests_per_s", "1/s", "higher", None, lambda mat: 1)],
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds for a fresh interpreter to import the CLI module.

    ``Popen.wait`` with a timeout polls with sleeps of up to 50 ms, which
    would quantise the measurement; a blocking wait with a kill timer
    returns as soon as the child exits.
    """
    times = []
    for _ in range(samples):
        kernel_before = hostspeed.kernel()
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", "import adoptindex.cli"],
                                 env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(60.0, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        kernel_s = 0.5 * (kernel_before + hostspeed.kernel())
        times.append((wall, hostspeed.to_reference(wall, kernel_s)))
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return times


def run_worker(job: dict, work: Path, timeout: float) -> dict:
    job_path, result_path = work / "job.json", work / "result.jsonl"
    job_path.write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
        env=child_env(), cwd=ROOT, check=True, timeout=timeout,
    )
    *rounds, summary = (json.loads(line) for line in result_path.read_text().splitlines())
    return dict(summary, rounds=rounds)


def revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def work_items(workload: str, inp: inputs.Inputs, rnd: dict) -> int:
    """Units of user-visible work in one round: rows ingested, replications, tests."""
    if workload == "ingest":
        # compute A, test-two A+B, test-one A, reject A'
        return 4 * len(inp.matrices["a"]) + len(inp.matrices["b"])
    if workload == "montecarlo":
        return sum(s["replications"] for s in inp.matrices["studies"])
    return len(rnd["ops"])


def detail_metrics(workload: str, inp: inputs.Inputs, rounds: list[dict]) -> dict:
    out = {}
    for name, unit, better, key, work in DETAIL[workload]:
        sec = statistics.median(
            op["s"] for r in rounds for op in r["ops"] if key in (None, op["key"])
        )
        out[name] = (sec if work is None else work(inp.matrices) / sec, unit, better)
    return out


def per_layer_metrics(result: dict, trace_path: Path) -> dict:
    rounds = result["rounds"]
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = 1.0 / len(traced)
    spans = tracer.summarize(str(trace_path))
    metrics = {}
    for spec in load_benchmark()["per_layer"]:
        name = spec["name"]
        if name == "tdist.student_t_quantile.hits":
            value = statistics.mean(r["quantile_hits"] for r in traced)
        elif name == "tdist.student_t_quantile.misses":
            value = statistics.mean(r["quantile_misses"] for r in traced)
        elif name == "trace.round_s":
            value = statistics.median(r["wall_s"] for r in traced)
        elif name == "trace.untraced_round_s":
            value = statistics.median(r["wall_s"] for r in plain)
        elif name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain))
        elif name == "trace.layer_share":
            layers = sum(spans[f"{layer}.self_s"] for layer in tracer.LAYERS)
            value = layers / sum(r["wall_s"] for r in traced)
        else:
            value = spans[name] * per_round
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "adoptindex" / "__init__.py").is_file():
        print(f"error: no adoptindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inp = inputs.make(args.workload, args.seed, work, smoke=args.smoke)
        setup = measure_setup(2 if args.smoke else SETUP_SAMPLES)
        job = dict(inp.job, seconds=args.seconds, trace=bool(args.trace))
        result = run_worker(job, work, DEADLINE_S - (time.perf_counter() - started))
        rounds = result["rounds"]
        attempted, failures = oracle.check(inp, rounds)
        print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
              f"adoptindex={result['adoptindex']} python={result['python']} numpy={result['numpy']} "
              f"nproc={os.cpu_count()} rev={revision()}")
        for message in failures[:10]:
            print(f"# FAIL {message}", file=sys.stderr)
        print(f"# failed_fraction = {len(failures) / attempted:.6g} "
              f"({len(failures)} of {attempted} operations)")
        if args.trace:
            metrics = per_layer_metrics(result, work / "result.npz")
        else:
            plain = [r for r in rounds if not r["traced"]]
            detail = detail_metrics(args.workload, inp, plain)
            detail["work_per_s"] = (statistics.median(
                work_items(args.workload, inp, r) / r["wall_s"] for r in plain
            ), "1/s", "higher")
            for name, (value, unit, better) in detail.items():
                print(f"# {name} = {value:.6g} {unit} (wall clock, {better} is better, "
                      f"median of {len(plain)} rounds)")
            print(f"# setup_wall_s = {statistics.median(w for w, _ in setup):.6g} s "
                  f"(wall clock, lower is better, median of {len(setup)} samples)")
            values = {
                "setup_s": statistics.median(ref for _, ref in setup),
                "peak_rss_mb": result["peak_rss_mb"],
                "work_per_ref_s": statistics.median(
                    work_items(args.workload, inp, r)
                    / hostspeed.to_reference(r["wall_s"], r["kernel_s"])
                    for r in plain
                ),
            }
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in load_benchmark()["end_to_end"]
            }
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of sosharmonics: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload grid-map|expansion|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it, starting
with '#', give the raw (uncorrected) figures, the tail percentile and the
host drift seen during the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
from reference import NOMINAL_S, corrected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("grid-map", "expansion", "certify")
SETUP_SAMPLES = 10  # fresh interpreters that only set up; the main worker adds one
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
VERIFY_GROUPS = (
    "trig_identity_checks", "derivative_checks", "series_identity_checks",
    "spherical_series_checks", "metric_checks", "transform_checks", "anchor_checks",
    "table_checks", "spherical_reduction_checks", "ode_checks", "structure_checks",
    "harmonicity_checks", "fit_checks",
)
EVAL_V_DEGREES = (6, 12, 24, 60)


def _child_env() -> dict:
    env = dict(os.environ)
    # one thread of load: BLAS/OpenMP pools at one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run_child(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{' '.join(cmd[:3])} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[:4])} exited {proc.returncode}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _worker(rundir: str, workload: str, *extra: str, timeout: float) -> float:
    """Start a worker and wait for it; returns its start time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), rundir, workload, *extra]
    t_spawn = time.perf_counter()
    _run_child(cmd, timeout, stdout=subprocess.DEVNULL)
    return t_spawn


def measure_setup(rundir: str, workload: str) -> list[float]:
    """Drift-corrected set-up times of fresh interpreters, in seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t_spawn = _worker(rundir, workload, "--setup-only", timeout=60)
        (name,) = [f for f in os.listdir(rundir) if f.startswith("setup-")]
        with open(os.path.join(rundir, name), encoding="utf-8") as fh:
            rec = json.load(fh)
        os.remove(os.path.join(rundir, name))
        samples.append(corrected(rec["ready"] - t_spawn, *rec["refs"]))
    return samples


def import_times() -> tuple[float, float]:
    """(numpy, sosharmonics own) cumulative import ms from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import sys; sys.path.insert(0, 'src'); import sosharmonics.cli"]
    runs = []
    for _ in range(3):
        err = _run_child(cmd, 60, stderr=subprocess.PIPE, text=True).stderr
        numpy_us = own_us = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            name = name.strip()
            if name == "numpy":
                numpy_us = int(cumulative)
            elif depth == 0 and name.split(".")[0] == "sosharmonics":
                own_us += int(cumulative)
        runs.append((numpy_us / 1e3, (own_us - numpy_us) / 1e3))
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return f"median only, n={n}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return f"p{p} {q * 1e3:.3f} ms (n={n}, {n - sum(v <= q for v in values)} beyond)"
    return f"median only, n={n}"


def per_layer(trace: dict, n_ops: int, factor: float, overhead_pct: float, imports) -> dict:
    """Per-op layer metrics from the traced rounds."""
    fn = trace["functions"]
    us = factor / 1e3 / n_ops  # ns totals -> corrected us per op

    def calls(name):
        return fn.get(name, {"calls": 0})["calls"] / n_ops

    def self_us(name):
        return fn.get(name, {"self_ns": 0})["self_ns"] * us

    m = {}
    m["series.eval_series.calls"] = (calls("series.eval_series"), "count")
    m["series.terms"] = (trace["series_terms"] / n_ops, "count")
    series_self = trace["series_self_ns"]
    m["series.eval_series.self_us.small"] = (series_self.get("SmallNu", 0) * us, "us")
    m["series.eval_series.self_us.large"] = (series_self.get("LargeNu", 0) * us, "us")
    terms = trace["series_terms"]
    m["series.ns_per_term"] = (sum(series_self.values()) * factor / terms if terms else 0.0, "ns")
    for name in ("trig.trig_auto", "coords.compute_W", "legendre.t_poly", "legendre.q0",
                 "harmonic.eval_V_cartesian"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("trig.trig_from_W", "trig.trig_from_W_robust", "coords.cartesian_to_sos",
                 "coords.metrics_at", "coords.sos_to_cartesian", "legendre.p_poly",
                 "legendre.eval_poly", "legendre.eval_q", "harmonic.eval_V", "harmonic.s_at_point"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_us"] = (self_us(name), "us")
    by_degree = {int(k): v for k, v in trace["eval_V_self_ns_by_degree"].items()}
    for n in EVAL_V_DEGREES:
        m[f"harmonic.eval_V.self_us.n{n}"] = (by_degree.get(n, 0) * us, "us")
    m["harmonic.fit_boundary.self_ms"] = (self_us("harmonic.fit_boundary") / 1e3, "ms")
    cache = trace.get("cache")
    if cache is not None:
        lookups = cache["hits"] + cache["misses"]
        m["legendre.cache_entries"] = (float(cache["entries"]), "count")
        m["legendre.cache_hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    else:
        m["legendre.cache_entries"] = (0.0, "count")
        m["legendre.cache_hit_ratio"] = (0.0, "ratio")
    for group in VERIFY_GROUPS:
        incl = fn.get(f"verify.{group}", {"incl_ns": 0})["incl_ns"]
        m[f"verify.{group}.ms"] = (incl * us / 1e3, "ms")
    cli_self = sum(rec["self_ns"] for name, rec in fn.items() if name.startswith("cli."))
    m["cli.self_ms"] = (cli_self * us / 1e3, "ms")
    m["import.numpy_ms"] = (imports[0], "ms")
    m["import.sosharmonics_ms"] = (imports[1], "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    rundir = os.path.join(OUT_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        spec = inputs.make(workload, seed)
        with open(os.path.join(rundir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setups = [] if traced else measure_setup(rundir, workload)
        imports = import_times() if traced else None
        t_spawn = _worker(rundir, workload, "--seconds", str(seconds), "--trace", "1" if traced else "0",
                          timeout=seconds + 120)
        with open(os.path.join(rundir, "timings.json"), encoding="utf-8") as fh:
            timings = json.load(fh)
        with open(os.path.join(rundir, "results.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        reasons = checks.check(workload, spec, records)
        if traced:
            shutil.copyfile(os.path.join(rundir, "spans.txt"), os.path.join(OUT_DIR, f"spans-{workload}.txt"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    ops, refs = timings["ops"], timings["refs"]
    if len(ops) != len(records):
        raise SystemExit("worker timings and outputs disagree")
    # each op is corrected by the kernel bursts timed just before and after it
    factors = [corrected(1.0, *refs[i], *refs[i + 1]) for i in range(len(ops))]
    kernel_s = [r for burst in refs for r in burst]
    op_s = [op[1] * f for op, f in zip(ops, factors)]
    failed = [i for i, r in enumerate(reasons) if r is not None]
    # only the known-fault slice of expansion may fail
    correct = all(workload == "expansion" and spec["ops"][ops[i][0]]["label"] == inputs.FAULT_LABEL
                  for i in failed)
    for i in failed[:3]:
        print(f"# op {i} failed: {reasons[i]}")

    plain = [c for c, op in zip(op_s, ops) if not op[2]]
    print(f"# {workload} seed {seed}: {len(ops)} ops, {len(failed)} failed, "
          f"{'correct' if correct else 'INCORRECT'}")
    print(f"# op time (corrected): p50 {statistics.median(plain) * 1e3:.3f} ms; tail {_tail(plain)}")
    raw = [op[1] for op in ops if not op[2]]
    print(f"# op time (raw): p50 {statistics.median(raw) * 1e3:.3f} ms; "
          f"reference kernel p50 {statistics.median(kernel_s) * 1e3:.3f} ms, "
          f"range {min(kernel_s) * 1e3:.3f}-{max(kernel_s) * 1e3:.3f} ms (nominal {NOMINAL_S * 1e3:.3f} ms)")

    if traced:
        traced_ops = [i for i, op in enumerate(ops) if op[2]]
        t_factor = statistics.median(factors[i] for i in traced_ops)
        overhead = (statistics.median(op_s[i] for i in traced_ops) / statistics.median(plain) - 1) * 100
        print(f"# tracing: {timings['trace']['spans']} spans over {len(traced_ops)} traced ops, "
              f"overhead {overhead:.1f}% of the untraced op p50")
        metrics = per_layer(timings["trace"], len(traced_ops), t_factor, overhead, imports)
    else:
        setups.append(corrected(timings["ready"] - t_spawn, *timings["setup_refs"]))
        print(f"# setup (corrected) samples: {', '.join(f'{s:.4f}' for s in setups)} s")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_s) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": timings["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sosharmonics", "__init__.py")):
        print(f"error: no sosharmonics package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

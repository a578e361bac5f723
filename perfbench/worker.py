"""The process that makes the program's calls.

    python3 perfbench/worker.py RUNDIR WORKLOAD --setup-only
    python3 perfbench/worker.py RUNDIR WORKLOAD --seconds S --trace 0|1

It imports the package from `src/` of the checkout, loads the inputs that
run.py wrote to RUNDIR/inputs.json and, with --setup-only, records the
moment the first operation could start and exits.  Otherwise it runs one
untimed warm-up round, then whole rounds of operations until S seconds
have passed, timing each operation and the reference kernel between
operations, and writes RUNDIR/timings.json.  With --trace 1 the rounds
alternate between untraced and traced, so the tracing overhead is measured
in the same run.  Outputs go to files in RUNDIR/out for run.py to check;
an operation that raises has its exception recorded as its output, and
run.py counts it as failed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# A traced run stops early once it holds this many spans, to bound its memory
# and its span file; per-op averages need no more.
SPAN_CAP = 300_000
# Reference kernel timings between two operations.  One 5 ms timing of the
# host's speed varies by ~10 %, so a long op is corrected by the median of
# several; a burst stays a few percent of a grid-map or certify op.
REF_BURST = {"grid-map": 3, "expansion": 1, "certify": 9}


def _import_program():
    sys.path.insert(0, SRC)
    import sosharmonics

    if os.path.dirname(os.path.abspath(sosharmonics.__file__)) != os.path.join(SRC, "sosharmonics"):
        raise SystemExit(f"sosharmonics imported from {sosharmonics.__file__}, not from {SRC}")
    from sosharmonics import cli, coords, harmonic  # cli imports verify as well

    return cli, coords, harmonic


def grid_round(spec: dict, rundir: str, cli) -> list:
    cfg_path = os.path.join(rundir, "config.json")
    coeffs_path = os.path.join(rundir, "coeffs.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(spec["config"], fh)
    with open(coeffs_path, "w", encoding="utf-8") as fh:
        json.dump(spec["coeffs"], fh)
    ops = []
    for k, win in enumerate(spec["windows"]):
        base = [
            "grid", "--config", cfg_path, "--coeffs", coeffs_path,
            "--x-min", "0", "--x-max", repr(win["x_max"]),
            "--z-min", "0", "--z-max", repr(win["z_max"]),
            "--nx", str(spec["nx"]), "--nz", str(spec["nz"]), "--quantity", "V", "-o",
        ]

        def op(path, base=base):
            return {"exit": cli.main(base + [path])}

        ops.append((k, op, ".csv"))
    return ops


def expansion_round(spec: dict, coords, harmonic) -> list:
    ops = []
    for k, op_spec in enumerate(spec["ops"]):
        jobs = [
            (
                [tuple(smp) for smp in job["samples"]],
                job["degree"],
                coords.SystemConfig(mu=job["mu"], R0=1.0),
                job["second_kind"],
                [tuple(p) for p in job["points"]],
            )
            for job in op_spec["jobs"]
        ]

        def op(path, jobs=jobs):
            out = []
            for samples, degree, cfg, second_kind, points in jobs:
                sol, diag = harmonic.fit_boundary(samples, degree, cfg, include_second_kind=second_kind)
                values = [harmonic.eval_V(sol, R, s) for R, s in points]
                out.append({"a": list(sol.a), "b": list(sol.b), "condition": diag.condition, "V": values})
            return {"jobs": out}

        ops.append((k, op, None))
    return ops


def certify_round(spec: dict, rundir: str, cli) -> list:
    cfg_path = os.path.join(rundir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(spec["config"], fh)
    base = ["verify", "--config", cfg_path, "--level", "quick", "--json"]

    def op(path):
        return {"exit": cli.main(base + [path])}

    return [(0, op, ".json")]


def call(op, path):
    """One operation's outputs; an exception it raises is its output too."""
    try:
        return op(path)
    except Exception as exc:  # counted as a failed operation by checks.py
        return {"error": f"{type(exc).__name__}: {exc}"}


def _cache_info():
    """Counters of legendre's per-mu coefficient cache, while it exists."""
    from sosharmonics import legendre

    cache = getattr(legendre, "_recursion_coeffs", None)
    return cache.cache_info() if hasattr(cache, "cache_info") else None


def setup(rundir: str, workload: str) -> list:
    """Import the package and load the inputs; returns the round of ops."""
    cli, coords, harmonic = _import_program()
    with open(os.path.join(rundir, "inputs.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if workload == "grid-map":
        return grid_round(spec, rundir, cli)
    if workload == "expansion":
        return expansion_round(spec, coords, harmonic)
    return certify_round(spec, rundir, cli)


def main(argv: list[str]) -> int:
    rundir, workload = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    ops = setup(rundir, workload)
    ready = time.perf_counter()

    from reference import Reference

    ref = Reference()
    setup_refs = [ref.seconds() for _ in range(3)]
    if setup_only:
        with open(os.path.join(rundir, f"setup-{os.getpid()}.json"), "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "refs": setup_refs}, fh)
        return 0

    seconds = float(argv[argv.index("--seconds") + 1])
    traced = argv[argv.index("--trace") + 1] == "1"
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()

    outdir = os.path.join(rundir, "out")
    os.makedirs(outdir, exist_ok=True)
    warm = os.path.join(outdir, "warm-up")
    for k, op, suffix in ops:
        call(op, warm + (suffix or ""))
    cache_before = _cache_info()

    def burst():
        return [ref.seconds() for _ in range(REF_BURST[workload])]

    records = []  # [op index in the round, seconds, traced]
    refs = [burst()]  # refs[i] and refs[i + 1] bracket op i
    n = 0
    round_no = 0
    t_end = time.perf_counter() + seconds
    with open(os.path.join(rundir, "results.jsonl"), "w", encoding="utf-8") as results:
        while True:
            in_trace = traced and round_no % 2 == 1
            if in_trace:
                tracer.install()
            for k, op, suffix in ops:
                path = os.path.join(outdir, f"op-{n}{suffix}") if suffix else None
                t0 = time.perf_counter()
                out = call(op, path)
                dt = time.perf_counter() - t0
                refs.append(burst())
                records.append([k, dt, in_trace])
                out.update({"n": n, "k": k, "path": path})
                results.write(json.dumps(out) + "\n")
                n += 1
            if in_trace:
                tracer.remove()
            round_no += 1
            if traced and round_no % 2 == 1:
                continue  # end on a traced round
            if time.perf_counter() >= t_end or (traced and len(tracer.spans) >= SPAN_CAP):
                break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {"ready": ready, "setup_refs": setup_refs, "ops": records, "refs": refs, "peak_rss_kb": peak_kb}
    if tracer is not None:
        payload["trace"] = tracer.aggregate()
        payload["trace"]["spans"] = len(tracer.spans)
        cache_after = _cache_info()
        if cache_before is not None:
            payload["trace"]["cache"] = {
                "hits": cache_after.hits - cache_before.hits,
                "misses": cache_after.misses - cache_before.misses,
                "entries": cache_after.currsize,
            }
        tracer.write(os.path.join(rundir, "spans.txt"))
    with open(os.path.join(rundir, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

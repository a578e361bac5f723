"""Checks of each operation's outputs against the oracle values in the spec.

Every check returns None when the output is right, else the reason.

Tolerances:
- grid-map V: 1e-9 of the oracle's sum of absolute terms.  The program's
  path (nu root finding, series or robust s, power-basis P_n/T_n at degree
  8) agrees to ~1e-13 of it; the tolerance only has to separate that from
  a wrong value.
- expansion coefficients: 1e-6 absolute (the known coefficients are
  O(1)).  The fit's design condition reaches ~4e7 at degree 24 and
  mu = 20, and with the power basis's own error the recovered coefficients
  are off by up to ~1e-7 there.
- expansion interior V: 1e-8 of max(1, |V|) over the job's points; up to
  ~5e-11 is seen at degree 24.
The degree-60 slice is off by O(1) or more in both, far outside either.
"""

from __future__ import annotations

import json

GRID_TOL = 1e-9
COEF_TOL = 1e-6
V_TOL = 1e-8


def grid_op(rec: dict, window: dict, spec: dict) -> str | None:
    if rec["exit"] != 0:
        return f"grid exited {rec['exit']}"
    nx, nz = spec["nx"], spec["nz"]
    with open(rec["path"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "x,z,value" or len(lines) != nx * nz + 1:
        return "unexpected CSV layout"
    for idx, line in enumerate(lines[1:]):
        x, z, value = line.split(",")
        j, i = divmod(idx, nx)
        if float(x) != window["x_max"] * i / (nx - 1) or float(z) != window["z_max"] * j / (nz - 1):
            return f"row {idx}: unexpected cell ({x}, {z})"
        ref = window["oracle"][idx]
        if ref is None or value == "":
            if (ref is None) != (value == ""):
                return f"cell ({x}, {z}): value {value!r}, oracle {ref}"
            continue
        ref_v, scale = ref
        if abs(float(value) - ref_v) > GRID_TOL * scale:
            return f"cell ({x}, {z}): V {value} vs oracle {ref_v!r} (scale {scale:.3g})"
    return None


def expansion_op(rec: dict, op_spec: dict) -> str | None:
    for got, job in zip(rec["jobs"], op_spec["jobs"]):
        tag = f"degree {job['degree']} mu {job['mu']:.6g}"
        if len(got["a"]) != len(job["a"]) or len(got["b"]) != len(job["b"]):
            return f"{tag}: coefficient counts differ"
        coef_err = max(abs(g - t) for g, t in zip(got["a"] + got["b"], job["a"] + job["b"]))
        if coef_err > COEF_TOL:
            return f"{tag}: coefficient error {coef_err:.3g} (condition {got['condition']:.3g})"
        scale = max([1.0] + [abs(v) for v in job["oracle"]])
        v_err = max(abs(g - t) for g, t in zip(got["V"], job["oracle"]))
        if v_err > V_TOL * scale:
            return f"{tag}: interior V error {v_err:.3g}"
    return None


def certify_op(rec: dict) -> str | None:
    if rec["exit"] != 0:
        return f"verify exited {rec['exit']}"
    with open(rec["path"], encoding="utf-8") as fh:
        report = json.load(fh)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if not report["passed"] or failed or not report["checks"]:
        return f"verify report failed: {failed}"
    return None


def check(workload: str, spec: dict, records: list[dict]) -> list[str | None]:
    """Reason of failure (or None) for every operation, in order."""
    reasons = []
    for r in records:
        if "error" in r:
            reasons.append(f"raised {r['error']}")
        elif workload == "grid-map":
            reasons.append(grid_op(r, spec["windows"][r["k"]], spec))
        elif workload == "expansion":
            reasons.append(expansion_op(r, spec["ops"][r["k"]]))
        else:
            reasons.append(certify_op(r))
    return reasons

"""The fault table: the smallest fault that `verify` catches.

A fault multiplies one kernel output, or the step coefficients A or B of
the Legendre recursion (`legendre._step_tables`) from some degree on, by
(1 + eps).  Its threshold at a configuration (mu, level), R0 = 1, is the
smallest decade eps in 1e-15 ... 1e-2 at which `verify.run_suite` fails:
some check fails, or the run raises.  `THRESHOLDS` holds the committed
thresholds as exponents of ten, None where no eps of the range is caught.
The test fails if `run_suite` passes at a committed threshold, that is, if
a threshold rose; a lower threshold is a stronger `verify`, to be committed.

Run as a script, the module measures every threshold afresh by bisection
over the decades and prints the table as markdown, with the checks that
fail at each mu = 2 full threshold, and its run time:

    PYTHONPATH=src python tests/test_fault_table.py
"""

import dataclasses
import sys
import time
import warnings

import pytest

from sosharmonics import coords, legendre, trig, verify
from sosharmonics.coords import SystemConfig

DECADES = [float(f"1e{k}") for k in range(-15, -1)]
CONFIGS = [(mu, level) for level in ("quick", "full") for mu in (0.0, 2.0, 20.0, 200.0)]
# the length of a faulted step table: longer than any degree `verify` sums,
# so that `_step_tables` never replaces it with a clean one
STEP_TABLE_LENGTH = 1024


def _patch_every_binding(mp, fn, replacement):
    for name, module in list(sys.modules.items()):
        if name == "sosharmonics" or name.startswith("sosharmonics."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    mp.setattr(module, attr, replacement)


def _output(module, name, scale):
    """The fault that passes the output of module.name through scale(out, 1 + eps)."""

    def install(mp, eps):
        fn = getattr(module, name)
        _patch_every_binding(mp, fn, lambda *args, **kwargs: scale(fn(*args, **kwargs), 1.0 + eps))

    return install


def _field(k):
    """scale for the k-th entry of a tuple output."""
    return lambda out, f: (*out[:k], out[k] * f, *out[k + 1:])


def _metric(field):
    return lambda out, f: dataclasses.replace(out, **{field: getattr(out, field) * f})


def _beyond_first_two(kind):
    """scale for the degree n >= 2 entries of the P (kind 0) or Q (kind 1) list of `_forward`."""

    def scale(out, f):
        out = list(out)
        out[kind] = out[kind][:2] + [v * f for v in out[kind][2:]]
        return tuple(out)

    return scale


def _step(table, degree):
    """The fault that installs step tables whose A (table 0) or B (table 1)
    entries m >= degree are scaled."""

    def install(mp, eps):
        steps = [list(t) for t in legendre._step_tables(STEP_TABLE_LENGTH)]
        steps[table][degree:] = [c * (1.0 + eps) for c in steps[table][degree:]]
        mp.setattr(legendre, "_STEPS", tuple(map(tuple, steps)))

    return install


FAULTS = {
    "closed_trig h_R": _output(trig, "closed_trig", _field(0)),
    "closed_trig f_C": _output(trig, "closed_trig", _field(1)),
    "closed_trig s": _output(trig, "closed_trig", _field(2)),
    "solve_logit x": _output(trig, "solve_logit", lambda out, f: out * f),
    "_metrics h_nu": _output(coords, "_metrics", _metric("h_nu")),
    "_metrics J": _output(coords, "_metrics", _metric("jacobian")),
    "_metrics J/h_R^2": _output(coords, "_metrics", _metric("jac_over_hR2")),
    "compute_W": _output(coords, "compute_W", lambda out, f: out * f),
    "solid_sum": _output(legendre, "solid_sum", lambda out, f: out * f),
    "q0_meridional q": _output(legendre, "q0_meridional", _field(0)),
    "_forward Q_n, n >= 2": _output(legendre, "_forward", _beyond_first_two(1)),
    "_forward P_n, n >= 2": _output(legendre, "_forward", _beyond_first_two(0)),
    "cartesian_closed R": _output(coords, "cartesian_closed", _field(0)),
    **{
        f"step {'AB'[table]} from degree {degree} on": _step(table, degree)
        for degree in (2, 10, 25, 60, 100)
        for table in (0, 1)
    },
}

# exponent of ten of the threshold at each of CONFIGS, None where 1e-2 passes
THRESHOLDS = {
    "closed_trig h_R": (-12, -12, -12, -12, -12, -12, -12, -12),
    "closed_trig f_C": (-12, -12, -12, -12, -12, -12, -12, -12),
    "closed_trig s": (-13, -12, -12, -13, -13, -12, -12, -13),
    "solve_logit x": (-12, -10, -11, -12, -12, -10, -11, -12),
    "_metrics h_nu": (-12, -10, -10, -10, -12, -10, -10, -10),
    "_metrics J": (-12, -10, -10, -10, -12, -10, -10, -10),
    "_metrics J/h_R^2": (-10, -10, -10, -10, -10, -10, -10, -10),
    "compute_W": (-10, -10, -10, -10, -10, -10, -10, -10),
    "solid_sum": (-11, -11, -11, -11, -11, -11, -11, -11),
    "q0_meridional q": (-11, -11, -10, -10, -11, -10, -10, -10),
    "_forward Q_n, n >= 2": (-9, -9, -9, -9, -9, -9, -9, -9),
    "_forward P_n, n >= 2": (-12, -12, -11, -11, -12, -12, -11, -11),
    "cartesian_closed R": (-9, -9, -9, -9, -9, -9, -9, -9),
    "step A from degree 2 on": (-13, -13, -13, -13, -14, -14, -14, -14),
    "step B from degree 2 on": (-13, -13, -13, -13, -14, -14, -14, -14),
    "step A from degree 10 on": (-13, -13, -13, -13, -14, -14, -14, -14),
    "step B from degree 10 on": (-13, -13, -13, -13, -14, -14, -14, -14),
    "step A from degree 25 on": (-12, -12, -12, -12, -14, -14, -14, -14),
    "step B from degree 25 on": (-12, -12, -12, -12, -14, -14, -14, -14),
    "step A from degree 60 on": (None, None, None, None, -14, -14, -14, -14),
    "step B from degree 60 on": (None, None, None, None, -13, -13, -13, -13),
    "step A from degree 100 on": (None, None, None, None, -11, -11, -11, -11),
    "step B from degree 100 on": (None, None, None, None, -10, -10, -10, -10),
}


def _failed(fault, eps, mu, level):
    """The checks that fail in `run_suite` at mu and level, R0 = 1, with fault
    installed at eps (None for no fault), or the name of the exception it raises."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        # a numpy warning is no verdict of `verify`
        warnings.simplefilter("ignore", RuntimeWarning)
        if fault is not None:
            fault(mp, eps)
        try:
            checks = verify.run_suite(SystemConfig(mu=mu, R0=1.0), level)
        except Exception as exc:
            return [type(exc).__name__]
    return [c.name for c in checks if not c.passed]


def threshold(fault, mu, level):
    """The exponent of the smallest decade at which `run_suite` fails, by
    bisection (a larger fault is taken to fail too), or None."""
    if not _failed(fault, DECADES[-1], mu, level):
        return None
    passes, fails = -1, len(DECADES) - 1
    while fails - passes > 1:
        mid = (passes + fails) // 2
        if _failed(fault, DECADES[mid], mu, level):
            fails = mid
        else:
            passes = mid
    return fails - 15


def test_every_configuration_passes_with_no_fault():
    for mu, level in CONFIGS:
        assert _failed(None, 0.0, mu, level) == [], (mu, level)


@pytest.mark.parametrize("name", list(FAULTS))
def test_no_threshold_rises(name):
    assert len(THRESHOLDS[name]) == len(CONFIGS)
    for (mu, level), exponent in zip(CONFIGS, THRESHOLDS[name]):
        if exponent is not None:
            assert _failed(FAULTS[name], float(f"1e{exponent}"), mu, level), (mu, level, exponent)


def main():
    start = time.perf_counter()
    print("| fault | " + " | ".join(f"mu = {mu:g} {level}" for mu, level in CONFIGS) + " | failing at mu = 2 full |")
    print("|---" * (len(CONFIGS) + 2) + "|")
    for name, fault in FAULTS.items():
        row = [threshold(fault, mu, level) for mu, level in CONFIGS]
        at = row[CONFIGS.index((2.0, "full"))]
        first = ", ".join(_failed(fault, float(f"1e{at}"), 2.0, "full")) if at is not None else "-"
        print(f"| {name} | " + " | ".join("-" if k is None else f"1e{k}" for k in row) + f" | {first} |")
        print(f'    "{name}": {tuple(row)},', file=sys.stderr)
    print(f"\n{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()

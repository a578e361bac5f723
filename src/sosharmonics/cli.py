"""Command-line front end.

Subcommands:
  eval    point record (W, region, metrics, generalized trig, optional V)
  grid    meridional-quadrant CSV of s, V, hR or W
  verify  identity suites; exit 1 on any failed check
  fit     least-squares boundary fit producing a coefficient file

An `eval` record comes from `coords.closed_point` (--R/--nu) or from
`coords.cartesian_point` (--x/--z: the point's own closed R and s, no float
nu); the poles take their closed values there, with W null, as an
overflowing W is (log_W beside it).  V is summed at the point's own
(z, rho) (`coords.closed_meridional`, `eval_V_cartesian`).

The system config {"mu": ..., "R0": ...} always comes from a JSON file; a
coefficient file in the documented JSON format, of the config's mu and R0,
supplies the potential.
Exit codes: 0 ok, 1 verification failure, 2 usage/parse or an unwritable
output file, 3 domain/numeric.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import legendre
from . import verify as verify_mod
from .coords import (
    CartesianPoint,
    SosPoint,
    SystemConfig,
    cartesian_closed,
    cartesian_point,
    cartesian_R_s,
    closed_meridional,
    closed_point,
    config_from_dict,
)
from .errors import SosError
from .harmonic import (
    HarmonicSolution,
    eval_V_cartesian,
    fit_boundary,
    load_solution,
    save_solution,
    solid_V,
    solution_to_dict,
)
from .series import region_of

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Cells per array pass of `grid`: bounds its memory on a large grid
_BLOCK_CELLS = 65536


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Meridional-plane grid in units of R0, quadrant x >= 0, z >= 0."""

    x_min: float
    x_max: float
    z_min: float
    z_max: float
    nx: int
    nz: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.z_min, self.z_max))):
            raise ValueError("require finite bounds")
        if not (self.x_max > self.x_min >= 0.0):
            raise ValueError("require x_max > x_min >= 0")
        if not (self.z_max > self.z_min >= 0.0):
            raise ValueError("require z_max > z_min >= 0")
        if self.nx < 2 or self.nz < 2:
            raise ValueError("require nx, nz >= 2")
        # `_grid_axes` forms (max - min) * i before dividing by n - 1
        if not all(map(math.isfinite, ((self.x_max - self.x_min) * (self.nx - 1),
                                       (self.z_max - self.z_min) * (self.nz - 1)))):
            raise ValueError("require (max - min) * (n - 1) within the float range")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str) -> SystemConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("config must be a JSON object")
        return config_from_dict(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad config file {path}: {exc}") from exc


def _load_coeffs(path: str, cfg: SystemConfig) -> HarmonicSolution:
    """The coefficient file at path, whose mu and R0 must be the config's."""
    try:
        sol = load_solution(path)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad coefficient file {path}: {exc}") from exc
    if sol.cfg != cfg:
        raise UsageError(
            f"coefficient file {path} has mu={_fmt(sol.cfg.mu)} R0={_fmt(sol.cfg.R0)},"
            f" but the config has mu={_fmt(cfg.mu)} R0={_fmt(cfg.R0)}"
        )
    return sol


def _point_record(cfg: SystemConfig, p: SosPoint, s: float, f_C: float, mb, log_w: float) -> dict:
    """The eval record; W = e^(log|W|) with the sign of nu by `compute_W`'s
    exp, null where inf, and log_W = log|W|, null on the equator and axis."""
    with np.errstate(over="ignore"):
        W = math.copysign(float(np.exp(log_w)), p.nu)
    return {
        "R": p.R,
        "nu": p.nu,
        "W": W if math.isfinite(W) else None,
        "log_W": log_w if math.isfinite(log_w) else None,
        "region": "Pole" if log_w == math.inf else region_of(W, cfg.mu).value,
        "h_R": mb.h_R,
        "h_nu": mb.h_nu,
        "jacobian": mb.jacobian,
        "f_S": s * mb.h_R,
        "f_C": f_C,
        "s": s,
    }


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    sol = _load_coeffs(args.coeffs, cfg) if args.coeffs else None
    by_sos = args.R is not None or args.nu is not None
    by_cart = args.x is not None or args.z is not None
    if by_sos == by_cart:
        raise UsageError("give the point either as --R/--nu or as --x/--z")
    if by_sos:
        if args.R is None or args.nu is None:
            raise UsageError("need both --R and --nu")
        p = SosPoint(R=args.R, nu=args.nu)
        point = closed_point(p.R, p.nu, cfg)
    else:
        if args.x is None or args.z is None:
            raise UsageError("need both --x and --z")
        c = CartesianPoint(x=args.x, y=0.0, z=args.z)
        p, *point = cartesian_point(c, cfg)
    record = _point_record(cfg, p, *point)
    if sol is not None:
        s, f_C, mb, _ = point
        V = solid_V(sol, *closed_meridional(p.R, s, f_C, mb.h_R, cfg.mu)) if by_sos else eval_V_cartesian(sol, c)
        record["V"] = V
    bad = [k for k, v in record.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite {', '.join(bad)} at R={p.R!r}, nu={p.nu!r}")
    print(json.dumps(record, allow_nan=False))
    return EXIT_OK


def _grid_block(cfg, quantity, sol, x, z):
    """Values of a block of cells at x >= 0, z (arrays, in length units) in
    one array pass: `cartesian_R_s` (s), `cartesian_closed` (hR, W), or
    `harmonic.solid_V` at z and rho = x (V), with no R, s or mu.

    NaN marks a cell with no value: the origin, W on the axis, W or V beyond
    the float range, and V with second-kind terms where q0 diverges (the
    axis x = 0, and |z|/x beyond the float range).  A V cell has the bits of
    `eval_V_cartesian` at that cell, and is empty where that raises."""
    with np.errstate(all="ignore"):  # overflow and the axis become NaN cells
        empty = (x == 0.0) & (z == 0.0)
        if quantity == "V" and sol.has_second_kind:
            empty = empty | (legendre._q0_r(z / cfg.R0, x / cfg.R0, True)[0] == math.inf)
        x, z = np.where(empty, 1.0, x), np.where(empty, 0.0, z)  # a cell in the domain, masked below
        if quantity == "V":
            value = solid_V(sol, z, x)
        elif quantity == "s":
            value = cartesian_R_s(x, 0.0, z, cfg.mu)[1]
        else:
            _, _, h_R, _, log_w = cartesian_closed(x, 0.0, z, cfg.mu)
            value = h_R if quantity == "hR" else np.exp(log_w)  # +inf on the axis
        return np.where(empty | ~np.isfinite(value), np.nan, value)


def _grid_axes(spec: GridSpec) -> tuple[list[float], list[float]]:
    """The x and the z coordinates of the grid, in units of R0."""
    xs = [spec.x_min + (spec.x_max - spec.x_min) * i / (spec.nx - 1) for i in range(spec.nx)]
    zs = [spec.z_min + (spec.z_max - spec.z_min) * j / (spec.nz - 1) for j in range(spec.nz)]
    return xs, zs


def _grid_rows(cfg: SystemConfig, spec: GridSpec, quantity: str, sol):
    """(z, values along x) per z-row, z outer; NaN marks an empty value.

    Whole rows are evaluated together, at most _BLOCK_CELLS cells or one
    row at a time, so memory stays bounded however large the grid."""
    xs, zs = _grid_axes(spec)
    x = np.array(xs) * cfg.R0
    rows = max(1, _BLOCK_CELLS // spec.nx)
    for j in range(0, spec.nz, rows):
        block = zs[j : j + rows]
        values = _grid_block(cfg, quantity, sol, x, np.array(block)[:, None] * cfg.R0)
        yield from zip(block, values.tolist())


def cmd_grid(args) -> int:
    cfg = _load_config(args.config)
    sol = _load_coeffs(args.coeffs, cfg) if args.coeffs else None
    try:
        spec = GridSpec(
            x_min=args.x_min,
            x_max=args.x_max,
            z_min=args.z_min,
            z_max=args.z_max,
            nx=args.nx,
            nz=args.nz,
        )
        if args.quantity == "V" and sol is None:
            raise ValueError("--quantity V requires --coeffs")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        out.write("x,z,value\n")
        # each x and z is formatted once; only the values are per cell
        x_text = [_fmt(x) + "," for x in _grid_axes(spec)[0]]
        for z, row in _grid_rows(cfg, spec, args.quantity, sol):
            z_text = _fmt(z) + ","
            out.write("".join([
                f"{xt}{z_text}\n" if math.isnan(v) else f"{xt}{z_text}{v:.17g}\n"
                for xt, v in zip(x_text, row)
            ]))
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    timings: list[tuple[str, float]] = []
    checks = verify_mod.run_suite(cfg, level=args.level, timings=timings)
    all_passed = all(c.passed for c in checks)
    n_fail = sum(not c.passed for c in checks)
    # the report in one write, as the JSON file below
    print("\n".join([
        f"# verification suite  mu={_fmt(cfg.mu)}  R0={_fmt(cfg.R0)}  level={args.level}",
        *(
            f"{'PASS' if c.passed else 'FAIL'} {c.name} max_residual={c.max_residual:.3e} tol={c.tolerance:.1e}"
            for c in checks
        ),
        f"# {len(checks) - n_fail}/{len(checks)} checks passed",
    ]))
    if args.json:
        payload = {
            "mu": cfg.mu,
            "R0": cfg.R0,
            "level": args.level,
            "passed": all_passed,
            "checks": [
                {
                    "name": c.name,
                    # standard JSON has no inf or NaN: a non-finite residual is null
                    "max_residual": c.max_residual if math.isfinite(c.max_residual) else None,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in checks
            ],
            "suites": [{"name": name, "seconds": sec} for name, sec in timings],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    if args.degree < 0:
        raise UsageError("--degree must be non-negative")
    try:
        with open(args.samples, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            reader.fieldnames = [f.strip() for f in reader.fieldnames or []]  # the keys of every row
            if reader.fieldnames != ["nu", "V"]:
                raise ValueError("samples CSV must have header 'nu,V'")
            samples = []
            for row in reader:  # a short row has a None value, a long one a None key
                if None in row or None in row.values():
                    raise ValueError(f"line {reader.line_num} must have two fields")
                samples.append((float(row["nu"]), float(row["V"])))
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"bad samples file {args.samples}: {exc}") from exc
    sol, diag = fit_boundary(
        samples, args.degree, cfg, include_second_kind=args.second_kind
    )
    summary = (
        f"residual_norm={_fmt(diag.residual_norm)} condition={_fmt(diag.condition)}"
        f" rank={diag.rank}"
    )
    if args.output:
        save_solution(sol, args.output)
        print(summary)
    else:
        print(json.dumps(solution_to_dict(sol), indent=2))
        print(summary, file=sys.stderr)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one:
    building it is most of the fixed cost of an in-process `main` call, and
    `parse_args` returns a fresh Namespace each time."""
    parser = argparse.ArgumentParser(
        prog="sosharmonics",
        description="Similar oblate spheroidal coordinates and interior harmonics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one point")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--coeffs")
    p_eval.add_argument("--R", type=float)
    p_eval.add_argument("--nu", type=float)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--z", type=float)
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="CSV over a meridional quadrant grid")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--coeffs")
    p_grid.add_argument("--x-min", type=float, required=True)
    p_grid.add_argument("--x-max", type=float, required=True)
    p_grid.add_argument("--z-min", type=float, required=True)
    p_grid.add_argument("--z-max", type=float, required=True)
    p_grid.add_argument("--nx", type=int, required=True)
    p_grid.add_argument("--nz", type=int, required=True)
    p_grid.add_argument("--quantity", choices=["s", "V", "hR", "W"], required=True)
    p_grid.add_argument("--output", "-o")
    p_grid.set_defaults(func=cmd_grid)

    p_verify = sub.add_parser("verify", help="run the identity verification suites")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--level", choices=["quick", "full"], default="quick")
    p_verify.add_argument("--json", help="also write a machine-readable report")
    p_verify.set_defaults(func=cmd_verify)

    p_fit = sub.add_parser("fit", help="fit boundary samples on the reference spheroid")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("samples", help="CSV file with header 'nu,V'")
    p_fit.add_argument("--degree", type=int, required=True)
    p_fit.add_argument("--second-kind", action="store_true")
    p_fit.add_argument("--output", "-o")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SosError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:  # float overflow or division by zero at extreme inputs
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

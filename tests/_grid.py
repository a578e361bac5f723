"""The cells of a `grid` run, read back from the CSV it writes."""

import json
import tempfile
from pathlib import Path

from sosharmonics.cli import main
from sosharmonics.harmonic import save_solution


def grid_cells(cfg, spec, quantity, sol=None):
    """(x, z, value or None) of every cell of `grid` over spec, z outer, in
    units of R0.  The CSV prints every number with 17 significant digits,
    so each reads back to the double that `grid` formatted; an empty value
    is None."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, coeffs, out = tmp / "cfg.json", tmp / "coeffs.json", tmp / "grid.csv"
        config.write_text(json.dumps({"mu": cfg.mu, "R0": cfg.R0}))
        argv = [
            "grid", "--config", str(config),
            "--x-min", repr(spec.x_min), "--x-max", repr(spec.x_max),
            "--z-min", repr(spec.z_min), "--z-max", repr(spec.z_max),
            "--nx", str(spec.nx), "--nz", str(spec.nz),
            "--quantity", quantity, "-o", str(out),
        ]
        if sol is not None:
            save_solution(sol, coeffs)
            argv += ["--coeffs", str(coeffs)]
        assert main(argv) == 0
        header, *rows = out.read_text().splitlines()
    assert header == "x,z,value"
    return [tuple(float(v) if v else None for v in row.split(",")) for row in rows]

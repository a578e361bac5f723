"""A 7-point finite-difference Laplacian of an expansion at Cartesian
points, for the tests of harmonicity.  It works in Cartesian coordinates,
independent of the SOS metric factors; for a harmonic V it converges to 0
as O(h^2)."""

import numpy as np

from sosharmonics.coords import CartesianPoint
from sosharmonics.harmonic import eval_V_cartesian

# the centre, then +-x, +-y, +-z
ARMS = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                 (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])


def stencil_values(sol, c, h):
    """V on the 7 arms of step h around c (floats or arrays), as rows in the
    order of ARMS over the shape of c's fields: one `eval_V_cartesian` call,
    which sums `solid_V` at each arm's own (z, rho)."""
    arms = (np.add.outer(h * ARMS[:, k], v) for k, v in enumerate((c.x, c.y, c.z)))
    return eval_V_cartesian(sol, CartesianPoint(*arms))


def laplacian(v, h):
    """The 7-point central Laplacian at step h of stencil values v (the first
    row the centre), the arms summed in order."""
    acc = 0.0
    for arm in v[1:]:
        acc = acc + arm
    return (acc - 6.0 * v[0]) / (h * h)

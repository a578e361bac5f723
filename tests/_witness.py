"""`verify`'s series bundle at one W, for the tests of the series witness."""

import numpy as np

from sosharmonics import verify
from sosharmonics.series import eval_series_many


def series_bundle(W, mu):
    """The trig suite's series bundle at one W >= 0: its rows from
    `verify._witness_rows`, summed, and formed by `verify._series_bundle`.
    The series engine refuses a negative or NaN W and the guard band."""
    rows = verify._witness_rows(verify._TRIG_SERIES, np.array([W]), mu)
    return verify._series_bundle(W, mu, np.array([res.value for res in eval_series_many(rows)]))

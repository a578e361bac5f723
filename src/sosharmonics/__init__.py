"""Similar oblate spheroidal (SOS) coordinates and interior harmonics."""

from .coords import (
    CartesianPoint,
    MetricBundle,
    SosPoint,
    SystemConfig,
    cartesian_R_s,
    cartesian_to_sos,
    compute_W,
    dW_dnu,
    metrics_at,
    sos_to_cartesian,
)
from .errors import (
    DegenerateOriginError,
    NearBorderError,
    NonConvergentError,
    PoleDivergenceError,
    PoleLimitError,
    RankDeficientError,
    SosError,
    StencilOutOfDomainError,
)
from .harmonic import (
    FitDiagnostics,
    HarmonicSolution,
    eval_V,
    eval_V_at,
    eval_V_cartesian,
    fit_boundary,
    load_solution,
    s_at_point,
    save_solution,
)
from .legendre import (
    eval_q,
    ode_residual,
    p_poly,
    q0,
    t_poly,
)
from .series import (
    Region,
    SeriesKind,
    SeriesResult,
    SeriesSpec,
    eval_series,
    eval_series_many,
    gen_binom,
    region_of,
    w_border,
)
from .trig import (
    TrigBundle,
    s_limit,
    s_on_reference,
    trig_from_W_robust,
    w_from_s,
)

__version__ = "0.1.0"

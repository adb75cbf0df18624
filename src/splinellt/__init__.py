"""B-splines on arbitrary knots and their Gaussian local limit.

Library layout:

- :mod:`splinellt.knots` — normalized knot families and moment functionals
- :mod:`splinellt.splines` — stable spline evaluation plus an
  extended-precision oracle
- :mod:`splinellt.specfun` — Hermite / Laguerre / 2F0 special functions and
  the oscillatory Laguerre sum
- :mod:`splinellt.charprob` — characteristic functions, Fourier inversion,
  quotient densities
- :mod:`splinellt.montecarlo` — seeded simplex / exponential Monte Carlo
- :mod:`splinellt.seminorm` — weighted-sup error seminorms on grids
- :mod:`splinellt.harness` — reproducible experiments and the invariant suite
"""

from .charprob import (
    CharState,
    char_diff_integral,
    eval_char_state,
    grad_FG,
    pdf_Q_exact,
    pdf_Q_inversion_grid,
    pdf_gaussian_ratio,
    phi_Q,
    quotient_pdf,
    truncation_radius,
)
from .errors import (
    ConfigError,
    DegenerateInput,
    DuplicateKnots,
    InsufficientData,
    OrderTooHigh,
    PrecisionLoss,
    QuadratureNotConverged,
    SplineLLTError,
)
from .harness import ExperimentConfig, ExperimentRecord, fit_slope, run
from .knots import FAMILIES, KnotVector, direction_vectors, family, m3, normalize, x_l3_cubed
from .montecarlo import (
    Histogram2D,
    McEstimate,
    mc_char_simplex,
    mc_divided_difference,
    mc_pdf_Q,
    rng_stream,
)
from .seminorm import (
    GridSpec,
    SeminormResult,
    corollary2_error,
    corollary3_error,
    corollary4_error,
    default_grid,
    theorem1_error,
)
from .specfun import (
    corollary3_quadrature,
    corollary3_sum,
    corollary3_sum_2f0,
    hermite,
    hermite_function,
    hyp2f0,
    laguerre,
    wprime,
)
from .splines import (
    bspline_naive,
    bspline_stable,
    bspline_stable_deriv,
    divided_difference,
    integrate_bspline,
)

__version__ = "0.1.0"

"""B-splines on arbitrary knots and their Gaussian local limit.

Library layout:

- :mod:`splinellt.knots` — normalized knot families and moment functionals
- :mod:`splinellt.splines` — stable spline evaluation plus exact integer
  oracles
- :mod:`splinellt.specfun` — Hermite functions, exact Laguerre coefficients
  and the oscillatory Laguerre sum
- :mod:`splinellt.charprob` — characteristic functions, Fourier inversion,
  quotient densities
- :mod:`splinellt.montecarlo` — seeded simplex / exponential Monte Carlo
- :mod:`splinellt.seminorm` — weighted-sup error seminorms on grids
- :mod:`splinellt.harness` — reproducible experiments and the invariant suite
- :mod:`splinellt.errors` — the exception hierarchy

The package namespace holds only ``__version__``; import the modules, e.g.
``from splinellt import knots, seminorm``.
"""

__version__ = "0.1.0"

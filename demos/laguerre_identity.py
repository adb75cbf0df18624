#!/usr/bin/env python3
"""The Fourier transform of (it)^r B(t/n), computed three independent ways.

Route 1: an oscillatory sum of generalized Laguerre polynomials with
negative integer parameter, one term per knot.
Route 2: the same sum with each Laguerre value replaced by a terminating
2F0 hypergeometric series (a classical identity between the two).
Route 3: the integral itself, by a Gauss-Legendre rule on each knot image
[n x_k, n x_{k+1}], where (it)^r B(t/n) is a polynomial the rule integrates
exactly; B at each node is evaluated exactly from the panel's polynomial in
the integer W' table and rounded once, and the nodes serve every xi of the
call.  Its error bound (Taylor remainder of the exponential plus rounding)
must stay below 1e-10 of the value, or the route raises.

All three agree to ~1e-10 for r up to 4, which is the package's strongest
internal cross-check: the routes share only the knot vector; the two sums
run the one extended-precision partial-fraction loop over its W' products,
the quadrature the exact integer table.
"""

from splinellt import knots, specfun


def main():
    kv = knots.family("chebyshev", 10)
    print("knots: chebyshev, n = 10")
    print(f"{'r':>2} {'xi':>5} {'laguerre sum':>24} {'|sum-2f0|':>11} {'|sum-quad|':>12}")
    xis = (0.25, 1.0, 3.0)
    for r in range(5):
        for xi, c in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
            a = specfun.corollary3_sum(kv, r, xi)
            b = specfun.corollary3_sum_2f0(kv, r, xi)
            print(
                f"{r:>2} {xi:>5.2f} {a.real:>+12.6e}{a.imag:>+11.3e}i"
                f" {abs(a - b):>11.2e} {abs(a - c):>12.2e}"
            )

    # at r = 0 and xi -> 0 the transform tends to the total integral n/(n-1)
    v = specfun.corollary3_sum(kv, 0, 1e-3)
    print(f"\nr=0, xi->0: {v.real:.9f}  (n/(n-1) = {10 / 9:.9f})")

    # and for large n it approaches the Gaussian transform e^{-xi^2/2}
    import math

    big = knots.family("equispaced", 24)
    g = specfun.corollary3_sum(big, 0, 1.0)
    print(f"n=24, xi=1: {g.real:.6f}  vs gaussian {math.exp(-0.5):.6f}")


if __name__ == "__main__":
    main()

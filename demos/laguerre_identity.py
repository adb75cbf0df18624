#!/usr/bin/env python3
"""The Fourier transform of (it)^r B(t/n), computed two independent ways.

Route 1: an oscillatory sum of generalized Laguerre polynomials with
negative integer parameter, one term per knot.  Replacing each Laguerre
value by a terminating 2F0 hypergeometric series (a classical identity
between the two) gives the same integer polynomial in n xi x_k, so the
2F0 form is the same sum, not a third route.
Route 2: the transform as an exact power series.  The divided difference
of a monomial is a complete homogeneous sum, [x_0..x_{n-1}] t^{j+n-1} =
h_j(x), so the transform of (n-1) B is sum_j (n-1)!/(j+n-1)! h_j (-i w)^j,
entire in w; its r-th derivative is summed in exact fixed point with a
rigorous tail bound and correctly rounded, at any n.

Each route is an exact integer bracket, correctly rounded, so the two
agree bit for bit at any n, which is the package's strongest internal
cross-check: the routes share only the knot vector; the sum runs the
partial-fraction bracket over the integer W' table, the series the
complete homogeneous sums of the knots.
"""

from splinellt import knots, specfun


def main():
    kv = knots.family("chebyshev", 10)
    print("knots: chebyshev, n = 10")
    print(f"{'r':>2} {'xi':>5} {'laguerre sum':>24} {'|sum-series|':>12}")
    xis = (0.25, 1.0, 3.0)
    for r in range(5):
        for xi, c in zip(xis, specfun.corollary3_quadrature(kv, r, xis)):
            a = specfun.corollary3_sum(kv, r, xi)
            print(f"{r:>2} {xi:>5.2f} {a.real:>+12.6e}{a.imag:>+11.3e}i {abs(a - c):>12.2e}")

    # at r = 0 and xi -> 0 the transform tends to the total integral n/(n-1)
    v = specfun.corollary3_sum(kv, 0, 1e-3)
    print(f"\nr=0, xi->0: {v.real:.9f}  (n/(n-1) = {10 / 9:.9f})")

    # and for large n it approaches the Gaussian transform e^{-xi^2/2}
    import math

    big = knots.family("equispaced", 24)
    g = specfun.corollary3_sum(big, 0, 1.0)
    print(f"n=24, xi=1: {g.real:.6f}  vs gaussian {math.exp(-0.5):.6f}")

    # at n = 64 the Laguerre sum and the series still agree to the last bit
    kv64 = knots.family("equispaced", 64)
    a = specfun.corollary3_sum(kv64, 0, 1.0)
    (s,) = specfun.corollary3_quadrature(kv64, 0, (1.0,))
    print(f"n=64, xi=1: {a.real:.6f} (sum) {s.real:.6f} (series), equal: {a == s};"
          f" gaussian {math.exp(-0.5):.6f}")


if __name__ == "__main__":
    main()

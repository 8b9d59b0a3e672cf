"""Exact HPE dynamics on the bilinear saddle, in decimal arithmetic.

make_bilinear_saddle's skew matrix M has M^2 = -I, so wherever the box is
inactive J_lam(x) = (I - lam M) x / (1 + lam^2), and with r = ||x||

    ||x - J_lam(x)|| = lam r / sqrt(1 + lam^2),
    r_{k+1} = ||x - lam v|| = ||J_lam(x)|| = r_k / sqrt(1 + lam_k^2).

The control law lam ||x - J_lam(x)||^(p-1) = theta reads
lam^p r^(p-1) (1 + lam^2)^(-(p-1)/2) = theta.  At p = 1 it gives
lam = theta, so r_k = r_0 (1 + theta^2)^(-k/2); at p = 2 it is a quadratic
in lam^2:

    lam^2 = (theta^2 + sqrt(theta^4 + 4 r^2 theta^2)) / (2 r^2).

Nothing here calls monoflow, so it is an oracle independent of the
resolvent, the Newton kernel and the law solver.
"""

from decimal import Decimal, localcontext


def exact_hpe(p, theta, x0, n, digits=40):
    """[(lam_k, r_k)] for k = 1..n as floats: the step size taken at x_{k-1}
    and the radius ||x_k|| of the exact iteration from x0, where the box
    stays inactive (every (u_i, w_i) pair of x0 inside the unit disc)."""
    if p not in (1, 2):
        raise ValueError("closed forms for p = 1 and p = 2 only")
    with localcontext() as ctx:
        ctx.prec = digits
        th = Decimal(theta)
        r = sum(Decimal(float(c)) ** 2 for c in x0).sqrt()
        out = []
        for _ in range(n):
            lam2 = th * th if p == 1 else (th * th + (th**4 + 4 * r * r * th * th).sqrt()) / (2 * r * r)
            r = r / (1 + lam2).sqrt()
            out.append((float(lam2.sqrt()), float(r)))
    return out

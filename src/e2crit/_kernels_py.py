"""The series kernels: the two inner loops under every q-series evaluation.

Both take the term count as their third argument, from which
perfbench/tracer.py counts the terms summed.  These loops dominate the
runtime of contour counting and curve continuation.
"""


def horner(coeffs, q, n):
    """sum_{k=1..n} coeffs[k] * q**k, evaluated by Horner's scheme."""
    acc = 0j
    for c in coeffs[n:0:-1]:
        acc = (acc + c) * q
    return acc


def wp_sums(x, q, n):
    """Lambert-type sums shared by the Weierstrass family.

    Returns (sp, spp, sz) with
      sp  = sum_k k   (x^k + x^-k - 2) q^k/(1-q^k)
      spp = sum_k k^2 (x^k - x^-k)     q^k/(1-q^k)
      sz  = sum_k     (x^k - x^-k)     q^k/(1-q^k)
    """
    sp = 0j
    spp = 0j
    sz = 0j
    xk = 1 + 0j
    xmk = 1 + 0j
    qk = 1 + 0j
    for k in range(1, n + 1):
        xk *= x
        xmk /= x
        qk *= q
        lam = qk / (1 - qk)
        d = (xk - xmk) * lam
        sp += k * (xk + xmk - 2) * lam
        spp += k * k * d
        sz += d
    return sp, spp, sz

"""The series kernels: the four inner loops under every q-series evaluation.

`eisenstein_sums` sums the sigma_1, sigma_3 and sigma_5 series of
(eta1, g2, g3) in one pass, `eta1_g2_sums` the sigma_1 and sigma_3 series
alone (where g3 is not read), `horner` one series (the eta1 series alone,
where g2 and g3 are not read either), and `wp_sums` the Lambert-type
series of the Weierstrass family.  Each takes the term count as its third
argument, from which perfbench/tracer.py counts the terms summed (one per
index k, so a fused call counts n, not 3n).  These loops dominate the
runtime of contour counting and curve continuation.
"""


def horner(coeffs, q, n):
    """sum_{k=1..n} coeffs[k] * q**k, evaluated by Horner's scheme."""
    acc = 0j
    for c in coeffs[n:0:-1]:
        acc = (acc + c) * q
    return acc


def eisenstein_sums(coeffs, q, n):
    """(s1, s3, s5) with s_j = sum_{k=1..n} sigma_j(k) q**k, for coeffs[k]
    the triple (sigma_1(k), sigma_3(k), sigma_5(k)).

    Each sum runs horner's operations in horner's order, so it equals
    horner over that column of coeffs bit for bit.
    """
    s1 = s3 = s5 = 0j
    for c1, c3, c5 in coeffs[n:0:-1]:
        s1 = (s1 + c1) * q
        s3 = (s3 + c3) * q
        s5 = (s5 + c5) * q
    return s1, s3, s5


def eta1_g2_sums(coeffs, q, n):
    """(s1, s3), the first two sums of eisenstein_sums over the same
    triples coeffs, in its operations and order, so each equals its
    column of eisenstein_sums bit for bit."""
    s1 = s3 = 0j
    for c1, c3, _ in coeffs[n:0:-1]:
        s1 = (s1 + c1) * q
        s3 = (s3 + c3) * q
    return s1, s3


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

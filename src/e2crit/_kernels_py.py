"""The series kernels: the inner loops under every q-series evaluation.

`eisenstein_sums` sums the sigma_1, sigma_3 and sigma_5 series of
(eta1, g2, g3) in one pass, `eta1_g2_sums` the sigma_1 and sigma_3 series
alone (where g3 is not read), `horner` one series (the eta1 series alone,
where g2 and g3 are not read either), and `wp_sums` the Lambert-type
series of the Weierstrass family.  `wp_sums_kept` sums that family from a
table of its Lambert weights q^k/(1-q^k), which depend on the nome alone,
and `lambert_weights` forms and extends such a table, so a point that
keeps one (a LatticePoint) forms each weight once; `wp_sums`
forms the same weights inline and gives the same floats.  Each takes the
term count as its third argument, from which perfbench/tracer.py counts
the terms summed (one per index k, so a fused call counts n, not 3n).
These loops dominate the runtime of contour counting and curve
continuation.
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


def lambert_weights(w, q, n):
    """Extend w, the Lambert weights at nome q, to n terms in place and
    return it: w[k] = (lam, k lam, k^2) with lam = q^k/(1-q^k) for
    k = 1..len(w) - 1, k^2 held as the complex that k * k converts to
    when it multiplies a complex, and w[0] = q^(len(w) - 1), the product
    the next weight continues, so a table grown in steps holds the floats
    of one formed at once.  Start a table as [1 + 0j]."""
    qk = w[0]
    for k in range(len(w), n + 1):
        qk *= q
        lam = qk / (1 - qk)
        w.append((lam, k * lam, complex(k * k)))
    w[0] = qk
    return w


def wp_sums_kept(x, w, n):
    """wp_sums from the weights w of lambert_weights at its nome, which
    must hold at least n terms."""
    sp = spp = sz = 0j
    xk = xmk = 1 + 0j
    for lam, klam, kk in w[1:n + 1]:
        xk *= x
        xmk /= x
        d = (xk - xmk) * lam
        sp += (xk + xmk - 2) * klam
        spp += kk * d
        sz += d
    return sp, spp, sz


def wp_sums(x, q, n):
    """Lambert-type sums shared by the Weierstrass family.

    Returns (sp, spp, sz) with
      sp  = sum_k k   (x^k + x^-k - 2) q^k/(1-q^k)
      spp = sum_k k^2 (x^k - x^-k)     q^k/(1-q^k)
      sz  = sum_k     (x^k - x^-k)     q^k/(1-q^k)

    Each weight is formed in lambert_weights' operations and summed in
    wp_sums_kept's, so the sums are the floats wp_sums_kept gives over a
    table kept at q.  The weights are formed inline, not in a list: at a
    point that keeps no table each is read once, and summing a fresh
    table through wp_sums_kept made the pointwise workload, half of whose
    evaluations run here, about 9% slower in ops_per_s and 17% in
    latency_p90_ms (10 paired runs, 2-vCPU VM, Python 3.11).
    """
    sp = spp = sz = 0j
    xk = xmk = qk = 1 + 0j
    for k in range(1, n + 1):
        qk *= q
        lam = qk / (1 - qk)
        xk *= x
        xmk /= x
        d = (xk - xmk) * lam
        sp += (xk + xmk - 2) * (k * lam)
        spp += k * k * d
        sz += d
    return sp, spp, sz

"""Pure-Python polynomial kernel.

Terms are dicts mapping exponent tuples to normalized rational pairs
``(num, den)`` with ``den > 0`` and ``gcd(num, den) == 1``. Zero
coefficients are never stored; the zero polynomial is the empty dict.
The compiled kernel in ``_kernel.pyx`` implements the same interface.
"""

from math import gcd

BACKEND = "python"


def rnorm(n, d):
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if n == 0:
        return (0, 1)
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return (n, d)


def radd(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return rnorm(an + bn, ad)
    return rnorm(an * bd + bn * ad, ad * bd)


def rmul(a, b):
    return rnorm(a[0] * b[0], a[1] * b[1])


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = c
        else:
            s = radd(cur, c)
            if s[0] == 0:
                del out[e]
            else:
                out[e] = s
    return out


def pneg(a):
    return {e: (-c[0], c[1]) for e, c in a.items()}


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = rmul(ca, cb)
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = radd(cur, c)
                if s[0] == 0:
                    del out[e]
                else:
                    out[e] = s
    return out


def pscale(a, c):
    if c[0] == 0:
        return {}
    return {e: rmul(ca, c) for e, ca in a.items()}


def pdiff(a, i):
    out = {}
    for e, c in a.items():
        k = e[i]
        if k == 0:
            continue
        ne = e[:i] + (k - 1,) + e[i + 1:]
        out[ne] = rnorm(c[0] * k, c[1])
    return out

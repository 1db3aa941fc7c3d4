# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled polynomial kernel.

Same interface and term representation as ``_kernel_py``; rational
arithmetic takes a C fast path while numerators and denominators fit in
31 bits (products then fit in a C long long), and falls back to Python
arbitrary-precision integers beyond that.
"""

from math import gcd as _pygcd

BACKEND = "c"

cdef long long _SMALL = 1 << 31


cdef inline long long _cgcd(long long a, long long b):
    if a < 0:
        a = -a
    if b < 0:
        b = -b
    while b:
        a, b = b, a % b
    return a


cdef inline bint _is_small(object v):
    return -_SMALL < v < _SMALL


cpdef tuple rnorm(object n, object d):
    cdef long long cn, cd, g
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if n == 0:
        return (0, 1)
    if _is_small(n) and _is_small(d):
        cn = n
        cd = d
        if cd < 0:
            cn = -cn
            cd = -cd
        g = _cgcd(cn, cd)
        if g > 1:
            cn //= g
            cd //= g
        return (cn, cd)
    if d < 0:
        n, d = -n, -d
    g_py = _pygcd(n, d)
    if g_py > 1:
        n //= g_py
        d //= g_py
    return (n, d)


cpdef tuple radd(tuple a, tuple b):
    cdef long long an, ad, bn, bd, n, d, g
    if _is_small(a[0]) and _is_small(a[1]) and _is_small(b[0]) and _is_small(b[1]):
        an = a[0]
        ad = a[1]
        bn = b[0]
        bd = b[1]
        if ad == bd:
            n = an + bn
            d = ad
        else:
            n = an * bd + bn * ad
            d = ad * bd
        if n == 0:
            return (0, 1)
        g = _cgcd(n, d)
        if g > 1:
            n //= g
            d //= g
        return (n, d)
    return rnorm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


cpdef tuple rmul(tuple a, tuple b):
    cdef long long n, d, g
    if _is_small(a[0]) and _is_small(a[1]) and _is_small(b[0]) and _is_small(b[1]):
        n = <long long> a[0] * <long long> b[0]
        if n == 0:
            return (0, 1)
        d = <long long> a[1] * <long long> b[1]
        g = _cgcd(n, d)
        if g > 1:
            n //= g
            d //= g
        return (n, d)
    return rnorm(a[0] * b[0], a[1] * b[1])


cpdef dict padd(dict a, dict b):
    cdef dict out = dict(a)
    cdef tuple s
    for e, c in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = c
        else:
            s = radd(<tuple> cur, <tuple> c)
            if s[0] == 0:
                del out[e]
            else:
                out[e] = s
    return out


cpdef dict pneg(dict a):
    cdef dict out = {}
    for e, c in a.items():
        out[e] = (-(<tuple> c)[0], (<tuple> c)[1])
    return out


cpdef dict psub(dict a, dict b):
    return padd(a, pneg(b))


cdef inline tuple _eadd(tuple ea, tuple eb):
    cdef Py_ssize_t i, n = len(ea)
    cdef list out = [0] * n
    for i in range(n):
        out[i] = <object> ea[i] + <object> eb[i]
    return tuple(out)


cpdef dict pmul(dict a, dict b):
    cdef dict out = {}
    cdef tuple e, c, s
    if not a or not b:
        return out
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = _eadd(<tuple> ea, <tuple> eb)
            c = rmul(<tuple> ca, <tuple> cb)
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = radd(<tuple> cur, c)
                if s[0] == 0:
                    del out[e]
                else:
                    out[e] = s
    return out


cpdef dict pscale(dict a, tuple c):
    cdef dict out = {}
    if c[0] == 0:
        return out
    for e, ca in a.items():
        out[e] = rmul(<tuple> ca, c)
    return out


cpdef dict pdiff(dict a, Py_ssize_t i):
    cdef dict out = {}
    cdef tuple e
    for e_obj, c in a.items():
        e = <tuple> e_obj
        k = e[i]
        if k == 0:
            continue
        out[e[:i] + (k - 1,) + e[i + 1:]] = rnorm((<tuple> c)[0] * k, (<tuple> c)[1])
    return out

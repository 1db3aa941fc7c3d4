"""Sparse exact linear algebra over the rationals.

Systems come from flattened cochain equations: columns are sparse dicts
keyed by arbitrary (sortable) row keys. Elimination is online: each
equation row is reduced against the pivots found so far, so solution
extraction is a reverse-order back substitution. Everything is Fraction
arithmetic; there is no tolerance anywhere.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def _eliminate(columns, rhs):
    """Row-reduce the system given by sparse columns and a sparse rhs.

    Returns (pivot order list, pivot table, consistent flag); the pivot
    table maps a pivot column to its normalized row and rhs value.
    """
    eqs = {}
    for j, col in enumerate(columns):
        for rk, v in col.items():
            if v:
                eqs.setdefault(rk, {})[j] = Fraction(v)
    rows = set(eqs)
    rows.update(rhs)
    pivot_of_col = {}
    order = []
    for rk in sorted(rows):
        row = dict(eqs.get(rk, ()))
        b = Fraction(rhs.get(rk, _ZERO))
        while True:
            hit = None
            for c in row:
                if c in pivot_of_col:
                    hit = c
                    break
            if hit is None:
                break
            prow, pb = pivot_of_col[hit]
            f = row.pop(hit)
            for c, v in prow.items():
                if c == hit:
                    continue
                nv = row.get(c, _ZERO) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            b -= f * pb
        if not row:
            if b:
                return order, pivot_of_col, False
            continue
        pc = min(row)
        f = row[pc]
        row = {c: v / f for c, v in row.items()}
        b = b / f
        pivot_of_col[pc] = (row, b)
        order.append(pc)
    return order, pivot_of_col, True


def solve_sparse(columns, rhs):
    """One exact solution of columns . x = rhs, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    order, pivots, ok = _eliminate(columns, rhs)
    if not ok:
        return None
    x = [_ZERO] * len(columns)
    for pc in reversed(order):
        row, b = pivots[pc]
        acc = b
        for c, v in row.items():
            if c != pc and x[c]:
                acc -= v * x[c]
        x[pc] = acc
    return x


def nullspace_sparse(columns):
    """Basis of the exact kernel of the sparse column matrix."""
    order, pivots, _ = _eliminate(columns, {})
    pivot_cols = set(order)
    basis = []
    for free in range(len(columns)):
        if free in pivot_cols:
            continue
        x = [_ZERO] * len(columns)
        x[free] = Fraction(1)
        for pc in reversed(order):
            row, _ = pivots[pc]
            acc = _ZERO
            for c, v in row.items():
                if c != pc and x[c]:
                    acc -= v * x[c]
            x[pc] = acc
        basis.append(x)
    return basis

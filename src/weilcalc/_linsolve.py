"""Sparse exact linear algebra over the rationals.

Systems come from flattened cochain equations: columns are sparse dicts
keyed by arbitrary (sortable) row keys. Elimination is online: each
equation row is reduced against the pivots found so far and, if anything
is left, pivots on its least column. Rows are read by descending least
column, ties broken by row key; a row that no column touches needs no
reduction, so a nonzero right-hand side there ends the run at once.
Solutions and kernel vectors are sparse too: ``{column index: Fraction}``
dicts that hold only the nonzero values. A solution is one reverse-order
back substitution with the free variables at zero; the kernel comes from
one reverse pass that writes every pivot as a combination of free columns.

The results do not depend on the order in which rows are read. A reduced
row has no entry in a pivot column, so the pivot rows have distinct least
columns and form an echelon basis of the row space. Every echelon basis
has the same set of least columns: the columns c for which some vector of
the row space has least column c. So every row order finds the same pivot
set, the greedy one of reduced row echelon form. With the free variables
at zero, the solution on the pivot columns is unique; so is the kernel
basis with 1 at its free column and 0 at the other free columns; and
consistency is a property of the system. Reading rows with a late least
column first keeps the pivot rows short and mostly integral: on the
solver's systems it makes fewer than half the entry updates of sorted key
order.

Entries and right-hand sides are ints or Fractions. Inside, values stay
int-first: a value becomes a Fraction only where a pivot division leaves a
remainder, since ints are much cheaper than Fractions and most systems here
are integral. The public results are Fractions. There is no float and no
tolerance anywhere.
"""

from fractions import Fraction

_ONE = Fraction(1)


def _check_exact(values):
    for v in values:
        if type(v) is not int and type(v) is not Fraction:
            raise TypeError(f"not an exact rational: {v!r}")


def _frac(v):
    return v if type(v) is Fraction else Fraction(v)


def _divide(v, f):
    """v / f exactly: an int when both are ints and f divides v."""
    if type(v) is int and type(f) is int:
        q, r = divmod(v, f)
        return Fraction(v, f) if r else q
    return v / f


def _eliminate(columns, rhs):
    """Row-reduce the system given by sparse columns and a sparse rhs.

    Returns (pivot order list, pivot table, consistent flag); the pivot
    table maps a pivot column to its normalized row, without the pivot's
    own unit entry, and its rhs value. Entries other than ints and
    Fractions (a float, a bool) raise TypeError.
    """
    _check_exact(rhs.values())
    eqs = {}
    for j, col in enumerate(columns):
        for rk, v in col.items():
            if type(v) is not int and type(v) is not Fraction:
                raise TypeError(f"not an exact rational: {v!r}")
            if v:
                eqs.setdefault(rk, {})[j] = v
    if any(b for rk, b in rhs.items() if rk not in eqs):
        return [], {}, False
    pivots = {}
    order = []
    # columns are transposed in index order, so a row's first key is its
    # least column
    for _, rk in sorted((-next(iter(row)), rk) for rk, row in eqs.items()):
        row = eqs[rk]
        b = rhs.get(rk, 0)
        # the reduced row does not depend on the order of the reductions,
        # so reduce by every pivot hit of one scan and then rescan
        hits = [c for c in row if c in pivots]
        while hits:
            for hit in hits:
                f = row.pop(hit, None)
                if f is None:
                    continue
                rest, pb = pivots[hit]
                g = -f
                for c, v in rest.items():
                    cur = row.get(c)
                    if cur is None:
                        row[c] = g * v
                    else:
                        nv = cur + g * v
                        if nv:
                            row[c] = nv
                        else:
                            del row[c]
                if pb:
                    b += g * pb
            hits = [c for c in row if c in pivots]
        if not row:
            if b:
                return order, pivots, False
            continue
        pc = min(row)
        f = row.pop(pc)
        if f == -1:
            row = {c: -v for c, v in row.items()}
            b = -b
        elif f != 1:
            row = {c: _divide(v, f) for c, v in row.items()}
            b = _divide(b, f)
        pivots[pc] = (row, b)
        order.append(pc)
    return order, pivots, True


def solve_sparse(columns, rhs):
    """One exact solution of columns . x = rhs as a sparse dict, or None if
    inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    order, pivots, ok = _eliminate(columns, rhs)
    if not ok:
        return None
    x = {}
    for pc in reversed(order):
        rest, acc = pivots[pc]
        for c, v in rest.items():
            xc = x.get(c)
            if xc is not None:
                acc -= v * xc
        if acc:
            x[pc] = acc
    return {c: _frac(v) for c, v in x.items()}


def nullspace_sparse(columns):
    """Basis of the exact kernel of the sparse column matrix: one sparse
    dict per free column f, holding 1 at f, in increasing f."""
    order, pivots, _ = _eliminate(columns, {})
    basis = {f: {f: _ONE} for f in range(len(columns)) if f not in pivots}
    # each pivot as a combination of free columns; the pivots in a pivot
    # row all come later in the order, so a reverse pass has them ready
    expr = {}
    for pc in reversed(order):
        e = {}
        for c, v in pivots[pc][0].items():
            sub = expr.get(c)
            if sub is None:
                e[c] = e.get(c, 0) - v
            else:
                for f, w in sub.items():
                    e[f] = e.get(f, 0) - v * w
        e = expr[pc] = {f: w for f, w in e.items() if w}
        for f, w in e.items():
            basis[f][pc] = _frac(w)
    return [basis[f] for f in sorted(basis)]

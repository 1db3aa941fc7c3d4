"""Sparse exact linear algebra over the rationals.

Systems come from flattened cochain equations: columns are sparse dicts
keyed by arbitrary (sortable) row keys, and the right-hand side is one more
column, the last. Elimination is online: each row of this augmented matrix
is reduced against the pivots found so far and, if anything is left,
pivots on its least column. Rows are read by descending least column, ties
broken by row key. A pivot on the right-hand-side column means the system
is inconsistent, and the run stops there; a row that only the right-hand
side touches is read first, so it ends the run at once. One reverse pass
then writes every pivot as a combination of given free columns: every
non-pivot column for the kernel; for a solve, the right-hand-side column
alone, the other free variables at zero, and the solution is minus that
combination, since columns . x = rhs exactly when (x, -1) is in the kernel
of the augmented matrix. Solutions and kernel vectors are ``{column index:
Fraction}`` dicts that hold only the nonzero values.

The results do not depend on the order in which rows are read. A reduced
row has no entry in a pivot column, so the pivot rows have distinct least
columns and form an echelon basis of the row space. Every echelon basis
has the same set of least columns: the columns c for which some vector of
the row space has least column c. So every row order finds the same pivot
set, the greedy one of reduced row echelon form. In the augmented matrix
the pivots before the last column are those of the columns alone, and the
last column is a pivot exactly when the right-hand side is not in the
span of the columns: consistency is a property of the system, and every
order that meets the last pivot may stop there. With the free variables
at zero, the solution on the pivot columns is unique; so is the kernel
basis with 1 at its free column and 0 at the other free columns. Reading
rows with a late least column first keeps the pivot rows short and mostly
integral: on the solver's systems it makes fewer than half the entry
updates of sorted key order.

Entries and right-hand sides are ints or Fractions. Inside, values stay
int-first: a value becomes a Fraction only where a pivot division leaves a
remainder, since ints are much cheaper than Fractions and most systems here
are integral. The public results are Fractions. There is no float and no
tolerance anywhere.
"""

from fractions import Fraction

_ONE = Fraction(1)


def _frac(v):
    return v if type(v) is Fraction else Fraction(v)


def _divide(v, f):
    """v / f exactly: an int when both are ints and f divides v."""
    if type(v) is int and type(f) is int:
        q, r = divmod(v, f)
        return Fraction(v, f) if r else q
    return v / f


def _eliminate(columns, rhs):
    """Row-reduce the augmented matrix of sparse columns and a sparse rhs,
    the rhs as column ``len(columns)``.

    Returns (pivot order list, pivot table, consistent flag); the pivot
    table maps a pivot column to its normalized row, without the pivot's
    own unit entry. An inconsistent run stops at its rhs pivot. Entries
    other than ints and Fractions (a float, a bool) raise TypeError.
    """
    eqs = {}
    for j, col in enumerate((*columns, rhs)):
        for rk, v in col.items():
            if type(v) is not int and type(v) is not Fraction:
                raise TypeError(f"not an exact rational: {v!r}")
            if v:
                eqs.setdefault(rk, {})[j] = v
    last = len(columns)
    pivots = {}
    order = []
    # columns are transposed in index order, so a row's first key is its
    # least column
    for _, rk in sorted((-next(iter(row)), rk) for rk, row in eqs.items()):
        row = eqs[rk]
        # the reduced row does not depend on the order of the reductions,
        # so reduce by every pivot hit of one scan and then rescan
        hits = [c for c in row if c in pivots]
        while hits:
            for hit in hits:
                f = row.pop(hit, None)
                if f is None:
                    continue
                g = -f
                for c, v in pivots[hit].items():
                    cur = row.get(c)
                    if cur is None:
                        row[c] = g * v
                    else:
                        nv = cur + g * v
                        if nv:
                            row[c] = nv
                        else:
                            del row[c]
            hits = [c for c in row if c in pivots]
        if not row:
            continue
        pc = min(row)
        if pc == last:
            return order, pivots, False
        f = row.pop(pc)
        if f == -1:
            row = {c: -v for c, v in row.items()}
        elif f != 1:
            row = {c: _divide(v, f) for c, v in row.items()}
        pivots[pc] = row
        order.append(pc)
    return order, pivots, True


def _express(order, pivots, free):
    """Each pivot column as a combination of the columns in ``free``, every
    other non-pivot column at zero: {pivot: {free column: value}}, the
    pivots in reverse order and only nonzero values kept."""
    # the pivots in a pivot row all come later in the order, so a reverse
    # pass has them ready
    expr = {}
    for pc in reversed(order):
        e = {}
        for c, v in pivots[pc].items():
            sub = expr.get(c)
            if sub is not None:
                for f, w in sub.items():
                    e[f] = e.get(f, 0) - v * w
            elif c in free:
                e[c] = e.get(c, 0) - v
        expr[pc] = {f: w for f, w in e.items() if w}
    return expr


def solve_sparse(columns, rhs):
    """One exact solution of columns . x = rhs as a sparse dict, or None if
    inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    order, pivots, ok = _eliminate(columns, rhs)
    if not ok:
        return None
    last = len(columns)
    return {pc: -_frac(e[last])
            for pc, e in _express(order, pivots, (last,)).items() if e}


def nullspace_sparse(columns):
    """Basis of the exact kernel of the sparse column matrix: one sparse
    dict per free column f, holding 1 at f, in increasing f."""
    order, pivots, _ = _eliminate(columns, {})
    basis = {f: {f: _ONE} for f in range(len(columns)) if f not in pivots}
    for pc, e in _express(order, pivots, basis).items():
        for f, w in e.items():
            basis[f][pc] = _frac(w)
    return list(basis.values())

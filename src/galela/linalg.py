"""Dense exact linear algebra over a field handle.

A "field" here is any object with add/sub/mul/neg/inv methods on int-encoded
elements where 0 and 1 are the additive and multiplicative identities, and
an elements() method listing every element, 0 first (FieldTower
qualifies).  Vectors are tuples, matrices are tuples of row tuples;
everything stays hashable.
"""

from __future__ import annotations


def rref(rows, field):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot columns).  Zero rows are dropped,
    pivots are ascending and each pivot column is cleared above and below.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        lead = mat[r][c]
        if lead != 1:
            iv = field.inv(lead)
            mat[r] = [field.mul(iv, x) for x in mat[r]]
        row = mat[r]
        for i in range(m):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], row)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def reduce_vector(v, rows, pivots, field):
    """Reduce v against an RREF basis; the zero vector means membership."""
    v = list(v)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return tuple(v)


def in_rowspace(v, rows, pivots, field) -> bool:
    return not any(reduce_vector(v, rows, pivots, field))


def coset(start, rows, field) -> list:
    """Every vector start + sum c_i rows_i, one per coefficient tuple.

    The tuples come in itertools.product(field.elements(), ...) order:
    start first, the first row's coefficient varying slowest.  Distinct
    tuples give distinct vectors exactly when the rows are independent.
    """
    out = [tuple(start)]
    for row in reversed(rows):
        # each nonzero multiple of row shifts the vectors so far, which vary faster
        multiples = [tuple(row) if c == 1 else tuple(field.mul(c, v) for v in row)
                     for c in field.elements() if c]
        out += [tuple(map(field.add, u, w)) for w in multiples for u in out]
    return out


def matvec(mat, v, field):
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return tuple(out)


def matmul(a, b, field):
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = field.add(acc, field.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def identity(k):
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_inverse(mat, field):
    """Inverse via Gauss-Jordan on the augmented matrix; raises if singular."""
    k = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(mat)]
    red, piv = rref(aug, field)
    if len(red) < k or piv != tuple(range(k)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[k:]) for row in red)

"""Exact integer linear algebra and finitely generated abelian groups.

Matrices are plain lists of lists of Python ints (row-major), so every
computation is arbitrary precision.  The central routine is
``smith_normal_form``, which returns the unimodular transforms; on top of
it live finitely generated abelian groups in canonical form (free rank
plus an invariant-factor chain) together with kernels, cokernels and
pullbacks of maps between them.

Transform contract: the invariant factors are canonical, the transforms
are not.  They are those of the greedy Euclid loop wherever its
quotients stay within EUCLID_BITS bits, and otherwise those of a
reducing elimination (Havas, Holt and Rees 1993) restarted from the
input, whose entries stay small.  Reports built on ``quotient_group`` or
``kernel_basis_of`` read the transforms, so this choice is pinned by
digests in the tests.

>>> u, d, v = smith_normal_form([[2, -2]])
>>> mat_mul(mat_mul(u, [[2, -2]]), v) == d
True
>>> quotient_group(2, [[2, -2]])[0]
FgAbelianGroup(rank=1, torsion=(2,))
"""

from __future__ import annotations

from dataclasses import dataclass, field


Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def copy_matrix(a) -> Matrix:
    return [list(row) for row in a]


def mat_mul(a, b) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append([sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)])
    return out


def mat_vec(a, x) -> list[int]:
    return [sum(row[k] * x[k] for k in range(len(x))) for row in a]


def transpose(a) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def determinant(a) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# A quotient beyond 2**EUCLID_BITS stops the Euclid loop of
# snf_with_inverses, which then restarts with the reducing elimination.
# Measured on 6,000 seeded random matrices up to 8x8 with entries up to
# +-50, and their transposes: of the 9,965 outputs the loop returns within
# 1 s (Python 3.11, 2-core Xeon), 51 meet a quotient past 2^14 bits, 12
# past 2^16 and none past 2^19 (the largest has 321,825 bits); in the
# lgbench lattice tasks that finish, quotients stay within 1,796 bits.  An
# 8x8 matrix with entries up to +-20 that explodes takes about 10 ms to
# reach 2^14 bits, 60 ms to reach 2^16 and 1 s to reach 2^19.  So this cap
# changes the transforms of those 51 and turns the ~1,000 matrices the
# loop does not finish within 1 s into answers of 5 ms (median).
EUCLID_BITS = 1 << 14
_EUCLID_MAX = 1 << EUCLID_BITS
_EUCLID_MIN = -_EUCLID_MAX


class _SnfState:
    """Workspace for Smith reduction, tracking transforms and their inverses."""

    def __init__(self, a):
        self.d = copy_matrix(a)
        self.m = len(self.d)
        self.n = len(self.d[0]) if self.d else 0
        self.u = identity(self.m)
        self.u_inv = identity(self.m)
        self.v = identity(self.n)
        self.v_inv = identity(self.n)

    def swap_rows(self, i, j):
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        self.v_inv[i], self.v_inv[j] = self.v_inv[j], self.v_inv[i]

    def add_row(self, i, j, c):
        # row_i += c * row_j
        if c == 0:
            return
        self.d[i] = [x + c * y for x, y in zip(self.d[i], self.d[j])]
        self.u[i] = [x + c * y for x, y in zip(self.u[i], self.u[j])]
        for row in self.u_inv:
            row[j] -= c * row[i]

    def add_col(self, j, i, c):
        # col_j += c * col_i
        if c == 0:
            return
        for row in self.d:
            row[j] += c * row[i]
        for row in self.v:
            row[j] += c * row[i]
        self.v_inv[i] = [x - c * y for x, y in zip(self.v_inv[i], self.v_inv[j])]

    def negate_row(self, i):
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.u_inv:
            row[i] = -row[i]

    def pivot(self, t):
        """First smallest nonzero |entry| at position >= (t, t), or None."""
        best = None
        least = 0
        for i in range(t, self.m):
            row = self.d[i]
            for j in range(t, self.n):
                e = abs(row[j])
                if e and (best is None or e < least):
                    best = (i, j)
                    least = e
        return best


def smith_normal_form(a) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (u, d, v) with u*a*v = d.

    u and v are unimodular and d is diagonal with d[0][0] | d[1][1] | ...
    (nonzero entries positive, zeros trailing).
    """
    u, d, v, _, _ = snf_with_inverses(a)
    return u, d, v


def snf_with_inverses(a) -> tuple[Matrix, Matrix, Matrix, Matrix, Matrix]:
    """Like smith_normal_form but also returns u^-1 and v^-1.

    The greedy Euclid loop runs while its quotients stay within
    EUCLID_BITS bits; past that it gives up and the reducing elimination
    starts again from ``a``.  Either way u, v and their inverses come
    from the same swap/add/negate steps, so they are exact by
    construction.
    """
    st = _SnfState(a)
    if not _diagonalize(st, _euclid_clear):
        st = _SnfState(a)
        _diagonalize(st, _reducing_clear)
    return st.u, st.d, st.v, st.u_inv, st.v_inv


def _diagonalize(st: _SnfState, clear) -> bool:
    """Bring st.d to Smith form; False as soon as ``clear`` gives up.

    ``clear(st, t)`` empties row and column t around the pivot at (t, t).
    """
    t = 0
    limit = min(st.m, st.n)
    while t < limit:
        pos = st.pivot(t)
        if pos is None:
            break
        st.swap_rows(t, pos[0])
        st.swap_cols(t, pos[1])
        if not clear(st, t):
            return False
        # enforce the divisibility chain
        piv = st.d[t][t]
        fixed = True
        for i in range(t + 1, st.m):
            for j in range(t + 1, st.n):
                if st.d[i][j] % piv != 0:
                    st.add_col(t, j, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if st.d[t][t] < 0:
            st.negate_row(t)
        t += 1
    return True


def _euclid_clear(st: _SnfState, t: int) -> bool:
    """Floor-division Euclid steps, each remainder swapped in as the pivot.

    Nothing reduces the other entries.  They explode when a quotient is
    as long as the entries it multiplies, which then doubles their length
    at every step, so the loop gives up (False) at the first quotient
    beyond 2**EUCLID_BITS in absolute value.  Below that a step adds at
    most EUCLID_BITS + 1 bits to the entries it changes.  No quotient is
    larger than the entry it divides, so the loop runs to the end wherever
    its entries stay within 2**EUCLID_BITS.
    """
    d = st.d
    lo, hi = _EUCLID_MIN, _EUCLID_MAX
    while True:
        dirty = False
        for i in range(t + 1, st.m):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                if not lo <= q <= hi:
                    return False
                st.add_row(i, t, -q)
                if d[i][t] != 0:
                    st.swap_rows(t, i)
                    dirty = True
        top = d[t]  # column steps change this row in place
        for j in range(t + 1, st.n):
            if top[j] != 0:
                q = top[j] // top[t]
                if not lo <= q <= hi:
                    return False
                st.add_col(j, t, -q)
                if top[j] != 0:
                    st.swap_cols(t, j)
                    dirty = True
        if not dirty:
            return True


def _reducing_clear(st: _SnfState, t: int) -> bool:
    """Havas-Holt-Rees steps: symmetric remainders, then the global minimum.

    Every remainder is at most half the pivot and the next pivot is the
    smallest entry of the active block, so each pass at least halves the
    pivot, and rows and columns are only ever combined by quotients of an
    entry by the smallest one.  That keeps entries small in practice (a
    20x20 matrix with entries up to +-20 ends with 1000-bit transforms);
    it is a heuristic, not a proven bound.
    """
    while True:
        piv = st.d[t][t]
        for i in range(t + 1, st.m):
            if st.d[i][t] != 0:
                st.add_row(i, t, -_nearest_quotient(st.d[i][t], piv))
        for j in range(t + 1, st.n):
            if st.d[t][j] != 0:
                st.add_col(j, t, -_nearest_quotient(st.d[t][j], piv))
        if not any(st.d[t][t + 1:]) and not any(st.d[i][t] for i in range(t + 1, st.m)):
            return True
        i, j = st.pivot(t)
        st.swap_rows(t, i)
        st.swap_cols(t, j)


def _nearest_quotient(a: int, b: int) -> int:
    """q with |a - q*b| <= |b|/2."""
    q, r = divmod(a, b)
    return q + 1 if 2 * abs(r) > abs(b) else q


def kernel_basis(a) -> list[list[int]]:
    """Basis of the integer kernel {x : a*x = 0}, as a list of vectors."""
    if not a:
        raise ValueError("kernel_basis needs explicit dimensions; use kernel_basis_of")
    return kernel_basis_of(a, len(a[0]))


def kernel_basis_of(a, ncols: int) -> list[list[int]]:
    if not a:
        return [row[:] for row in identity(ncols)]
    _, d, v, _, _ = snf_with_inverses(a)
    rank = sum(1 for i in range(min(len(d), ncols)) if d[i][i] != 0)
    return [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def solve_int(a, b, ncols: int) -> list[int] | None:
    """One integer solution x of a*x = b, or None if none exists."""
    if not a:
        return [0] * ncols if all(x == 0 for x in b) else None
    u, d, v, _, _ = snf_with_inverses(a)
    y = mat_vec(u, b)
    z = [0] * ncols
    for i in range(len(y)):
        di = d[i][i] if i < ncols else 0
        if di != 0:
            if y[i] % di != 0:
                return None
            z[i] = y[i] // di
        elif y[i] != 0:
            return None
    return mat_vec(v, z)


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group in Smith normal form.

    Generators are ordered torsion-first: generator i < len(torsion) has
    order torsion[i] (a divisibility chain, every factor >= 2), and the
    remaining ``rank`` generators are free.  The zero group is
    (rank=0, torsion=()).
    """

    rank: int
    torsion: tuple[int, ...] = ()
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be >= 2")
        if self.labels is not None and len(self.labels) != self.ngens:
            raise ValueError("wrong number of labels")

    @property
    def ngens(self) -> int:
        return len(self.torsion) + self.rank

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None if infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coordinates of an element (torsion entries reduced)."""
        if len(vec) != self.ngens:
            raise ValueError("wrong coordinate length")
        out = list(vec)
        for i, d in enumerate(self.torsion):
            out[i] %= d
        return tuple(out)

    def relation_rows(self) -> list[list[int]]:
        """Rows spanning the relation lattice in the free cover Z^ngens."""
        rows = []
        for i, d in enumerate(self.torsion):
            row = [0] * self.ngens
            row[i] = d
            rows.append(row)
        return rows

    def elements(self):
        """All elements (finite groups only)."""
        if self.rank:
            raise ValueError("infinite group")
        coords = [()]
        for d in self.torsion:
            coords = [c + (r,) for c in coords for r in range(d)]
        return [tuple(c) for c in coords]

    def __repr__(self):
        if self.torsion:
            return f"FgAbelianGroup(rank={self.rank}, torsion={self.torsion})"
        return f"FgAbelianGroup(rank={self.rank})"


ZERO_GROUP = FgAbelianGroup(0, ())


def free_group(n: int, labels=None) -> FgAbelianGroup:
    return FgAbelianGroup(n, (), tuple(labels) if labels else None)


def quotient_group(n: int, rows) -> tuple[FgAbelianGroup, Matrix, Matrix]:
    """Present Z^n / <rows> in canonical form.

    Returns (group, to_canonical, section): ``to_canonical`` is a
    (ngens x n) matrix carrying old coordinates to canonical generator
    coordinates; ``section`` is (n x ngens) and sends each canonical
    generator to a representative in Z^n.
    """
    cols = transpose(rows) if rows else []
    if not cols:
        a = zero_matrix(n, 1) if n else []
        if n == 0:
            return ZERO_GROUP, [], []
    else:
        a = cols
    u, d, _, u_inv, _ = snf_with_inverses(a)
    diag = [d[i][i] if i < (len(d[0]) if d else 0) else 0 for i in range(n)]
    kept = [i for i in range(n) if diag[i] != 1]
    torsion = tuple(diag[i] for i in kept if diag[i] > 1)
    rank = sum(1 for i in kept if diag[i] == 0)
    order = [i for i in kept if diag[i] > 1] + [i for i in kept if diag[i] == 0]
    group = FgAbelianGroup(rank, torsion)
    to_canonical = [u[i] for i in order]
    section = [[u_inv[i][j] for j in order] for i in range(n)]
    return group, to_canonical, section


@dataclass(frozen=True)
class AbGroupMap:
    """Map of f.g. abelian groups, as an integer matrix on canonical generators.

    Column j is the image of domain generator j in codomain coordinates.
    Construction checks that torsion is respected (the image of an
    order-d generator is killed by d).
    """

    domain: FgAbelianGroup
    codomain: FgAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mat = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        if len(mat) != self.codomain.ngens:
            raise ValueError("matrix row count must equal codomain generator count")
        for row in mat:
            if len(row) != self.domain.ngens:
                raise ValueError("matrix column count must equal domain generator count")
        for j, d in enumerate(self.domain.torsion):
            img = [d * row[j] for row in mat]
            if any(x != 0 for x in self.codomain.reduce(img)):
                raise ValueError(f"map does not respect torsion on generator {j}")

    def __call__(self, vec) -> tuple[int, ...]:
        return self.codomain.reduce(mat_vec([list(r) for r in self.matrix], list(vec)))

    def compose(self, other: "AbGroupMap") -> "AbGroupMap":
        """self o other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        m = mat_mul([list(r) for r in self.matrix], [list(r) for r in other.matrix])
        return AbGroupMap(other.domain, self.codomain, tuple(map(tuple, m)))

    def equal_on_generators(self, other: "AbGroupMap") -> bool:
        if self.domain != other.domain or self.codomain != other.codomain:
            return False
        n = self.domain.ngens
        for j in range(n):
            e = [1 if i == j else 0 for i in range(n)]
            if self(e) != other(e):
                return False
        return True


def identity_map(g: FgAbelianGroup) -> AbGroupMap:
    return AbGroupMap(g, g, tuple(map(tuple, identity(g.ngens))))


def zero_map(dom: FgAbelianGroup, cod: FgAbelianGroup) -> AbGroupMap:
    return AbGroupMap(dom, cod, tuple(map(tuple, zero_matrix(cod.ngens, dom.ngens))))


def _lattice_presented_subgroup(basis_vectors, inside_rows, ambient_n):
    """Canonicalize L/<inside> where L has the given basis in Z^ambient_n.

    Returns (group, gens_in_ambient): generator representatives as vectors
    of Z^ambient_n.  ``inside_rows`` must lie in the span of the basis.
    """
    s = len(basis_vectors)
    if s == 0:
        return ZERO_GROUP, []
    bmat = transpose(basis_vectors)  # ambient_n x s, columns are basis
    rel_rows = []
    for row in inside_rows:
        coeffs = solve_int(bmat, list(row), s)
        if coeffs is None:
            raise ValueError("relation does not lie in the sublattice")
        rel_rows.append(coeffs)
    group, _, section = quotient_group(s, rel_rows)
    gens = []
    for k in range(group.ngens):
        col = [section[i][k] for i in range(s)]
        gens.append(mat_vec(bmat, col))
    return group, gens


def kernel(f: AbGroupMap) -> tuple[FgAbelianGroup, AbGroupMap]:
    """Kernel with its inclusion map."""
    nd, nc = f.domain.ngens, f.codomain.ngens
    m = [list(r) for r in f.matrix]
    cod_rel = f.codomain.relation_rows()
    # x in ker iff m*x lies in the codomain relation lattice
    stacked = [m[i] + [-cod_rel[k][i] for k in range(len(cod_rel))] for i in range(nc)]
    basis = kernel_basis_of(stacked, nd + len(cod_rel)) if stacked else \
        [row[:] for row in identity(nd)]
    lat_basis = [vec[:nd] for vec in basis]
    # include the domain relation lattice so generators are honest elements
    lat_rows = lat_basis + f.domain.relation_rows()
    # re-extract a basis of the resulting lattice
    lat = _lattice_rows_basis(lat_rows, nd)
    group, gens = _lattice_presented_subgroup(lat, f.domain.relation_rows(), nd)
    incl_cols = [f.domain.reduce(g) for g in gens]
    incl = AbGroupMap(group, f.domain, tuple(zip(*incl_cols)) if incl_cols else
                      tuple(() for _ in range(nd)))
    return group, incl


def _lattice_rows_basis(rows, n):
    """A basis (list of vectors) of the lattice spanned by ``rows`` in Z^n."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    a = transpose(rows)  # n x k, columns span the lattice
    u, d, _, u_inv, _ = snf_with_inverses(a)
    k = len(rows)
    rank = sum(1 for i in range(min(n, k)) if d[i][i] != 0)
    basis = []
    for i in range(rank):
        col = [u_inv[r][i] * d[i][i] for r in range(n)]
        basis.append(col)
    return basis


def cokernel(f: AbGroupMap) -> tuple[FgAbelianGroup, AbGroupMap]:
    """Cokernel with its projection map."""
    nc = f.codomain.ngens
    rows = f.codomain.relation_rows()
    for j in range(f.domain.ngens):
        rows.append([f.matrix[i][j] for i in range(nc)])
    group, to_canon, _ = quotient_group(nc, rows)
    proj = AbGroupMap(f.codomain, group,
                      tuple(tuple(row) for row in to_canon) if to_canon else
                      tuple(() for _ in range(group.ngens)))
    return group, proj


def pullback_group(f: AbGroupMap, g: AbGroupMap):
    """Pullback of f: A -> C <- B :g with its two projections."""
    if f.codomain != g.codomain:
        raise ValueError("maps must share a codomain")
    na, nb = f.domain.ngens, g.domain.ngens
    nc = f.codomain.ngens
    cod_rel = f.codomain.relation_rows()
    # solve f(x) - g(y) = 0 in the codomain
    stacked = []
    for i in range(nc):
        row = [f.matrix[i][j] for j in range(na)]
        row += [-g.matrix[i][j] for j in range(nb)]
        row += [-cod_rel[k][i] for k in range(len(cod_rel))]
        stacked.append(row)
    basis = kernel_basis_of(stacked, na + nb + len(cod_rel)) if stacked else \
        [row[:] for row in identity(na + nb)]
    lat_basis = [vec[:na + nb] for vec in basis]
    inner = []
    for row in f.domain.relation_rows():
        inner.append(row + [0] * nb)
    for row in g.domain.relation_rows():
        inner.append([0] * na + row)
    lat = _lattice_rows_basis(lat_basis + inner, na + nb)
    group, gens = _lattice_presented_subgroup(lat, inner, na + nb)
    p1_cols = [f.domain.reduce(v[:na]) for v in gens]
    p2_cols = [g.domain.reduce(v[na:]) for v in gens]
    p1 = AbGroupMap(group, f.domain, tuple(zip(*p1_cols)) if p1_cols else
                    tuple(() for _ in range(na)))
    p2 = AbGroupMap(group, g.domain, tuple(zip(*p2_cols)) if p2_cols else
                    tuple(() for _ in range(nb)))
    return group, p1, p2


def is_isomorphism(f: AbGroupMap) -> bool:
    k, _ = kernel(f)
    if not k.is_zero():
        return False
    c, _ = cokernel(f)
    return c.is_zero()


def invert_isomorphism(f: AbGroupMap) -> AbGroupMap:
    """Inverse of an isomorphism (raises if f is not one)."""
    if not is_isomorphism(f):
        raise ValueError("map is not an isomorphism")
    nd, nc = f.domain.ngens, f.codomain.ngens
    m = [list(r) for r in f.matrix]
    dom_rel = f.domain.relation_rows()
    cols = []
    for i in range(nc):
        e = [1 if r == i else 0 for r in range(nc)]
        # solve m*x = e modulo codomain relations, x modulo domain relations
        cod_rel = f.codomain.relation_rows()
        aug = [m[r] + [cod_rel[k][r] for k in range(len(cod_rel))] for r in range(nc)]
        sol = solve_int(aug, e, nd + len(cod_rel))
        if sol is None:
            raise ValueError("map is not an isomorphism")
        cols.append(f.domain.reduce(sol[:nd]))
    del dom_rel
    return AbGroupMap(f.codomain, f.domain, tuple(zip(*cols)) if cols else
                      tuple(() for _ in range(nd)))


def direct_sum_groups(a: FgAbelianGroup, b: FgAbelianGroup) -> tuple[FgAbelianGroup, AbGroupMap, AbGroupMap]:
    """Canonical direct sum with the two inclusion maps."""
    rows = []
    n = a.ngens + b.ngens
    for i, d in enumerate(a.torsion):
        row = [0] * n
        row[i] = d
        rows.append(row)
    for i, d in enumerate(b.torsion):
        row = [0] * n
        row[a.ngens + i] = d
        rows.append(row)
    group, to_canon, _ = quotient_group(n, rows)
    cols_a = [group.reduce([to_canon[r][j] for r in range(group.ngens)]) for j in range(a.ngens)]
    cols_b = [group.reduce([to_canon[r][a.ngens + j] for r in range(group.ngens)]) for j in range(b.ngens)]
    ia = AbGroupMap(a, group, tuple(zip(*cols_a)) if cols_a else tuple(() for _ in range(group.ngens)))
    ib = AbGroupMap(b, group, tuple(zip(*cols_b)) if cols_b else tuple(() for _ in range(group.ngens)))
    return group, ia, ib

"""Derivative complexes from a Hodge-theoretic datum and a subspace W.

A :class:`HodgeDatum` packages the dimensions h[i][j] of the graded
pieces H^j(Omega^i) together with, for each basis vector v_a of the
q-dimensional space V, the matrices of "wedge with v_a".  Given a
k-dimensional subspace W of V with a chosen basis (w_1..w_k), the
complex with parameters (r, j) has terms

    Sym^{r-i} W (x) H^j(Omega^i),   i = 0..n,  n = min(r, d),

and differentials sending a monomial w_{t_1}...w_{t_m} (x) alpha to the
sum over distinct members t of the monomial with one t removed, tensor
w_t wedge alpha, weighted by the multiplicity of t.

Matrices are held as int64 CSR arrays (:class:`Csr`) with one global
rational scale per map (denominators of W and of the datum are cleared
once), so rank and homology computations run on integers and remain
exact.  Every sparse product is a numpy kernel of this module.

The lower bound is a rank mod p, found in this order and only as far as
needed: the structural pivots of the rows (distinct leading columns,
already in echelon form), those of the columns (distinct leading rows,
in column-echelon form), and then a dense modular elimination of the
block or, for blocks far larger than the rank sought, of the Schur
complement of the row pivots.  The two pivot counts run on the whole map
first; only when both fall short is the map split into its independent
blocks (the connected components of the row/column graph), and all three
steps run per block.
The upper bound is min(shape) or d_i - r_prev where the lower bound
meets one of them; elsewhere it comes from a kernel computed mod p,
lifted to Q by CRT and rational reconstruction, and checked exactly.
Bareiss elimination is the last resort when no lift checks out, and
the whole-map oracle behind method="exact".
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .inputs import DataError, whole_number
from .ratlinalg import (
    LIFT_PRIMES,
    MOD_PRIMES,
    rank_exact,
    rank_mod,
    rational_reconstruction,
    rref_mod,
)


class Csr(NamedTuple):
    """An integer matrix in compressed sparse row form.

    Row r stores data[indptr[r]:indptr[r + 1]] at the columns
    indices[indptr[r]:indptr[r + 1]].  The maps of :func:`build_complex`
    and the blocks of :func:`_independent_blocks` are canonical: column
    indices strictly increasing inside each row and no stored zero, so
    equal matrices have equal arrays.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)


def _exact_entry(x) -> Fraction:
    """x as a Fraction; a bool (JSON true/false) is a DataError, not 1/0."""
    if isinstance(x, bool):
        raise DataError(f"{x!r} is not a matrix entry")
    return Fraction(x)


class SparseRat:
    """Sparse exact-rational matrix: a shape plus the nonzero entries."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries: Mapping | None = None):
        m, n = whole_number(shape[0]), whole_number(shape[1])
        if m < 0 or n < 0:
            raise ValueError("negative matrix dimension")
        self.shape = (m, n)
        clean = {}
        for (r, c), v in (entries or {}).items():
            v = _exact_entry(v)
            if not (0 <= r < m and 0 <= c < n):
                raise ValueError(f"entry ({r},{c}) outside shape {self.shape}")
            if v:
                clean[(whole_number(r), whole_number(c))] = v
        self.entries = clean

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence]) -> "SparseRat":
        m = len(rows)
        n = len(rows[0]) if m else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("ragged matrix")
            for j, v in enumerate(row):
                v = _exact_entry(v)
                if v:
                    ent[(i, j)] = v
        return cls((m, n), ent)

    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "SparseRat") -> "SparseRat":
        """self @ other."""
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch in composition")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (r, mid), v in self.entries.items():
            for c, w in by_row.get(mid, ()):
                key = (r, c)
                out[key] = out.get(key, Fraction(0)) + v * w
        return SparseRat((self.shape[0], other.shape[1]), out)

    def plus(self, other: "SparseRat") -> "SparseRat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in sum")
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, Fraction(0)) + v
        return SparseRat(self.shape, out)

    def dense(self) -> list[list[Fraction]]:
        m, n = self.shape
        rows = [[Fraction(0)] * n for _ in range(m)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, SparseRat)
            and self.shape == other.shape
            and self.entries == other.entries
        )


class SubspaceW:
    """A k-dimensional subspace of V given by k independent basis columns.

    Each column has length q and exact rational coordinates in the
    v_a basis of V.  Independence is checked by the Gauss-Jordan
    elimination of :func:`_gauss_jordan`, whose result the instance keeps
    for :meth:`echelon`: a W is eliminated once.
    """

    __slots__ = ("q", "k", "columns", "_reduced")

    def __init__(self, columns: Sequence[Sequence]):
        cols = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in col)
                     for col in columns)
        if not cols:
            raise ValueError("W needs at least one basis vector")
        q = len(cols[0])
        if any(len(c) != q for c in cols):
            raise ValueError("ragged basis columns")
        self.q = q
        self.k = len(cols)
        self.columns = cols
        self._reduced = _gauss_jordan(cols)
        if len(self._reduced[1]) != self.k:
            raise ValueError("basis columns are linearly dependent")

    @classmethod
    def full_space(cls, q: int) -> "SubspaceW":
        return cls([[1 if a == t else 0 for a in range(q)] for t in range(q)])

    def times(self, g: Sequence[Sequence]) -> "SubspaceW":
        """Replace the basis by W.g for an invertible k x k matrix g; W.g has
        rank k exactly when g is invertible, so the constructor refuses a singular g."""
        rows = [[Fraction(x) for x in row] for row in g]
        if len(rows) != self.k or any(len(r) != self.k for r in rows):
            raise ValueError("basis change must be k x k")
        new_cols = [
            [
                sum((self.columns[t][a] * rows[t][s] for t in range(self.k)), Fraction(0))
                for a in range(self.q)
            ]
            for s in range(self.k)
        ]
        return SubspaceW(new_cols)

    def echelon(self) -> "SubspaceW":
        """The same subspace in its reduced column-echelon basis.

        Read from the elimination the constructor ran (see
        :func:`_gauss_jordan`): column s of the result is row s divided by
        its entry at its pivot, so it is 1 at its own pivot and 0 before it
        and at every other pivot, and the result depends on span(W) only.
        By Cramer's rule each entry is a ratio of k x k minors of W, over
        the minor at the pivots.
        """
        # a W forged past the constructor has no elimination yet
        rows, pivots = getattr(self, "_reduced", None) or _gauss_jordan(self.columns)
        if len(pivots) != self.k:
            raise RuntimeError(f"echelon found {len(pivots)} pivots for {self.k} independent columns")
        # k pivots make the rows independent, so the constructor's
        # conversion and elimination are not run again
        out = SubspaceW.__new__(SubspaceW)
        out.q, out.k = self.q, self.k
        out.columns = tuple(tuple(Fraction(x, row[a]) for x in row)
                            for row, a in zip(rows, pivots))
        out._reduced = rows, pivots
        return out

    def to_json(self) -> dict:
        return {"columns": [[str(x) for x in col] for col in self.columns]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "SubspaceW":
        return cls(obj["columns"])


def _gauss_jordan(columns) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination, in Python ints, of the matrix whose rows
    are columns with their common denominator cleared.

    Returns (rows, pivots).  pivots are the first coordinates at which
    the rows are independent, as many as their rank, and rows[s] is 0
    at every pivot but pivots[s]; each row is kept primitive.
    """
    mult = lcm(*(x.denominator for col in columns for x in col))
    rows = [[x.numerator * (mult // x.denominator) for x in col] for col in columns]
    k = len(rows)
    pivots = []
    for a in range(len(rows[0])):
        s = len(pivots)
        t = next((t for t in range(s, k) if rows[t][a]), None)
        if t is None:
            continue
        rows[s], rows[t] = rows[t], rows[s]
        top = rows[s]
        for u, row in enumerate(rows):
            f = row[a]
            if f and u != s:
                row = [top[a] * x - f * y for x, y in zip(row, top)]
                g = gcd(*row) or 1  # a zero row: the rows are dependent
                rows[u] = [x // g for x in row]
        pivots.append(a)
        if s + 1 == k:
            break
    return rows, pivots


class HodgeDatum:
    """Graded dimensions plus the wedge action of a basis of V.

    dims[i][j] = dim H^j(Omega^i) for 0 <= i, j <= d.  The action maps
    (a, i, j), with a in 1..q, to the matrix of wedging with v_a from
    H^j(Omega^i) to H^j(Omega^{i+1}); absent matrices are zero.  A datum
    is not mutated after construction: the split of each column into
    equal summands, with their integer action, is cached on the instance
    (see :meth:`summand`).
    """

    __slots__ = ("d", "q", "dims", "action", "metadata", "_summands")

    def __init__(self, d, q, dims, action, metadata=None):
        self.d = whole_number(d)
        self.q = whole_number(q)
        table = tuple(tuple(whole_number(x) for x in row) for row in dims)
        if self.d < 1 or self.q < 1:
            raise DataError("need d >= 1 and q >= 1")
        if len(table) != self.d + 1 or any(len(r) != self.d + 1 for r in table):
            raise DataError("dims must be a (d+1) x (d+1) table")
        if any(x < 0 for row in table for x in row):
            raise DataError("negative dimension in dims")
        if table[0][0] < 1:
            raise DataError("h[0][0] must be at least 1")
        if table[1][0] != self.q:
            raise DataError("h[1][0] must equal q")
        self.dims = table

        acts: dict[tuple[int, int, int], SparseRat] = {}
        for (a, i, j), mat in dict(action).items():
            a, i, j = whole_number(a), whole_number(i), whole_number(j)
            if not (1 <= a <= self.q):
                raise DataError(f"action index a={a} outside 1..q")
            if not (0 <= i < self.d and 0 <= j <= self.d):
                raise DataError(f"action position (i={i}, j={j}) out of range")
            if not isinstance(mat, SparseRat):
                mat = SparseRat.from_dense(mat)
            want = (table[i + 1][j], table[i][j])
            if mat.shape != want:
                raise DataError(
                    f"action matrix (a={a}, i={i}, j={j}) has shape "
                    f"{mat.shape}, expected {want}"
                )
            if not mat.is_zero():
                acts[(a, i, j)] = mat
        self.action = acts
        self.metadata = dict(metadata or {})
        self._summands: dict[int, tuple] = {}

    def action_matrix(self, a, i, j) -> SparseRat:
        want = (self.dims[i + 1][j], self.dims[i][j])
        mat = self.action.get((a, i, j))
        return mat if mat is not None else SparseRat(want)

    def summand(self, j: int) -> tuple[int, tuple[int, ...], tuple]:
        """Column j as copies of one summand: (copies, sizes, acts), cached per j.

        The summands are the connected components of the graph that joins
        the basis vectors of the pieces H^j(Omega^i), i = 0..d, wherever
        some M_a has an entry between them.  Every M_a maps each one into
        itself, so each (r, j) complex is the direct sum of the complexes
        of the components.  When there are several, and they all have the
        same size in every piece and the same action with their basis
        vectors taken in the order of the column, copies is their number
        and sizes and acts describe the first one; otherwise copies is 1
        and they describe the whole column.

        sizes[i] is the summand's dimension in piece i.  acts[i], for
        i < d, is its action at (i, j) with denominators cleared:
        (den, keys, stacked), den the lcm of the denominators of every
        M_a there, keys the sorted flat positions row * sizes[i] + col
        where some M_a is nonzero, and stacked the q x len(keys) matrix
        whose row a - 1 holds den * M_a at those positions; int64 when
        every entry is below 2**62 in magnitude, exact Python ints
        otherwise.  Callers must not mutate the arrays.
        """
        hit = self._summands.get(j)
        if hit is None:
            hit = self._summands[j] = _split_column(self, j)
        return hit

    def check_anticommutation(self):
        """First (a, b, i, j) with M_a M_b + M_b M_a != 0, or None."""
        for i in range(self.d - 1):
            for j in range(self.d + 1):
                for a in range(1, self.q + 1):
                    for b in range(a, self.q + 1):
                        ab = self.action_matrix(a, i + 1, j).compose(
                            self.action_matrix(b, i, j)
                        )
                        ba = self.action_matrix(b, i + 1, j).compose(
                            self.action_matrix(a, i, j)
                        )
                        if not ab.plus(ba).is_zero():
                            return (a, b, i, j)
        return None

    def tensor(self, other: "HodgeDatum") -> "HodgeDatum":
        """Kunneth product: the datum of X x Y from the data of X and Y.

        dims are the convolution of the factors' dims.  The basis of the
        piece (I, J) runs over the pieces (i1, j1) of the first factor in
        lexicographic order, and within each over pairs of basis vectors,
        first-factor index major.  A form v_a of the first factor acts as
        M_a (x) 1; a form v_b of the second, numbered self.q + b, acts as
        (-1)^(i1 + j1) 1 (x) M_b.  The metadata is left empty.
        """
        d = self.d + other.d
        dims = [[0] * (d + 1) for _ in range(d + 1)]
        pieces1 = list(itertools.product(range(self.d + 1), repeat=2))
        pieces2 = list(itertools.product(range(other.d + 1), repeat=2))
        offset = {}  # (I, J, i1, j1) -> first position of that block in piece (I, J)
        for (i1, j1), (i2, j2) in itertools.product(pieces1, pieces2):
            offset[(i1 + i2, j1 + j2, i1, j1)] = dims[i1 + i2][j1 + j2]
            dims[i1 + i2][j1 + j2] += self.dims[i1][j1] * other.dims[i2][j2]
        entries: dict[tuple[int, int, int], dict] = {}

        for (a, i1, j1), mat in self.action.items():
            for i2, j2 in pieces2:
                I, J, n2 = i1 + i2, j1 + j2, other.dims[i2][j2]
                src, dst = offset[(I, J, i1, j1)], offset[(I + 1, J, i1 + 1, j1)]
                out = entries.setdefault((a, I, J), {})
                for (r, c), v in mat.entries.items():
                    for s in range(n2):
                        out[(dst + r * n2 + s, src + c * n2 + s)] = v

        for (b, i2, j2), mat in other.action.items():
            values = [(r, c, (v, -v)) for (r, c), v in mat.entries.items()]
            n2, m2 = other.dims[i2][j2], other.dims[i2 + 1][j2]
            for i1, j1 in pieces1:
                I, J, koszul = i1 + i2, j1 + j2, (i1 + j1) % 2
                src, dst = offset[(I, J, i1, j1)], offset[(I + 1, J, i1, j1)]
                out = entries.setdefault((self.q + b, I, J), {})
                for r, c, pm in values:
                    for s in range(self.dims[i1][j1]):
                        out[(dst + s * m2 + r, src + s * n2 + c)] = pm[koszul]

        action = {}
        for (a, I, J), ent in entries.items():
            action[(a, I, J)] = mat = SparseRat((dims[I + 1][J], dims[I][J]))
            mat.entries = ent  # nonzero factor entries up to sign, at positions in range
        return HodgeDatum(d, self.q + other.q, dims, action)

    def to_json(self) -> dict:
        action = []
        for (a, i, j) in sorted(self.action):
            mat = self.action[(a, i, j)]
            item = {"a": a, "i": i, "j": j}
            if mat.shape[0] * mat.shape[1] <= 1600:
                item["matrix"] = [[str(v) for v in row] for row in mat.dense()]
            else:
                item["entries"] = [
                    [r, c, str(v)] for (r, c), v in sorted(mat.entries.items())
                ]
            action.append(item)
        return {
            "d": self.d,
            "q": self.q,
            "dims": [list(row) for row in self.dims],
            "action": action,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "HodgeDatum":
        try:
            dims = obj["dims"]
            action = {}
            for item in obj.get("action", ()):
                a, i, j = (whole_number(item[key]) for key in "aij")
                if (a, i, j) in action:
                    raise DataError(f"duplicate action item (a={a}, i={i}, j={j})")
                if "matrix" in item:
                    mat = SparseRat.from_dense(item["matrix"])
                else:
                    ent = {(r, c): v for r, c, v in item["entries"]}
                    mat = SparseRat((dims[i + 1][j], dims[i][j]), ent)
                action[(a, i, j)] = mat
            return cls(obj["d"], obj["q"], dims, action, obj.get("metadata"))
        except DataError:
            raise
        # ArithmeticError: an entry "1/0" (ZeroDivisionError), or a JSON
        # number such as 1e400 that loads as float infinity (OverflowError)
        except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise DataError(f"malformed datum JSON: {exc}") from exc


def _split_column(datum: HodgeDatum, j: int) -> tuple[int, tuple[int, ...], tuple]:
    """The uncached :meth:`HodgeDatum.summand`."""
    d, q = datum.d, datum.q
    sizes = [datum.dims[i][j] for i in range(d + 1)]
    # every stored entry of every M_a at (., j): a, piece, row, column, value
    mats = [(a, i, m.entries) for (a, i, jj), m in sorted(datum.action.items()) if jj == j]
    counts = [len(ent) for _, _, ent in mats]
    a_ = np.repeat(np.array([a for a, _, _ in mats], dtype=np.int64), counts)
    i_ = np.repeat(np.array([i for _, i, _ in mats], dtype=np.int64), counts)
    rows, cols = np.array([rc for *_, ent in mats for rc in ent], dtype=np.int64).reshape(-1, 2).T
    vals = [v for *_, ent in mats for v in ent.values()]

    copies = 1
    split = _equal_components(sizes, a_, i_, rows, cols, vals)
    if split is not None:
        copies, sizes, keep, rows, cols = split
        a_, i_, rows, cols = a_[keep], i_[keep], rows[keep], cols[keep]
        vals = [v for v, k in zip(vals, keep.tolist()) if k]

    acts = []
    for i in range(d):
        at = np.flatnonzero(i_ == i)
        # a piece too large for int64 positions is refused before assembly
        dtype = np.int64 if sizes[i] * sizes[i + 1] < 2**63 else object
        keys, pos = np.unique(rows[at].astype(dtype) * sizes[i] + cols[at], return_inverse=True)
        here = [vals[x] for x in at.tolist()]
        den = lcm(*(v.denominator for v in here))
        stacked = np.zeros((q, len(keys)), dtype=object)
        for a, x, v in zip(a_[at].tolist(), pos.tolist(), here):
            stacked[a - 1, x] = v.numerator * (den // v.denominator)
        if all(abs(x) < 2**62 for x in stacked.flat):
            stacked = stacked.astype(np.int64)
        acts.append((den, keys, stacked))
    return copies, tuple(sizes), tuple(acts)


def _equal_components(sizes, a_, i_, rows, cols, vals):
    """The first of several equal components of a column, or None.

    The column has pieces of dimensions sizes, and entry e of its action
    is vals[e] at (rows[e], cols[e]) of M_{a_[e]} at piece i_[e].
    Returns (count, sizes, keep, rows, cols): the number of components,
    the first one's dimensions, the mask of its entries, and every
    entry's row and column renumbered inside its own component.
    """
    d = len(sizes) - 1
    nodes = sum(sizes)
    # a basis vector on no edge would be a component on its own
    if not 0 < nodes <= 2 * len(vals):
        return None
    start = np.concatenate(([0], np.cumsum(sizes)))
    src, dst = start[i_] + cols, start[i_ + 1] + rows
    if np.count_nonzero(np.bincount(np.concatenate((src, dst)), minlength=nodes)) < nodes:
        return None
    _, comp = np.unique(_component_roots(nodes, src, dst), return_inverse=True)
    count = int(comp.max()) + 1
    if count == 1:
        return None
    group = comp * (d + 1) + np.repeat(np.arange(d + 1), sizes)
    per = np.bincount(group, minlength=count * (d + 1))
    # each node's position among its component's nodes in its piece
    local = np.empty(nodes, dtype=np.int64)
    first = np.repeat(np.cumsum(per) - per, per)
    local[np.argsort(group, kind="stable")] = np.arange(nodes) - first
    lr, lc, e_comp = local[dst], local[src], comp[src]
    per = per.reshape(count, d + 1)
    n_entries = np.bincount(e_comp, minlength=count)
    if (per != per[0]).any() or (n_entries != n_entries[0]).any():
        return None
    # the components side by side, entries in (a, piece, row, column)
    # order: equal components give equal rows of table
    seen = {}  # keyed by int pairs, which hash far faster than Fractions
    ids = np.array(
        [seen.setdefault((v.numerator, v.denominator), len(seen)) for v in vals], dtype=np.int64
    )
    order = np.lexsort((lc, lr, i_, a_, e_comp))
    table = np.stack((a_, i_, lr, lc, ids))[:, order].reshape(5, count, -1)
    if (table != table[:, :1]).any():
        return None
    return count, per[0].tolist(), e_comp == 0, lr, lc


def _sym_basis(k: int, m: int) -> list[tuple[int, ...]]:
    """Monomial basis of Sym^m on k letters: size-m multisets, lex order."""
    return list(itertools.combinations_with_replacement(range(k), m))


# Bound on the contraction cache, far above the 126 (k, m, t) keys that the
# q = 2..6 exactness battery uses.
_CONTRACTION_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_CONTRACTION_CACHE_SIZE)
def _contraction_coo(k: int, m: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix of d/d(w_t): Sym^m -> Sym^{m-1} in coordinate form.

    Returns int64 arrays (rows, cols, vals), cached and read-only: column
    col is the multiset at position col of :func:`_sym_basis`(k, m), and
    where it holds t, its entry is the multiplicity of t, in the row of
    the multiset with one t removed.
    """
    dst_index = {ms: i for i, ms in enumerate(_sym_basis(k, m - 1))}
    rows, cols, vals = [], [], []
    for col, ms in enumerate(_sym_basis(k, m)):
        mult = ms.count(t)
        if mult:
            at = ms.index(t)
            rows.append(dst_index[ms[:at] + ms[at + 1 :]])
            cols.append(col)
            vals.append(mult)
    arrays = tuple(np.array(x, dtype=np.int64) for x in (rows, cols, vals))
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class ComplexOfMatrices:
    """Terms and integer differentials of one derivative complex.

    The complex is the direct sum of copies equal summands.  maps[i] is
    the matrix of the i-th differential (term i to term i+1) of one
    summand, times the inverse of map_scales[i]; term_dims are those of
    the whole complex, so each summand's term i has dimension
    term_dims[i] // copies.  Ranks and homology only ever see the
    integer part, the scale matters for printing exact entries.
    """

    term_dims: tuple[int, ...]
    maps: tuple = field(hash=False)
    map_scales: tuple[Fraction, ...] = field(hash=False)
    labels: tuple = ()
    copies: int = 1

    def __eq__(self, other):
        # the generated __eq__ would compare the maps' arrays with their
        # elementwise ==, whose truth value is ambiguous; the maps are
        # canonical, so equal matrices have equal arrays
        if not isinstance(other, ComplexOfMatrices):
            return NotImplemented
        return (
            self.term_dims == other.term_dims
            and self.copies == other.copies
            and self.map_scales == other.map_scales
            and self.labels == other.labels
            and len(self.maps) == len(other.maps)
            and all(
                a.shape == b.shape and all(map(np.array_equal, a[1:], b[1:]))
                for a, b in zip(self.maps, other.maps)
            )
        )


def _compose_is_zero(later: Csr, earlier: Csr) -> bool:
    """Whether later @ earlier vanishes, computed exactly.

    Each entry (i, k) of later is expanded against row k of earlier, and
    the products are summed at their positions by :func:`_canonical_csr`.
    """
    if not (later.nnz and earlier.nnz):
        return True
    # an entry of the product, and each partial sum of it, adds at most
    # one term per entry of a row of later, each below mx_l * mx_e
    mx_l, mx_e = int(abs(later.data).max()), int(abs(earlier.data).max())
    m, n = later.shape[0], earlier.shape[1]
    if mx_l * mx_e * int(np.diff(later.indptr).max()) < 2**62 and m * n < 2**63:
        # term x pairs entry ent[x] of later, in column k, with entry
        # at[x] of earlier, which runs over row k
        lengths = np.diff(earlier.indptr)[later.indices]
        ent = np.repeat(np.arange(later.nnz), lengths)
        offset = earlier.indptr[later.indices] - (np.cumsum(lengths) - lengths)
        at = np.arange(len(ent)) + np.repeat(offset, lengths)
        rows = np.repeat(np.arange(m), np.diff(later.indptr))[ent]
        flat = rows * n + earlier.indices[at]
        return _canonical_csr((m, n), [flat], [later.data[ent] * earlier.data[at]]).nnz == 0
    # int64 could overflow: redo the product in exact big-int arithmetic
    return _to_sparse_rat(later).compose(_to_sparse_rat(earlier)).is_zero()


def _to_sparse_rat(mat: Csr) -> SparseRat:
    """mat as a SparseRat, entries in Python ints."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    ent = zip(rows.tolist(), mat.indices.tolist(), mat.data.tolist())
    return SparseRat(mat.shape, {(r, c): v for r, c, v in ent})


def term_dims(datum: HodgeDatum, k: int, r: int, j: int) -> tuple[int, ...]:
    """Dimensions of the n + 1 terms of the (r, j) complex over a k-dimensional W.

    Term i is Sym^{r-i} W (x) H^j(Omega^i), for i = 0..n, n = min(r, d).
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if not (0 <= j <= datum.d):
        raise ValueError(f"need 0 <= j <= d={datum.d}")
    return tuple(comb(r - i + k - 1, k - 1) * datum.dims[i][j] for i in range(min(r, datum.d) + 1))


def build_complex(
    datum: HodgeDatum, W: SubspaceW, r: int, j: int, stop_at=None
) -> ComplexOfMatrices:
    """Assemble the (r, j) complex over W with exact integer matrices.

    Column j of the datum is copies equal summands (see
    :meth:`HodgeDatum.summand`), and so is the complex: its maps are
    those of one summand, its term_dims those of the whole complex.  The
    length is always n = min(r, d), and term_dims lists all n + 1
    terms.  Without stop_at every differential is assembled; with
    stop_at=t only maps 0..min(t, n) - 1 are, which is exactly what
    exactness_prefix(c, stop_at=t) reads.  Compositions of consecutive
    assembled differentials are asserted to vanish; a violation is
    diagnosed back to the first anticommutation failure in the datum.
    The walk refuses positions that need a map past the last assembled
    one (see :func:`_certified_walk`).
    """
    if W.q != datum.q:
        raise ValueError(f"W lives in dimension {W.q}, datum has q={datum.q}")
    if stop_at is not None and stop_at < 0:
        raise ValueError("need stop_at >= 0")
    dims = term_dims(datum, W.k, r, j)
    k = W.k
    n = len(dims) - 1
    built = n if stop_at is None else min(stop_at, n)

    w_den = lcm(*(x.denominator for col in W.columns for x in col))
    copies, sizes, acts = datum.summand(j)
    int_acts = acts[:n]
    m_den = lcm(*(den for den, _, _ in int_acts))
    w_int = [[int(x * w_den) for x in col] for col in W.columns]
    scale = Fraction(1, w_den * m_den)

    maps = []
    for i in range(built):
        h_src, h_dst = sizes[i], sizes[i + 1]
        shape = (comb(r - i - 1 + k - 1, k - 1) * h_dst, comb(r - i + k - 1, k - 1) * h_src)
        if shape[0] * shape[1] >= 2**63:
            raise DataError(f"differential of shape {shape} is too large to assemble")
        # row t of acc: sum over a of w_t[a] * M_a at the positions in keys
        den, keys, stacked = int_acts[i]
        coeffs = [[x * (m_den // den) for x in col] for col in w_int]
        # int64 is exact when q * max|coeff| * max|entry| stays below 2**62
        top = max(abs(x) for col in coeffs for x in col) * max(int(abs(stacked).max(initial=0)), 1)
        dtype = np.int64 if top * datum.q < 2**62 else object
        acc = np.array(coeffs, dtype=dtype) @ stacked.astype(dtype, copy=False)
        flat_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for t in range(k):
            nz = np.flatnonzero(acc[t])
            if not nz.size:
                continue
            ctr, ctc, ctv = _contraction_coo(k, r - i, t)
            if int(ctv.max()) * int(abs(acc[t, nz]).max()) * (k + 1) >= 2**62:
                raise DataError("matrix entries too large for int64 assembly")
            at_key = keys[nz]
            at_val = acc[t, nz].astype(np.int64)
            # kron(C_t, A_t) written out directly in coordinate form, each
            # entry at its flat position row * shape[1] + col
            rows = ctr[:, None] * h_dst + at_key[None, :] // h_src
            cols = ctc[:, None] * h_src + at_key[None, :] % h_src
            flat_parts.append((rows * shape[1] + cols).ravel())
            vals_parts.append((ctv[:, None] * at_val[None, :]).ravel())
        maps.append(_canonical_csr(shape, flat_parts, vals_parts))

    for i in range(built - 1):
        if not _compose_is_zero(maps[i + 1], maps[i]):
            viol = datum.check_anticommutation()
            if viol is not None:
                a, b, vi, vj = viol
                raise DataError(
                    "consecutive differentials do not compose to zero; "
                    f"the datum violates anticommutation at (a={a}, b={b}, "
                    f"i={vi}, j={vj})"
                )
            raise RuntimeError("composition-zero failed with a consistent datum")

    return ComplexOfMatrices(
        term_dims=dims,
        maps=tuple(maps),
        map_scales=tuple([scale] * built),
        labels=(r, j, n, "multiset-lex"),
        copies=copies,
    )


def _canonical_csr(shape, flat_parts, vals_parts) -> Csr:
    """The int64 CSR matrix with entries vals_parts summed at flat_parts.

    Equal flat positions row * shape[1] + col are summed and zero sums
    dropped, so the result is canonical: sorted column indices, no
    duplicates, no explicit zeros.  The sums of :func:`build_complex`'s
    parts are exact in int64: positions within one part are distinct,
    so at most k parts meet at a position, and the (k + 1)-term guard
    there keeps each term below 2**62 / (k + 1), so every sum stays
    below 2**62.
    """
    m, n = shape
    if not any(part.size for part in flat_parts):
        empty = np.zeros(0, dtype=np.int64)
        return Csr(shape, np.zeros(m + 1, dtype=np.int64), empty, empty)
    flat = np.concatenate(flat_parts)
    order = np.argsort(flat)
    flat = flat[order]
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    sums = np.add.reduceat(np.concatenate(vals_parts)[order], starts)
    keep = sums != 0
    rows, cols = np.divmod(flat[starts[keep]], n)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return Csr(shape, indptr, cols, sums[keep])


_DENSE_RANK_LIMIT = 60_000_000


def _refuse_dense(shape) -> None:
    """Refuse, as a DataError, a dense array of more than _DENSE_RANK_LIMIT entries."""
    if shape[0] * shape[1] > _DENSE_RANK_LIMIT:
        raise DataError(
            f"matrix of shape {tuple(shape)} is too large for a dense rank; "
            "restrict the requested homology window"
        )


def _dense(shape, indptr, indices, data) -> np.ndarray:
    """The CSR arrays of a matrix scattered into a dense int64 array.

    Entries at a repeated position are summed.  Refuses, as a DataError,
    a matrix with more than _DENSE_RANK_LIMIT entries.
    """
    _refuse_dense(shape)
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, (np.repeat(np.arange(shape[0]), np.diff(indptr)), indices), data)
    return out


def _component_roots(n_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component, edges u[e] -- v[e].

    Min-label hooking with pointer jumping: every round hooks the larger
    of the two roots across each edge onto the smaller and then flattens
    the trees, until no edge joins two roots.
    """
    parent = np.arange(n_nodes)
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _independent_blocks(mat: Csr) -> list[Csr]:
    """The diagonal blocks of mat up to a permutation of rows and columns.

    Blocks are the connected components of the bipartite graph joining
    row r to column c wherever mat stores an entry at (r, c), each a
    :class:`Csr` whose arrays are read straight from mat's.
    Rows and columns keep their relative order inside a block, and so do
    the entries inside a row, so blocks that are equal up to that
    relabelling come out with equal arrays.  Empty rows and columns
    belong to no block.  rank(mat) is the sum of the block ranks, over Q
    and over every F_p.
    """
    m, n = mat.shape
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    counts = np.diff(indptr)
    roots, labels = np.unique(
        _component_roots(m + n, np.repeat(np.arange(m), counts), m + indices.astype(np.int64)),
        return_inverse=True,
    )
    count = len(roots)
    if count == 1:
        return [mat]
    # renumber rows and columns block by block, then cut the diagonal;
    # new row x is old row row_src[x], whose entries keep their order
    row_lab, col_lab = labels[:m], labels[m:]
    row_src = np.argsort(row_lab, kind="stable")
    col_pos = np.empty(n, dtype=np.int64)
    col_pos[np.argsort(col_lab, kind="stable")] = np.arange(n)
    new_counts = counts[row_src]
    new_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    take = np.repeat(indptr[row_src] - new_indptr[:-1], new_counts) + np.arange(new_indptr[-1])
    new_indices = col_pos[indices[take]]
    new_data = data[take]
    row_ends = np.cumsum(np.bincount(row_lab, minlength=count))
    col_ends = np.cumsum(np.bincount(col_lab, minlength=count))
    blocks = []
    for b in range(count):
        r0, r1 = (int(row_ends[b - 1]) if b else 0), int(row_ends[b])
        c0, c1 = (int(col_ends[b - 1]) if b else 0), int(col_ends[b])
        if r0 < r1 and c0 < c1:
            lo, hi = new_indptr[r0], new_indptr[r1]
            blocks.append(
                Csr(
                    (r1 - r0, c1 - c0),
                    new_indptr[r0 : r1 + 1] - lo,
                    new_indices[lo:hi] - c0,
                    new_data[lo:hi],
                )
            )
    return blocks


def _sum_over_blocks(mat: Csr, block_rank) -> int:
    """Sum of block_rank(block) over the independent blocks of mat.

    Blocks with equal CSR arrays (see :func:`_independent_blocks`) are
    ranked once.  The ranks of the blocks add up to the rank of mat, over
    Q and over every F_p, so sums of per-block bounds are bounds too.
    """
    if min(mat.shape) == 0 or mat.nnz == 0:
        return 0
    seen: dict[tuple, int] = {}
    total = 0
    for block in _independent_blocks(mat):
        shape, indptr, indices, data = block
        key = (shape, indptr.tobytes(), indices.tobytes(), data.tobytes())
        if key not in seen:
            seen[key] = block_rank(block)
        total += seen[key]
    return total


def _cert_rank_lb(mat: Csr, p: int, needed: int) -> int:
    """Lower bound for rank(mat) over F_p, hence over Q, capped at needed.

    First the structural pivots of the whole map: its row pivots, then
    its column pivots (steps 1 and 2 of :func:`_block_rank_lb`).  When
    either count reaches needed, that is the result.  Otherwise it is
    the sum over the independent blocks of :func:`_block_rank_lb`, with
    needed capped at each block's smaller side, and where that sum still
    falls short the walk ranks mat by the lifted kernels of
    :func:`_rank_exact_csr`.  Whenever no block's Schur complement has
    its columns projected (see :func:`_schur_rank_lb`) the result is
    min(needed, rank_p(mat)).

    The whole map settles what its blocks would: a block keeps its rows,
    columns and entries in order, and each row and each column belongs
    to at most one block, so the whole map's row-pivot count is the sum
    of its blocks' counts, and so is its column-pivot count.  Every
    block bound is at least the block's row-pivot count, so the block
    sum reaches needed whenever the whole map's row count does.  It is
    also at least the block's column-pivot count unless the column
    projection in :func:`_schur_rank_lb` lost rank; only then can the
    column count settle a map that the blocks would not, with a bound
    that is still a lower bound.
    """
    (m, n), indptr, indices, data = mat
    flat = np.repeat(np.arange(m), np.diff(indptr)) * n + indices
    if (np.diff(flat) <= 0).any():
        # a row's first stored entry is taken as its leading one, which
        # needs sorted column indices and summed duplicates
        mat = _canonical_csr((m, n), [flat], [data])
    live = mat.data % p != 0
    if len(_structural_pivots(mat, live)[0]) >= needed or _column_pivot_count(mat, live) >= needed:
        return needed
    total = _sum_over_blocks(mat, lambda b: _block_rank_lb(b, p, min(needed, *b.shape)))
    return min(needed, total)


def _block_rank_lb(block: Csr, p: int, needed: int) -> int:
    """Lower bound for the rank of one block over F_p, aimed at needed.

    block is canonical (see :class:`Csr`).  The steps run in this order,
    each only when the ones before fall short of needed, and steps 3 and
    4 exclude each other:

    1. The structural pivots of the rows, :func:`_structural_pivots`.
    2. The structural pivots of the columns,
       :func:`_column_pivot_count`.  Both counts need no arithmetic,
       read one mask of the entries nonzero mod p, and are lower bounds
       for rank_p.  :func:`_cert_rank_lb` has already run them on the
       whole map, which fell short; here they run again on the block,
       aimed at the block's own needed.
    3. For a block no longer than needed + 32 on either side, a dense
       :func:`rank_mod` of the block.
    4. Otherwise the Schur complement S of the k row pivots:
       rank_p(block) = k + rank_p(S), and :func:`_schur_rank_lb` bounds
       rank_p(S).
    """
    live = block.data % p != 0
    piv_rows, piv_cols = _structural_pivots(block, live)
    k = len(piv_rows)
    if k >= needed:
        return k
    column_k = _column_pivot_count(block, live)
    if column_k >= needed:
        return column_k
    if needed + 32 >= max(block.shape):
        return rank_mod(_dense(*block), p)
    return k + _schur_rank_lb(block, p, needed - k, piv_rows, piv_cols)


def _structural_pivots(block: Csr, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot rows of a canonical CSR block mod p, and their leading columns.

    live marks the entries nonzero mod p.  A row's leading column is its
    first one with a live entry.  Returns (piv_rows, piv_cols): for each
    distinct leading column piv_cols[i], in increasing order, one row
    piv_rows[i] leading there.  Ordered by their leading columns these
    rows are in echelon form, so they are independent mod p and their
    number is a lower bound for rank_p (Faugere and Lachartre's
    structural pivots).  :func:`_column_pivot_count` is the same count
    taken over the columns.
    """
    shape, indptr, indices, _ = block
    # positions of the live entries, then the first one at or after
    # each row start: the row's leading entry when still in the row
    at = np.append(np.flatnonzero(live), len(live))
    first = at[np.searchsorted(at, indptr[:-1])]
    lead_rows = np.flatnonzero(first < indptr[1:])
    row_at = np.full(shape[1], -1)
    row_at[indices[first[lead_rows]]] = lead_rows
    piv_cols = np.flatnonzero(row_at >= 0)
    return row_at[piv_cols], piv_cols


def _column_pivot_count(block: Csr, live: np.ndarray) -> int:
    """Number of distinct leading rows among the columns of a CSR block.

    live marks the entries nonzero mod p, and a column's leading row is
    its first one with a live entry.  One column for each distinct
    leading row, ordered by those rows, is in column-echelon form, so
    the count is a lower bound for rank_p: the structural pivots of the
    transposed block.
    """
    (m, n), indptr, indices, _ = block
    rows = np.repeat(np.arange(m), np.diff(indptr))[live]
    lead = np.full(n, m)  # m: the column has no live entry
    np.minimum.at(lead, indices[live], rows)
    return int(np.count_nonzero(np.bincount(lead, minlength=m + 1)[:m]))


def _schur_rank_lb(block: Csr, p: int, needed: int, piv_rows, piv_cols) -> int:
    """Lower bound for rank_p(S), S the Schur complement of the pivot block.

    With the pivots of :func:`_structural_pivots`, order the rows and
    columns of the block as [[A, B], [C, D]]: A the pivot rows at their
    leading columns, upper triangular with a diagonal nonzero mod p, B
    the rest of the pivot rows, C the rest of the pivot columns and D the
    remainder.  Then S = D - C A^{-1} B and, A being invertible mod p,
    rank_p(block) = k + rank_p(S) (Guttman's rank additivity).

    When S has more than needed + 32 columns, a random projection h
    with coefficients in [0, 4), the low two bits of bytes from a
    generator seeded by the shape, compresses them to needed + 16; it can
    only lose rank.  h is applied to B and D before the solve, so only
    X = A^{-1} (B h) and S h are formed, and :func:`rank_mod` ranks S h
    (or S) whole.  A X = B is solved by level scheduling: a pivot
    whose row of A is diagonal has level 0, any other one more than the
    highest level its row reaches, so the rows of a level depend only on
    lower levels and each level is one CSR slice times the dense X
    (:func:`_csr_dot`).

    Every product is exact.  The int64 ones (B h, the level products and
    C X) sum at most max(m, n) terms below p**2 each; the check below
    keeps them under 2**62, which for MOD_PRIMES allows 2**24 rows or
    columns.  The only floating-point arithmetic is rank_mod's, inside
    its own budget.  The dense arrays (B and D stacked, then X and S in
    the same room) are refused past _DENSE_RANK_LIMIT entries.
    """
    shape, indptr, indices, data = block
    m, n = shape
    if max(m, n) * p * p >= 2**62:
        raise ValueError("modulus too large for the exact integer budget")
    rows = np.repeat(np.arange(m), np.diff(indptr))
    vals = data % p
    live = vals != 0
    rows, cols, vals = rows[live], indices[live].astype(np.int64), vals[live]
    k = len(piv_rows)
    t = needed + 16
    pivot_of_row = np.full(m, -1)
    pivot_of_row[piv_rows] = np.arange(k)
    pivot_of_col = np.full(n, -1)
    pivot_of_col[piv_cols] = np.arange(k)
    rest_rows = np.flatnonzero(pivot_of_row < 0)
    rest_cols = np.flatnonzero(pivot_of_col < 0)

    # levels of the pivots, from the strictly upper entries of A
    i, j = pivot_of_row[rows], pivot_of_col[cols]
    upper = (i >= 0) & (j > i)
    up_i, up_j = i[upper], j[upper]
    level = np.zeros(k, dtype=np.int64)
    while True:
        raised = level.copy()
        np.maximum.at(raised, up_i, level[up_j] + 1)
        if np.array_equal(raised, level):
            break
        level = raised
    order = np.argsort(level, kind="stable")  # the pivot at each solve position
    pos = np.empty(k, dtype=np.int64)
    pos[order] = np.arange(k)
    ends = np.cumsum(np.bincount(level, minlength=1))
    diag = np.empty(k, dtype=np.int64)
    on_diag = (i >= 0) & (j == i)
    diag[pos[i[on_diag]]] = vals[on_diag]
    values, which = np.unique(diag, return_inverse=True)
    inverse = np.array([pow(int(x), -1, p) for x in values], dtype=np.int64)[which]

    # B and D side by side: the rest columns, or h applied to them
    project = len(rest_cols) > needed + 32
    width = t if project else len(rest_cols)
    _refuse_dense((m, width))
    if project:
        draw = random.Random((m * 1000003 + n) & 0x7FFFFFFF)
        raw = np.frombuffer(draw.randbytes(len(rest_cols) * t), dtype=np.uint8)
        h = np.zeros((n, t), dtype=np.int64)
        h[rest_cols] = (raw & 3).reshape(-1, t)
        right = _csr_dot(Csr(shape, indptr, indices, data % p), h) % p
    else:
        col_at = np.full(n, -1)
        col_at[rest_cols] = np.arange(width)
        keep = col_at[cols] >= 0
        right = np.zeros((m, width), dtype=np.int64)
        right[rows[keep], col_at[cols[keep]]] = vals[keep]

    # X = A^{-1} B level by level, A's rows and columns in solve order
    a_rows, a_cols, a_vals = pos[up_i], pos[up_j], vals[upper]
    by_row = np.argsort(a_rows, kind="stable")
    a_cols, a_vals = a_cols[by_row], a_vals[by_row]
    a_ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(a_rows, minlength=k), out=a_ptr[1:])
    x = right[piv_rows[order]]
    x[: ends[0]] = x[: ends[0]] * inverse[: ends[0], None] % p
    for lo, hi in zip(ends[:-1], ends[1:]):
        first, last = a_ptr[lo], a_ptr[hi]
        a_level = Csr(
            (hi - lo, k), a_ptr[lo : hi + 1] - first, a_cols[first:last], a_vals[first:last]
        )
        x[lo:hi] = (x[lo:hi] - _csr_dot(a_level, x)) % p * inverse[lo:hi, None] % p

    # S = D - C X, with C's rows the rest rows and its columns in solve order
    in_c = (i < 0) & (j >= 0)
    c_ptr = np.zeros(len(rest_rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[in_c], minlength=m)[rest_rows], out=c_ptr[1:])
    c = Csr((len(rest_rows), k), c_ptr, pos[j[in_c]], vals[in_c])
    return rank_mod((right[rest_rows] - _csr_dot(c, x)) % p, p)


def _csr_dot(mat: Csr, x: np.ndarray) -> np.ndarray:
    """mat @ x for a two-dimensional dense x, in the dtype of their product.

    The rows are taken longest first, so the rows holding an s-th stored
    entry are a prefix of that order, and pass s adds the s-th entry of
    each of them times its row of x in one gathered step: as many passes
    as the longest row has entries.  Each row's entries are added in
    their stored order, so every partial sum is a sum of at most as many
    terms as the row holds, the count the callers' budgets assume.
    """
    (m, _), indptr, indices, data = mat
    lengths = np.diff(indptr)
    order = np.argsort(-lengths, kind="stable")
    starts = indptr[:-1][order]
    # longer[s]: how many rows have more than s entries
    longer = m - np.cumsum(np.bincount(lengths))
    acc = np.zeros((m, x.shape[1]), dtype=np.result_type(data, x))
    for s, count in enumerate(longer[:-1].tolist()):
        at = starts[:count] + s
        acc[:count] += data[at, None] * x[indices[at]]
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _csr_transpose(mat: Csr) -> Csr:
    """The transpose of mat, canonical when mat is: a stable argsort of
    the column indices keeps each new row's entries in old row order."""
    (m, n), indptr, indices, data = mat
    order = np.argsort(indices, kind="stable")
    indptr_t = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=indptr_t[1:])
    rows = np.repeat(np.arange(m), np.diff(indptr))
    return Csr((n, m), indptr_t, rows[order], data[order])


def _rank_exact_csr(mat: Csr) -> int:
    """Exact rank of mat: the sum of :func:`_block_rank_exact` over its blocks."""
    return _sum_over_blocks(mat, _block_rank_exact)


def _block_rank_exact(block: Csr) -> int:
    """Exact rank of one block, certified by a kernel lifted from F_p to Q.

    B is the block or its transpose, whichever has fewer columns (the
    smaller kernel).  For each prime p of LIFT_PRIMES in turn, the RREF of
    B mod p gives r_p <= rank_Q(B) and a kernel basis mod p that is the
    identity on the n - r_p free columns.  The basis is carried to Q by
    the Chinese remainder theorem over the primes so far and rational
    reconstruction, scaled to integers, and checked to satisfy B K = 0
    exactly.  The identity rows make the columns of K independent, so a
    passing check gives rank_Q(B) <= r_p, and the rank is r_p.

    A prime whose rank is lower, or whose pivot columns are
    lexicographically later, than the best seen so far is unlucky and
    skipped; a better one restarts the lift.  Bareiss elimination runs
    only when no lift passes its check.
    """
    b = _csr_transpose(block) if block.shape[1] > block.shape[0] else block
    dense = _dense(*b)
    n = dense.shape[1]
    best = None
    for p in LIFT_PRIMES:
        reduced, pivots = rref_mod(dense, p)
        if len(pivots) == n:
            return n  # n = r_p <= rank_Q <= n
        is_free = np.ones(n, dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        residues = -reduced[:, free] % p
        here = (len(pivots), [-x for x in pivots.tolist()])
        if best is None or here > best:
            best, modulus, lifted = here, p, residues
        elif here == best:
            # the residues mod modulus * p that reduce to lifted and residues
            if modulus * p >= 2**62:
                lifted = lifted.astype(object)
            step = (residues - lifted % p) * pow(modulus, -1, p) % p
            lifted, modulus = lifted + modulus * step, modulus * p
        else:
            continue
        kernel = _integral_kernel(lifted, modulus, pivots, free)
        if kernel is not None and _annihilates(b, kernel):
            return len(pivots)
    return rank_exact(dense)


def _integral_kernel(lifted, modulus: int, pivots: np.ndarray, free: np.ndarray):
    """Integer kernel candidate from the reduced entries lifted mod modulus.

    lifted[i, f] is -R[i, free[f]] for the RREF R, so column f of the
    kernel is lifted[:, f] on the pivot rows and the unit vector of
    free[f] on the free rows.  Each column is reconstructed over Q and
    multiplied by the lcm of its denominators.  None when some entry has
    no rational reconstruction.
    """
    fractions = rational_reconstruction(lifted, modulus)
    if fractions is None:
        return None
    num, den = fractions
    den = den.astype(object)
    scale = np.lcm.reduce(den, axis=0) if den.size else np.ones(len(free), dtype=object)
    kernel = np.zeros((len(pivots) + len(free), len(free)), dtype=object)
    kernel[pivots] = num * (scale // den)
    kernel[free, np.arange(len(free))] = scale
    if kernel.size and abs(kernel).max() < 2**62:
        kernel = kernel.astype(np.int64)
    return kernel


def _annihilates(b: Csr, kernel: np.ndarray) -> bool:
    """Whether b @ kernel vanishes, computed exactly."""
    if not kernel.size or not b.nnz:
        return True
    widest = int(np.diff(b.indptr).max())
    if kernel.dtype != object:
        top = widest * int(abs(b.data).max()) * int(abs(kernel).max())
        if top < 2**62:
            return not _csr_dot(b, kernel).any()
    # int64 could overflow: the same product in exact Python ints
    return not _csr_dot(b._replace(data=b.data.astype(object)), kernel.astype(object)).any()


def _certified_walk(c: ComplexOfMatrices, stop_at, method: str):
    """Homology positions in order, stopping early where possible.

    Yields (position, h_i) with exact h_i = d_i - r_i - r_prev.  With
    method="auto" each rank r_i is certified from both sides.  One
    modular rank per block gives a lower bound (modular rank never
    exceeds rational rank).  min(shape) bounds r_i from above, and so does
    d_i - r_prev, because homology over Q is non-negative.  When the lower
    bound reaches the smaller upper bound, r_i is pinned; in particular
    h_i = 0 when that bound is d_i - r_prev.  Any other map is ranked
    exactly by :func:`_rank_exact_csr`.  method="exact" ranks every map
    whole by Bareiss elimination, independently of all of the above.
    Either way the walk runs on one of the c.copies equal summands, with
    d_i = term_dims[i] // c.copies, and yields c.copies * h_i.

    The length n comes from term_dims.  Position i < n reads map i, so a
    complex assembled with build_complex(..., stop_at=t) serves the
    first t positions; a position past them raises ValueError rather
    than report a homology the missing map would change.
    """
    n = len(c.term_dims) - 1
    limit = n + 1 if stop_at is None else min(stop_at, n + 1)
    r_prev = 0
    for i in range(limit):
        d_i = c.term_dims[i] // c.copies
        if i == n:
            yield i, c.copies * (d_i - r_prev)
            return
        if i >= len(c.maps):
            raise ValueError(
                f"map {i} of this complex was not assembled "
                f"(built with stop_at={len(c.maps)})"
            )
        mat = c.maps[i]
        if method == "auto":
            needed = min(d_i - r_prev, *mat.shape)
            r_i = _cert_rank_lb(mat, MOD_PRIMES[0], needed)
            if r_i != needed:
                r_i = _rank_exact_csr(mat)
        elif mat.nnz:
            r_i = rank_exact(_dense(*mat))
        else:
            r_i = 0
        h_i = d_i - r_i - r_prev
        if h_i < 0:
            raise RuntimeError("negative homology dimension; rank bookkeeping bug")
        yield i, c.copies * h_i
        r_prev = r_i


def homology_dims(c: ComplexOfMatrices, method: str = "auto") -> tuple[int, ...]:
    """Exact homology dimensions at every position, cokernel included.

    method="exact" forces fraction-free elimination throughout;
    method="auto" uses modular certificates where they pin the answer
    and falls back to exact elimination elsewhere.  Both return exact
    values.  The Euler-characteristic identity is asserted on each run.
    """
    if method not in ("auto", "exact"):
        raise ValueError("method must be 'auto' or 'exact'")
    dims = [h for _, h in _certified_walk(c, None, method)]
    lhs = sum((-1) ** i * d for i, d in enumerate(c.term_dims))
    rhs = sum((-1) ** i * h for i, h in enumerate(dims))
    if lhs != rhs:
        raise RuntimeError("Euler characteristic mismatch; rank bookkeeping bug")
    return tuple(dims)


def exactness_prefix(c: ComplexOfMatrices, stop_at=None, method: str = "auto") -> int:
    """Number of leading positions with vanishing homology.

    With stop_at=t the walk ends after t positions, returning min(t,
    true prefix); that is enough to decide "prefix >= t" without
    touching the larger matrices deeper in the complex, so c may come
    from build_complex(..., stop_at=t), which does not assemble them.
    """
    if method not in ("auto", "exact"):
        raise ValueError("method must be 'auto' or 'exact'")
    prefix = 0
    for _, h in _certified_walk(c, stop_at, method):
        if h:
            break
        prefix += 1
    return prefix


@dataclass(frozen=True)
class E2Table:
    """Homology dimensions e[i][j] over one W, with antidiagonal sums."""

    r: int
    entries: tuple[tuple[int, ...], ...]  # indexed [i][j]
    hyper: tuple[int, ...]

    def nonzero(self) -> list[tuple[int, int, int]]:
        return [
            (i, j, e)
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
            if e
        ]

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "entries": [list(row) for row in self.entries],
            "hyper": list(self.hyper),
        }


def e2_table(datum: HodgeDatum, W: SubspaceW, r: int, method: str = "auto") -> E2Table:
    """Homology of the (r, j) complexes for all j, plus antidiagonals."""
    n = min(r, datum.d)
    cols = []
    for j in range(datum.d + 1):
        cols.append(homology_dims(build_complex(datum, W, r, j), method=method))
    entries = tuple(tuple(cols[j][i] for j in range(datum.d + 1)) for i in range(n + 1))
    hyper = tuple(
        sum(entries[i][m - i] for i in range(n + 1) if 0 <= m - i <= datum.d)
        for m in range(n + datum.d + 1)
    )
    return E2Table(r=r, entries=entries, hyper=hyper)

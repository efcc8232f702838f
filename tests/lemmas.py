"""Constructions the test suite needs to check the paper's lemmas.

No command runs these, so they live with the tests, on top of the public
API of icbound:

- random subspace tuples over GF(p), and the two operations that realize
  the tightening map B on them: the quotient of every space by one of them,
  and the projection of every space along a complement of one of them;
- reduced row echelon form over GF(p) (the package ranks through the
  subset-lattice walk `gf.span_ranks` and never needs one), and from it
  inversion and null spaces of matrices;
- the closure operator of a matroid, read from its rank vector;
- the inner product of two set vectors.
"""

from random import Random
from typing import List, Optional, Sequence, Tuple

from icbound import kernels
from icbound.errors import InputError
from icbound.gf import EchelonBasis
from icbound.tighten import SubspaceTuple


# -- linear algebra over GF(p) -------------------------------------------------


def rref(rows: Sequence[Sequence[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form; returns (rows copy in RREF, pivot columns)."""
    work = [[v % p for v in row] for row in rows]
    if not work:
        return [], []
    return work, kernels.gfp_rref(work, p)


def nullspace(rows: Sequence[Sequence[int]], p: int, ncols: int) -> List[List[int]]:
    """Basis of {x : A x = 0} as a list of length-ncols vectors."""
    red, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [0] * ncols
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-red[i][f]) % p
        basis.append(vec)
    return basis


def inverse(rows: Sequence[Sequence[int]], p: int) -> List[List[int]]:
    """Inverse of a square matrix; raises InputError when singular."""
    m = len(rows)
    aug = []
    for i, row in enumerate(rows):
        if len(row) != m:
            raise InputError("inverse needs a square matrix")
        ext = [v % p for v in row] + [0] * m
        ext[m + i] = 1
        aug.append(ext)
    aug, pivots = rref(aug, p)
    if pivots != list(range(m)):
        raise InputError("matrix is singular, cannot invert")
    return [row[m:] for row in aug]


# -- explicit subspace tuples over GF(p) --------------------------------------


def _echelon_space(rows, p: int, ambient: int) -> Tuple[Tuple[int, ...], ...]:
    basis = EchelonBasis(p, ambient)
    for vec in rows:
        basis.add(vec)
    return tuple(tuple(row) for row in basis.rows)


def random_subspace_tuple(
    p: int, ambient: int, count: int, max_dim: Optional[int] = None, seed: int = 0
) -> SubspaceTuple:
    """Seed-reproducible random tuple for property sampling.

    Each space is the span of a random generator set, echelonized so the
    stored rows form a basis; dimensions land anywhere from 0 to max_dim.
    """
    rng = Random(seed)
    cap = ambient if max_dim is None else min(max_dim, ambient)
    spaces = []
    for _ in range(count):
        gens = rng.randint(0, cap)
        rows = [
            [rng.randrange(p) for _ in range(ambient)] for _ in range(gens)
        ]
        spaces.append(_echelon_space(rows, p, ambient))
    return SubspaceTuple(p, ambient, tuple(spaces))


def quotient_tuple(tup: SubspaceTuple, index: int) -> SubspaceTuple:
    """Quotient every space by space[index] and drop that index.

    Coordinates are taken in the complement of the pivot columns of the
    quotienting space, so dimensions come out exactly as the joint-span
    differences the quotient formula predicts.
    """
    p = tup.p
    eb = EchelonBasis(p, tup.ambient)
    for vec in tup.spaces[index]:
        eb.add(vec)
    pivot_set = set(eb.pivots)
    keep = [j for j in range(tup.ambient) if j not in pivot_set]
    new_ambient = len(keep)
    new_spaces = []
    for i, space in enumerate(tup.spaces):
        if i == index:
            continue
        rows = []
        for vec in space:
            red = eb.reduce(vec)
            rows.append([red[j] for j in keep])
        new_spaces.append(_echelon_space(rows, p, new_ambient))
    return SubspaceTuple(p, new_ambient, tuple(new_spaces))


def project_tuple(tup: SubspaceTuple, index: int) -> SubspaceTuple:
    """Project every space onto the span of the others, keeping all indices.

    The projection kernel is chosen inside space[index]: a complement W of
    its intersection with the span of the rest, extended by a complement of
    the total span. Collapsing W is exactly what makes the dimensions drop
    by dim(all) - dim(others) on index-containing subsets and nowhere else.
    """
    p = tup.p
    m = tup.ambient
    probe = EchelonBasis(p, m)
    for i, space in enumerate(tup.spaces):
        if i != index:
            for vec in space:
                probe.add(vec)
    basis_rows = [row[:] for row in probe.rows]
    r1 = len(basis_rows)
    # vectors of space[index] that extend the others' span form a complement
    # of the intersection inside space[index]; these are the kernel directions
    for vec in tup.spaces[index]:
        if probe.add(vec):
            basis_rows.append(list(vec))
    for j in range(m):
        unit = [0] * m
        unit[j] = 1
        if probe.add(unit):
            basis_rows.append(unit)
    if len(basis_rows) != m:
        raise InputError("projection basis assembly failed")

    inv = inverse(basis_rows, p)
    new_spaces = []
    for space in tup.spaces:
        rows = []
        for vec in space:
            coeff = [0] * m
            for i in range(m):
                acc = 0
                for t in range(m):
                    acc += vec[t] * inv[t][i]
                coeff[i] = acc % p
            out = [0] * m
            for i in range(r1):
                ci = coeff[i]
                if ci:
                    row = basis_rows[i]
                    for t in range(m):
                        out[t] = (out[t] + ci * row[t]) % p
            rows.append(out)
        new_spaces.append(_echelon_space(rows, p, m))
    return SubspaceTuple(p, m, tuple(new_spaces))


# -- matroids and set vectors ----------------------------------------------------


def closure(matroid, mask: int) -> int:
    """All elements whose addition leaves the matroid rank of mask unchanged."""
    matroid.gs.check_mask(mask)
    out = mask
    base = matroid.ranks[mask]
    for i in range(matroid.gs.n):
        bit = 1 << i
        if not (mask & bit) and matroid.ranks[mask | bit] == base:
            out |= bit
    return out


def dot(u, w):
    """Exact inner product of two set vectors over the same ground set."""
    if u.gs != w.gs:
        raise InputError("set vectors over different ground sets")
    return sum(v * w.get(mask) for mask, v in u.items())

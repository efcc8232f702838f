"""Independent reference computations for the test suite.

Everything here is written straight from the definitions and shares no code
with the package: fractions.Fraction imported directly, its own closure and
rank routines, Fourier-Motzkin instead of simplex, dense matrices where
the package keeps sparse maps. Two exceptions: the schema checks drive a
schema through its own methods on row ids built here, adjoin_zero builds a
package Matroid, and fraction_verify is the certificate check with Fraction
sums, driving the instance and schema through their own methods. Slow is
fine; these only run on small inputs.
"""

from fractions import Fraction
from itertools import combinations, product

from icbound.certificate import _row_text
from icbound.errors import CertificateInvalid, InputError
from icbound.groundset import LatticeHom
from icbound.matroid import Matroid
from icbound.rational import rat
from icbound.schema import HomExtRow, HomExtSchema, SubmodRow, UnionSchema

F0 = Fraction(0)
F1 = Fraction(1)


# -- closure and LP constants from the receiver list --------------------------


def closure_once(receivers, s):
    """S plus every message someone can decode knowing a subset of S."""
    out = s
    for want, knows in receivers:
        if knows & ~s == 0:
            out |= 1 << want
    return out


def scan_decoded(receivers, known, candidates):
    """The messages in candidates that a receiver wanting them decodes from
    known: each candidate's receivers are scanned until one's side
    information lies inside known, as IndexCodingInstance once did."""
    knows_of = {}
    for want, knows in receivers:
        knows_of.setdefault(want, []).append(knows)
    out = 0
    for m, side in knows_of.items():
        if candidates >> m & 1:
            for knows in side:
                if not knows & ~known:
                    out |= 1 << m
                    break
    return out


def scan_closure(receivers, n, s, iterated):
    """s plus what scan_decoded finds outside it: one round, or rounds to a
    fixed point when iterated."""
    while True:
        grown = s | scan_decoded(receivers, s, ((1 << n) - 1) & ~s)
        if not iterated or grown == s:
            return grown
        s = grown


def step_cost(receivers, s, i):
    """c for the single-step pair (S, S+i): 1 unless i is decodable from S."""
    return 0 if closure_once(receivers, s) >> i & 1 else 1


def decoding_rows(n, receivers):
    """(s, t, c) for every single-step pair, t = s plus one message."""
    rows = []
    for s in range(1 << n):
        for i in range(n):
            if not s >> i & 1:
                rows.append((s, s | 1 << i, step_cost(receivers, s, i)))
    return rows


def elemental_rows(n):
    """(s, i, j) index triples of the elemental submodularity family."""
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = (1 << i) | (1 << j)
            rest = ((1 << n) - 1) & ~pair
            s = rest
            while True:
                rows.append((s, i, j))
                if s == 0:
                    break
                s = (s - 1) & rest
    return rows


# -- Fourier-Motzkin minimization of z_empty ----------------------------------


def _normalize(coeffs, rhs):
    lead = None
    for c in coeffs:
        if c:
            lead = abs(c)
            break
    if lead is None:
        return None if rhs >= 0 else ((), rhs)
    return (tuple(c / lead for c in coeffs), rhs / lead)


def fm_bound(n, receivers):
    """min z_empty of the bound LP, by eliminating every other variable.

    Variables are z_S over all subsets; constraints are the single-step
    decoding rows, the elemental submodularity rows, and z_full = n
    (substituted out up front). Exact rationals throughout.
    """
    nv = 1 << n
    full = nv - 1
    rows = []

    def add(coeffs, rhs):
        rhs -= coeffs[full] * n
        coeffs[full] = F0
        norm = _normalize(coeffs, rhs)
        if norm is not None:
            rows.append(norm)

    for s, t, c in decoding_rows(n, receivers):
        coeffs = [F0] * nv
        coeffs[t] += 1
        coeffs[s] -= 1
        add(coeffs, Fraction(c))
    for s, i, j in elemental_rows(n):
        coeffs = [F0] * nv
        coeffs[s | 1 << i | 1 << j] += 1
        coeffs[s] += 1
        coeffs[s | 1 << i] -= 1
        coeffs[s | 1 << j] -= 1
        add(coeffs, F0)

    for var in range(1, nv):  # keep z_empty, z_full already substituted
        pos, neg, keep = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[var] if var < len(coeffs) else F0
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                keep.append((coeffs, rhs))
        seen = {row for row in keep}
        for pc, pr in pos:
            for ncf, nr in neg:
                scale_p = -ncf[var]
                scale_n = pc[var]
                merged = [scale_p * pc[k] + scale_n * ncf[k] for k in range(nv)]
                rhs = scale_p * pr + scale_n * nr
                norm = _normalize(merged, rhs)
                if norm is not None:
                    seen.add(norm)
        rows = list(seen)
        assert len(rows) < 500_000, "fm blow-up; shrink the input"

    best = None
    for coeffs, rhs in rows:
        c = coeffs[0] if coeffs else F0
        if c < 0:
            low = rhs / c
            if best is None or low > best:
                best = low
        elif c == 0:
            assert rhs >= 0, "oracle LP infeasible"
    assert best is not None, "oracle LP unbounded below"
    return best


# -- graph helpers -------------------------------------------------------------


def mis_size(adj):
    """Maximum independent set size; adj[v] is v's neighbor mask."""
    memo = {}

    def rec(avail):
        if not avail:
            return 0
        hit = memo.get(avail)
        if hit is not None:
            return hit
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        best = max(rec(rest), 1 + rec(rest & ~adj[v]))
        memo[avail] = best
        return best

    return rec((1 << len(adj)) - 1)


def graphic_rank(nv, edges, subset_mask):
    """Rank of an edge subset in the cycle matroid, by union-find."""
    parent = list(range(nv))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rank = 0
    for k, (u, v) in enumerate(edges):
        if subset_mask >> k & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
    return rank


# -- finite-field rank ---------------------------------------------------------


def fp_rank(rows, p):
    """Row rank over GF(p), textbook elimination on a copy."""
    mat = [[v % p for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def fp_in_span(rows, vec, p):
    return fp_rank(rows + [vec], p) == fp_rank(rows, p)


def walk_span_ranks(p, ambient, gens):
    """Rank of the vectors gens[i], i in S, for every subset mask S, by the
    basis walk that gf.span_ranks once was: each mask below top extends its
    parent's basis (a tuple of (shift, row) pairs, the parent being the mask
    minus its lowest element) by reducing that element's vectors against
    every row again. Vectors pack one w-bit field per entry, w the bit
    length of (p-1)(1 + ambient(p-1)), one bit over GF(2)."""
    width = 1 if p == 2 else ((p - 1) * (1 + ambient * (p - 1))).bit_length()
    field = (1 << width) - 1
    shifts = range(0, width * ambient, width)
    packed = [[sum(v % p << t for v, t in zip(vec, shifts)) for vec in vecs] for vecs in gens]

    def grow(rows, vecs, cap):  # stops at rank cap
        for vec in vecs:
            if len(rows) == cap:
                break
            if p == 2:
                for shift, row in rows:
                    if vec >> shift & 1:
                        vec ^= row
                if vec:
                    rows += (((vec & -vec).bit_length() - 1, vec),)
                continue
            for shift, row in rows:
                f = (vec >> shift & field) % p
                if f:
                    vec += (p - f) * row
            for j, t in enumerate(shifts):
                f = (vec >> t & field) % p
                if f:
                    inv = pow(f, p - 2, p)
                    rows += ((t, sum((vec >> u & field) * inv % p << u for u in shifts[j:])),)
                    break
        return rows

    top = len(grow((), [vec for vecs in packed for vec in vecs], ambient))
    ranks = [top] * (1 << len(gens))
    below = [(0, (), len(gens))]  # mask, basis, index of its lowest element (n at 0)
    while below:
        s, rows, low = below.pop()
        ranks[s] = len(rows)
        for i in range(low):
            child = grow(rows, packed[i], top)
            if len(child) < top:
                below.append((s | 1 << i, child, i))
    return ranks


# -- matroid enumeration -------------------------------------------------------


def all_rank_functions(n):
    """Every matroid rank vector on n labeled elements (dense, index = mask)."""
    nv = 1 << n
    out = []
    ranks = [0] * nv

    def grow(m):
        if m == nv:
            out.append(tuple(ranks))
            return
        bits = [i for i in range(n) if m >> i & 1]
        lo = max(ranks[m & ~(1 << i)] for i in bits)
        hi = min(ranks[m & ~(1 << i)] for i in bits) + 1
        for i, j in combinations(bits, 2):
            hi = min(hi, ranks[m & ~(1 << i)] + ranks[m & ~(1 << j)]
                     - ranks[m & ~(1 << i) & ~(1 << j)])
        for r in range(lo, hi + 1):
            ranks[m] = r
            grow(m + 1)
        ranks[m] = 0

    grow(1)
    return out


def matroid_receivers(ranks, n, minimal=True):
    """(element, known mask) receivers of a matroid's index coding instance.

    For each element x, every set avoiding x whose rank x does not raise,
    in descending mask order; with minimal, only the sets that contain no
    other such set, found by comparing every pair.
    """
    out = []
    for x in range(n):
        bit = 1 << x
        sets = [s for s in range((1 << n) - 1, -1, -1)
                if not s & bit and ranks[s | bit] == ranks[s]]
        if minimal:
            sets = [s for s in sets
                    if not any(t != s and t & ~s == 0 for t in sets)]
        out += [(x, s) for s in sets]
    return out


def adjoin_zero(matroid, label="e"):
    """The same matroid with a rank-zero element appended as the last label."""
    gs = matroid.gs.append(label)
    old_full = matroid.gs.full_mask
    return Matroid(gs, [matroid.ranks[s & old_full] for s in range(1 << gs.n)])


def underrep_holds(ranks, n, rows, p):
    """The rows under-represent the matroid with these ranks, by definition:
    they are independent, and for every set S and element x outside it, x in
    the matroid closure of S puts x's column in the span of S's columns.
    Every (S, x) pair is tested."""
    if fp_rank(rows, p) != len(rows):
        return False
    span = [fp_rank([[row[j] for j in range(n) if s >> j & 1] for row in rows], p)
            for s in range(1 << n)]
    for s in range(1 << n):
        for x in range(n):
            bit = 1 << x
            if not s & bit and ranks[s | bit] == ranks[s] and span[s | bit] != span[s]:
                return False
    return True


# -- dense tightening matrices -------------------------------------------------


def dense_b0(m):
    """2^(m-1) x 2^m matrix of u |-> (S -> u(S+e) - u(e)); label e is last."""
    e_bit = 1 << (m - 1)
    rows = []
    for s in range(1 << (m - 1)):
        row = [F0] * (1 << m)
        row[s | e_bit] += 1
        row[e_bit] -= 1
        rows.append(row)
    return rows


def dense_bk(m, k):
    """2^m x 2^m matrix of u |-> (S -> u(S) + [k in S](u(full-k) - u(full)))."""
    full = (1 << m) - 1
    rows = []
    for s in range(1 << m):
        row = [F0] * (1 << m)
        row[s] += 1
        if s >> k & 1:
            row[full & ~(1 << k)] += 1
            row[full] -= 1
        rows.append(row)
    return rows


def matmul(a, b):
    out = []
    for row in a:
        acc = [F0] * len(b[0])
        for coef, brow in zip(row, b):
            if coef:
                for j, v in enumerate(brow):
                    if v:
                        acc[j] += coef * v
        out.append(acc)
    return out


def dense_tighten(m, order=None):
    """Full composite: drop the last label, then the correction per label."""
    mat = dense_b0(m)
    for k in order if order is not None else range(m - 1):
        mat = matmul(dense_bk(m - 1, k), mat)
    return mat


def matvec(mat, vec):
    return [sum((c * v for c, v in zip(row, vec) if c and v), F0) for row in mat]


def mat_tvec(mat, vec):
    out = [F0] * len(mat[0])
    for coef, row in zip(vec, mat):
        if coef:
            for j, v in enumerate(row):
                if v:
                    out[j] += coef * v
    return out


# -- exhaustive lattice homomorphisms -------------------------------------------


def role_maps(nd, nc):
    """Every (base, atom_images) pair of a hom from nd atoms to nc atoms.

    Each codomain atom independently lands in the base, in one domain atom's
    image, or nowhere, so there are (nd+2)^nc homs in total.
    """
    total = (nd + 2) ** nc
    for code in range(total):
        base = 0
        images = [0] * nd
        c = code
        for bit in range(nc):
            role = c % (nd + 2)
            c //= nd + 2
            if role == 0:
                base |= 1 << bit
            elif role <= nd:
                images[role - 1] |= 1 << bit
        yield base, tuple(images)


# -- the two schema lemmas -----------------------------------------------------


def schema_is_tight(schema, gs):
    """Every row sums to zero, over all subsets and over those holding any atom.

    A HomExt schema's rows are pushforwards of alpha, so it is tight when
    alpha is: checked over the generator, drop label included.
    """
    if isinstance(schema, UnionSchema):
        return schema_is_tight(schema.left, gs) and schema_is_tight(schema.right, gs)
    if isinstance(schema, HomExtSchema):
        gs, vecs = schema.generator, [schema.alpha]
    else:
        vecs = [schema.row_vector(row, gs) for row in schema.rows(gs)]
    for vec in vecs:
        items = list(vec.items())
        if sum(v for _, v in items) != 0:
            return False
        for i in range(gs.n):
            if sum(v for s, v in items if s >> i & 1) != 0:
                return False
    return True


def pushforward_commutes(schema, hom):
    """row_vector then pushforward equals pushforward_row then row_vector.

    Checked on every row id over hom's domain: each pair of subsets for
    submodularity, each hom from the generator for a HomExt schema. A union
    is checked side by side.
    """
    if isinstance(schema, UnionSchema):
        return (pushforward_commutes(schema.left, hom)
                and pushforward_commutes(schema.right, hom))
    dom, cod = hom.domain, hom.codomain
    if isinstance(schema, HomExtSchema):
        gen = schema.generator
        ids = [HomExtRow(schema.name, LatticeHom(gen, dom, base, images))
               for base, images in role_maps(gen.n, dom.n)]
    else:
        ids = [SubmodRow(s, t) for s in range(1 << dom.n) for t in range(1 << dom.n)]
    return all(schema.row_vector(row, dom).pushforward(hom)
               == schema.row_vector(schema.pushforward_row(hom, row), cod)
               for row in ids)


# -- primal feasibility of an entropy-style vector ------------------------------


def entropy_feasible(n, receivers, z, tol=F0):
    """z satisfies the bound LP rows: z_full = n, decoding, submodularity."""
    full = (1 << n) - 1
    if abs(z[full] - n) > tol:
        return False
    for s, t, c in decoding_rows(n, receivers):
        if z[t] - z[s] > c + tol:
            return False
    for s, i, j in elemental_rows(n):
        if z[s | 1 << i] + z[s | 1 << j] - z[s | 1 << i | 1 << j] - z[s] < -tol:
            return False
    return True


# -- scalar linear codes, the slow way -------------------------------------------


def rref_spaces(p, d, n):
    """One reduced-echelon matrix per d-dimensional row space of GF(p)^n."""
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        slots = [(i, j) for i in range(d)
                 for j in range(pivots[i] + 1, n) if j not in pivot_set]
        for fill in product(range(p), repeat=len(slots)):
            rows = [[0] * n for _ in range(d)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(slots, fill):
                rows[i][j] = v
            yield rows


def brute_decodes(n, receivers, p, rows):
    """Decodability by exhausting all p^n message vectors, no algebra."""
    words = list(product(range(p), repeat=n))
    for want, knows in receivers:
        seen = {}
        for x in words:
            broadcast = tuple(sum(q * v for q, v in zip(row, x)) % p
                              for row in rows)
            key = (broadcast, tuple(x[i] for i in range(n) if knows >> i & 1))
            prev = seen.get(key)
            if prev is None:
                seen[key] = x[want]
            elif prev != x[want]:
                return False
    return True


# -- the Fraction revised simplex ----------------------------------------------


def fraction_simplex(lp, crash=()):
    """The revised simplex on a dense Fraction basis inverse, as a reference.

    Same rules as `icbound.simplex.solve_standard_form`: crash pivots, forced
    exits of artificial rows, partial pricing by most positive reduced cost
    (ties to the lowest column id) and the lexicographic ratio test. Every
    quantity is a Fraction and BTRAN runs from scratch each iteration. lp is
    read through its attributes nrows, cols_idx, cols_val and cobj, and its
    right-hand side is e_0; the basic values are a vector of their own here.
    Returns (status, objective, x, y, iterations).
    """
    m = lp.nrows
    nstruct = len(lp.cols_idx)
    cobj = [Fraction(c) for c in lp.cobj]
    cols_val = [tuple(Fraction(v) for v in val) for val in lp.cols_val]
    binv = [[F1 if i == j else F0 for j in range(m)] for i in range(m)]
    xb = [F1 if i == 0 else F0 for i in range(m)]
    basis = [nstruct + i for i in range(m)]

    def ftran(col):
        d = [F0] * m
        for k, v in zip(lp.cols_idx[col], cols_val[col]):
            for i in range(m):
                if binv[i][k]:
                    d[i] += v * binv[i][k]
        return d

    def pivot(col, r, d):
        binv[r] = [v / d[r] if v else F0 for v in binv[r]]
        xb[r] /= d[r]
        for i in range(m):
            if i != r and d[i]:
                binv[i] = [a - d[i] * b if b else a for a, b in zip(binv[i], binv[r])]
                xb[i] -= d[i] * xb[r]
        basis[r] = col

    def reduced_cost(j, y):
        return cobj[j] - sum(v * y[k] for k, v in zip(lp.cols_idx[j], cols_val[j]))

    def lex_key(i, d):
        return [xb[i] / d[i]] + [v / d[i] for v in binv[i]]

    for col, row in crash:
        d = ftran(col)
        assert d[row] and basis[row] >= nstruct, "bad crash pivot"
        pivot(col, row, d)
    assert all(v >= 0 for v in xb), "crash basis is not feasible"

    chunk = max(64, nstruct // 16)
    cursor = 0
    iterations = 0
    while True:
        cb = [cobj[c] if c < nstruct else F0 for c in basis]
        weighted = [i for i in range(m) if cb[i]]
        y = [sum((cb[i] * binv[i][j] for i in weighted), F0) for j in range(m)]
        in_basis = set(basis)
        enter = -1
        scanned = 0
        while scanned < nstruct and enter < 0:
            lo, hi = cursor, min(nstruct, cursor + chunk)
            best = None
            for j in range(lo, hi):
                if j in in_basis:
                    continue
                rc = reduced_cost(j, y)
                if rc > 0 and (best is None or rc > best):
                    best, enter = rc, j
            scanned += hi - lo
            cursor = hi % nstruct
        if enter < 0:
            break
        d = ftran(enter)
        forced = [i for i in range(m) if d[i] and basis[i] >= nstruct]
        if forced:
            leave = forced[0]
        else:
            candidates = [i for i in range(m) if d[i] > 0]
            if not candidates:
                return "unbounded", None, None, None, iterations
            leave = min(candidates, key=lambda i: lex_key(i, d))
        pivot(enter, leave, d)
        iterations += 1

    x = [F0] * nstruct
    for i, c in enumerate(basis):
        if c < nstruct:
            x[c] = xb[i]
    objective = sum(cobj[j] * x[j] for j in range(nstruct))
    return "optimal", objective, x, y, iterations


def best_reduced_cost(y, lp, den, lo, hi):
    """What `icbound.kernels.price_columns` picks, one column at a time: the
    first column among lo..hi-1 of the most positive reduced cost times den,
    cobj[j] * den - a_j . y, and that cost, or (-1, 0) when none is
    positive."""
    best = (-1, 0)
    for j in range(lo, hi):
        rc = lp.cobj[j] * den - sum(v * y[i] for i, v in zip(lp.cols_idx[j], lp.cols_val[j]))
        if rc > best[1]:
            best = (j, rc)
    return best


def fraction_audit(lp, x, y):
    """The simplex audit one Fraction operation at a time, as a reference.

    Checks the optimum (x, y) against lp's data as given, in this order: x >= 0
    while the rows are summed, every primal row against e_0, every reduced
    cost against y, primal = dual objective. Returns None when all hold, else the message
    `icbound.simplex._audit` raises with.
    """
    m = lp.nrows
    nstruct = len(lp.cols_idx)
    lhs = [F0] * m
    for j in range(nstruct):
        xj = x[j]
        if not xj:
            continue
        if xj < 0:
            return "negative primal value in audit"
        for k, v in zip(lp.cols_idx[j], lp.cols_val[j]):
            lhs[k] += v * xj
    rhs = [1] + [0] * (m - 1)
    for i in range(m):
        if lhs[i] != rhs[i]:
            return f"audit: row {i} violated, {lhs[i]} != {rhs[i]}"
    for j in range(nstruct):
        rc = lp.cobj[j]
        for k, v in zip(lp.cols_idx[j], lp.cols_val[j]):
            if y[k]:
                rc -= v * y[k]
        if rc > 0:
            return f"audit: column {j} has positive reduced cost {rc}"
    primal = sum((lp.cobj[j] * x[j] for j in range(nstruct) if x[j]), F0)
    dual = sum((y[i] * rhs[i] for i in range(m) if rhs[i]), F0)
    if primal != dual:
        return f"audit: objective mismatch {primal} != {dual}"
    return None


# -- certificates, one Fraction at a time ----------------------------------------


def fraction_verify(instance, schema, cert):
    """`verify_certificate` with every sum a Fraction, as a reference: the
    same checks in the same order, the same value and the same messages."""
    if cert.schema_name != schema.name:
        raise InputError(
            f"certificate was written against schema {cert.schema_name!r}, "
            f"verifying against {schema.name!r}"
        )
    gs = instance.messages
    residual = {}
    value = F0
    for (s, t), v in cert.x.items():
        gs.check_mask(s)
        gs.check_mask(t)
        if s & ~t or s == t:
            raise CertificateInvalid(
                f"x entry on ({gs.labels_of(s)}, {gs.labels_of(t)}) is not a strictly nested pair"
            )
        if v < 0:
            raise CertificateInvalid(
                f"negative x weight {v} on ({gs.labels_of(s)}, {gs.labels_of(t)})")
        if v:
            v = rat(v)
            residual[s] = residual.get(s, F0) + v
            residual[t] = residual.get(t, F0) - v
            value += v * instance.dst(s, t, cert.closure)
    for row, v in cert.y.items():
        if v < 0:
            raise CertificateInvalid(f"negative y weight {v} on {_row_text(row, gs)}")
        if v:
            v = rat(v)
            for mask, c in schema.row_vector(row, gs).items():
                residual[mask] = residual.get(mask, F0) + v * c
    residual[0] = residual.get(0, F0) - F1
    residual[gs.full_mask] = residual.get(gs.full_mask, F0) + F1
    offenders = [mask for mask, c in residual.items() if c]
    if offenders:
        mask = min(offenders)
        raise CertificateInvalid(
            f"combination misses e_empty - e_full; first offender "
            f"{gs.labels_of(mask)} with excess {residual[mask]}"
        )
    if cert.claimed_value is not None and cert.claimed_value != value:
        raise CertificateInvalid(
            f"claimed value {cert.claimed_value} but the combination is worth {value}"
        )
    return value


# -- matroid axioms, one mask at a time -------------------------------------------


def axiom_failure(n, r):
    """The message `Matroid.check_axioms` raises for the rank vector r, or None.

    Normalization, then unit increase at every mask and element outside it,
    then submodularity at every mask and pair of elements outside it, each in
    ascending order; the first failure is reported.
    """
    if r[0] != 0:
        return "rank of the empty set must be 0"
    for s in range(1 << n):
        for i in range(n):
            bit = 1 << i
            if s & bit:
                continue
            step = r[s | bit] - r[s]
            if step not in (0, 1):
                return f"rank step {step} at mask {s} plus element {i}"
    for s in range(1 << n):
        for i in range(n):
            if s & (1 << i):
                continue
            for j in range(i + 1, n):
                if s & (1 << j):
                    continue
                a, b = s | (1 << i), s | (1 << j)
                if r[a] + r[b] < r[a | b] + r[s]:
                    return f"submodularity fails at masks {a}, {b}"
    return None

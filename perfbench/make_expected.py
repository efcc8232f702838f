"""Regenerate perfbench/expected.json, the benchmark's correctness references.

    python3 perfbench/make_expected.py

Run from the repository root. The file holds:

* closed-form and paper values for the fixed instances (C_n gives n/2,
  Fano and non-Fano give 4 under submod, Fano gives 73/18 with the odd
  parity row, products multiply their factors' values);
* a fixed pool of small random instances that the solve-small and lattice
  workloads sample from, each with its bound b and its minimum scalar
  linear code length over GF(2) (and GF(3) when n = 4);
* the pivot-path reference: the simplex iteration count of every instance,
  which the benchmark compares each run against.

No value here is taken from icbound alone. Every b is cross-checked against
an independent floating-point LP (HiGHS through scipy) built from the
oracle rows in tests/oracles.py, and every code length against an
exhaustive search with the oracle's own decoder. The Fourier-Motzkin oracle
(`fm_bound`) is used where it finishes, which in practice means n <= 3; it
does not finish on the 4- and 5-message pool within minutes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from inputs import FANO_COLUMNS, FANO_LABELS, cycle_receivers, matroid_receivers, parity_row  # noqa: E402

POOL_SEED = 1108_2489
POOL_SIZE = 160


def _random_instance(rng: random.Random, n: int, kind: str):
    """Receivers as (want, knows_mask) pairs, one of three shapes."""
    density = rng.uniform(0.25, 0.6)
    recs = set()
    if kind == "graph":
        adj = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    adj[i][j] = adj[j][i] = True
        for w in range(n):
            recs.add((w, sum(1 << j for j in range(n) if adj[w][j])))
    elif kind == "digraph":
        for w in range(n):
            recs.add((w, sum(1 << j for j in range(n) if j != w and rng.random() < density)))
    else:
        for w in range(n):
            for _ in range(rng.randint(1, 2)):
                recs.add((w, sum(1 << j for j in range(n) if j != w and rng.random() < density)))
    return sorted(recs)


def _highs_bound(n: int, receivers) -> float:
    """min z_empty of the bound LP in floating point, from the oracle rows."""
    from scipy.optimize import linprog

    nv = 1 << n
    a_ub, b_ub = [], []
    for s, t, c in oracles.decoding_rows(n, receivers):
        row = [0.0] * nv
        row[t] += 1
        row[s] -= 1
        a_ub.append(row)
        b_ub.append(float(c))
    for s, i, j in oracles.elemental_rows(n):
        row = [0.0] * nv
        row[s | 1 << i] -= 1
        row[s | 1 << j] -= 1
        row[s | 1 << i | 1 << j] += 1
        row[s] += 1
        a_ub.append(row)
        b_ub.append(0.0)
    eq = [0.0] * nv
    eq[nv - 1] = 1.0
    cost = [0.0] * nv
    cost[0] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=[eq], b_eq=[float(n)],
                  bounds=[(None, None)] * nv, method="highs")
    if res.status != 0:
        raise SystemExit(f"HiGHS failed: {res.message}")
    return res.fun


def _oracle_linear_rate(n: int, receivers, p: int) -> int:
    """Least d such that some d-dimensional row space decodes, by brute force."""
    for d in range(n + 1):
        for rows in oracles.rref_spaces(p, d, n):
            if oracles.brute_decodes(n, receivers, p, rows):
                return d
    return n


def _solve(icb, n: int, receivers):
    gs = icb.GroundSet(tuple(str(i + 1) for i in range(n)))
    inst = icb.IndexCodingInstance(gs, receivers)
    return inst, icb.solve_problem(icb.build_problem(inst))


def main() -> int:
    import icbound as icb
    from icbound.formats import schema_by_name
    from icbound.lincode import min_scalar_linear_rate

    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    kinds = ("graph", "digraph", "receivers")
    while len(pool) < POOL_SIZE:
        n = (4, 5)[len(pool) % 2]
        kind = kinds[(len(pool) // 2) % 3]
        receivers = _random_instance(rng, n, kind)
        if (n, tuple(receivers)) in seen:
            continue
        seen.add((n, tuple(receivers)))
        inst, sol = _solve(icb, n, receivers)
        b = Fraction(int(sol.value.numerator), int(sol.value.denominator))
        ref = _highs_bound(n, receivers)
        if abs(ref - float(b)) > 1e-7:
            raise SystemExit(f"pool entry {len(pool)}: icbound b = {b}, HiGHS {ref}")
        entry = {
            "name": f"r{len(pool):03d}",
            "kind": kind,
            "n": n,
            "receivers": [[w, k] for w, k in receivers],
            "b": str(b),
            "iterations": sol.iterations,
        }
        for p in (2, 3):
            if p == 3 and n > 4:
                continue
            lam = _oracle_linear_rate(n, receivers, p)
            if min_scalar_linear_rate(inst, p) != lam:
                raise SystemExit(f"pool entry {entry['name']}: GF({p}) code length disagrees")
            if lam < b:
                raise SystemExit(f"pool entry {entry['name']}: code shorter than the bound")
            entry[f"lambda{p}"] = lam
        pool.append(entry)
        print(entry["name"], n, kind, entry["b"], entry["iterations"], flush=True)

    fixed = {}
    for length in (3, 4, 5, 7):
        n, receivers = length, cycle_receivers(length)
        expect = Fraction(length, 2) if length > 3 else Fraction(1)
        _, sol = _solve(icb, n, receivers)
        if length == 3 and oracles.fm_bound(n, receivers) != expect:
            raise SystemExit("fm_bound disagrees on C3")
        if sol.value != expect:
            raise SystemExit(f"C{length}: icbound gives {sol.value}, expected {expect}")
        fixed[f"C{length}"] = {"b": str(expect), "iterations": sol.iterations}

    paper = {
        ("fano", 2, "submod"): Fraction(4),
        ("nonfano", 3, "submod"): Fraction(4),
        ("fano", 2, "submod+fano-odd"): Fraction(73, 18),
        ("nonfano", 3, "submod+fano-odd"): Fraction(4),
    }
    for (name, p, schema_name), expect in paper.items():
        labels, receivers = matroid_receivers(FANO_LABELS, FANO_COLUMNS, p)
        matroid = icb.fano() if p == 2 else icb.nonfano()
        built = icb.to_index_coding(matroid)
        if sorted(built.receivers) != sorted(receivers):
            raise SystemExit(f"{name}: instance differs from to_index_coding")
        sol = icb.solve_problem(icb.build_problem(built, schema_by_name(schema_name)))
        if sol.value != expect:
            raise SystemExit(f"{name} under {schema_name}: {sol.value} != {expect}")
        fixed[f"{name}/{schema_name}"] = {"b": str(expect), "iterations": sol.iterations}
        print(name, schema_name, expect, sol.iterations, flush=True)

    for matroid, parity, expect in ((icb.fano(), "odd", Fraction(133, 33)),
                                    (icb.nonfano(), "even", Fraction(93, 23))):
        schema = schema_by_name(f"submod+fano-{parity}")
        inst = icb.to_index_coding(matroid)
        cert = icb.addineq_certificate(matroid, parity_row(icb, schema, inst), schema)
        if icb.verify_certificate(inst, schema, cert) != expect:
            raise SystemExit(f"addineq certificate for the {parity} row is not worth {expect}")

    out = {
        "about": "Correctness references for perfbench; regenerate with make_expected.py.",
        "fixed": fixed,
        "products": {
            "C5^2": "25/4",
            "C5^3": "125/8",
            "C5^4": "625/16",
            "fano/submod+fano-odd^2": str(Fraction(133, 33) ** 2),
            "nonfano/submod+fano-even^2": str(Fraction(93, 23) ** 2),
        },
        "pool_seed": POOL_SEED,
        "pool": pool,
    }
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Input files for the workloads, built without icbound.

Instances are written in icbound's JSON instance format straight from
receiver lists; matroid instances come from ranks computed by the oracle in
tests/oracles.py, so a bug in icbound cannot shape its own inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List, Sequence, Tuple

import oracles

FANO_LABELS = ("100", "010", "001", "110", "101", "011", "111")
FANO_COLUMNS = tuple(tuple(int(ch) for ch in lab) for lab in FANO_LABELS)

Receivers = List[Tuple[int, int]]


def cycle_receivers(length: int) -> Receivers:
    """C_n: receiver i wants message i and knows both neighbours."""
    return [(i, (1 << (i - 1) % length) | (1 << (i + 1) % length)) for i in range(length)]


def column_rank(columns: Sequence[Sequence[int]], mask: int, p: int) -> int:
    rows = [list(columns[i]) for i in range(len(columns)) if mask >> i & 1]
    return oracles.fp_rank(rows, p) if rows else 0


def matroid_receivers(labels, columns, p: int) -> Tuple[tuple, Receivers]:
    """Receivers of the matroid instance: x given each minimal S spanning it."""
    n = len(labels)
    ranks = [column_rank(columns, s, p) for s in range(1 << n)]
    receivers = []
    for x in range(n):
        bit = 1 << x
        spanning = [s for s in range(1 << n) if not s & bit and ranks[s | bit] == ranks[s]]
        for s in spanning:
            if not any(t != s and t & ~s == 0 for t in spanning):
                receivers.append((x, s))
    return tuple(labels), sorted(receivers)


def instance_json(labels: Sequence[str], receivers: Receivers) -> dict:
    return {
        "messages": list(labels),
        "receivers": [
            {"wants": labels[w], "knows": [labels[i] for i in range(len(labels)) if k >> i & 1]}
            for w, k in receivers
        ],
    }


def numbered(n: int) -> Tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path


def random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> List[List[int]]:
    """A rows x cols matrix over GF(p) of full row rank."""
    while True:
        mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        if oracles.fp_rank(mat, p) == rows:
            return mat


def parity_row(icb, schema, inst):
    """The schema's identity homomorphism row, the one the paper's bound uses."""
    return next(r for r in schema.rows(inst.messages)
                if isinstance(r, icb.SideRow) and r.side == 1)

"""Index coding instances: receivers, closure, lexicographic products.

An instance is a ground set of messages plus receivers (want, knows): the
receiver demands message `want` and already holds the messages in `knows`.
Undirected graphs embed as one receiver per vertex knowing its neighbors.
The closure of a set is one round of decoding, not a fixed point: the
single step that the bound LP and the combination theorem are stated for.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from operator import rshift
from typing import Iterable

from .errors import InputError, ResourceCapError
from .groundset import BlockEmbedding, GroundSet, bit_indices, popcount


class IndexCodingInstance:
    """Immutable instance; receivers are deduplicated and sorted.

    Decoding reads a packed index, built on the first closure or dst. Message
    m with r receivers is one int K_m of r fields, each n + 1 bits rounded up
    to whole bytes: field j holds the side information of m's j-th receiver,
    and bit n of every field, its guard bit, is clear. With OUT the messages
    outside s copied into every field, LOWS_m n ones in each of m's fields and
    TOPS_m their guard bits, ((K_m & OUT) + LOWS_m) & TOPS_m keeps the guard
    of exactly the receivers that know something outside s: some receiver of
    m decodes from s iff that differs from TOPS_m. Three big-int operations
    test all of m's receivers. The index holds n + 1 bits, rounded up to
    bytes, per receiver, beside one LOWS/TOPS pair per receiver count.
    """

    __slots__ = ("messages", "receivers", "_packed")

    def __init__(self, messages: GroundSet, receivers: Iterable[tuple[int, int]]):
        if messages.n == 0:
            raise InputError("an instance needs at least one message")
        self.messages = messages
        self.receivers = tuple(sorted(_checked(messages, list(receivers))))
        self._packed = None

    @classmethod
    def from_receivers(cls, messages: GroundSet,
                       pairs: Iterable[tuple[object, Iterable]]) -> "IndexCodingInstance":
        """Label-level constructor: pairs of (wanted label, known labels)."""
        return cls(messages, ((messages.index(w), messages.mask_of(ks))
                              for w, ks in pairs))

    @property
    def n(self) -> int:
        return self.messages.n

    def _pack(self) -> tuple:
        """(REP, per message (K_m, LOWS_m, TOPS_m)): REP is one 1 per field of
        the longest K_m, so (~s & full) * REP is OUT for every message."""
        n, full = self.messages.n, self.messages.full_mask
        width = (n + 8) // 8  # bytes per field: n side-information bits and the guard
        one = (1).to_bytes(width, "little")
        wants, knows = zip(*self.receivers) if self.receivers else ((), ())
        guards = {0: (0, 0), 1: (full, full + 1)}  # receiver count -> (LOWS, TOPS)
        packed = []
        start = 0
        for end in map(bisect_right, repeat(wants), range(n)):
            r = end - start
            if r not in guards:
                rep = int.from_bytes(one * r, "little")
                guards[r] = full * rep, rep << n
            k = knows[start] if r == 1 else int.from_bytes(b"".join(
                map(int.to_bytes, knows[start:end], repeat(width), repeat("little"))), "little")
            packed.append((k, *guards[r]))
            start = end
        self._packed = int.from_bytes(one * max(guards), "little"), packed
        return self._packed

    def _decoded(self, outside: int, candidates: int) -> int:
        """The messages in candidates that a receiver wanting them decodes
        from the messages not in outside, i.e. whose side information misses
        outside."""
        rep, packed = self._packed or self._pack()
        out = outside * rep
        decoded = 0
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            k, lows, tops = packed[bit.bit_length() - 1]
            if ((k & out) + lows) & tops != tops:
                decoded |= bit
        return decoded

    def closure(self, mask: int) -> int:
        """Messages decodable from the set in one step: mask plus every
        wanted message some receiver of which knows only messages of mask."""
        outside = self.messages.full_mask ^ self.messages.check_mask(mask)
        return mask | self._decoded(outside, outside)

    def dst(self, s: int, t: int) -> int:
        """Count of t's messages in closure(s) but not in s; only the
        messages of t outside s are tested, not every receiver."""
        outside = self.messages.full_mask ^ self.messages.check_mask(s)
        return popcount(self._decoded(outside, t & outside))

    def lex_product(self, other: "IndexCodingInstance") -> "IndexCodingInstance":
        """Lexicographic product: self is the outer factor, other the inner.

        Message (g, f) gets label "g:f"; the receiver for the pair of
        receivers (wg, Sg) and (wf, Sf) wants (wg, wf) and knows all inner
        copies of Sg plus Sf inside wg's own block.
        """
        nf = other.n
        gs = product_messages(self.messages, other.messages)
        embed = BlockEmbedding(self.messages, gs, nf)
        receivers = []
        for wg, sg in self.receivers:
            outer_knows = embed.apply(sg)
            for wf, sf in other.receivers:
                want = wg * nf + wf
                knows = outer_knows | (sf << (wg * nf))
                receivers.append((want, knows))
        return IndexCodingInstance(gs, receivers)

    def independence_number(self, cap: int = 40) -> int:
        """Exact graph independence number by branch and bound.

        Only for instances that are graphs in disguise: one receiver per
        message and a symmetric knows relation (side-information graphs and
        their lexicographic products). Anything else is out of scope here.
        """
        if self.n > cap:
            raise ResourceCapError(
                f"branch and bound capped at {cap} messages, instance has {self.n}")
        adj = [None] * self.n
        for want, knows in self.receivers:
            if adj[want] is not None:
                raise InputError("independence number needs a graph instance "
                                 "(one receiver per message)")
            adj[want] = knows
        if None in adj:
            raise InputError("independence number needs a graph instance "
                             "(every message demanded)")
        for v, mask in enumerate(adj):
            for u in bit_indices(mask):
                if not adj[u] >> v & 1:
                    raise InputError("independence number needs a graph "
                                     "instance (symmetric side information)")
        # Most-constrained vertices first shrinks the search tree.
        vertices = sorted(range(self.n), key=lambda v: (-popcount(adj[v]), v))
        best = 0

        def grow(count: int, candidates: list[int]):
            nonlocal best
            if count > best:
                best = count
            while candidates:
                if count + len(candidates) <= best:
                    return
                v = candidates[0]
                candidates = candidates[1:]
                grow(count + 1, [u for u in candidates if not adj[v] >> u & 1])
                # falling through drops v and continues with the remainder

        grow(0, vertices)
        return best


def _checked(messages: GroundSet, pairs: list) -> dict:
    """The distinct (want, knows) pairs as dict keys in their first order,
    which keeps sorting an already sorted list linear, each checked against
    messages: want indexes a message, knows is a mask of messages without
    want's bit. The checks run at C speed over all pairs; only when one fails
    does a loop find the first offender to word its error."""
    n, full = messages.n, messages.full_mask
    try:
        if set(map(len, pairs)) == {2}:
            wants, knows = zip(*pairs)
            if ({*map(type, wants), *map(type, knows)} == {int}
                    and 0 <= min(wants) and max(wants) < n
                    and 0 <= min(knows) and max(knows) <= full
                    and not any(map((1).__and__, map(rshift, knows, wants)))):
                return dict.fromkeys(zip(wants, knows))
    except TypeError:  # an entry that has no length
        pass
    clean = {}
    for k, (want, knows) in enumerate(pairs):
        if not 0 <= want < n:
            raise InputError(f"receivers[{k}] wants unknown message index {want}")
        messages.check_mask(knows)
        if knows & (1 << want):
            raise InputError(
                f"receivers[{k}] knows {messages.labels[want]!r}, the message it wants")
        clean[want, knows] = None
    return clean


def product_messages(outer: GroundSet, inner: GroundSet) -> GroundSet:
    """Messages of the lexicographic product: (g, f) is labelled "g:f" and
    sits at index g * inner.n + f."""
    return GroundSet(f"{g}:{f}" for g in outer.labels for f in inner.labels)


def from_graph(vertices: Iterable, edges: Iterable[tuple]) -> IndexCodingInstance:
    """Instance of an undirected graph: each vertex knows its neighbors."""
    gs = GroundSet(vertices)
    neighbors = [0] * gs.n
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise InputError(f"edge {edge!r} is not a pair")
        ui, vi = gs.index(u), gs.index(v)
        if ui == vi:
            raise InputError(f"self-loop at {u!r}")
        neighbors[ui] |= 1 << vi
        neighbors[vi] |= 1 << ui
    return IndexCodingInstance(gs, ((v, neighbors[v]) for v in range(gs.n)))


def cycle_instance(length: int = 5) -> IndexCodingInstance:
    """The n-cycle with vertices 1..n; the running 5-cycle example."""
    if length < 3:
        raise InputError("a cycle needs at least 3 vertices")
    verts = list(range(1, length + 1))
    edges = [(verts[i], verts[(i + 1) % length]) for i in range(length)]
    return from_graph(verts, edges)

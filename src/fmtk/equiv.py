"""Deciding bounded-quantifier-rank equivalence of finite structures.

Two routes are provided on purpose: canonical back-and-forth rank types
(memoized, the workhorse) and an explicit game search over the move tree
(slow, independent, used to cross-check the rank types).
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys

from .errors import check_guard
from .records import Record
from .structures import Structure

RANK_TYPE_GUARD = 2 * 10**6  # |A|^m, the positions a rank-m type of A visits
FACT_WIDTH_GUARD = 2**16  # bits of packed facts per point set of a rank type


class RankType(Record):
    """Canonical back-and-forth signature of ``(structure, tuple)`` at a rank.

    ``key`` is a canonical nested tuple: at rank 0 the atomic facts over the
    constants and the tuple, above that the duplicate-free sorted tuple of the
    one-element-extension keys one rank down. Two positions get equal keys
    exactly when the duplicator survives that many rounds between them.
    """

    __slots__ = ("rank", "key")

    def __init__(self, rank: int, key: tuple):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "key", key)

    @property
    def fingerprint(self) -> str:
        import hashlib  # here, so that importing fmtk does not load it

        try:
            text = repr((self.rank, self.key))
        except ValueError:
            # a fact mask past ``sys.get_int_max_str_digits()`` decimal digits
            text = _hex_text((self.rank, self.key))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hex_text(key) -> str:
    """``key``, a nest of tuples of ints, written with every int in hex."""
    if type(key) is tuple:
        return "(" + ",".join(map(_hex_text, key)) + ")"
    return hex(key)


# The rank-0 key of ``W`` points is ``(W, eq, masks)``: bit ``(i, j)`` of
# ``eq`` (pairs ``i < j`` in lexicographic order) says that points i and j are
# equal, and bit ``sum(c[k] * W**(arity-1-k))`` of a predicate's mask that the
# points at index combo ``c`` are in it. Packed, it is one int: ``eq``, then
# each predicate's mask in vocabulary order. A type whose leaves have ``W``
# points is laid out at width ``W`` from its root down, so the facts among a
# node's points already sit where its leaves need them: a child's facts are
# its parent's plus those that involve its new point.


@functools.lru_cache(maxsize=64)
def _layout(arities: tuple[int, ...], W: int) -> tuple:
    """Bit positions at width ``W``. ``steps[n]``: those of the facts that
    point ``n`` adds to points ``0 .. n-1`` (its equality with each, then per
    predicate: arity 1, its membership; arity 2, its out- and in-edge with
    each and its loop; arity 3 and up, the predicate's offset). ``blocks``:
    each predicate's offset and mask."""
    blocks = []
    off = W * (W - 1) // 2
    for arity in arities:
        blocks.append((off, (1 << W**arity) - 1))
        off += W**arity
    steps = []
    for n in range(W):
        preds = []
        for arity, (off, _) in zip(arities, blocks):
            if arity == 1:
                preds.append(off + n)
            elif arity == 2:
                preds.append(([off + i * W + n for i in range(n)], [off + n * W + i for i in range(n)],
                              off + n * W + n))
            else:
                preds.append(off)
        steps.append(([i * W - i * (i + 1) // 2 + n - i - 1 for i in range(n)], preds))
    return steps, blocks


def _unpack(W: int, blocks: list, leaves) -> list[tuple]:
    """The ``(W, eq, masks)`` keys of packed leaves of width ``W``."""
    eq_mask = (1 << W * (W - 1) // 2) - 1
    return [(W, x & eq_mask, tuple([x >> off & mask for off, mask in blocks])) for x in leaves]


def _fact_tables(A: Structure) -> tuple:
    """The arities, and per predicate what ``_columns`` reads: arity 1, the
    members; arity 2, the relation, its loops, and a slot for its successor
    and predecessor lists; arity 3 and up, the relation."""
    tables = []
    for name, arity in A.vocab.predicates:
        rel = A.relations[name]
        if arity == 1:
            tables.append([a for (a,) in rel])
        elif arity == 2:
            tables.append([rel, [a for a, b in rel if a == b], None])
        else:
            tables.append(rel)
    return tuple(arity for _, arity in A.vocab.predicates), tables


def _adjacency(size: int, rel: frozenset) -> tuple:
    succ: list = [[] for _ in range(size)]
    pred: list = [[] for _ in range(size)]
    for a, b in rel:
        succ[a].append(b)
        pred[b].append(a)
    return succ, pred


def _columns(A: Structure, tables: tuple, steps: list, pts: tuple[int, ...], prefix: int) -> list[int]:
    """The packed facts of ``pts + (b,)`` for every element ``b``: ``prefix``
    (the facts among ``pts``) plus those that involve ``b``."""
    n = len(pts)
    eq, preds = steps[n]
    col = [prefix] * A.size
    for p, pos in zip(pts, eq):
        col[p] |= 1 << pos
    for arity, table, step in zip(*tables, preds):
        if arity == 1:
            bit = 1 << step
            for b in table:
                col[b] |= bit
        elif arity == 2:
            outs, ins, loop = step
            if pts:
                if table[2] is None:  # built from the tuples once a node has points
                    table[2] = _adjacency(A.size, table[0])
                succ, pred = table[2]
                for a, pos in zip(pts, outs):
                    bit = 1 << pos
                    for b in succ[a]:
                        col[b] |= bit
                for a, pos in zip(pts, ins):
                    bit = 1 << pos
                    for b in pred[a]:
                        col[b] |= bit
            bit = 1 << loop
            for b in table[1]:
                col[b] |= bit
        else:
            W = len(steps)
            for c in itertools.product(range(n + 1), repeat=arity):
                if n in c:
                    bit = 1 << step + sum(i * W**k for k, i in enumerate(reversed(c)))
                    for b in range(A.size):
                        if tuple(pts[i] if i < n else b for i in c) in table:
                            col[b] |= bit
    return col


# ``_rt_cache`` entries besides the id of each computed ``(tuple, rank)``.
# Every node of rank 1 and up is interned as a small int: a rank-1 node by
# ``(W, frozenset of its leaves' packed facts)``, a higher one by the
# frozenset of its children's ids. Equal ids mean equal keys, whatever order
# the types were computed in; the nested key is expanded from the id.
_TABLES, _IDS, _NODES, _KEYS = "tables", "ids", "nodes", "keys"


def _expand(cache: dict, i: int) -> tuple:
    """The canonical nested key of interned node ``i``, memoized per id."""
    key = cache[_KEYS].get(i)
    if key is None:
        node = cache[_NODES][i]
        if type(node) is tuple:
            W, leaves = node
            key = tuple(sorted(_unpack(W, _layout(cache[_TABLES][0], W)[1], leaves)))
        else:
            key = tuple(sorted(_expand(cache, c) for c in node))
        cache[_KEYS][i] = key
    return key


def check_rank_type_cost(size: int, m: int) -> None:
    """Refuse a rank-``m`` type over ``size`` elements, before any of it is
    computed, when its cost ``size ** m`` is past ``RANK_TYPE_GUARD``. The
    power is multiplied out only until it passes the guard, so a huge ``m``
    costs nothing."""
    cost = 1
    for _ in range(m if size > 1 else 0):
        cost *= size
        if cost > RANK_TYPE_GUARD:
            break
    check_guard("rank type of cost |A|^m =", cost, RANK_TYPE_GUARD, "the rank-type guard",
                shown=f"{size}^{m}")


def rank_type(A: Structure, tup: tuple[int, ...] = (), m: int = 0) -> RankType:
    """Rank-``m`` type of ``tup`` in ``A``; ranks 1 and up are memoized on the
    structure. Held to ``RANK_TYPE_GUARD`` first, and a type not in the memo
    to ``FACT_WIDTH_GUARD`` before any of its facts are laid out."""
    if m < 0:
        raise ValueError(f"quantifier rank must be nonnegative, got {m}")
    check_rank_type_cost(A.size, m)
    for e in tup:
        if not 0 <= e < A.size:
            raise ValueError(f"tuple component {e} outside the universe")
    if 2 * m > sys.getrecursionlimit():
        # each rank is two frames of the recursion below; refuse a depth it
        # cannot reach before carrying facts down towards it
        raise RecursionError(f"a rank-{m} type nests deeper than the recursion limit")
    tup = tuple(tup)
    cache = A._rt_cache
    if cache is None:
        cache = {_TABLES: _fact_tables(A), _IDS: {}, _NODES: [], _KEYS: {}}
        object.__setattr__(A, "_rt_cache", cache)
    hit = cache.get((tup, m))
    if hit is not None:
        return RankType(m, _expand(cache, hit))
    W = len(A.constant_interp) + len(tup) + m
    # every position carries W(W-1)/2 equality bits and W**arity bits per
    # predicate, which |A|^m does not bound (a high rank on one element)
    width = W * (W - 1) // 2 + sum(W**arity for arity in cache[_TABLES][0])
    check_guard("packed fact width", width, FACT_WIDTH_GUARD, "the fact-width guard")
    tables, ids, nodes = cache[_TABLES], cache[_IDS], cache[_NODES]
    consts = tuple(A.constant_interp[c] for c in sorted(A.constant_interp))
    pts = consts + tup
    steps, blocks = _layout(tables[0], W)
    prefix = 0
    for i, p in enumerate(pts):
        prefix = _columns(A, tables, steps, pts[:i], prefix)[p]
    if m == 0:
        return RankType(0, _unpack(W, blocks, [prefix])[0])
    size = A.size

    def rec(t: tuple[int, ...], r: int, prefix: int) -> int:
        hit = cache.get((t, r))
        if hit is not None:
            return hit
        col = _columns(A, tables, steps, consts + t, prefix)
        if r == 1:
            node = (W, frozenset(col))
        else:
            node = frozenset([rec(t + (b,), r - 1, col[b]) for b in range(size)])
        i = ids.get(node)
        if i is None:
            i = ids[node] = len(nodes)
            nodes.append(node)
        cache[(t, r)] = i
        return i

    return RankType(m, _expand(cache, rec(tup, m, prefix)))


def m_equivalent(A: Structure, B: Structure, m: int) -> bool:
    """Agreement on every sentence of quantifier rank at most ``m``."""
    if A.vocab != B.vocab:
        raise ValueError("equivalence requires identical vocabularies")
    return rank_type(A, (), m) == rank_type(B, (), m)


def marked_equivalent(A: Structure, ta: tuple[int, ...], B: Structure, tb: tuple[int, ...], m: int) -> bool:
    if A.vocab != B.vocab:
        raise ValueError("equivalence requires identical vocabularies")
    if len(ta) != len(tb):
        raise ValueError("distinguished tuples must have equal length")
    return rank_type(A, ta, m) == rank_type(B, tb, m)


# ---------------------------------------------------------------------------
# explicit game search (independent oracle)


def ef_game_equivalent(A: Structure, B: Structure, m: int) -> bool:
    """Direct minimax over the ``m``-round game tree; no rank-type sharing.

    The challenger picks an element on either side each round, the matcher
    answers on the other side; the matcher survives iff the chosen pairs
    (together with the constants) always form a partial isomorphism. At a
    position ``xs -> ys`` each element gets a profile, the facts of
    ``xs + (a,)`` that involve ``a`` as one int, computed on first use;
    ``a -> b`` keeps the map a partial isomorphism iff their profiles agree.
    """
    if m < 0:
        raise ValueError(f"quantifier rank must be nonnegative, got {m}")
    if A.vocab != B.vocab:
        raise ValueError("equivalence requires identical vocabularies")

    consts_a = tuple(A.constant_interp[c] for c in sorted(A.constant_interp))
    consts_b = tuple(B.constant_interp[c] for c in sorted(B.constant_interp))
    # a unary relation as its members, since a one-index getter returns no tuple
    rels_a, rels_b = ([(arity, {a for (a,) in S.relations[name]} if arity == 1 else S.relations[name])
                       for name, arity in A.vocab.predicates] for S in (A, B))
    getters: dict[tuple[int, int], list] = {}

    def getters_with(n: int, arity: int) -> list:
        # the index combos over 0..n that contain n, the facts involving the
        # new point, as getters from ``pool + (a,)``
        got = getters.get((n, arity))
        if got is None:
            got = getters[(n, arity)] = [
                operator.itemgetter(*c) for c in itertools.product(range(n + 1), repeat=arity) if n in c
            ]
        return got

    def profile(pool: tuple[int, ...], rels: list, a: int) -> int:
        # the facts of ``pool + (a,)`` that involve ``a``, as one int
        ext = pool + (a,)
        bits = 0
        bit = 1
        for x in pool:
            if x == a:
                bits |= bit
            bit <<= 1
        for arity, rel in rels:
            for get in getters_with(len(pool), arity):
                if get(ext) in rel:
                    bits |= bit
                bit <<= 1
        return bits

    def lookup(memo: list, pool: tuple[int, ...], rels: list, e: int) -> int:
        p = memo[e]
        if p is None:
            p = memo[e] = profile(pool, rels, e)
        return p

    def matcher_wins(xs: tuple[int, ...], ys: tuple[int, ...], rounds: int) -> bool:
        if rounds == 0:
            return True
        pa: list = [None] * A.size  # this position's profiles, filled on first use
        pb: list = [None] * B.size
        for a in range(A.size):
            p = lookup(pa, xs, rels_a, a)
            if not any(
                lookup(pb, ys, rels_b, b) == p and matcher_wins(xs + (a,), ys + (b,), rounds - 1)
                for b in range(B.size)
            ):
                return False
        for b in range(B.size):
            p = lookup(pb, ys, rels_b, b)
            if not any(
                lookup(pa, xs, rels_a, a) == p and matcher_wins(xs + (a,), ys + (b,), rounds - 1)
                for a in range(A.size)
            ):
                return False
        return True

    for n, (a, b) in enumerate(zip(consts_a, consts_b)):
        if profile(consts_a[:n], rels_a, a) != profile(consts_b[:n], rels_b, b):
            return False
    return matcher_wins(consts_a, consts_b, m)


# ---------------------------------------------------------------------------
# realized classes


class Partition:
    """Grouping of ``(structure, tuple)`` items by rank type."""

    def __init__(self, classes: list[list[int]], fingerprints: list[str]):
        self.classes = classes
        self.fingerprints = fingerprints

    def class_count(self) -> int:
        return len(self.classes)


def realized_classes(items: list[tuple[Structure, tuple[int, ...]]], m: int) -> Partition:
    """Partition the items by their rank-``m`` types.

    Only classes realized among the given items are materialized; the global
    class set for a vocabulary is never enumerated.
    """
    by_key: dict[tuple, list[int]] = {}
    fingerprints: dict[tuple, str] = {}
    for idx, (A, tup) in enumerate(items):
        rt = rank_type(A, tup, m)
        by_key.setdefault(rt.key, []).append(idx)
        fingerprints.setdefault(rt.key, rt.fingerprint)
    ordered = sorted(by_key, key=lambda k: by_key[k][0])
    return Partition(
        classes=[by_key[k] for k in ordered],
        fingerprints=[fingerprints[k] for k in ordered],
    )


def class_fingerprint(A: Structure, tup: tuple[int, ...] = (), m: int = 0) -> str:
    """Stable hex fingerprint of the rank type, for logs and reports."""
    return rank_type(A, tup, m).fingerprint

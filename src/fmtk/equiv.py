"""Deciding bounded-quantifier-rank equivalence of finite structures.

Two routes are provided on purpose: canonical back-and-forth rank types
(memoized, the workhorse) and an explicit game search over the move tree
(slow, independent, used to cross-check the rank types).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from .errors import check_guard
from .structures import Structure

RANK_TYPE_GUARD = 2 * 10**6  # |A|^m, the positions a rank-m type of A visits


@dataclass(frozen=True)
class RankType:
    """Canonical back-and-forth signature of ``(structure, tuple)`` at a rank.

    ``key`` is a canonical nested tuple: at rank 0 the atomic facts over the
    constants and the tuple, above that the duplicate-free sorted tuple of the
    one-element-extension keys one rank down. Two positions get equal keys
    exactly when the duplicator survives that many rounds between them.
    """

    rank: int
    key: tuple

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256(repr((self.rank, self.key)).encode()).hexdigest()
        return digest[:16]


def _mask(points: tuple[int, ...], rel: frozenset, arity: int) -> int:
    mask = 0
    for idx, combo in enumerate(itertools.product(points, repeat=arity)):
        if combo in rel:
            mask |= 1 << idx
    return mask


def _atomic_key(A: Structure, points: tuple[int, ...]) -> tuple:
    eq_bits = 0
    bit = 1
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                eq_bits |= bit
            bit <<= 1
    masks = tuple(_mask(points, A.relations[name], arity) for name, arity in A.vocab.predicates)
    return (len(points), eq_bits, masks)


# Stands for the point a leaf adds: it equals no element and lies in no
# relation, so ``_atomic_key(A, pts + (_NEW,))`` holds exactly the facts among
# ``pts``, already in the bit layout of ``len(pts) + 1`` points.
_NEW = -1

# ``_rt_cache`` key of the per-structure fact tables; type entries are keyed
# ``(tuple, rank)``.
_TABLES = "tables"


def _fact_tables(A: Structure) -> list:
    """Per-predicate lookups for the facts that involve one new point.

    Arity 1: the members. Arity 2: successor and predecessor lists, filled
    per point on first use (a dense order would make an eager build cost
    ``|rel|`` even where no prefix point needs them), and the loops.
    Arity 3 and up: nothing; those facts are looked up per tuple.
    """
    tables = []
    for name, arity in A.vocab.predicates:
        rel = A.relations[name]
        if arity == 1:
            tables.append([e for e in range(A.size) if (e,) in rel])
        elif arity == 2:
            loops = [e for e in range(A.size) if (e, e) in rel]
            tables.append(([None] * A.size, [None] * A.size, loops))
        else:
            tables.append(None)
    return tables


def _leaf_keys(A: Structure, tables: list, pts: tuple[int, ...]) -> set:
    """The atomic keys of ``pts + (b,)`` over every element ``b``.

    The facts among ``pts`` are computed once; each ``b`` then adds only the
    facts that involve it, as one column per predicate indexed by ``b``.
    """
    size = A.size
    n = len(pts)
    N = n + 1
    _, eq, prefix_masks = _atomic_key(A, pts + (_NEW,))
    eqcol = [eq] * size
    start = 0  # bit of the pair (i, i + 1); the pair (i, n) follows n - i - 1 bits later
    for i, p in enumerate(pts):
        eqcol[p] |= 1 << (start + n - i - 1)
        start += n - i
    cols = []
    for (name, arity), table, prefix in zip(A.vocab.predicates, tables, prefix_masks):
        rel = A.relations[name]
        if arity > 2:
            cols.append([_mask(pts + (b,), rel, arity) for b in range(size)])
            continue
        col = [prefix] * size
        if arity == 1:
            bit = 1 << n
            for b in table:
                col[b] |= bit
        else:
            succ, pred, loops = table
            for i, a in enumerate(pts):
                out = succ[a]
                if out is None:
                    out = succ[a] = [b for b in range(size) if (a, b) in rel]
                bit = 1 << (i * N + n)
                for b in out:
                    col[b] |= bit
                into = pred[a]
                if into is None:
                    into = pred[a] = [b for b in range(size) if (b, a) in rel]
                bit = 1 << (n * N + i)
                for b in into:
                    col[b] |= bit
            bit = 1 << (n * N + n)
            for b in loops:
                col[b] |= bit
        cols.append(col)
    masks = zip(*cols) if cols else itertools.repeat(())
    return set(zip(itertools.repeat(N), eqcol, masks))


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
    structure. Held to ``RANK_TYPE_GUARD`` first."""
    if m < 0:
        raise ValueError(f"quantifier rank must be nonnegative, got {m}")
    check_rank_type_cost(A.size, m)
    for e in tup:
        if not 0 <= e < A.size:
            raise ValueError(f"tuple component {e} outside the universe")
    consts = tuple(A.constant_interp[c] for c in sorted(A.constant_interp))
    if m == 0:
        return RankType(0, _atomic_key(A, consts + tuple(tup)))
    cache = A._rt_cache
    if cache is None:
        cache = {_TABLES: _fact_tables(A)}
        object.__setattr__(A, "_rt_cache", cache)
    tables = cache[_TABLES]

    def rec(t: tuple[int, ...], r: int) -> tuple:
        hit = cache.get((t, r))
        if hit is not None:
            return hit
        if r == 1:
            key = tuple(sorted(_leaf_keys(A, tables, consts + t)))
        else:
            key = tuple(sorted({rec(t + (b,), r - 1) for b in range(A.size)}))
        cache[(t, r)] = key
        return key

    return RankType(m, rec(tuple(tup), m))


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
    (together with the constants) always form a partial isomorphism.
    """
    if m < 0:
        raise ValueError(f"quantifier rank must be nonnegative, got {m}")
    if A.vocab != B.vocab:
        raise ValueError("equivalence requires identical vocabularies")

    consts_a = tuple(A.constant_interp[c] for c in sorted(A.constant_interp))
    consts_b = tuple(B.constant_interp[c] for c in sorted(B.constant_interp))
    preds = [(name, arity, A.relations[name], B.relations[name])
             for name, arity in A.vocab.predicates]

    new_combos: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def combos_with(n: int, arity: int) -> list[tuple[int, ...]]:
        # index combos over 0..n that contain n: the facts involving the new pair
        combos = new_combos.get((n, arity))
        if combos is None:
            combos = new_combos[(n, arity)] = [
                c for c in itertools.product(range(n + 1), repeat=arity) if n in c
            ]
        return combos

    def extension_ok(xs: tuple[int, ...], ys: tuple[int, ...], a: int, b: int) -> bool:
        # xs -> ys extended with a -> b stays a partial isomorphism
        for x, y in zip(xs, ys):
            if (x == a) != (y == b):
                return False
        pool = xs + (a,)
        image = ys + (b,)
        for name, arity, rel_a, rel_b in preds:
            for combo in combos_with(len(xs), arity):
                ta = tuple(pool[i] for i in combo)
                tb = tuple(image[i] for i in combo)
                if (ta in rel_a) != (tb in rel_b):
                    return False
        return True

    def initial_ok() -> bool:
        xs: tuple[int, ...] = ()
        ys: tuple[int, ...] = ()
        for a, b in zip(consts_a, consts_b):
            if not extension_ok(xs, ys, a, b):
                return False
            xs += (a,)
            ys += (b,)
        return True

    def matcher_wins(xs: tuple[int, ...], ys: tuple[int, ...], rounds: int) -> bool:
        if rounds == 0:
            return True
        for a in range(A.size):
            if not any(
                extension_ok(xs, ys, a, b) and matcher_wins(xs + (a,), ys + (b,), rounds - 1)
                for b in range(B.size)
            ):
                return False
        for b in range(B.size):
            if not any(
                extension_ok(xs, ys, a, b) and matcher_wins(xs + (a,), ys + (b,), rounds - 1)
                for a in range(A.size)
            ):
                return False
        return True

    if not initial_ok():
        return False
    return matcher_wins(consts_a, consts_b, m)


# ---------------------------------------------------------------------------
# realized classes


@dataclass
class Partition:
    """Grouping of ``(structure, tuple)`` items by rank type."""

    classes: list[list[int]] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)

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

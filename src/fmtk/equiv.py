"""Deciding bounded-quantifier-rank equivalence of finite structures.

Two routes are provided on purpose: canonical back-and-forth rank types
(the workhorse) and an explicit game search over the move tree (slow,
independent, used to cross-check the rank types).
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
    point ``n`` has with points ``0 .. n-1``, with the predicates grouped by
    arity as in :func:`_fact_tables`: its equality with each; per unary
    predicate, its membership; per binary one, its out- and in-edge with
    each and its loop; per wider one, the predicate's offset. ``blocks``:
    each predicate's offset and mask, in vocabulary order."""
    blocks = []
    off = W * (W - 1) // 2
    for arity in arities:
        blocks.append((off, (1 << W**arity) - 1))
        off += W**arity
    steps = []
    for n in range(W):
        unary, binary, wide = [], [], []
        for arity, (off, _) in zip(arities, blocks):
            if arity == 1:
                unary.append(off + n)
            elif arity == 2:
                binary.append(([off + i * W + n for i in range(n)], [off + n * W + i for i in range(n)],
                               off + n * W + n))
            else:
                wide.append(off)
        steps.append(([i * W - i * (i + 1) // 2 + n - i - 1 for i in range(n)], unary, binary, wide))
    return steps, blocks


@functools.lru_cache(maxsize=64)
def _bit_map(arities: tuple[int, ...], perm: tuple[int, ...]) -> tuple:
    """How renaming points moves packed facts of width ``W = len(perm)``:
    point ``p`` after is point ``perm[p]`` before, so the bit of a pair or
    index combo ``c`` after is the bit of ``perm(c)`` before. Returns the
    mask of the bits that move and, indexed by a bit's old position, its
    new one: plain positions, four bytes a bit of the width."""
    from array import array  # here, so that importing fmtk does not load it

    W = len(perm)
    width = W * (W - 1) // 2 + sum(W**arity for arity in arities)
    dest = array("I", [0]) * width
    mask = bytearray(width // 8 + 1)

    def move(old: int, new: int) -> None:
        dest[old] = new
        mask[old >> 3] |= 1 << (old & 7)

    for i, j in itertools.combinations(range(W), 2):
        if perm[i] != i or perm[j] != j:
            a, b = sorted((perm[i], perm[j]))
            move(a * W - a * (a + 1) // 2 + b - a - 1, i * W - i * (i + 1) // 2 + j - i - 1)
    off = W * (W - 1) // 2
    for arity in arities:
        # product() lists the index combos c in order: ``new`` is c's index, the sum perm(c)'s
        digits = [[p * W**e for p in perm] for e in reversed(range(arity))]
        for new, old in enumerate(map(sum, itertools.product(*digits))):
            if old != new:
                move(off + old, off + new)
        off += W**arity
    return int.from_bytes(mask, "little"), dest


class _Moved(dict):
    """Packed facts of width ``len(perm)`` -> the same facts with their
    points renamed by ``perm`` (see :func:`_bit_map`), filled on demand:
    the nodes of a scope share few distinct facts."""

    __slots__ = ("mask", "dest")

    def __init__(self, arities: tuple[int, ...], perm: tuple[int, ...]):
        super().__init__()
        self.mask, self.dest = _bit_map(arities, perm)

    def __missing__(self, x: int) -> int:
        moving = x & self.mask
        y = x ^ moving
        while moving:
            low = moving & -moving
            y |= 1 << self.dest[low.bit_length() - 1]
            moving ^= low
        self[x] = y
        return y


@functools.lru_cache(maxsize=1024)
def _insertion(W: int, n: int, a: int) -> tuple[int, ...]:
    """The renaming of ``W`` points that takes a sorted tuple of ``n + 1``
    points to the one whose last point belongs at ``a``: that tuple's points
    ``a .. n-1`` are the sorted tuple's ``a+1 .. n``, and its point ``n``
    is point ``a``."""
    return (*range(a), *range(a + 1, n + 1), a, *range(n + 1, W))


def _unpack(W: int, blocks: list, leaves) -> list[tuple]:
    """The ``(W, eq, masks)`` keys of packed leaves of width ``W``."""
    eq_mask = (1 << W * (W - 1) // 2) - 1
    return [(W, x & eq_mask, tuple([x >> off & mask for off, mask in blocks])) for x in leaves]


def _fact_tables(A: Structure) -> tuple:
    """The arities, and the predicates grouped by arity, in the order of
    :func:`_layout`'s steps, as :func:`_column` reads them: per unary one,
    its members; per binary one, its relation, its loops and a slot for its
    successor and predecessor lists; per wider one, its arity and relation."""
    unary, binary, wide = [], [], []
    for name, arity in A.vocab.predicates:
        rel = A.relations[name]
        if arity == 1:
            unary.append([a for (a,) in rel])
        elif arity == 2:
            binary.append([rel, [a for a, b in rel if a == b], None])
        else:
            wide.append((arity, rel))
    return tuple(arity for _, arity in A.vocab.predicates), unary, binary, wide


def _adjacency(size: int, rel: frozenset) -> tuple:
    succ: list = [[] for _ in range(size)]
    pred: list = [[] for _ in range(size)]
    for a, b in rel:
        succ[a].append(b)
        pred[b].append(a)
    return succ, pred


def _column(A: Structure, tables: tuple, steps: list, pts: tuple[int, ...], n: int,
            base: list[int] | None) -> list[int]:
    """For every element ``b``, the facts that ``b`` as point ``n`` has with
    ``pts``. With ``n == len(pts)`` that is the column of ``pts``: the facts
    of ``pts + (b,)`` that involve ``b``. With ``n == len(pts) + 1`` it is
    the sibling base of ``pts``: what the columns of all ``pts + (a,)``
    share, the facts with ``pts``, unary facts and loops, but no fact of
    arity 3 and up, since those do not split point by point. Given the
    sibling base of ``pts[:-1]`` as ``base``, a column copies it and adds
    only the facts with ``pts[-1]``."""
    _, unary, binary, wide = tables
    eq, unary_at, binary_at, wide_at = steps[n]
    k = len(pts)
    if base is None:
        col = [0] * A.size
        for members, pos in zip(unary, unary_at):
            bit = 1 << pos
            for b in members:
                col[b] |= bit
        for (_, loops, _), (_, _, pos) in zip(binary, binary_at):
            bit = 1 << pos
            for b in loops:
                col[b] |= bit
        new = range(k)  # the points whose facts are added here
    else:
        col = base.copy()
        new = range(k - 1, k)
    for i in new:
        col[pts[i]] |= 1 << eq[i]
    for table, (outs, ins, _) in zip(binary, binary_at) if new else ():
        if table[2] is None:  # built from the tuples once a node has points
            table[2] = _adjacency(A.size, table[0])
        succ, pred = table[2]
        for i in new:
            bit = 1 << outs[i]
            for b in succ[pts[i]]:
                col[b] |= bit
            bit = 1 << ins[i]
            for b in pred[pts[i]]:
                col[b] |= bit
    if n == k:
        W = len(steps)
        for (arity, rel), off in zip(wide, wide_at):
            for c in itertools.product(range(n + 1), repeat=arity):
                if n in c:
                    bit = 1 << off + sum(i * W**j for j, i in enumerate(reversed(c)))
                    for b in range(A.size):
                        if tuple(pts[i] if i < n else b for i in c) in rel:
                            col[b] |= bit
    return col


class TypeScope:
    """Interned nodes of rank types, shared by the structures over one
    vocabulary that are typed in it.

    A rank-0 position is interned by ``(W, its packed facts)``, a rank-1 node
    by ``(W, its packed facts, frozenset of its column)``, its column being
    the facts that involve its leaves' last point (:func:`_column`), and a
    higher one by the frozenset of its children's ids. A leaf's facts are
    the node's ORed with a column entry, and the two never share a bit, so
    the triple names the set of leaves. So within one scope equal ids mean
    equal nested keys, whatever structure or order they were computed from,
    and :meth:`key` expands an id into its key. The vocabulary is the one
    of the first structure laid out in the scope. :meth:`renaming` keeps,
    per renaming of the points, a memo from ids to the ids of the renamed
    nodes, so both sides of a verdict and every representative of a class
    table share them. A scope lives as long as its caller keeps it:
    :func:`rank_type` and each equivalence verdict open one per call, and a
    class table keeps one per table.
    """

    __slots__ = ("vocab", "arities", "ids", "nodes", "keys", "renamings")

    def __init__(self):
        self.vocab = None
        self.arities: tuple[int, ...] = ()
        self.ids: dict = {}  # node -> id
        self.nodes: list = []  # id -> node
        self.keys: dict[int, tuple] = {}  # id -> nested key, once expanded
        self.renamings: dict[tuple[int, ...], _Renaming] = {}  # perm -> its memo

    def enter(self, A: Structure) -> None:
        """Admit ``A``, whose vocabulary must be the scope's."""
        if self.vocab is None:
            self.vocab = A.vocab
            self.arities = tuple(a for _, a in A.vocab.predicates)
        elif self.vocab is not A.vocab and self.vocab != A.vocab:
            raise ValueError("a type scope holds structures over one vocabulary")

    def intern(self, node) -> int:
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
        return i

    def key(self, i: int) -> tuple:
        """The canonical nested key of node ``i``, memoized per id."""
        key = self.keys.get(i)
        if key is None:
            node = self.nodes[i]
            if type(node) is tuple:
                W, prefix = node[:2]
                blocks = _layout(self.arities, W)[1]
                if len(node) == 2:
                    key = _unpack(W, blocks, [prefix])[0]
                else:
                    key = tuple(sorted(_unpack(W, blocks, map(prefix.__or__, node[2]))))
            else:
                key = tuple(sorted(self.key(c) for c in node))
            self.keys[i] = key
        return key

    def renaming(self, perm: tuple[int, ...]) -> _Renaming:
        """The memo of this scope's ids renamed by ``perm``, made on first use."""
        renaming = self.renamings.get(perm)
        if renaming is None:
            renaming = self.renamings[perm] = _Renaming(self, perm)
        return renaming


class _Renaming(dict):
    """Ids of ``scope`` -> the ids of the same nodes with their points
    renamed by ``perm``: point ``p`` after is point ``perm[p]`` before.
    ``perm`` has the nodes' width ``W`` and fixes the points a node's moves
    have not reached, so it renames a node's children the same way. Filled
    on demand, and shared by every structure typed in the scope."""

    __slots__ = ("scope", "facts")

    def __init__(self, scope: TypeScope, perm: tuple[int, ...]):
        super().__init__()
        self.scope = scope
        self.facts = _Moved(scope.arities, perm)

    def __missing__(self, i: int) -> int:
        node = self.scope.nodes[i]
        if type(node) is tuple:
            facts = self.facts
            if len(node) == 2:
                node = (node[0], facts[node[1]])
            else:  # a column's facts involve the last point, which perm fixes
                node = (node[0], facts[node[1]], frozenset(map(facts.__getitem__, node[2])))
        else:
            node = frozenset(map(self.__getitem__, node))
        j = self[i] = self.scope.intern(node)
        return j


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


def _refuse(A: Structure, tup: tuple[int, ...], m: int) -> None:
    """The refusals that cost nothing, in this order: a negative ``m``,
    ``RANK_TYPE_GUARD``, a tuple component outside the universe and a depth
    past the recursion limit. ``FACT_WIDTH_GUARD`` follows, in :func:`_check_width`."""
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


def _check_width(A: Structure, W: int) -> None:
    # every position carries W(W-1)/2 equality bits and W**arity bits per
    # predicate, which |A|^m does not bound (a high rank on one element)
    width = W * (W - 1) // 2 + sum(W**arity for _, arity in A.vocab.predicates)
    check_guard("packed fact width", width, FACT_WIDTH_GUARD, "the fact-width guard")


def _prefix(A: Structure, tables: tuple, steps: list, pts: tuple[int, ...]) -> int:
    """The packed facts among ``pts``."""
    prefix = 0
    for i, p in enumerate(pts):
        prefix |= _column(A, tables, steps, pts[:i], i, None)[p]
    return prefix


def _recursion(column, domain, W: int, scope: TypeScope):
    """The one recursion of the engine. ``walk(pts, moves, r, prefix,
    base)`` is the id in ``scope`` of the rank-``r`` type of ``pts``, the
    constants and the typed tuple followed by ``moves`` (``prefix``: the
    facts among ``pts``; ``base``: the sibling base its parent shares with
    it, or None), with every quantifier over ``domain``, which must ascend.
    The root is the walk of no moves. ``column(pts, n, base)`` is
    :func:`_column` at ``domain``, in order; a node of rank 2 and up lays
    out its children's sibling base once.

    Renaming points maps types to types (Ebbinghaus & Flum, *Finite Model
    Theory*, on types): the type of a tuple of moves is the type of its
    sorted form, renamed. So a node is computed only for a sorted tuple of
    moves; a child ``moves + (b,)`` with ``b < moves[-1]`` takes the id of
    its sorted form, renamed by :func:`_insertion` through
    :meth:`TypeScope.renaming`. The walk goes depth first over the ascending
    domain, so that sorted form, lexicographically smaller, is already in
    the walk's memo."""
    intern, renaming = scope.intern, scope.renaming
    done: dict = {}  # sorted moves -> id, for this walk

    def walk(pts: tuple[int, ...], moves: tuple[int, ...], r: int, prefix: int, base) -> int:
        if r == 0:
            return intern((W, prefix))
        n = len(pts)
        col = column(pts, n, base)
        if r == 1:
            return intern((W, prefix, frozenset(col)))
        base = column(pts, n + 1, None)
        last = moves[-1] if moves else -1
        start = n - len(moves)  # the position of the first move
        j = 0  # where b goes in moves; it only grows, as b ascends
        kids = set()
        for b, x in zip(domain, col):
            if b < last:
                while moves[j] <= b:
                    j += 1
                kids.add(renaming(_insertion(W, n, start + j))[done[moves[:j] + (b,) + moves[j:]]])
                continue
            if r == 2:  # leaves inline: a call per leaf costs about 5% of a type
                kid = intern((W, prefix | x, frozenset(column(pts + (b,), n + 1, base))))
            else:
                kid = walk(pts + (b,), moves + (b,), r - 1, prefix | x, base)
            done[moves + (b,)] = kid
            kids.add(kid)
        return intern(frozenset(kids))

    return walk


def _kept_column(A: Structure, tables: tuple, steps: list, memo: dict, kept: tuple[int, ...],
                 pts: tuple[int, ...], n: int, base) -> list[int]:
    """:func:`_column` over all of ``A``, memoized per ``(pts, n)`` in
    ``memo``; a column is read at ``kept``, a sibling base is passed down
    whole."""
    col = memo.get((pts, n))
    if col is None:
        col = memo[(pts, n)] = _column(A, tables, steps, pts, n, base)
    return col if n > len(pts) else [col[b] for b in kept]


def _lay_out(A: Structure, tup: tuple[int, ...], m: int, scope: TypeScope) -> tuple:
    """Refuse what :func:`rank_type` refuses, in the same order, then admit
    ``A`` to ``scope`` and lay out the rank-``m`` type of ``tup``: ``W``, its
    fact tables, the bit steps, the constants and the facts among them and
    ``tup``."""
    _refuse(A, tup, m)
    W = len(A.constant_interp) + len(tup) + m
    _check_width(A, W)
    scope.enter(A)
    tables = _fact_tables(A)
    steps = _layout(tables[0], W)[0]
    consts = tuple(A.constant_interp[c] for c in sorted(A.constant_interp))
    return W, tables, steps, consts, _prefix(A, tables, steps, consts + tup)


def _type_of(A: Structure, tup: tuple[int, ...], m: int, scope: TypeScope) -> int:
    """The id in ``scope`` of the rank-``m`` type of ``tup`` in ``A``."""
    W, tables, steps, consts, prefix = _lay_out(A, tup, m, scope)
    column = functools.partial(_column, A, tables, steps)
    return _recursion(column, range(A.size), W, scope)(consts + tup, (), m, prefix, None)


def rank_type(A: Structure, tup: tuple[int, ...] = (), m: int = 0) -> RankType:
    """Rank-``m`` type of ``tup`` in ``A``, typed in a scope of its own and
    expanded into its key. Held to ``RANK_TYPE_GUARD`` first, and to
    ``FACT_WIDTH_GUARD`` before any of its facts are laid out."""
    scope = TypeScope()
    return RankType(m, scope.key(_type_of(A, tuple(tup), m, scope)))


def type_id(A: Structure, m: int, scope: TypeScope) -> int:
    """The id in ``scope`` of the rank-``m`` type of ``A``."""
    return _type_of(A, (), m, scope)


def subset_typer(A: Structure, m: int, scope: TypeScope):
    """The function that takes a set ``kept`` of elements of ``A`` holding
    its constants to the id in ``scope`` of the rank-``m`` type of the
    induced substructure on ``kept``, which is never built.

    By the relativization lemma (Ebbinghaus & Flum, *Finite Model Theory*)
    the type of ``A[kept]`` is read on ``A``'s own facts with every
    quantifier restricted to ``kept``. ``A`` is laid out once, and its
    columns are memoized per point tuple across the kept sets. Refuses what
    :func:`rank_type` refuses, in the same order, before it returns.
    """
    W, tables, steps, consts, prefix = _lay_out(A, (), m, scope)
    columns: dict = {}  # (point tuple, n) -> A's column or sibling base there

    def type_of(kept) -> int:
        kept = tuple(sorted(kept))  # the recursion's domain ascends
        if not kept or not all(0 <= e < A.size for e in kept):
            raise ValueError("a kept set is a nonempty set of elements")
        if not set(consts) <= set(kept):
            raise ValueError("a kept set must hold the constants")
        column = functools.partial(_kept_column, A, tables, steps, columns, kept)
        return _recursion(column, kept, W, scope)(consts, (), m, prefix, None)

    return type_of


def m_equivalent(A: Structure, B: Structure, m: int) -> bool:
    """Agreement on every sentence of quantifier rank at most ``m``."""
    return marked_equivalent(A, (), B, (), m)


def marked_equivalent(A: Structure, ta: tuple[int, ...], B: Structure, tb: tuple[int, ...], m: int) -> bool:
    """Rank-``m`` agreement of ``(A, ta)`` and ``(B, tb)``, by type ids in one fresh scope."""
    if A.vocab != B.vocab:
        raise ValueError("equivalence requires identical vocabularies")
    if len(ta) != len(tb):
        raise ValueError("distinguished tuples must have equal length")
    scope = TypeScope()
    return _type_of(A, tuple(ta), m, scope) == _type_of(B, tuple(tb), m, scope)


# ---------------------------------------------------------------------------
# explicit game search (independent oracle)


def ef_game_equivalent(A: Structure, B: Structure, m: int) -> bool:
    """Minimax over the ``m``-round game, on a transposition table; no rank-type sharing.

    The challenger picks an element on either side each round, the matcher
    answers on the other side; the matcher survives iff the chosen pairs
    (together with the constants) always form a partial isomorphism. At a
    position ``xs -> ys`` each element gets a profile, the facts of
    ``xs + (a,)`` that involve ``a`` as one int, all computed once;
    ``a -> b`` keeps the map a partial isomorphism iff their profiles agree.
    So the matcher can survive only if both sides show the same set of
    profiles, and with one round left that is the whole answer; otherwise
    each move is answered only by the elements of its profile. Each position
    is decided once, keyed by its set of pairs and the rounds left, in a
    table that lives for this call only.
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

    memo: dict[tuple[frozenset, int], bool] = {}  # position -> matcher wins, for this call only

    def matcher_wins(xs: tuple[int, ...], ys: tuple[int, ...], rounds: int) -> bool:
        if rounds == 0:
            return True
        # the win depends only on the set of chosen pairs, not on their order
        # or repeats, so every order of the same moves shares one entry
        key = (frozenset(zip(xs, ys)), rounds)
        won = memo.get(key)
        if won is None:
            won = memo[key] = position_won(xs, ys, rounds)
        return won

    def position_won(xs: tuple[int, ...], ys: tuple[int, ...], rounds: int) -> bool:
        pa = [profile(xs, rels_a, a) for a in range(A.size)]
        pb = [profile(ys, rels_b, b) for b in range(B.size)]
        # each move needs an answer of the same profile; one round left, that is all
        if set(pa) != set(pb):
            return False
        if rounds == 1:
            return True
        answers_a: dict[int, list[int]] = {}
        answers_b: dict[int, list[int]] = {}
        for a, p in enumerate(pa):
            answers_a.setdefault(p, []).append(a)
        for b, p in enumerate(pb):
            answers_b.setdefault(p, []).append(b)
        return all(
            any(matcher_wins(xs + (a,), ys + (b,), rounds - 1) for b in answers_b[p]) for a, p in enumerate(pa)
        ) and all(
            any(matcher_wins(xs + (a,), ys + (b,), rounds - 1) for a in answers_a[p]) for b, p in enumerate(pb)
        )

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
    """Partition items over one vocabulary by their rank-``m`` type ids in one
    fresh scope, classes in order of first item. Only realized classes are
    materialized, and only their keys expanded, for their fingerprints."""
    if len({A.vocab for A, _ in items}) > 1:
        raise ValueError("equivalence requires identical vocabularies")
    scope = TypeScope()
    by_id: dict[int, list[int]] = {}
    for idx, (A, tup) in enumerate(items):
        by_id.setdefault(_type_of(A, tuple(tup), m, scope), []).append(idx)
    return Partition(
        classes=list(by_id.values()),
        fingerprints=[RankType(m, scope.key(i)).fingerprint for i in by_id],
    )


def class_fingerprint(A: Structure, tup: tuple[int, ...] = (), m: int = 0) -> str:
    """Stable hex fingerprint of the rank type, for logs and reports. Keys carry
    no predicate names, so it names a type within one vocabulary only."""
    return rank_type(A, tup, m).fingerprint

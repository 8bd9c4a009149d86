"""Embedding-pair scans over finite sequences, mark encodings, antichain
certificates, and the path/cycle example classes with their shrinkers.

Graph generators use the conventions: a path of length ``n`` has ``n`` edges
(so ``n + 1`` vertices), a cycle of size ``n`` has ``n`` vertices, and a
linear order of size ``n`` has ``n`` elements.

Executable example families: paths, cycles, path unions, linear orders,
grids, and the paths-plus-one-cycle family below. One family of theoretical
interest is deliberately absent: words whose lengths diagonalize over an
enumeration of all computable functions have no shrink bound any program can
witness, so no generator is provided.
"""

from __future__ import annotations

import itertools

from .errors import check_guard
from .structures import (
    MarkedStructure,
    Structure,
    Vocabulary,
    checked_marks,
    disjoint_union,
    find_embedding,
    induced_substructure,
    tensor_product,
)

GRAPH_VOCAB = Vocabulary.make({"E": 2})
ORDER_VOCAB = Vocabulary.make({"le": 2})

HN_GUARD = 2  # |H_3| exceeds 1200 elements


# ---------------------------------------------------------------------------
# generators


def make_linear_order(n: int) -> Structure:
    """Linear order with ``n`` elements, reflexive ``le``."""
    if n < 1:
        raise ValueError("a linear order needs at least one element")
    rel = frozenset((i, j) for i in range(n) for j in range(n) if i <= j)
    return Structure(ORDER_VOCAB, n, {"le": rel})


def make_path(n: int) -> Structure:
    """Undirected path of length ``n`` (``n + 1`` vertices)."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    edges = set()
    for i in range(n):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    return Structure(GRAPH_VOCAB, n + 1, {"E": frozenset(edges)})


def make_cycle(n: int) -> Structure:
    """Undirected cycle on ``n`` vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = set()
    for i in range(n):
        j = (i + 1) % n
        edges.add((i, j))
        edges.add((j, i))
    return Structure(GRAPH_VOCAB, n, {"E": frozenset(edges)})


def make_Hn(n: int) -> Structure:
    """``n`` copies of every path of length 0 .. 3**n, disjointly."""
    _check_hn_guard(n)
    parts = [make_path(i) for i in range(3**n + 1) for _ in range(n)]
    out = parts[0]
    for p in parts[1:]:
        out = disjoint_union(out, p)
    return out


def make_Gn(n: int) -> Structure:
    """A cycle on ``3**n`` vertices next to ``make_Hn(n)``."""
    _check_hn_guard(n)
    return disjoint_union(make_cycle(3**n), make_Hn(n))


def _check_hn_guard(n: int):
    if n < 1:
        raise ValueError("n must be at least 1")
    check_guard("n =", n, HN_GUARD, "the H_n guard")


def make_grid(*dims: int) -> Structure:
    """Tensor product of linear orders, one per dimension."""
    if not dims:
        raise ValueError("a grid needs at least one dimension")
    out = make_linear_order(dims[0])
    for d in dims[1:]:
        out = tensor_product(out, make_linear_order(d))
    return out


# ---------------------------------------------------------------------------
# Dickson scan and marked linear orders


def dickson_pair(tuples: list[tuple[int, ...]]) -> tuple[int, int] | None:
    """First componentwise-dominated pair (1-based): smallest j, then smallest i < j."""
    if not tuples:
        return None
    dim = len(tuples[0])
    if any(len(t) != dim for t in tuples):
        raise ValueError("all tuples must have the same dimension")
    for j in range(1, len(tuples)):
        for i in range(j):
            if all(x <= y for x, y in zip(tuples[i], tuples[j])):
                return (i + 1, j + 1)
    return None


def _order_positions(A: Structure) -> list[int]:
    """Rank of each element in a reflexive linear order; validates the input."""
    le = A.relations.get("le")
    if le is None:
        raise ValueError("expected a structure over the 'le' vocabulary")
    below = [sum(1 for j in range(A.size) if (j, i) in le) for i in range(A.size)]
    ranking = sorted(range(A.size), key=lambda i: below[i])
    for idx, e in enumerate(ranking):
        if below[e] != idx + 1:
            raise ValueError("structure is not a reflexive linear order")
    for i in range(A.size):
        for j in range(A.size):
            if ((i, j) in le) != (below[i] <= below[j]):
                raise ValueError("structure is not a reflexive linear order")
    pos = [0] * A.size
    for idx, e in enumerate(ranking):
        pos[e] = idx
    return pos


def order_type_tuple(A: Structure, marks: tuple[int, ...]) -> tuple[int, ...]:
    """Counts of elements between consecutive marks, inclusive at both ends,
    padded with the minimum and maximum of the order."""
    pos = _order_positions(A)
    bounds = [0] + sorted(pos[a] for a in marks) + [A.size - 1]
    return tuple(
        sum(1 for p in pos if bounds[r - 1] <= p <= bounds[r])
        for r in range(1, len(bounds))
    )


def _mark_order_type(A: Structure, marks: tuple[int, ...]) -> tuple:
    pos = _order_positions(A)
    return tuple(
        (pos[a] > pos[b]) - (pos[a] < pos[b]) for a in marks for b in marks
    )


def linear_order_embedding_pair(
    items: list[tuple[Structure, tuple[int, ...]]], k: int
) -> tuple[int, int] | None:
    """Scan marked linear orders for a pair where the earlier one embeds in the
    later one, marks onto marks.

    Items are grouped by the relative order pattern of their marks; inside a
    group the inclusive gap-count tuples are scanned for componentwise
    domination, and any hit is re-verified by the embedding search.
    """
    for A, marks in items:
        if len(marks) != k:
            raise ValueError(f"every item needs exactly {k} marks")
    groups: dict[tuple, list[int]] = {}
    for idx, (A, marks) in enumerate(items):
        groups.setdefault(_mark_order_type(A, marks), []).append(idx)
    best: tuple[int, int] | None = None
    for indices in groups.values():
        tuples = [order_type_tuple(items[i][0], items[i][1]) for i in indices]
        hit = dickson_pair(tuples)
        if hit is None:
            continue
        i, j = indices[hit[0] - 1] + 1, indices[hit[1] - 1] + 1
        if best is None or (j, i) < (best[1], best[0]):
            best = (i, j)
    if best is None:
        return None
    ea = MarkedStructure(items[best[0] - 1][0], items[best[0] - 1][1]).expand()
    eb = MarkedStructure(items[best[1] - 1][0], items[best[1] - 1][1]).expand()
    if find_embedding(ea, eb) is None:
        raise AssertionError("gap-count domination did not yield an embedding")
    return best


# ---------------------------------------------------------------------------
# mark encodings


def to_Sk(A: Structure, marks: tuple[int, ...]) -> MarkedStructure:
    """Ordered view: marks become the constants ``c1 .. ck``."""
    return MarkedStructure(A, tuple(marks), ordered=True)


def to_Sk_pred(A: Structure, marks) -> MarkedStructure:
    """Unordered view: the mark set becomes a unary predicate."""
    return MarkedStructure(A, tuple(sorted(set(marks))), ordered=False)


def mark_orderings(ms: MarkedStructure):
    """All ordered views compatible with an unordered marked structure."""
    if ms.ordered:
        yield ms
        return
    for perm in itertools.permutations(ms.marks):
        yield MarkedStructure(ms.base, perm, ordered=True)


def antichain_certificate(
    items: list[MarkedStructure],
) -> tuple[bool, tuple[int, int] | None]:
    """Pairwise non-embedding in both directions; returns the first failing
    ordered pair (1-based) otherwise."""
    expanded = [ms.expand() for ms in items]
    for i in range(len(items)):
        for j in range(len(items)):
            if i == j:
                continue
            if find_embedding(expanded[i], expanded[j]) is not None:
                return False, (i + 1, j + 1)
    return True, None


# ---------------------------------------------------------------------------
# path / cycle / H-G shrinkers


def _path_layout(P: Structure) -> list[int]:
    """Vertices of a path graph in end-to-end order; validates the input."""
    adj: dict[int, list[int]] = {v: [] for v in range(P.size)}
    for a, b in P.relations["E"]:
        if a == b:
            raise ValueError("paths have no loops")
        if a < b:
            adj[a].append(b)
            adj[b].append(a)
    for a, b in P.relations["E"]:
        if (b, a) not in P.relations["E"]:
            raise ValueError("paths are undirected; edges must be symmetric")
    if P.size == 1:
        return [0]
    ends = [v for v, ns in adj.items() if len(set(ns)) == 1]
    if len(ends) != 2 or any(len(set(ns)) > 2 for ns in adj.values()):
        raise ValueError("structure is not a path")
    order = [min(ends)]
    prev = None
    while len(order) < P.size:
        nxt = [u for u in set(adj[order[-1]]) if u != prev]
        if len(nxt) != 1:
            raise ValueError("structure is not a path")
        prev = order[-1]
        order.append(nxt[0])
    return order


def shrink_path_with_W(
    P: Structure, W, m: int, k: int
) -> tuple[Structure, dict[int, int]]:
    """Small induced substructure of a path containing ``W``: a disjoint union
    of at most ``|W|`` short paths, split where marks sit far apart.

    Returns the substructure and its old->new renumbering. With no marks a
    single leading segment of length at most ``3**(m+k+2)`` is kept.
    """
    W = sorted(checked_marks(W, k, range(P.size)))
    layout = _path_layout(P)
    pos_of = {v: i for i, v in enumerate(layout)}
    span = 3 ** (m + k + 2)

    if not W:
        kept = layout[: span + 1]
        return induced_substructure(P, kept)

    def segments(lo: int, hi: int, marks: list[int]) -> list[tuple[int, int]]:
        # marks: positions, sorted, all within [lo, hi]
        if not marks:
            return []
        if len(marks) == 1:
            return [(marks[0], marks[0])]
        boundaries = [lo] + marks + [hi]
        for j in range(len(boundaries) - 1):
            if boundaries[j + 1] - boundaries[j] > 3 ** (m + 1):
                b1 = boundaries[j] + 3**m
                b2 = boundaries[j + 1] - 3**m
                left = segments(lo, b1, marks[:j])
                right = segments(b2, hi, marks[j:])
                return left + right
        return [(marks[0], marks[-1])]

    mark_positions = sorted(pos_of[v] for v in W)
    kept_positions: set[int] = set()
    for lo, hi in segments(0, len(layout) - 1, mark_positions):
        kept_positions.update(range(lo, hi + 1))
    kept = [layout[p] for p in sorted(kept_positions)]
    return induced_substructure(P, kept)


def shrink_cycle_with_W(
    C: Structure, W, m: int, k: int
) -> tuple[Structure, dict[int, int]]:
    """Open the cycle at a non-mark vertex and shrink the resulting path."""
    W = sorted(checked_marks(W, k, range(C.size)))
    if k >= C.size:
        raise ValueError("k must be smaller than the cycle")
    drop = min(v for v in range(C.size) if v not in W)
    path, renum = induced_substructure(C, [v for v in range(C.size) if v != drop])
    shrunk, renum2 = shrink_path_with_W(path, [renum[w] for w in W], m, k)
    composed = {old: renum2[new] for old, new in renum.items() if new in renum2}
    return shrunk, composed


def _degrees(A: Structure) -> list[int]:
    """Out-degree of each vertex over ``E``, loops not counted."""
    degs = [0] * A.size
    for a, b in A.relations["E"]:
        if a != b:
            degs[a] += 1
    return degs


def _components(A: Structure) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    adj: dict[int, set[int]] = {v: set() for v in range(A.size)}
    for a, b in A.relations["E"]:
        adj[a].add(b)
        adj[b].add(a)
    for v in range(A.size):
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _is_cycle_component(degs: list[int], comp: list[int]) -> bool:
    """``comp`` is a cycle, given the vertex degrees from :func:`_degrees`."""
    return len(comp) >= 3 and all(degs[v] == 2 for v in comp)


def witness_HnGn(
    A: Structure, W, m: int, k: int, n: int | None = None
) -> tuple[Structure, dict[int, int]]:
    """Shrink a member of the paths-plus-one-cycle family onto its small
    pattern: keep ``min(n, m+k+2)`` paths of each length up to the pattern
    span, route marks into them, and replace long paths or the cycle by
    their shrunken segments of matching lengths.

    Returns the substructure and the old->new renumbering.
    """
    W = sorted(checked_marks(W, k, range(A.size)))
    comps = _components(A)
    degs = _degrees(A)
    cycles = [c for c in comps if _is_cycle_component(degs, c)]
    if len(cycles) > 1:
        raise ValueError("expected at most one cycle component")
    paths = [c for c in comps if c not in cycles]
    if n is None:
        # infer n: the number of copies of the longest path length present
        longest = max(len(c) for c in paths) - 1
        n = sum(1 for c in paths if len(c) - 1 == longest)
    if cycles and n < m:
        # the cycle is only dispensable once it is invisible at rank m
        return induced_substructure(A, range(A.size))

    t = min(n, m + k + 2)
    span = 3**t
    by_len: dict[int, list[list[int]]] = {}
    for c in paths:
        by_len.setdefault(len(c) - 1, []).append(c)

    kept: set[int] = set()
    swap_segments: list[list[int]] = []

    # long paths and the cycle contribute short segments around their marks
    for c in paths:
        if len(c) - 1 <= span:
            continue
        marks_here = [v for v in W if v in c]
        if not marks_here:
            continue
        sub, renum = induced_substructure(A, c)
        back = {new: old for old, new in renum.items()}
        shrunk, renum2 = shrink_path_with_W(sub, [renum[v] for v in marks_here], m, k)
        keep_local = sorted(renum2)
        for comp in _components_of_subset(sub, keep_local):
            swap_segments.append(sorted(back[v] for v in comp))
    if cycles:
        cyc = cycles[0]
        marks_here = [v for v in W if v in cyc]
        if marks_here:
            sub, renum = induced_substructure(A, cyc)
            back = {new: old for old, new in renum.items()}
            shrunk, renum2 = shrink_cycle_with_W(sub, [renum[v] for v in marks_here], m, k)
            keep_local = sorted(renum2)
            for comp in _components_of_subset(sub, keep_local):
                swap_segments.append(sorted(back[v] for v in comp))

    # choose t short paths of each length, mark-carrying copies first
    chosen: dict[int, list[list[int]]] = {}
    for length in range(span + 1):
        copies = by_len.get(length, [])
        carrying = [c for c in copies if any(v in c for v in W)]
        free = [c for c in copies if not any(v in c for v in W)]
        if len(carrying) > t:
            # not enough pattern slots; the whole structure is already small
            return induced_substructure(A, range(A.size))
        chosen[length] = (carrying + free)[:t]

    # swap segments in for free copies of the same length
    for seg in swap_segments:
        length = len(seg) - 1
        slots = chosen.get(length, [])
        for idx, c in enumerate(slots):
            if not any(v in c for v in W):
                slots[idx] = seg
                break
        else:
            return induced_substructure(A, range(A.size))

    for slots in chosen.values():
        for c in slots:
            kept.update(c)
    return induced_substructure(A, sorted(kept))


def _components_of_subset(A: Structure, subset: list[int]) -> list[list[int]]:
    sub, renum = induced_substructure(A, subset)
    back = {new: old for old, new in renum.items()}
    return [[back[v] for v in comp] for comp in _components(sub)]

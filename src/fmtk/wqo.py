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
    check_hn_guard(n)
    parts = [make_path(i) for i in range(3**n + 1) for _ in range(n)]
    out = parts[0]
    for p in parts[1:]:
        out = disjoint_union(out, p)
    return out


def make_Gn(n: int) -> Structure:
    """A cycle on ``3**n`` vertices next to ``make_Hn(n)``."""
    check_hn_guard(n)
    return disjoint_union(make_cycle(3**n), make_Hn(n))


def check_hn_guard(n: int):
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


def order_positions(A: Structure) -> list[int]:
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
    pos = order_positions(A)
    bounds = [0] + sorted(pos[a] for a in marks) + [A.size - 1]
    return tuple(
        sum(1 for p in pos if bounds[r - 1] <= p <= bounds[r])
        for r in range(1, len(bounds))
    )


def _mark_order_type(A: Structure, marks: tuple[int, ...]) -> tuple:
    pos = order_positions(A)
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


def graph_components(A: Structure) -> list[tuple[str, list[int]]] | None:
    """The components of the undirected graph ``E``, in the order of their
    smallest vertices; ``None`` unless ``E`` is binary, symmetric and
    loop-free.

    Each component is ``("path", vertices)`` listed end to end from its
    smaller end (an isolated vertex is a path of length 0), ``("cycle",
    vertices)`` listed around from its smallest vertex toward that vertex's
    smaller neighbour, or ``("other", sorted vertices)``.
    """
    if ("E", 2) not in A.vocab.predicates:
        return None
    E = A.relations["E"]
    if any(a == b or (b, a) not in E for a, b in E):
        return None
    adj: list[list[int]] = [[] for _ in range(A.size)]
    for a, b in sorted(E):
        adj[a].append(b)
    seen = [False] * A.size
    out: list[tuple[str, list[int]]] = []
    for v in range(A.size):
        if seen[v]:
            continue
        comp = [v]
        seen[v] = True
        for u in comp:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        if any(len(adj[u]) > 2 for u in comp):
            out.append(("other", comp))
            continue
        ends = [u for u in comp if len(adj[u]) < 2]
        order, prev = [ends[0] if ends else comp[0]], -1
        while len(order) < len(comp):
            ns = adj[order[-1]]
            nxt = ns[1] if ns[0] == prev else ns[0]
            prev = order[-1]
            order.append(nxt)
        out.append(("path" if ends else "cycle", order))
    return out


def _only_component(A: Structure, kind: str) -> list[int]:
    """The vertex order of ``A``, which must be a single path or cycle."""
    comps = graph_components(A)
    if comps is None or len(comps) != 1 or comps[0][0] != kind:
        raise ValueError(f"structure is not a {kind}")
    return comps[0][1]


def _kept_runs(order: list[int], marks, m: int, k: int) -> list[list[int]]:
    """The runs of a path's vertex ``order`` its shrink keeps: with no marks
    one leading run of length at most ``3**(m+k+2)``, otherwise a run from
    the first to the last mark of each group of marks, a new group starting
    wherever consecutive marks sit more than ``3**(m+1)`` apart."""
    if not marks:
        return [order[: 3 ** (m + k + 2) + 1]]
    pos = sorted(order.index(v) for v in marks)
    runs, lo = [], pos[0]
    for a, b in zip(pos, pos[1:]):
        if b - a > 3 ** (m + 1):
            runs.append(order[lo : a + 1])
            lo = b
    runs.append(order[lo : pos[-1] + 1])
    return runs


def _opened_cycle(cycle: list[int], marks, k: int) -> list[int]:
    """The path left when ``cycle`` loses its smallest unmarked vertex,
    listed from its smaller end."""
    if k >= len(cycle):
        raise ValueError("k must be smaller than the cycle")
    drop = cycle.index(min(v for v in cycle if v not in marks))
    path = cycle[drop + 1 :] + cycle[:drop]
    return path if path[0] < path[-1] else path[::-1]


def shrink_path_with_W(
    P: Structure, W, m: int, k: int
) -> tuple[Structure, dict[int, int]]:
    """Small induced substructure of a path containing ``W``: a disjoint union
    of at most ``|W|`` short paths, split where marks sit far apart.

    Returns the substructure and its old->new renumbering. With no marks a
    single leading segment of length at most ``3**(m+k+2)`` is kept.
    """
    W = checked_marks(W, k, range(P.size))
    runs = _kept_runs(_only_component(P, "path"), W, m, k)
    return induced_substructure(P, [v for run in runs for v in run])


def shrink_cycle_with_W(
    C: Structure, W, m: int, k: int
) -> tuple[Structure, dict[int, int]]:
    """Open the cycle at its smallest non-mark vertex and shrink the
    resulting path."""
    W = checked_marks(W, k, range(C.size))
    path = _opened_cycle(_only_component(C, "cycle"), W, k)
    return induced_substructure(C, [v for run in _kept_runs(path, W, m, k) for v in run])


def witness_HnGn(
    A: Structure, W, m: int, k: int, n: int | None = None
) -> tuple[Structure, dict[int, int]]:
    """Shrink a member of the paths-plus-one-cycle family onto its small
    pattern: keep ``min(n, m+k+2)`` paths of each length up to the pattern
    span, route marks into them, and replace long paths or the cycle by
    their shrunken segments of matching lengths.

    ``A`` must be a disjoint union of paths and at most one cycle; with
    ``n`` omitted it is the number of copies of the longest path.
    Returns the substructure and the old->new renumbering.
    """
    W = checked_marks(W, k, range(A.size))
    comps = graph_components(A)
    if comps is None:
        raise ValueError("E is not symmetric and loop-free")
    if any(kind == "other" for kind, _ in comps):
        raise ValueError("a component is neither a path nor a cycle")
    paths = [c for kind, c in comps if kind == "path"]
    cycles = [c for kind, c in comps if kind == "cycle"]
    if len(cycles) > 1:
        raise ValueError("expected at most one cycle component")
    if n is None:
        if not paths:
            raise ValueError("n cannot be inferred: there is no path component")
        longest = max(len(c) for c in paths)
        n = sum(1 for c in paths if len(c) == longest)
    if cycles and n < m:
        # the cycle is only dispensable once it is invisible at rank m
        return induced_substructure(A, range(A.size))

    t = min(n, m + k + 2)
    span = 3**t
    by_len: dict[int, list[list[int]]] = {}
    for c in paths:
        by_len.setdefault(len(c) - 1, []).append(c)

    # long paths and the cycle contribute short segments around their marks
    swap_segments: list[list[int]] = []
    for c in paths:
        marks_here = W.intersection(c)
        if len(c) - 1 > span and marks_here:
            swap_segments += _kept_runs(c, marks_here, m, k)
    for c in cycles:
        marks_here = W.intersection(c)
        if marks_here:
            swap_segments += _kept_runs(_opened_cycle(c, marks_here, k), marks_here, m, k)

    # choose t short paths of each length, mark-carrying copies first
    chosen: dict[int, list[list[int]]] = {}
    for length in range(span + 1):
        copies = by_len.get(length, [])
        carrying = [c for c in copies if not W.isdisjoint(c)]
        free = [c for c in copies if W.isdisjoint(c)]
        if len(carrying) > t:
            # not enough pattern slots; the whole structure is already small
            return induced_substructure(A, range(A.size))
        chosen[length] = (carrying + free)[:t]

    # swap segments in for free copies of the same length
    for seg in swap_segments:
        slots = chosen.get(len(seg) - 1, [])
        for idx, c in enumerate(slots):
            if W.isdisjoint(c):
                slots[idx] = seg
                break
        else:
            return induced_substructure(A, range(A.size))

    return induced_substructure(A, [v for slots in chosen.values() for c in slots for v in c])

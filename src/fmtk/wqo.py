"""Embedding-pair scans over finite sequences, antichain certificates, and
the path/cycle example classes with the component reader their tests share.

Graph generators use the conventions: a path of length ``n`` has ``n`` edges
(so ``n + 1`` vertices), a cycle of size ``n`` has ``n`` vertices, and a
linear order of size ``n`` has ``n`` elements.

Executable example families: paths, cycles, path unions, linear orders,
grids, and the paths-plus-one-cycle family ``make_Gn`` beside ``make_Hn``.
One family of theoretical interest is deliberately absent: words whose
lengths diagonalize over an enumeration of all computable functions have no
shrink bound any program can witness, so no generator is provided.
"""

from __future__ import annotations

from .errors import check_guard
from .structures import (
    MarkedStructure,
    Structure,
    Vocabulary,
    disjoint_union,
    find_embedding,
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
# Dickson scan, marked linear orders and antichains


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
# path / cycle components


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

"""Answer checks that do not go through the fmtk routes being timed.

Structures are read as plain data (universe size, relation sets, constant
map) and everything here is recomputed by direct search: formula truth by
walking the quantifiers, embeddings by a small backtracking search written
here, marked linear orders by a greedy placement. None of it calls back
into fmtk's evaluation, rank-type or embedding code.
"""

from __future__ import annotations

import itertools


def _term(t, consts, env):
    kind = type(t).__name__
    if kind == "Var":
        return env[t.name]
    if kind == "Cst":
        return consts[t.name]
    raise TypeError(f"not a term: {t!r}")


def holds(f, universe, relations, consts=None, env=None) -> bool:
    """Truth of an fmtk formula AST over ``universe`` (a list of elements)."""
    consts = consts or {}
    env = dict(env or {})

    def ev(g) -> bool:
        kind = type(g).__name__
        if kind == "Atom":
            return tuple(_term(t, consts, env) for t in g.args) in relations[g.pred]
        if kind == "Eq":
            return _term(g.lhs, consts, env) == _term(g.rhs, consts, env)
        if kind == "Not":
            return not ev(g.sub)
        if kind == "And":
            return ev(g.lhs) and ev(g.rhs)
        if kind == "Or":
            return ev(g.lhs) or ev(g.rhs)
        if kind == "Implies":
            return (not ev(g.lhs)) or ev(g.rhs)
        if kind in ("Exists", "Forall"):
            saved = env.get(g.var, _MISSING)
            want = kind == "Exists"
            result = not want
            for e in universe:
                env[g.var] = e
                if ev(g.body) == want:
                    result = want
                    break
            if saved is _MISSING:
                env.pop(g.var, None)
            else:
                env[g.var] = saved
            return result
        raise TypeError(f"not a formula: {g!r}")

    return ev(f)


_MISSING = object()


def holds_in(A, f, env=None) -> bool:
    """:func:`holds` on an fmtk ``Structure`` read as plain data."""
    return holds(f, range(A.size), A.relations, A.constant_interp, env)


def holds_on_subset(A, subset, f) -> bool:
    """Truth of the sentence ``f`` in the substructure of ``A`` induced by
    ``subset``; the restriction is made here, not by fmtk."""
    keep = set(subset)
    relations = {
        name: {t for t in tuples if all(e in keep for e in t)}
        for name, tuples in A.relations.items()
    }
    return holds(f, sorted(keep), relations, A.constant_interp)


def cores(A, f, k: int) -> list[tuple[int, ...]]:
    """Mark sets of size at most ``k`` every superset of which (carrying the
    constants) satisfies ``f``; the class is all structures."""
    n = A.size
    const_mask = 0
    for e in A.constant_interp.values():
        const_mask |= 1 << e
    bad = []
    for mask in range(1, 1 << n):
        if mask & const_mask != const_mask:
            continue
        if not holds_on_subset(A, [e for e in range(n) if mask >> e & 1], f):
            bad.append(mask)
    out = []
    for size in range(k + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << e for e in combo)
            if all(mask & b != mask for b in bad):
                out.append(combo)
    return out


class BudgetExhausted(Exception):
    """The search in :func:`embeds` placed more elements than its budget allows."""


def embeds(A, B, budget: int | None = None) -> bool:
    """Is there an injective map of ``A`` onto an induced substructure of
    ``B`` that keeps every relation, in both directions, and every constant?

    ``budget`` caps the number of placements tried; past it the search
    raises :class:`BudgetExhausted` instead of answering.
    """
    if A.vocab != B.vocab or A.size > B.size:
        return False
    fixed = {}
    for c, a in A.constant_interp.items():
        b = B.constant_interp[c]
        if fixed.setdefault(a, b) != b:
            return False
    if len(set(fixed.values())) != len(fixed):
        return False
    rels = [(A.relations[name], B.relations[name], arity)
            for name, arity in A.vocab.predicates]
    if any(arity == 0 and rel_a != rel_b for rel_a, rel_b, arity in rels):
        return False
    order = sorted(fixed) + [a for a in range(A.size) if a not in fixed]
    mapping: dict[int, int] = {}
    tries = 0

    def fits(a: int, b: int) -> bool:
        # only the tuples that contain the new element a need checking
        mapping[a] = b
        try:
            dom = list(mapping)
            for rel_a, rel_b, arity in rels:
                if arity == 0:
                    continue
                for rest in itertools.product(dom, repeat=arity - 1):
                    for pos in range(arity):
                        t = rest[:pos] + (a,) + rest[pos:]
                        if (t in rel_a) != (tuple(mapping[e] for e in t) in rel_b):
                            return False
            return True
        finally:
            del mapping[a]

    def place(i: int) -> bool:
        nonlocal tries
        if i == len(order):
            return True
        a = order[i]
        used = set(mapping.values())
        targets = [fixed[a]] if a in fixed else [b for b in range(B.size) if b not in used]
        for b in targets:
            tries += 1
            if budget is not None and tries > budget:
                raise BudgetExhausted
            if b in used or not fits(a, b):
                continue
            mapping[a] = b
            if place(i + 1):
                return True
            del mapping[a]
        return False

    return place(0)


def first_embedding_pair(structures) -> tuple[int, int] | None:
    """Smallest ``j``, then smallest ``i < j``, with structure ``i`` embedding
    into structure ``j`` (1-based), by :func:`embeds`."""
    for j in range(1, len(structures)):
        for i in range(j):
            if embeds(structures[i], structures[j]):
                return (i + 1, j + 1)
    return None


def marked_order_embeds(n_a: int, marks_a, n_b: int, marks_b) -> bool:
    """Marked linear orders ``0 < 1 < ... < n-1``: does ``(n_a, marks_a)``
    embed into ``(n_b, marks_b)`` with mark ``i`` sent to mark ``i``?

    Greedy placement: each element goes to the smallest admissible target.
    """
    forced: dict[int, int] = {}
    for a, b in zip(marks_a, marks_b):
        if forced.setdefault(a, b) != b:
            return False
    marked_b = set(marks_b)
    last = -1
    for a in range(n_a):
        if a in forced:
            target = forced[a]
            if target <= last:
                return False
        else:
            target = last + 1
            while target < n_b and target in marked_b:
                target += 1
            if target >= n_b:
                return False
        last = target
    return True


def first_marked_order_pair(items) -> tuple[int, int] | None:
    """:func:`first_embedding_pair` for marked linear orders given as
    ``(n, marks)``, by :func:`marked_order_embeds`."""
    for j in range(1, len(items)):
        for i in range(j):
            if marked_order_embeds(*items[i], *items[j]):
                return (i + 1, j + 1)
    return None

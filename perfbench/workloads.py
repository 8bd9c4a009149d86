"""Seeded job lists for the four benchmark workloads.

A job is one closed-loop request: ``run()`` is the timed call into fmtk and
returns a JSON-able answer; ``check(answer)`` re-derives what it can by a
route that does not go through the code being timed (``oracle.py``, closed
forms, exit codes) and returns a reason string on failure, ``None`` on
success. Every random choice comes from the workload seed. Input *sizes*
follow a fixed schedule (the CLI inputs and a few second structures vary
by a handful of elements), so that two seeds ask for about the same amount
of work and mainly the content (edges, labels, marks, permutations) changes.
Content alone can still move one job's time by 2x or more; the families
where it does get many jobs of each size, so that a mix's total and
percentiles average over them and move little from seed to seed.

Each job builds its own ``Structure`` objects inside ``run()``, so fmtk's
per-structure rank-type cache starts empty in every job. The one exception
is on purpose: a linear-order sweep reuses its base order for all three
comparisons.

``tiny=True`` gives a short list of the smallest jobs, one or two per
family, for the smoke test.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import oracle


@dataclass
class Job:
    id: str
    family: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


def _graph_vocab():
    from fmtk.structures import Vocabulary

    return Vocabulary.make({"E": 2})


def _random_edges(rng: random.Random, n: int, density: float) -> frozenset:
    return frozenset(
        t for t in itertools.product(range(n), repeat=2) if rng.random() < density
    )


def _permute(perm, edges) -> frozenset:
    return frozenset((perm[a], perm[b]) for a, b in edges)


# Placements the containment check may try before it gives up on a job; a
# search that gives up leaves the job to its other checks.
EMBED_BUDGET = 20_000


def _contained(ans, original) -> str | None:
    """Does the output in ``ans`` embed into the ``original`` input, by the
    oracle's own search?"""
    from fmtk.structures import Structure

    out = Structure(original.vocab, ans["size"],
                    {name: frozenset(map(tuple, ts)) for name, ts in ans["relations"].items()})
    try:
        return _expect(oracle.embeds(out, original, EMBED_BUDGET), "output does not embed into the input")
    except oracle.BudgetExhausted:
        return None


# ---------------------------------------------------------------------------
# equiv-mix


def equiv_mix(rng: random.Random, tiny: bool = False) -> list[Job]:
    """``m_equivalent`` on a few large structures with heavy reuse.

    Families: linear-order threshold sweeps (one base order against three
    longer ones), fresh cycle/path/grid pairs at m <= 3, permuted copies,
    small random digraph pairs decided by both equivalence routes, and one
    fixed request repeated (the mix's median).

    The sweep runs at m = 4 up to L9 and at m = 3 beyond; grids stop at
    4 x 6. Larger inputs cost half a second to seconds per job, and a pass
    over the list has to stay short: a job's time is the median over its
    passes, and a few such jobs would decide the mix's total.
    """
    from fmtk.equiv import ef_game_equivalent, m_equivalent
    from fmtk.structures import Structure
    from fmtk.wqo import make_cycle, make_grid, make_linear_order, make_path

    V = _graph_vocab()
    jobs: list[Job] = []

    sweep = [(6, 3), (7, 3)] if tiny else [(a, 4 if a <= 9 else 3) for a in range(6, 21)]
    for a, m in sweep:
        def run(a=a, m=m):
            base = make_linear_order(a)
            return [m_equivalent(base, make_linear_order(a + d), m) for d in (1, 2, 3)]

        def check(ans, a=a, m=m):
            t = 2**m - 1
            want = [a == b or (a >= t and b >= t) for b in (a + 1, a + 2, a + 3)]
            return _expect(ans == want, f"L{a} sweep at m={m}: {ans}, closed form {want}")

        jobs.append(Job(f"order-sweep-{a}-m{m}", "order-sweep", run, check))

    # Cycles and paths at least 2**m long are rank-m equivalent to each other.
    fresh = (
        [("cycle", 12, 2), ("path", 12, 2)]
        if tiny
        else [("cycle", n, 3 if n <= 24 else 2) for n in range(12, 41, 4)]
        + [("path", n, 3 if n <= 20 else 2) for n in range(12, 29, 4)]
    )
    makers = {"cycle": make_cycle, "path": make_path}
    for kind, n, m in fresh:
        n2 = n + rng.randint(1, 3)

        def run(kind=kind, n=n, n2=n2, m=m):
            return m_equivalent(makers[kind](n), makers[kind](n2), m)

        def check(ans, kind=kind, n=n, n2=n2, m=m):
            return _expect(ans is True, f"{kind}s {n}, {n2} >= 2^{m} came out distinguishable")

        jobs.append(Job(f"fresh-{kind}-{n}-{n2}-m{m}", "fresh-pair", run, check))

    grids = [(2, 3)] if tiny else [(3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6)]
    for a, b in grids:
        # make_grid(a, b) and make_grid(b, a) are isomorphic; (a, b + 1) is a
        # genuinely fresh pair, checked against the recorded answer only.
        swap = rng.random() < 0.5

        def run(a=a, b=b, swap=swap):
            other = make_grid(b, a) if swap else make_grid(a, b + 1)
            return m_equivalent(make_grid(a, b), other, 3)

        def check(ans, swap=swap, a=a, b=b):
            if swap:
                return _expect(ans is True, f"grid {a}x{b} vs its transpose: {ans}")
            return None

        jobs.append(Job(f"fresh-grid-{a}x{b}-{'swap' if swap else 'grow'}", "fresh-pair", run, check))

    bases = (
        [("cycle", 8)]
        if tiny
        else [("cycle", 10), ("cycle", 12), ("cycle", 14), ("cycle", 16), ("path", 9), ("path", 11),
              ("path", 12), ("path", 15), ("grid", 9), ("grid", 12), ("grid", 16), ("grid", 20),
              ("random", 8), ("random", 10), ("random", 12), ("random", 14)]
    )
    for kind, n in bases:
        if kind == "grid":
            base_fn = lambda n=n: make_grid(3, n // 3) if n % 3 == 0 else make_grid(4, n // 4)
            size = n
        elif kind == "random":
            edges = _random_edges(rng, n, 0.3)
            base_fn = lambda n=n, edges=edges: Structure(V, n, {"E": edges})
            size = n
        else:
            base_fn = lambda kind=kind, n=n: makers[kind](n)
            size = n + 1 if kind == "path" else n
        perm = list(range(size))
        rng.shuffle(perm)
        m = 3 if size <= 12 else 2

        def run(base_fn=base_fn, perm=perm, m=m):
            A = base_fn()
            B = Structure(A.vocab, A.size, {k: _permute(perm, ts) for k, ts in A.relations.items()})
            return m_equivalent(A, B, m)

        def check(ans, kind=kind, n=n):
            return _expect(ans is True, f"permuted copy of {kind} {n} came out distinguishable")

        jobs.append(Job(f"permuted-{kind}-{n}-m{m}", "permuted", run, check))

    # The same request, sixteen times: its cost sits at the middle of the
    # mix, so the mix's median is the time of this one fixed job rather than
    # of whichever seeded job lands at rank 50.
    for idx in range(1 if tiny else 16):
        def run():
            return m_equivalent(make_cycle(32), make_cycle(33), 2)

        def check(ans):
            return _expect(ans is True, "cycles 32 and 33 >= 2^2 came out distinguishable")

        jobs.append(Job(f"repeat-{idx}-cycle-32-33-m2", "repeat", run, check))

    # Each (n, m) gets a fixed number of pairs of each kind, so that the
    # share of equivalent pairs (whose game search runs in full) is the same
    # for every seed: "iso" is a permuted copy (equivalent), "loop" adds one
    # loop to a loop-free graph (told apart by "exists x. E(x,x)"), "flip"
    # toggles one edge between distinct elements (either answer).
    kinds = ("iso", "loop") if tiny else ("iso", "iso", "iso", "loop", "loop", "flip", "flip")
    small = [(4, 2), (5, 3)] if tiny else [(n, m) for n in (4, 5, 6, 7) for m in (2, 3)]
    for idx, ((n, m), kind) in enumerate(itertools.product(small, kinds)):
        density = (0.3, 0.5)[idx % 2]
        ea = _random_edges(rng, n, density)
        if kind == "loop":
            ea = frozenset((a, b) for a, b in ea if a != b)
        perm = list(range(n))
        rng.shuffle(perm)
        eb = _permute(perm, ea)
        if kind == "loop":
            v = rng.randrange(n)
            eb |= {(v, v)}
        elif kind == "flip":
            a, b = rng.sample(range(n), 2)
            eb ^= {(a, b)}
        want = {"iso": True, "loop": False, "flip": None}[kind]

        def run(n=n, ea=ea, eb=eb, m=m):
            A, B = Structure(V, n, {"E": ea}), Structure(V, n, {"E": eb})
            return [m_equivalent(A, B, m), ef_game_equivalent(A, B, m)]

        def check(ans, want=want, kind=kind):
            if ans[0] != ans[1]:
                return f"rank types say {ans[0]}, game search says {ans[1]}"
            return _expect(want is None or ans[0] == want, f"{kind} pair came out {ans[0]}")

        jobs.append(Job(f"small-pair-{idx}-{kind}-n{n}-m{m}", "small-pair", run, check))
    return jobs


# ---------------------------------------------------------------------------
# shrink-mix


def _random_tree_spec(rng: random.Random, n: int, sigma=("a", "b")):
    parent = {0: None}
    label = {0: rng.choice(sigma)}
    for v in range(1, n):
        # mostly attach near the newest nodes, so trees are deep as well as bushy
        parent[v] = rng.randrange(max(0, v - 4), v) if rng.random() < 0.7 else rng.randrange(v)
        label[v] = rng.choice(sigma)
    return parent, label


def _shrink_tree_job(job_id, family, parent, label, sigma, W, m, k) -> Job:
    from fmtk.shrink import SigmaTree, is_subtree, shrink_tree

    def run():
        tree = SigmaTree(parent, label, sigma)
        out, report = shrink_tree(tree, W, m, k)
        return {"nodes": sorted(out.nodes), "ok": report.ok()}

    def check(ans):
        tree = SigmaTree(parent, label, sigma)
        kept = ans["nodes"]
        if not set(W) <= set(kept):
            return f"marks {sorted(W)} not all kept"
        if not is_subtree(tree.induced(kept), tree):
            return "output is not a subtree of the input"
        return _expect(ans["ok"], "report.ok() is False")

    return Job(job_id, family, run, check)


def _random_blocks(rng: random.Random, count: int):
    return [(n, _random_edges(rng, n, 0.4)) for n in (rng.randint(2, 4) for _ in range(count))]


def shrink_mix(rng: random.Random, tiny: bool = False) -> list[Job]:
    """Thousands of small, freshly built structures: the same rank-type
    layer as equiv-mix, used the opposite way.

    Families: ``shrink_tree`` on random {a,b} trees (40-120 nodes, m <= 2,
    k <= 2), unary and random {a,b} words of 40-120 letters, block words and
    block trees of 10-30 small graphs with the exhaustive leaf shrinker,
    ``shrink_algebraic`` on union/complement expressions of depth 3-5, and
    one fixed request repeated (the mix's median). Marked unary words of
    100 letters, which cost about the mix's 90th percentile, get many
    copies for the same reason.
    Random content makes a shrink's time swing by 2x or more once the input
    is large for its rank, and a few such jobs would then decide the mix's
    total and its 90th percentile. So the large sizes run where the content
    matters little (unary words up to 120 letters, m = 1 trees up to 120
    nodes), random {a,b} words run at m = 1 and stop at 60 letters, the
    m = 2 inputs stay small (trees up to 50 nodes, blocks up to 20, unary
    words up to 40 letters), and the random ones get more copies. At m = 2
    a random {a,b} word of 40 letters takes 50 to 375 ms by its content.
    """
    from fmtk.algebra import (
        COMPLEMENT,
        UNION,
        eval_expression_tree,
        leaf,
        node,
        shrink_algebraic,
        shrink_tree_of_structures,
        shrink_word_of_structures,
    )
    from fmtk.structures import Structure, tree_of_structures

    V = _graph_vocab()
    jobs: list[Job] = []

    trees = [(20, 1, 1)] if tiny else [
        (n, 1, k) for n in range(40, 121, 10) for k in (1, 2)
    ] * 2 + [(n, 2, k) for n in (40, 50) for k in (1, 2)] * 8
    for idx, (n, m, k) in enumerate(trees):
        parent, label = _random_tree_spec(rng, n)
        W = set(rng.sample(range(n), k))
        jobs.append(_shrink_tree_job(f"tree-{idx}-{n}-m{m}-k{k}", "tree", parent, label, ("a", "b"), W, m, k))

    words = (
        [("a", 20, 1, 0), ("ab", 20, 1, 1)]
        if tiny
        else [("a", n, 1, k) for n in (40, 60, 80, 100) for k in (0, 1)] + [("a", 120, 1, 1)]
        + [("ab", n, 1, k) for n in (40, 60) for k in (0, 1)] * 8
        + [("a", 30, 2, 0), ("a", 40, 2, 1)]
        # a marked unary word of 100 letters costs about the mix's 90th
        # percentile and varies only a little with its mark, so its copies
        # steady that percentile as the repeat family below steadies the
        # median; as many cheap ones keep the median inside that family
        + [("a", 100, 1, 1), ("a", 40, 1, 1)] * 16
    )
    for idx, (letters, n, m, k) in enumerate(words):
        sigma = tuple(letters)
        label = {v + 1: rng.choice(sigma) for v in range(n)}
        parent = {v + 1: (None if v == 0 else v) for v in range(n)}
        # a unary word's shrink time follows where its mark sits, so the
        # mark stays within a few letters of the middle
        spots = range(n // 2 - 2, n // 2 + 3) if letters == "a" else range(1, n + 1)
        W = set(rng.sample(spots, k))
        jobs.append(_shrink_tree_job(f"word-{idx}-{letters}{n}-m{m}-k{k}", "word", parent, label, sigma, W, m, k))

    # The same request, 36 times (see equiv_mix): a 48-letter unary word
    # without marks, whose shrink costs about the mix's median. The mix's
    # middle is steep (from 15 to 26 ms within 60 jobs), so the copies have
    # to be many for the median to land on them whatever the seed.
    for idx in range(1 if tiny else 36):
        jobs.append(_shrink_tree_job(f"repeat-{idx}-a48", "repeat", {v + 1: (None if v == 0 else v) for v in range(48)},
                                     {v + 1: "a" for v in range(48)}, ("a",), set(), 1, 0))

    blocks = [(6, 1)] if tiny else ([(nb, m) for nb in (10, 20, 30) for m in (1, 2) if nb + 10 * m <= 40]
                                    + [(20, 2)]) * 4
    for idx, (nb, m) in enumerate(blocks):
        for shape_kind in ("word", "tree"):
            parts = _random_blocks(rng, nb)
            shape = {0: None, **{j: (j - 1 if shape_kind == "word" else rng.randrange(j)) for j in range(1, nb)}}
            total = sum(n for n, _ in parts)
            W = {rng.randrange(total)}

            def run(parts=parts, shape=shape, W=W, m=m, shape_kind=shape_kind):
                structs = [Structure(V, n, {"E": e}) for n, e in parts]
                if shape_kind == "word":
                    out, report = shrink_word_of_structures(structs, W, m, 1)
                else:
                    out, report = shrink_tree_of_structures(shape, structs, W, m, 1)
                return {"size": out.size, "input": report.input_size, "ok": report.ok(),
                        "relations": {name: sorted(ts) for name, ts in out.relations.items()}}

            def check(ans, total=total, parts=parts, shape=shape):
                if ans["input"] != total or ans["size"] > total:
                    return f"sizes {ans['size']} of {ans['input']}, input has {total}"
                if not ans["ok"]:
                    return "report.ok() is False"
                return _contained(ans, tree_of_structures(shape, [Structure(V, n, {"E": e}) for n, e in parts]))

            jobs.append(Job(f"blocks-{idx}-{shape_kind}-{nb}-m{m}", "blocks", run, check))

    # A fixed expression shape per depth (unions, with the right operand
    # complemented on odd levels) over three 3-element leaves, so that every
    # seed shrinks inputs of the same size; the seed picks the leaves' edges,
    # which leaf sits where, and the mark. At depth 5 and m = 2 the output is
    # mostly the whole input and the time swings 3x with the content, so
    # depth 5 runs at m = 1 only.
    exprs = [(3, 1)] if tiny else [(3, 1)] * 12 + [(3, 2)] * 12 + [(4, 1)] * 12 + [(4, 2)] * 24 + [(5, 1)] * 32
    for idx, (depth, m) in enumerate(exprs):
        leaves = [(3, _random_edges(rng, 3, 0.4)) for _ in range(3)]

        def shape(d):
            if d == 0:
                return rng.randrange(len(leaves))
            right = shape(d - 1)
            return ("u", shape(d - 1), ("!", right) if d % 2 else right)

        tree_shape = shape(depth)

        def size_of(s):
            if isinstance(s, int):
                return leaves[s][0]
            return sum(size_of(c) for c in s[1:])

        total = size_of(tree_shape)
        W = {rng.randrange(total)}

        def run(tree_shape=tree_shape, leaves=leaves, W=W, m=m):
            structs = [Structure(V, n, {"E": e}) for n, e in leaves]

            def build(s):
                if isinstance(s, int):
                    return leaf(structs[s])
                if s[0] == "!":
                    return node(COMPLEMENT, build(s[1]))
                return node(UNION, build(s[1]), build(s[2]))

            out, report = shrink_algebraic(build(tree_shape), W, m, 1)
            return {"size": out.size, "input": report.input_size, "ok": report.ok(),
                    "certificate": report.certificate,
                    "relations": {name: sorted(ts) for name, ts in out.relations.items()}}

        def check(ans, total=total, tree_shape=tree_shape, leaves=leaves):
            if ans["input"] != total or ans["size"] > total:
                return f"sizes {ans['size']} of {ans['input']}, input has {total}"
            if not ans["ok"]:
                return "report.ok() is False"
            structs = [Structure(V, n, {"E": e}) for n, e in leaves]

            def build(s):
                if isinstance(s, int):
                    return leaf(structs[s])
                if s[0] == "!":
                    return node(COMPLEMENT, build(s[1]))
                return node(UNION, build(s[1]), build(s[2]))

            return _contained(ans, eval_expression_tree(build(tree_shape)))

        jobs.append(Job(f"algebraic-{idx}-d{depth}-m{m}", "algebraic", run, check))
    return jobs


# ---------------------------------------------------------------------------
# translate-mix


def _random_sentence(rng: random.Random, preds, rank: int):
    from fmtk.folog import And, Atom, Eq, Exists, Forall, Implies, Not, Or, Var

    counter = itertools.count(1)

    def gen(r: int, scope: list, fuel: int):
        options = []
        if scope:
            options += ["atom", "atom", "eq"]
        if r > 0 and (fuel > 0 or not scope):
            options += ["exists", "forall"]
        if fuel > 0 and scope:
            options += ["not", "and", "or", "implies"]
        kind = rng.choice(options)
        if kind == "atom":
            name, arity = rng.choice(preds)
            return Atom(name, tuple(Var(rng.choice(scope)) for _ in range(arity)))
        if kind == "eq":
            return Eq(Var(rng.choice(scope)), Var(rng.choice(scope)))
        if kind == "not":
            return Not(gen(r, scope, fuel - 1))
        if kind in ("and", "or", "implies"):
            cls = {"and": And, "or": Or, "implies": Implies}[kind]
            return cls(gen(r, scope, fuel // 2), gen(r, scope, fuel // 2))
        var = f"v{next(counter)}"
        body = gen(r - 1, scope + [var], fuel - 1)
        return Exists(var, body) if kind == "exists" else Forall(var, body)

    return gen(rank, [], 6)


CORE_FORMULAS = (
    "forall x. exists y. E(x,y)",
    "exists x. exists y. E(x,y)",
    "forall x. forall y. (E(x,y) -> E(y,x))",
    "exists x. forall y. (E(x,y) | x = y)",
)

TRANSLATE_FORMULAS = (
    "forall x. !E(x,x)",
    "forall x. forall y. (E(x,y) -> E(y,x))",
    "forall x. forall y. (E(x,y) -> !(x = y))",
    "exists x. forall y. !E(x,y)",
    "exists x. exists y. E(x,y)",
    "forall x. exists y. E(x,y)",
)

# Substructure-closed classes of digraphs, as membership tests on plain data.
CLOSED_CLASSES = {
    "edgeless": lambda E: not E,
    "loop-free": lambda E: all(a != b for a, b in E),
    "symmetric": lambda E: all((b, a) in E for a, b in E),
    "out-degree-le-1": lambda E: len({a for a, _ in E}) == len(E),
}


def translate_mix(rng: random.Random, tiny: bool = False) -> list[Job]:
    """Formula evaluation, induced substructures and embedding search;
    ``rank_type`` never runs here.

    Families: ``find_cores`` on 8-12 element graphs (exhaustive over subsets,
    guarded at 12), ``translate_auto`` with k in {0, 1} over cycles 3-8 and
    paths 1-6 (``max_p`` = 4 keeps the prefix evaluation at desk scale),
    relativization-contract checks over all digraphs of at most 2 elements
    plus random 3-element ones, universal sentences from minimal models over
    all digraphs of at most 3 elements, the three embedding scans, and one
    fixed request repeated (the mix's median).
    """
    from fmtk.algebra import wqo_scan_marked_words
    from fmtk.folog import evaluate, parse, relativize, to_formula
    from fmtk.structures import MarkedStructure, Structure, induced_substructure, word_of_structures
    from fmtk.translate import (
        ClassSample,
        enumerate_structures,
        find_cores,
        forall_star_from_minimal_models,
        is_cycle_graph,
        is_path_graph,
        translate_auto,
    )
    from fmtk.wqo import (
        antichain_certificate,
        linear_order_embedding_pair,
        make_cycle,
        make_linear_order,
        make_path,
    )

    V = _graph_vocab()
    jobs: list[Job] = []

    core_specs = (
        [("cycle", 6, 0, 1)]
        if tiny
        else [("cycle", 8, 0, 1), ("cycle", 10, 1, 2), ("cycle", 12, 0, 1), ("path", 7, 2, 1),
              ("path", 9, 1, 2), ("path", 11, 3, 1), ("random", 8, 2, 1), ("random", 10, 3, 2)]
        + [("random", 8, fi, k) for fi in range(len(CORE_FORMULAS)) for k in (1, 2)]
    )
    for idx, (kind, n, fi, k) in enumerate(core_specs):
        text = CORE_FORMULAS[fi]
        edges = _random_edges(rng, n, 0.35) if kind == "random" else None

        def build(kind=kind, n=n, edges=edges):
            if kind == "random":
                return Structure(V, n, {"E": edges})
            return make_cycle(n) if kind == "cycle" else make_path(n)

        def run(build=build, text=text, k=k):
            A = build()
            sample = ClassSample([A], membership=lambda s: True)
            return [list(c) for c in find_cores(A, parse(A.vocab, text), k, sample)]

        def check(ans, build=build, text=text, k=k):
            A = build()
            want = [list(c) for c in oracle.cores(A, parse(A.vocab, text), k)]
            return _expect(ans == want, f"cores {ans}, direct search {want}")

        jobs.append(Job(f"cores-{idx}-{kind}{n}-f{fi}-k{k}", "cores", run, check))

    samples = {
        "cycles": (make_cycle, is_cycle_graph, range(3, 9)),
        "paths": (make_path, is_path_graph, range(1, 7)),
    }
    translate_specs = (
        [(0, 0, "cycles")]
        if tiny
        else [(fi, k, kind) for fi in range(len(TRANSLATE_FORMULAS)) for k in (0, 1)
              for kind in ("cycles", "paths")]
    )

    def translate_job(job_id: str, family: str, fi: int, k: int, kind: str) -> Job:
        text = TRANSLATE_FORMULAS[fi]
        maker, member, sizes = samples[kind]

        def run():
            sample = ClassSample([maker(n) for n in sizes], membership=member)
            result = translate_auto(parse(V, text), k, sample, max_p=4)
            return {"p": result.p, "verified": result.verified,
                    "disagreements": list(result.disagreements),
                    "sentence": repr(to_formula(result.sentence))}

        def check(ans):
            phi, translated = parse(V, text), _formula_from_repr(ans["sentence"])
            bad = [i for i, n in enumerate(sizes)
                   if oracle.holds_in(maker(n), phi) != oracle.holds_in(maker(n), translated)]
            if ans["disagreements"] != bad:
                return f"disagreements {ans['disagreements']}, direct evaluation {bad}"
            return _expect(ans["verified"] == (not bad), "verified flag contradicts the sample")

        return Job(job_id, family, run, check)

    for fi, k, kind in translate_specs:
        jobs.append(translate_job(f"translate-f{fi}-k{k}-{kind}", "translate", fi, k, kind))
    # The same request sixteen times (see equiv_mix): the symmetric-edges
    # formula with one existential over the cycle sample, about the mix's
    # median.
    for idx in range(1 if tiny else 16):
        jobs.append(translate_job(f"repeat-{idx}-f1-k1-cycles", "repeat", 1, 1, "cycles"))

    rel_specs = [(1, 1)] if tiny else [(rank, length) for rank in (1, 2) for length in (1, 2) for _ in range(10)]
    small = [(n, e) for n in (1, 2) for e in _all_edge_sets(n)]
    for idx, (rank, length) in enumerate(rel_specs):
        f = _random_sentence(rng, V.predicates, rank)
        extra = [(3, _random_edges(rng, 3, 0.4)) for _ in range(0 if tiny else 6)]
        xs = tuple(f"x{i + 1}" for i in range(length))

        def run(f=f, xs=xs, extra=extra):
            rel = relativize(f, xs)
            out = []
            for n, e in small + extra:
                A = Structure(V, n, {"E": e})
                for values in itertools.product(range(n), repeat=len(xs)):
                    sub, _ = induced_substructure(A, set(values))
                    out.append([evaluate(A, rel, dict(zip(xs, values))), evaluate(sub, f)])
            return out

        def check(ans, f=f, xs=xs, extra=extra):
            i = 0
            for n, e in small + extra:
                A = Structure(V, n, {"E": e})
                for values in itertools.product(range(n), repeat=len(xs)):
                    want = oracle.holds_on_subset(A, set(values), f)
                    if ans[i] != [want, want]:
                        return f"relativized/direct {ans[i]} at {values} in {sorted(e)}, direct search {want}"
                    i += 1
            return _expect(i == len(ans), "answer length mismatch")

        jobs.append(Job(f"relativize-{idx}-r{rank}-x{length}", "relativize", run, check))

    for name in (["edgeless"] if tiny else list(CLOSED_CLASSES)):
        test = CLOSED_CLASSES[name]
        max_size = 2 if tiny else 3

        def run(test=test, max_size=max_size):
            sample = ClassSample(enumerate_structures(V, max_size), membership=lambda s: True)
            sentence = forall_star_from_minimal_models(lambda s: test(s.relations["E"]), sample)
            return repr(sentence)

        def check(ans, test=test, max_size=max_size, name=name):
            sentence = _formula_from_repr(ans)
            for A in enumerate_structures(V, max_size):
                if oracle.holds_in(A, sentence) != test(A.relations["E"]):
                    return f"sentence for {name} disagrees with the class on {sorted(A.relations['E'])}"
            return None

        jobs.append(Job(f"forall-star-{name}", "forall-star", run, check))

    for idx, k in enumerate((1,) if tiny else (1, 2, 3) * 5):
        items = []
        for _ in range(6 if tiny else 20):
            n = rng.randint(max(k, 2), 12)
            items.append((n, tuple(rng.randrange(n) for _ in range(k))))

        def run(items=items, k=k):
            pair = linear_order_embedding_pair([(make_linear_order(n), marks) for n, marks in items], k)
            return list(pair) if pair else None

        def check(ans, items=items):
            want = oracle.first_marked_order_pair(items)
            want = list(want) if want else None
            return _expect(ans == want, f"pair {ans}, greedy placement {want}")

        jobs.append(Job(f"order-scan-{idx}-k{k}", "embedding-scan", run, check))

    for variant in (("distinct",) if tiny else ("distinct", "repeat")):
        lengths = list(range(2, 7))
        rng.shuffle(lengths)
        if variant == "repeat":
            lengths.append(rng.choice(lengths))

        def run(lengths=lengths):
            ok, pair = antichain_certificate([MarkedStructure(make_path(n), (0, n)) for n in lengths])
            return [ok, list(pair) if pair else None]

        def check(ans, lengths=lengths):
            expanded = [MarkedStructure(make_path(n), (0, n)).expand() for n in lengths]
            want = [True, None]
            for i, j in itertools.permutations(range(len(lengths)), 2):
                if oracle.embeds(expanded[i], expanded[j]):
                    want = [False, [i + 1, j + 1]]
                    break
            return _expect(ans == want, f"certificate {ans}, direct search {want}")

        jobs.append(Job(f"antichain-{variant}", "embedding-scan", run, check))

    for idx in range(1 if tiny else 2):
        words = []
        for _ in range(5):
            blocks = [(n, _random_edges(rng, n, 0.5)) for n in (rng.randint(1, 2) for _ in range(rng.randint(2, 3)))]
            total = sum(n for n, _ in blocks)
            words.append((blocks, {rng.randrange(total)}))

        def run(words=words):
            items = [([Structure(V, n, {"E": e}) for n, e in blocks], marks) for blocks, marks in words]
            pair = wqo_scan_marked_words(items, 1)
            return list(pair) if pair else None

        def check(ans, words=words):
            expanded = [
                MarkedStructure(word_of_structures([Structure(V, n, {"E": e}) for n, e in blocks]),
                                tuple(sorted(marks)), ordered=False).expand()
                for blocks, marks in words
            ]
            want = oracle.first_embedding_pair(expanded)
            want = list(want) if want else None
            return _expect(ans == want, f"pair {ans}, direct search {want}")

        jobs.append(Job(f"word-scan-{idx}", "embedding-scan", run, check))
    return jobs


def _formula_from_repr(text: str):
    """Rebuild a formula from the dataclass ``repr`` a job returned."""
    from fmtk import folog

    names = {n: getattr(folog, n) for n in ("Var", "Cst", "Atom", "Eq", "Not", "And", "Or",
                                            "Implies", "Exists", "Forall")}
    return eval(text, {"__builtins__": {}}, names)


def _all_edge_sets(n: int):
    pairs = list(itertools.product(range(n), repeat=2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield frozenset(p for p, b in zip(pairs, bits) if b)


# ---------------------------------------------------------------------------
# cli-batch

CLI_COMMANDS = ("gen", "equiv", "shrink", "translate", "cores", "wqo-scan", "algebra-eval", "algebra-shrink")


def run_cli(root: str, workdir: str, args: list[str]) -> tuple[int, str]:
    """One ``python -m fmtk.cli`` child, run to completion in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fmtk.cli", *args],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def key_block(stdout: str) -> str | None:
    """The ``key: value`` block below ``---``; ``None`` when there is none.

    The header above it (command, flags, ``seed``) is not part of the answer.
    """
    lines = stdout.splitlines()
    if "---" not in lines:
        return None
    return "\n".join(lines[lines.index("---") + 1:])


def _block_value(block: str | None, key: str) -> str | None:
    for line in (block or "").splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


def _keys_are(want: dict[str, str]):
    def check(out):
        for key, value in want.items():
            got = _block_value(out, key)
            if got != value:
                return f"{key}: {got!r}, expected {value!r}"
        return None

    return check


def cli_batch(rng: random.Random, root: str, workdir: str, tiny: bool = False) -> list[Job]:
    """The README commands as subprocesses, one at a time, on input files
    written here (this is set-up, not job time).

    Ten jobs per command, ten ``--help`` start-up probes among them, so a
    pass holds 100 distinct jobs and ten of them lie beyond the 90th
    percentile. Ten of the ``algebra-eval`` jobs are products past
    ``--max-size`` that must be refused with exit code 2 (family
    ``cli-guard``): C20 x C24 cartesian and tensor products against a guard
    of 64, a size at which the refusal still costs the whole product.
    Each call is dominated by interpreter start-up and import, so inputs
    stay small: equivalence and shrink run at m <= 2.
    """
    from fmtk.folog import parse
    from fmtk.shrink import SigmaTree, serialize_tree
    from fmtk.structures import Structure, serialize_structures
    from fmtk.wqo import make_cycle, make_linear_order, make_path

    V = _graph_vocab()
    os.makedirs(workdir, exist_ok=True)

    def write(name: str, text: str) -> str:
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
        return name

    per_command = 1 if tiny else 10

    # (job id, family, argv, expected exit code, check of the output)
    specs: list[tuple[str, str, list[str], int, Callable[[str | None], str | None]]] = []
    for idx in range(per_command):
        specs.append((f"startup-{idx}", "startup", ["--help"], 0, lambda out: None))

    for idx in range(per_command):
        klass = ("cycle", "grid")[idx % 2]
        if klass == "grid":
            dims = f"{rng.randint(2, 4)}x{rng.randint(2, 5)}"
            args = ["gen", "--class", "grid", "--dims", dims]
            a, b = dims.split("x")
            size = int(a) * int(b)
        else:
            n = rng.randint(6, 16)
            args = ["gen", "--class", klass, "--n", str(n)]
            size = n + (klass == "path")

        def check(out, size=size):
            return _expect(f"universe: {size}" in (out or "").splitlines(), f"generated structure is not of size {size}")

        specs.append((f"gen-{idx}-{klass}", "gen", args, 0, check))

    for idx in range(per_command):
        klass = ("linorder", "cycle")[idx % 2]
        n = rng.randint(2, 8) if klass == "linorder" else rng.randint(8, 12)
        m = 2
        n2 = n + rng.randint(0, 2)
        maker = {"linorder": make_linear_order, "cycle": make_cycle, "path": make_path}[klass]
        fa = write(f"eq{idx}a.txt", serialize_structures({"A": maker(n)}))
        fb = write(f"eq{idx}b.txt", serialize_structures({"B": maker(n2)}))
        t = 2**m - 1
        # linear orders by the closed form; cycles and paths at least 2**m long
        want = n == n2 or (n >= t and n2 >= t) if klass == "linorder" else True
        specs.append((f"equiv-{idx}-{klass}{n}-{n2}", "equiv", ["equiv", "--file-a", fa, "--file-b", fb, "--m", str(m)],
                      0, _keys_are({"verdict": "equivalent" if want else "distinguishable"})))

    for idx in range(per_command):
        n, m = rng.randint(20, 40), 1
        parent, label = _random_tree_spec(rng, n)
        marks = sorted(rng.sample(range(n), 1))
        f = write(f"tree{idx}.txt", serialize_tree("T", SigmaTree(parent, label, ("a", "b")), marks))
        specs.append((f"shrink-{idx}-{n}-m{m}", "shrink", ["shrink", "--file", f, "--m", str(m), "--k", "1"], 0,
                      _keys_are({"verified-contains-marks": "True", "verified-is-subtree": "True",
                                 "verified-equivalent": "True"})))

    # k is the number of leading existentials each formula needs; the
    # forall-exists formula has no such form and is left to translate-mix
    fks = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (4, 2)]
    for idx in range(per_command):
        fi, k = fks[rng.randrange(len(fks))]
        sample = f"cycles:3:{rng.randint(6, 8)}" if idx % 2 == 0 else f"paths:1:{rng.randint(4, 6)}"
        specs.append((f"translate-{idx}-f{fi}-k{k}-{sample.split(':')[0]}", "translate",
                      ["translate", "--formula", TRANSLATE_FORMULAS[fi], "--sample", sample, "--k", str(k),
                       "--p", "auto", "--max-p", "4"], 0, _keys_are({"sample-agreement": "True"})))

    for idx in range(per_command):
        fi, k = rng.randrange(len(CORE_FORMULAS)), 1 + idx % 2
        named = {}
        for j in range(3):
            n = rng.randint(4, 6 if tiny else 8)
            named[f"G{j}"] = Structure(V, n, {"E": _random_edges(rng, n, 0.4)})
        f = write(f"cores{idx}.txt", serialize_structures(named))
        text = CORE_FORMULAS[fi]

        def check(out, named=named, text=text, k=k):
            phi = parse(V, text)
            for name, A in named.items():
                if not oracle.holds_in(A, phi):
                    continue
                sets = " ".join("{" + ",".join(map(str, c)) + "}" for c in oracle.cores(A, phi, k)) or "none"
                got = _block_value(out, f"cores-{name}")
                if got != sets:
                    return f"cores of {name}: {got!r}, direct search {sets!r}"
            return None

        specs.append((f"cores-{idx}-f{fi}-k{k}", "cores", ["cores", "--file", f, "--formula", text, "--k", str(k)],
                      0, check))

    for idx in range(per_command):
        named, items = {}, []
        for j in range(8):
            n = rng.randint(2, 10)
            mark = rng.randrange(n)
            items.append((n, (mark,)))
            L = make_linear_order(n)
            named[f"L{j}"] = Structure(L.vocab.with_constants(["c1"]), n, L.relations, {"c1": mark})
        f = write(f"orders{idx}.txt", serialize_structures(named))

        def check(out, items=items):
            pair = oracle.first_marked_order_pair(items)
            want = f"{pair[0]} {pair[1]}" if pair else "none"
            got = _block_value(out, "pair")
            return _expect(got == want, f"pair {got!r}, greedy placement {want!r}")

        specs.append((f"wqo-scan-{idx}", "wqo-scan", ["wqo-scan", "--file", f, "--k", "1"], 0, check))

    for idx, op in enumerate(("u", "x") if tiny else ("u", "bw", "x", "t") * (per_command // 2)):
        if tiny:
            na, nb = 5, 6
        elif op in ("x", "t"):
            # guard jobs: one fixed size, so that the ten slowest jobs of the
            # mix, and with them its 90th percentile, do not move with the seed
            na, nb = 20, 24
        else:
            na, nb = rng.randint(18, 20), rng.randint(22, 24)
        f = write(f"ops{idx}.txt", serialize_structures({"A": make_cycle(na), "B": make_cycle(nb)}))
        guard = 16 if tiny else 64  # below |A| * |B|, above |A| + |B|
        args = ["algebra-eval", "--structs", f, "--expr", f"({op} A B)", "--max-size", str(guard)]
        if op in ("u", "bw"):
            specs.append((f"algebra-eval-{idx}-{op}", "algebra-eval", args, 0,
                          _keys_are({"output-size": str(na + nb)})))
        else:
            specs.append((f"algebra-eval-{idx}-{op}", "guard", args, 2, lambda out: None))

    exprs = ["(u (u S0 S1) (! (u S0 S1)))", "(u (! S0) (u S1 (u S0 S1)))", "(u S0 (! S1))"]
    for idx in range(per_command):
        named = {f"S{j}": Structure(V, n, {"E": _random_edges(rng, n, 0.4)})
                 for j, n in enumerate(rng.randint(2, 3) for _ in range(2))}
        f = write(f"alg{idx}.txt", serialize_structures(named))
        specs.append((f"algebra-shrink-{idx}", "algebra-shrink",
                      ["algebra-shrink", "--structs", f, "--expr", exprs[idx % len(exprs)], "--m", "1", "--k", "1",
                       "--marks", "0"], 0,
                      _keys_are({"verified-contains-marks": "True", "verified-substructure": "True",
                                 "verified-equivalent": "True"})))

    jobs = []
    for job_id, family, args, want_rc, check_out in specs:
        def run(args=args):
            rc, out = run_cli(root, workdir, args)
            # gen prints a structure and no report; --help prints no answer
            answer = None if args[0] == "--help" else out if args[0] == "gen" else key_block(out)
            return {"exit": rc, "out": answer}

        def check(ans, want_rc=want_rc, check_out=check_out):
            if ans["exit"] != want_rc:
                return f"exit code {ans['exit']}, expected {want_rc}"
            return check_out(ans["out"])

        jobs.append(Job(f"cli-{job_id}", f"cli-{family}", run, check))
    return jobs


"""Independent brute-force oracles and seeded generators for the test suite.

Everything here deliberately avoids the library's optimized code paths: the
embedding oracle tries every injection, the game evaluator walks the
verifier/falsifier move tree with explicit role bookkeeping, the
reference evaluator walks the syntax tree recursively, and the structure
building references check and build one tuple at a time. The two search
references, :func:`reference_find_cores` and
:func:`reference_minimal_models`, are the unpruned forms of the library's
searches, building substructures with :func:`reference_induced_substructure`
and deduplicating isomorphs with :func:`reference_up_to_isomorphism`, so
that a test can require the pruned searches to give identical answers;
:func:`reference_exhaustive_leaf_shrinker` is likewise the leaf shrinker
that builds every candidate and compares full rank types, and
:func:`reference_check_embedding_witness` checks a map tuple by tuple over
every tuple of the universe.
"""

from __future__ import annotations

import itertools
import random

from fmtk.equiv import rank_type
from fmtk.folog import (
    And,
    Atom,
    Cst,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Var,
    eliminate_implications,
    evaluate,
    free_vars,
)
from fmtk.shrink import SigmaTree, label_predicate
from fmtk.structures import (
    ORDER_PRED,
    Structure,
    Vocabulary,
    find_embedding,
    kept_id_sets,
)

GRAPH_VOCAB = Vocabulary.make({"E": 2})


def brute_force_embedding(A: Structure, B: Structure):
    """Try every injection of A's universe into B's; no pruning at all."""
    if A.vocab != B.vocab or A.size > B.size:
        return None
    for image in itertools.permutations(range(B.size), A.size):
        mapping = dict(enumerate(image))
        if any(mapping[A.constant_interp[c]] != B.constant_interp[c]
               for c in A.vocab.constants):
            continue
        ok = True
        for name, arity in A.vocab.predicates:
            rel_a, rel_b = A.relations[name], B.relations[name]
            for t in itertools.product(range(A.size), repeat=arity):
                if (t in rel_a) != (tuple(mapping[e] for e in t) in rel_b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return mapping
    return None


def reference_up_to_isomorphism(structures: list[Structure]) -> list[Structure]:
    """The first of each isomorphism class in input order: each structure is
    tried against every kept one of its vocabulary and size with
    :func:`brute_force_embedding`."""
    reps: list[Structure] = []
    for A in structures:
        if not any(A.vocab == R.vocab and A.size == R.size
                   and brute_force_embedding(A, R) is not None for R in reps):
            reps.append(A)
    return reps


def reference_find_cores(A: Structure, crit, k: int, sample) -> list[tuple[int, ...]]:
    """The cores of ``A`` by building every induced substructure: the masks
    of all bad kept sets first, then every candidate of size at most ``k``
    tested against each of them."""
    in_target = crit if callable(crit) else (lambda B: evaluate(B, crit))
    bad_masks = []
    for kept in kept_id_sets(A):
        B = reference_induced_substructure(A, kept)[0]
        if sample.member(B) and not in_target(B):
            bad_masks.append(sum(1 << e for e in kept))
    cores = []
    for size in range(k + 1):
        for combo in itertools.combinations(range(A.size), size):
            mask = sum(1 << e for e in combo)
            if all(mask & bad != mask for bad in bad_masks):
                cores.append(combo)
    return cores


def reference_minimal_models(structures: list[Structure]) -> list[Structure]:
    """The embedding-minimal members up to isomorphism: the isomorphism
    representatives, each tried against every other one."""
    reps = reference_up_to_isomorphism(structures)
    return [
        A
        for A in reps
        if not any(B is not A and find_embedding(B, A) is not None for B in reps)
    ]


def game_evaluate(A: Structure, f, assignment=None) -> bool:
    """Truth via the verifier/falsifier move game, with role swapping at
    negations instead of boolean operators."""
    assignment = dict(assignment or {})

    def value(t):
        if isinstance(t, Var):
            return assignment[t.name]
        return A.constant_interp[t.name]

    def wins(g, verifier: bool) -> bool:
        # True iff the *original* verifier wins from this position
        if isinstance(g, Atom):
            truth = tuple(value(t) for t in g.args) in A.relations[g.pred]
            return truth == verifier
        if isinstance(g, Eq):
            return (value(g.lhs) == value(g.rhs)) == verifier
        if isinstance(g, Not):
            return wins(g.sub, not verifier)
        if isinstance(g, (Or, And)):
            chooser_is_verifier = verifier == isinstance(g, Or)
            branches = (g.lhs, g.rhs)
            if chooser_is_verifier:
                return any(wins(b, verifier) for b in branches)
            return all(wins(b, verifier) for b in branches)
        if isinstance(g, Implies):
            branches = (Not(g.lhs), g.rhs)
            if verifier:
                return any(wins(b, verifier) for b in branches)
            return all(wins(b, verifier) for b in branches)
        if isinstance(g, (Exists, Forall)):
            chooser_is_verifier = verifier == isinstance(g, Exists)
            outcomes = []
            for e in range(A.size):
                old = assignment.get(g.var)
                assignment[g.var] = e
                outcomes.append(wins(g.body, verifier))
                if old is None:
                    del assignment[g.var]
                else:
                    assignment[g.var] = old
            return any(outcomes) if chooser_is_verifier else all(outcomes)
        raise TypeError(f"not a formula: {g!r}")

    return wins(f, True)


def reference_evaluate(A: Structure, f, assignment=None) -> bool:
    """Tarskian truth by a recursive walk of the syntax tree: implications
    are eliminated and free variables checked on every call, and every atom
    is looked up in the vocabulary when it is reached. Shares only the
    syntax helpers ``free_vars`` and ``eliminate_implications`` with the
    library, none of its compiled evaluator."""
    assignment = dict(assignment or {})
    missing = free_vars(f) - set(assignment)
    if missing:
        raise ValueError(f"unassigned free variables: {sorted(missing)}")
    return _reference_eval(A, eliminate_implications(f), assignment)


def _reference_term_value(A: Structure, t, assignment) -> int:
    if isinstance(t, Var):
        return assignment[t.name]
    if t.name not in A.constant_interp:
        raise ValueError(f"unknown constant {t.name}")
    return A.constant_interp[t.name]


def _reference_eval(A: Structure, f, assignment: dict[str, int]) -> bool:
    if isinstance(f, Atom):
        if not A.vocab.has_predicate(f.pred):
            raise ValueError(f"unknown predicate {f.pred}")
        if len(f.args) != A.vocab.arity(f.pred):
            raise ValueError(f"arity mismatch for {f.pred}")
        return tuple(_reference_term_value(A, t, assignment) for t in f.args) in A.relations[f.pred]
    if isinstance(f, Eq):
        return (_reference_term_value(A, f.lhs, assignment)
                == _reference_term_value(A, f.rhs, assignment))
    if isinstance(f, Not):
        return not _reference_eval(A, f.sub, assignment)
    if isinstance(f, And):
        return _reference_eval(A, f.lhs, assignment) and _reference_eval(A, f.rhs, assignment)
    if isinstance(f, Or):
        return _reference_eval(A, f.lhs, assignment) or _reference_eval(A, f.rhs, assignment)
    if isinstance(f, (Exists, Forall)):
        shortcut = isinstance(f, Exists)
        outer = assignment.get(f.var)  # restore shadowed outer bindings
        had_outer = f.var in assignment
        result = not shortcut
        for e in range(A.size):
            assignment[f.var] = e
            if _reference_eval(A, f.body, assignment) == shortcut:
                result = shortcut
                break
        if had_outer:
            assignment[f.var] = outer
        else:
            assignment.pop(f.var, None)
        return result
    raise TypeError(f"not a formula: {f!r}")


def _reference_atomic_key(A: Structure, points: tuple[int, ...]) -> tuple:
    eq_bits = 0
    bit = 1
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                eq_bits |= bit
            bit <<= 1
    masks = []
    for name, arity in A.vocab.predicates:
        rel = A.relations[name]
        mask = 0
        bit = 1
        for combo in itertools.product(points, repeat=arity):
            if combo in rel:
                mask |= bit
            bit <<= 1
        masks.append(mask)
    return (len(points), eq_bits, tuple(masks))


def reference_rank_type_key(A: Structure, tup: tuple[int, ...], m: int) -> tuple:
    """Rank-type key built leaf by leaf: every leaf's atomic facts are derived
    in full from its points, with a memo private to the call."""
    consts = tuple(A.constant_interp[c] for c in sorted(A.constant_interp))
    memo: dict = {}

    def rec(t: tuple[int, ...], r: int) -> tuple:
        if (t, r) not in memo:
            if r == 0:
                memo[(t, r)] = _reference_atomic_key(A, consts + t)
            else:
                memo[(t, r)] = tuple(sorted({rec(t + (b,), r - 1) for b in range(A.size)}))
        return memo[(t, r)]

    return rec(tuple(tup), m)


def reference_ef_game_equivalent(A: Structure, B: Structure, m: int) -> bool:
    """Game search with a pairwise extension test: ``extension_ok`` checks
    each candidate pair by rebuilding the tuples of every index combo on both
    sides. Direct minimax over the ``m``-round game tree.

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


def reference_cartesian_product(A: Structure, B: Structure) -> Structure:
    """Cartesian product by its definition: every tuple of pairs is tested,
    and holds iff one coordinate is constant and the other tuple holds."""
    nb = B.size
    relations = {}
    for name, arity in A.vocab.predicates:
        rel_a, rel_b = A.relations[name], B.relations[name]
        tuples = set()
        for pairs in itertools.product(
            itertools.product(range(A.size), range(nb)), repeat=arity
        ):
            firsts = tuple(p[0] for p in pairs)
            seconds = tuple(p[1] for p in pairs)
            if (len(set(firsts)) == 1 and seconds in rel_b) or (
                firsts in rel_a and len(set(seconds)) == 1
            ):
                tuples.add(tuple(p[0] * nb + p[1] for p in pairs))
        relations[name] = frozenset(tuples)
    return Structure(A.vocab, A.size * nb, relations)


# ---------------------------------------------------------------------------
# structure building, one tuple at a time


def reference_check_structure(vocab: Vocabulary, size: int, relations=None,
                              constant_interp=None) -> dict[str, frozenset]:
    """The constructor's checks, tuple by tuple in input order: raises what
    ``Structure(...)`` must raise, else returns the relations it must store."""
    if size < 1:
        raise ValueError("structures must be nonempty")
    relations = dict(relations or {})
    constant_interp = dict(constant_interp or {})
    for name, _ in vocab.predicates:
        relations.setdefault(name, frozenset())
    for name, tuples in relations.items():
        arity = vocab.arity(name)  # raises on unknown predicate
        for t in tuples:
            if len(t) != arity:
                raise ValueError(f"tuple {t} has wrong arity for {name}/{arity}")
            if not all(0 <= e < size for e in t):
                raise ValueError(f"tuple {t} out of range for universe of size {size}")
    for c in vocab.constants:
        if c not in constant_interp:
            raise ValueError(f"constant {c} is not interpreted")
        if not 0 <= constant_interp[c] < size:
            raise ValueError(f"constant {c} interpreted outside the universe")
    for c in constant_interp:
        if c not in vocab.constants:
            raise ValueError(f"interpretation given for unknown constant {c}")
    return {name: frozenset(map(tuple, tuples)) for name, tuples in relations.items()}


def reference_induced_substructure(A: Structure, subset):
    """Keep the tuples whose every element is kept, renumbered through a map."""
    subset = sorted(set(subset))
    renumber = {old: new for new, old in enumerate(subset)}
    keep = set(subset)
    relations = {
        name: frozenset(
            tuple(renumber[e] for e in t) for t in tuples if all(e in keep for e in t)
        )
        for name, tuples in A.relations.items()
    }
    consts = {c: renumber[e] for c, e in A.constant_interp.items()}
    return Structure(A.vocab, len(subset), relations, consts), renumber


def reference_exhaustive_leaf_shrinker(B: Structure, marks, m: int):
    """Build every induced substructure that keeps the marks and the
    constants, smallest first, and return the first whose full rank type is
    ``B``'s, as ``(substructure, kept ids)``."""
    target = rank_type(B, (), m)
    for keep in kept_id_sets(B, marks):
        sub = reference_induced_substructure(B, keep)[0]
        if rank_type(sub, (), m) == target:
            return sub, keep
    return B, tuple(range(B.size))


def reference_check_embedding_witness(A: Structure, B: Structure, mapping: dict[int, int]) -> bool:
    """Whether ``mapping`` embeds ``A`` into ``B`` as an induced substructure,
    checked for every tuple over ``A``'s universe, one tuple at a time."""
    if A.vocab != B.vocab:
        return False
    if sorted(mapping) != list(range(A.size)):
        return False
    image = set(mapping.values())
    if len(image) != A.size or not all(0 <= b < B.size for b in image):
        return False
    for c in A.vocab.constants:
        if mapping[A.constant_interp[c]] != B.constant_interp[c]:
            return False
    for name, arity in A.vocab.predicates:
        rel_a, rel_b = A.relations[name], B.relations[name]
        for t in itertools.product(range(A.size), repeat=arity):
            if (t in rel_a) != (tuple(mapping[e] for e in t) in rel_b):
                return False
    return True


def reference_disjoint_union(A: Structure, B: Structure) -> Structure:
    shift = A.size
    relations = {
        name: A.relations[name]
        | frozenset(tuple(e + shift for e in t) for t in B.relations[name])
        for name, _ in A.vocab.predicates
    }
    return Structure(A.vocab, A.size + B.size, relations)


def reference_complement(A: Structure) -> Structure:
    relations = {
        name: frozenset(
            t
            for t in itertools.product(range(A.size), repeat=arity)
            if t not in A.relations[name]
        )
        for name, arity in A.vocab.predicates
    }
    return Structure(A.vocab, A.size, relations)


def reference_bowtie(A: Structure, B: Structure) -> Structure:
    """The union-complement dual ``!((!A) | (!B))``, through the reference
    complement and disjoint union."""
    return reference_complement(reference_disjoint_union(reference_complement(A), reference_complement(B)))


def reference_eval_expression(t) -> Structure:
    """Evaluate a union/complement/bowtie expression tree through the
    reference operations, node by node."""
    if t.op == "leaf":
        return t.base
    parts = [reference_eval_expression(c) for c in t.children]
    if t.op == "!":
        return reference_complement(parts[0])
    if t.op == "u":
        return reference_disjoint_union(*parts)
    if t.op == "bw":
        return reference_bowtie(*parts)
    raise ValueError(f"no reference evaluation for {t.op!r}")


def reference_reduce_expression_height(s, w_pairs, m: int, k: int):
    """Height reduction of a union/bowtie tree as first written: every round
    evaluates every subexpression afresh, gives each a full rank type, and
    compares every node with every ancestor; the deepest repeat (smallest
    node id on ties) is spliced onto its shallowest equal ancestor. A
    complemented leaf is one node. Marks are ``(leaf id, element)`` pairs,
    assumed valid."""
    from fmtk.algebra import ExprNode
    from fmtk.equiv import rank_type

    w_leaf_ids = {lid for lid, _ in w_pairs}

    def one_node(n):
        return n.op == "leaf" or n.op == "!" and n.children[0].op == "leaf"

    def replace(t, target_id, replacement):
        if t.node_id == target_id:
            return replacement
        if one_node(t):
            return t
        return ExprNode(t.op, tuple(replace(c, target_id, replacement) for c in t.children),
                        node_id=t.node_id)

    cur = s
    while True:
        g = {}

        def fill(n):
            if one_node(n):
                count = 1 if n.leaves()[0].node_id in w_leaf_ids else 0
            else:
                count = sum(fill(c) for c in n.children)
            g[n.node_id] = (rank_type(reference_eval_expression(n), (), m).key, count)
            return count

        fill(cur)
        best = None  # (-depth_b, b_id, depth_a, a_id, b_node)

        def scan(n, depth, chain):
            nonlocal best
            for a_id, a_depth in chain:
                if g[a_id] == g[n.node_id]:
                    cand = (-depth, n.node_id, a_depth, a_id, n)
                    if best is None or cand[:4] < best[:4]:
                        best = cand
            for c in () if one_node(n) else n.children:
                scan(c, depth + 1, chain + [(n.node_id, depth)])

        scan(cur, 0, [])
        if best is None:
            return cur
        _, _, _, a_id, b_node = best
        cur = b_node if a_id == cur.node_id else replace(cur, a_id, b_node)


def reference_reduce_root_distance(s: SigmaTree, b: int, m: int, classes=None) -> SigmaTree:
    """Root-distance reduction as first written: every round reads the whole
    root-to-``b`` path as a word of hanging segments with both end letters
    flagged, builds a fresh segment table for it, and scans its suffixes for
    the latest one that repeats an earlier one."""
    from fmtk.shrink import TreeClasses, make_word

    if b not in s.parent:
        raise ValueError(f"{b} is not a node")
    classes = classes or TreeClasses(s, m)
    cur = s
    while True:
        a = cur.root
        if b == a:
            return cur
        path = cur.path_down(a, b)
        ids = classes.classify(cur)
        # segment i is path[i] with every child subtree but the one on the path
        letters = [
            (classes.compose(cur.label[u], [ids[c] for c in cur.children(u) if c != below]), 0)
            for u, below in zip(path, path[1:])
        ]
        letters.append((ids[b], 0))
        letters[0] = (letters[0][0], 1)
        letters[-1] = (letters[-1][0], 2)
        names = {letter: f"p{idx}" for idx, letter in enumerate(sorted(set(letters)))}
        word = make_word([names[x] for x in letters], tuple(sorted(names.values())))
        # suffix p of the flagged word, its positions p+1 .. end, is the
        # subtree of node p+1
        flagged = TreeClasses(word, m).classify(word)
        first: dict[int, int] = {}
        for p in range(1, len(letters)):
            first.setdefault(flagged[p + 1], p)
        # the latest suffix q that repeats an earlier one, and its earliest p
        q = next((q for q in range(len(letters) - 1, 1, -1) if first[flagged[q + 1]] < q), None)
        if q is None:
            return cur
        p = first[flagged[q + 1]]
        removed = cur.descendants(path[p]) - cur.descendants(path[q])
        cur = cur.induced(set(cur.nodes) - removed)


def reference_reduce_height_no_W(s: SigmaTree, m: int, classes=None) -> SigmaTree:
    """Height reduction as first written: every round classifies the whole
    tree afresh, compares every node with every strict ancestor, splices the
    deepest repeat (smallest node on ties) onto its shallowest equal
    ancestor, and builds the spliced tree before the next round."""
    from fmtk.shrink import TreeClasses

    classes = classes or TreeClasses(s, m)
    cur = s
    while True:
        ids = classes.classify(cur)
        pairs = [(-cur.depth(b), b, cur.depth(a), a)
                 for b in cur.nodes for a in cur.ancestors(b) if ids[a] == ids[b]]
        if not pairs:
            return cur
        _, b, _, a = min(pairs)
        cur = cur.induced((set(cur.nodes) - cur.descendants(a)) | cur.descendants(b))


def _reference_stretches(t: SigmaTree, W: set[int]):
    """The mark-free stretches as first found, mark pair by mark pair:
    ``(nodes, target)`` for each run of at least one path node between two
    consecutive carrying nodes on the path from a mark's nearest marked
    ancestor down to it, ``target`` being the run's deepest node. A path
    node carries if it is a mark or has a child off the path that holds a
    mark. Mark pairs below one branch repeat their shared stretches."""
    # the nodes whose subtree holds a mark
    marked = {u for w in W for u in (w, *t.ancestors(w))}
    nearest = ((next((u for u in t.ancestors(b) if u in W), None), b) for b in W)
    for a, b in sorted(pair for pair in nearest if pair[0] is not None):
        path = t.path_down(a, b)
        on_path = set(path)
        # segment i is path[i] with its subtrees off the path
        carrying = [
            i for i, u in enumerate(path)
            if u in W or any(c in marked and c not in on_path for c in t.children(u))
        ]
        for i_prev, i_next in zip(carrying, carrying[1:]):
            if i_next - i_prev >= 2:
                zset = t.descendants(path[i_prev + 1]) - t.descendants(path[i_next])
                yield zset, path[i_next - 1]


def reference_reduce_W_distances(s: SigmaTree, W, m: int, classes=None) -> SigmaTree:
    """Mark-distance reduction as first written: each stretch is reduced by
    :func:`reference_reduce_root_distance`, and after every stretch that
    shrinks, the stretches are listed again from the top of the new tree."""
    from fmtk.shrink import TreeClasses

    classes = classes or TreeClasses(s, m)
    cur = s
    while True:
        for zset, target in _reference_stretches(cur, set(W)):
            reduced = reference_reduce_root_distance(cur.induced(zset), target, m, classes)
            if reduced.size < len(zset):
                cur = cur.induced(set(cur.nodes) - (zset - set(reduced.nodes)))
                break
        else:
            return cur


def reference_tensor_product(A: Structure, B: Structure) -> Structure:
    """Tensor product by its definition: every tuple of pairs is tested, and
    holds iff both coordinate tuples hold."""
    nb = B.size
    relations = {}
    for name, arity in A.vocab.predicates:
        rel_a, rel_b = A.relations[name], B.relations[name]
        relations[name] = frozenset(
            tuple(a * nb + b for a, b in pairs)
            for pairs in itertools.product(
                itertools.product(range(A.size), range(nb)), repeat=arity
            )
            if tuple(p[0] for p in pairs) in rel_a and tuple(p[1] for p in pairs) in rel_b
        )
    return Structure(A.vocab, A.size * nb, relations)


def reference_tree_of_structures(shape: dict[int, int | None],
                                 parts: list[Structure]) -> Structure:
    """Block tree by its definition: each part shifted into place, and the
    order relating every pair of elements whose blocks are ancestor-or-equal."""
    offsets = [sum(p.size for p in parts[:i]) for i in range(len(parts))]

    def ancestors(j):
        while j is not None:
            yield j
            j = shape[j]

    relations = {name: set() for name, _ in parts[0].vocab.predicates}
    for p, off in zip(parts, offsets):
        for name in relations:
            relations[name].update(tuple(e + off for e in t) for t in p.relations[name])
    relations[ORDER_PRED] = {
        (a + offsets[i], b + offsets[j])
        for j in range(len(parts))
        for i in ancestors(j)
        for a in range(parts[i].size)
        for b in range(parts[j].size)
    }
    return Structure(parts[0].vocab.with_predicate(ORDER_PRED, 2),
                     sum(p.size for p in parts), relations)


def reference_induced_tree(t: SigmaTree, keep) -> SigmaTree:
    """``t.induced(keep)`` through the validating constructor: each kept
    node hangs under its nearest kept strict ancestor."""
    parent = {}
    for v in keep:
        p = t.parent[v]
        while p is not None and p not in keep:
            p = t.parent[p]
        parent[v] = p
    return SigmaTree(parent, {v: t.label[v] for v in keep}, t.alphabet)


def reference_to_structure(t: SigmaTree):
    """Tree encoding from every node's ancestor walk."""
    renum = {v: i for i, v in enumerate(t.nodes)}
    vocab = Vocabulary.make(
        {ORDER_PRED: 2, **{label_predicate(a): 1 for a in t.alphabet}}
    )
    le = set()
    for v in t.nodes:
        le.add((renum[v], renum[v]))
        for u in t.ancestors(v):
            le.add((renum[u], renum[v]))
    rels = {label_predicate(a): set() for a in t.alphabet}
    for v in t.nodes:
        rels[label_predicate(t.label[v])].add((renum[v],))
    rels[ORDER_PRED] = le
    return Structure(vocab, len(t.nodes), rels), renum


# ---------------------------------------------------------------------------
# graph kinds


def reference_components(A: Structure) -> list[list[int]]:
    """Vertex sets of the components of ``E`` read as undirected edges, by
    flood fill; sorted, in the order of their smallest vertices."""
    comps: list[list[int]] = []
    seen: set[int] = set()
    for v in range(A.size):
        if v in seen:
            continue
        comp, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for edge in A.relations["E"]:
                if u in edge:
                    for w in edge:
                        if w not in comp:
                            comp.add(w)
                            frontier.append(w)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def _reference_degrees(A: Structure) -> list[int]:
    return [sum(1 for a, b in A.relations["E"] if a == v and b != v) for v in range(A.size)]


def _reference_is_path(P: Structure) -> bool:
    if P.size == 1:
        return not P.relations["E"]
    degs = _reference_degrees(P)
    return (max(degs) <= 2 and degs.count(1) == 2 and len(reference_components(P)) == 1
            and len(P.relations["E"]) == 2 * (P.size - 1))


def _reference_is_cycle(C: Structure) -> bool:
    return (C.size >= 3 and all(d == 2 for d in _reference_degrees(C))
            and len(reference_components(C)) == 1)


def reference_graph_classes(A: Structure) -> dict[str, bool]:
    """The path/cycle entries of ``translate.CLASS_TESTS`` from vertex
    degrees, edge counts and flood-filled components, each component
    judged on its own induced substructure."""
    names = ("cycles", "paths", "path-unions", "paths-cycle-family")
    if ("E", 2) not in A.vocab.predicates or any(
        a == b or (b, a) not in A.relations["E"] for a, b in A.relations["E"]
    ):
        return dict.fromkeys(names, False)
    parts = [reference_induced_substructure(A, c)[0] for c in reference_components(A)]
    paths = [P.size - 1 for P in parts if _reference_is_path(P)]
    cycles = [C.size for C in parts if _reference_is_cycle(C)]
    copies = {paths.count(length) for length in paths}
    n = copies.pop() if len(copies) == 1 else 0
    family = (
        n >= 1 and len(paths) + len(cycles) == len(parts) and len(cycles) <= 1
        and sorted(set(paths)) == list(range(3**n + 1)) and all(c == 3**n for c in cycles)
    )
    return {
        "cycles": len(parts) == 1 and len(cycles) == 1,
        "paths": len(parts) == 1 and len(paths) == 1,
        "path-unions": len(paths) == len(parts),
        "paths-cycle-family": family,
    }


# ---------------------------------------------------------------------------
# generators


def random_structure(rng: random.Random, vocab: Vocabulary, size: int,
                     density: float = 0.5) -> Structure:
    relations = {}
    for name, arity in vocab.predicates:
        relations[name] = frozenset(
            t
            for t in itertools.product(range(size), repeat=arity)
            if rng.random() < density
        )
    consts = {c: rng.randrange(size) for c in vocab.constants}
    return Structure(vocab, size, relations, consts)


def permuted_copy(rng: random.Random, A: Structure) -> Structure:
    perm = list(range(A.size))
    rng.shuffle(perm)
    relations = {
        name: frozenset(tuple(perm[e] for e in t) for t in tuples)
        for name, tuples in A.relations.items()
    }
    consts = {c: perm[e] for c, e in A.constant_interp.items()}
    return Structure(A.vocab, A.size, relations, consts)


def random_graph(rng: random.Random, size: int) -> Structure:
    """A graph on ``size`` vertices: either random undirected edges, now and
    then with one direction of an edge dropped or a loop added, or a
    permuted disjoint union of paths and cycles."""
    if rng.random() < 0.4:
        edges = set()
        for a, b in itertools.combinations(range(size), 2):
            if rng.random() < 0.3:
                edges |= {(a, b), (b, a)}
        if edges and rng.random() < 0.15:
            edges.discard(rng.choice(sorted(edges)))
        if rng.random() < 0.1:
            v = rng.randrange(size)
            edges.add((v, v))
        return Structure(GRAPH_VOCAB, size, {"E": frozenset(edges)})
    runs = []  # (vertex count, closed into a cycle)
    left = size
    while left:
        if left < 3 or rng.random() < 0.5:
            runs.append((rng.randint(1, left), False))
        else:
            runs.append((rng.randint(3, left), True))
        left -= runs[-1][0]
    edges, start = set(), 0
    for count, closed in runs:
        vs = list(range(start, start + count))
        pairs = list(zip(vs, vs[1:])) + ([(vs[-1], vs[0])] if closed else [])
        edges |= {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
        start += count
    return permuted_copy(rng, Structure(GRAPH_VOCAB, size, {"E": frozenset(edges)}))


def all_structures(vocab: Vocabulary, sizes) -> list[Structure]:
    out = []
    for n in sizes:
        spaces = [
            list(itertools.product(range(n), repeat=arity))
            for _, arity in vocab.predicates
        ]
        for bits in itertools.product(
            *[itertools.product((0, 1), repeat=len(s)) for s in spaces]
        ):
            relations = {
                name: frozenset(t for t, b in zip(space, chosen) if b)
                for (name, _), space, chosen in zip(vocab.predicates, spaces, bits)
            }
            out.append(Structure(vocab, n, relations))
    return out


def iso_representatives(structures: list[Structure]) -> list[Structure]:
    seen = set()
    reps = []
    for A in structures:
        best = None
        for perm in itertools.permutations(range(A.size)):
            key = tuple(
                (name, tuple(sorted(tuple(perm[e] for e in t) for t in tuples)))
                for name, tuples in sorted(A.relations.items())
            )
            if best is None or key < best:
                best = key
        if (A.size, best) not in seen:
            seen.add((A.size, best))
            reps.append(A)
    return reps


def random_formula(rng: random.Random, vocab: Vocabulary, rank: int,
                   scope: tuple[str, ...] = ()) -> "Formula":
    """Random sentence-or-formula with quantifier rank at most ``rank``; with
    an empty scope and no constants the root is forced to quantify."""
    terms = [Var(v) for v in scope] + [Cst(c) for c in vocab.constants]

    def fresh() -> str:
        return f"v{rng.randrange(10**6)}"

    def gen(r: int, terms: list, fuel: int) -> "Formula":
        can_atom = bool(terms)
        options = []
        if can_atom:
            options += ["atom", "atom", "eq"]
        if r > 0 and (fuel > 0 or not can_atom):
            options += ["exists", "forall"]
        if fuel > 0:
            options += ["not", "and", "or", "implies"]
        kind = rng.choice(options)
        if kind == "atom":
            name, arity = rng.choice(vocab.predicates)
            return Atom(name, tuple(rng.choice(terms) for _ in range(arity)))
        if kind == "eq":
            return Eq(rng.choice(terms), rng.choice(terms))
        if kind == "not":
            return Not(gen(r, terms, fuel - 1))
        if kind in ("and", "or", "implies"):
            cls = {"and": And, "or": Or, "implies": Implies}[kind]
            return cls(gen(r, terms, fuel // 2), gen(r, terms, fuel // 2))
        var = fresh()
        body = gen(r - 1, terms + [Var(var)], fuel - 1)
        return Exists(var, body) if kind == "exists" else Forall(var, body)

    return gen(rank, terms, fuel=8)


def reference_is_subtree(t: SigmaTree, s: SigmaTree) -> bool:
    """Induced subtree by definition: a node subset whose labels agree and on
    which the two ancestor-or-equal orders agree pair by pair."""
    if not set(t.nodes) <= set(s.nodes):
        return False
    if any(t.label[v] != s.label[v] for v in t.nodes):
        return False

    def leq(tree, a, b):
        while b is not None and b != a:
            b = tree.parent[b]
        return b == a

    return all(leq(t, a, b) == leq(s, a, b) for a in t.nodes for b in t.nodes)


def random_tree(rng: random.Random, size: int, sigma: tuple[str, ...]) -> SigmaTree:
    parent = {0: None}
    label = {0: rng.choice(sigma)}
    for v in range(1, size):
        parent[v] = rng.randrange(v)
        label[v] = rng.choice(sigma)
    return SigmaTree(parent, label, sigma)


def random_word(rng: random.Random, size: int, sigma: tuple[str, ...]) -> SigmaTree:
    from fmtk.shrink import make_word

    return make_word([rng.choice(sigma) for _ in range(size)], sigma)

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmtk.algebra import (
    BOWTIE,
    CARTESIAN,
    COMPLEMENT,
    LEAF,
    TENSOR,
    UNION,
    ExprNode,
    eval_expression_tree,
    eval_with_provenance,
    exhaustive_leaf_shrinker,
    leaf,
    node,
    parse_expression,
    push_complement_to_leaves,
    reduce_expression_height,
    reexpand_bowties,
    serialize_expression,
    shrink_algebraic,
    shrink_leaves,
    shrink_tree_of_structures,
    shrink_word_of_structures,
    wqo_scan_marked_words,
)
from fmtk.equiv import TypeScope, m_equivalent, subset_typer
from fmtk.shrink import splice_repeats
from fmtk.errors import VerificationFailed
from fmtk import algebra
from fmtk.structures import (
    MarkedStructure,
    Structure,
    Vocabulary,
    complement,
    disjoint_union,
    induced_substructure,
    is_isomorphic,
    word_of_structures,
)
from fmtk.wqo import make_cycle, make_path

from oracles import (
    brute_force_embedding,
    random_structure,
    reference_complement,
    reference_disjoint_union,
    reference_eval_expression,
    reference_exhaustive_leaf_shrinker,
    reference_rank_type_key,
    reference_reduce_expression_height,
    reference_tree_of_structures,
)

V = Vocabulary.make({"E": 2})
VERTEX = Structure(V, 1)
LOOP = Structure(V, 1, {"E": {(0, 0)}})
EDGE = make_path(1)


@st.composite
def _graphs(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return Structure(V, n, {"E": edges})


def reduce_height(t, w_pairs, m, k):
    """Height reduction of ``t`` with the typer a pipeline opens over its evaluation."""
    type_of = subset_typer(eval_expression_tree(t), m, TypeScope())
    return reduce_expression_height(t, w_pairs, type_of, k)


def balanced_union(n, base=VERTEX):
    if n == 1:
        return leaf(base)
    return node(UNION, balanced_union(n // 2, base), balanced_union(n - n // 2, base))


class TestEval:
    def test_single_leaf(self):
        assert eval_expression_tree(leaf(EDGE)) == EDGE

    def test_union_of_vertices(self):
        out = eval_expression_tree(node(UNION, leaf(VERTEX), leaf(VERTEX)))
        assert out.size == 2 and not out.relations["E"]

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            node(UNION, leaf(VERTEX))
        with pytest.raises(ValueError):
            node(COMPLEMENT, leaf(VERTEX), leaf(VERTEX))

    def test_provenance_tracks_leaves(self):
        t = node(UNION, leaf(EDGE), leaf(VERTEX))
        out, prov = eval_with_provenance(t)
        assert out.size == 3
        leaf_ids = [lid for lid, _ in prov]
        assert leaf_ids[0] == leaf_ids[1] != leaf_ids[2]

    def test_provenance_refused_for_products(self):
        with pytest.raises(ValueError):
            eval_with_provenance(node(CARTESIAN, leaf(VERTEX), leaf(VERTEX)))


def _uc_shapes(height):
    """All union/complement shapes up to the given height (leaf placeholder)."""
    if height == 0:
        return ["leaf"]
    smaller = _uc_shapes(height - 1)
    shapes = list(smaller)
    shapes += [("!", s) for s in smaller]
    shapes += [("u", a, b) for a in smaller for b in smaller]
    return shapes


def _instantiate(shape, leaves, rng):
    if shape == "leaf":
        return leaf(rng.choice(leaves))
    if shape[0] == "!":
        return node(COMPLEMENT, _instantiate(shape[1], leaves, rng))
    return node(
        UNION,
        _instantiate(shape[1], leaves, rng),
        _instantiate(shape[2], leaves, rng),
    )


class TestPushComplement:
    def test_documented_rewrites(self):
        a, b = leaf(VERTEX), leaf(EDGE)
        out = push_complement_to_leaves(node(COMPLEMENT, node(UNION, a, b)))
        assert out.op == BOWTIE
        for c, original in zip(out.children, (a, b)):
            assert c.op == COMPLEMENT and c.children[0].op == LEAF
            assert c.children[0].base is original.base

    def test_double_complement_cancels(self):
        out = push_complement_to_leaves(node(COMPLEMENT, node(COMPLEMENT, leaf(EDGE))))
        assert out.op == LEAF

    def test_leaf_only_unchanged(self):
        out = push_complement_to_leaves(leaf(EDGE))
        assert out.op == LEAF and out.base == EDGE

    def test_products_rejected(self):
        with pytest.raises(ValueError):
            push_complement_to_leaves(node(CARTESIAN, leaf(VERTEX), leaf(VERTEX)))

    def test_exhaustive_shapes_preserve_evaluation(self):
        rng = random.Random(80)
        leaves = [
            random_structure(rng, V, size) for size in (1, 2, 3) for _ in range(2)
        ]
        for shape in _uc_shapes(3):
            t = _instantiate(shape, leaves, rng)
            pushed = push_complement_to_leaves(t)
            assert eval_expression_tree(pushed) == eval_expression_tree(t)
            assert all(n.children[0].op == LEAF
                       for n in _subexpressions(pushed) if n.op == COMPLEMENT)
            assert is_isomorphic(
                eval_expression_tree(pushed), eval_expression_tree(t)
            )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.recursive(
        _graphs().map(leaf),
        lambda sub: st.one_of(
            st.builds(lambda c: node(COMPLEMENT, c), sub),
            st.builds(lambda a, b: node(UNION, a, b), sub, sub),
        ),
        max_leaves=5,
    ))
    def test_random_trees_preserve_evaluation(self, t):
        assert eval_expression_tree(push_complement_to_leaves(t)) == eval_expression_tree(t)

    def test_reexpansion_restores_union_complement_form(self):
        t = node(COMPLEMENT, node(UNION, leaf(VERTEX), leaf(EDGE)))
        pushed = push_complement_to_leaves(t)
        back = reexpand_bowties(pushed)
        assert back.ops_used() <= {UNION, COMPLEMENT}
        assert eval_expression_tree(back) == eval_expression_tree(t)


class TestReduceExpressionHeight:
    def test_tall_union_collapses(self):
        t = balanced_union(16)
        out = reduce_height(t, set(), 1, 0)
        assert eval_expression_tree(out).size < 16
        assert m_equivalent(eval_expression_tree(out), eval_expression_tree(t), 1)

    def test_flat_tree_unchanged(self):
        # at rank 2 the union is distinguishable from both leaves: no splice
        t = node(UNION, leaf(VERTEX), leaf(EDGE))
        assert reduce_height(t, set(), 2, 0) is t

    def test_flat_tree_may_collapse_at_low_rank(self):
        # rank 1 cannot tell one isolated vertex from vertex-plus-edge
        t = node(UNION, leaf(VERTEX), leaf(EDGE))
        out = reduce_height(t, set(), 1, 0)
        assert out.op == "leaf"
        assert m_equivalent(eval_expression_tree(out), eval_expression_tree(t), 1)

    def test_marked_leaves_survive(self):
        t = balanced_union(16)
        _, prov = eval_with_provenance(t)
        marked = {prov[7]}
        out = reduce_height(t, marked, 1, 1)
        surviving = {l.node_id for l in out.leaves()}
        assert prov[7][0] in surviving


def _random_uc_tree(rng, depth, leaves):
    """A union/complement tree of height at most ``depth`` over ``leaves``."""
    roll = rng.random()
    if depth == 0 or roll < 0.1:
        return leaf(rng.choice(leaves))
    if roll < 0.3:
        return node(COMPLEMENT, _random_uc_tree(rng, depth - 1, leaves))
    return node(UNION, *(_random_uc_tree(rng, depth - 1, leaves) for _ in range(2)))


def _subexpressions(t):
    """The nodes of a pushed tree as the height reducer sees them: a
    complemented leaf is one node."""
    if t.op == COMPLEMENT and t.children[0].op == LEAF:
        return [t]
    return [t] + [n for c in t.children for n in _subexpressions(c)]


def _check_against_reference(t, n_marks, m, pick):
    """Height reduction of the pushed ``t`` against the reference, and the
    reducer's class ids against reference rank keys, pair by pair."""
    pushed = push_complement_to_leaves(t)
    pairs = sorted({(lf.node_id, e) for lf in pushed.leaves() for e in range(lf.base.size)})
    w_pairs = set(pick(pairs, n_marks))
    k = len(w_pairs)
    classes = []  # the (class id, marked-leaf count) of every node, as the splice loop reads them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "splice_repeats",
                   lambda root, kids, cls: classes.append(cls) or splice_repeats(root, kids, cls))
        out = reduce_height(pushed, w_pairs, m, k)
    ref = reference_reduce_expression_height(pushed, w_pairs, m, k)
    assert serialize_expression(out) == serialize_expression(ref)
    assert [n.node_id for n in _subexpressions(out)] == [n.node_id for n in _subexpressions(ref)]

    [ids] = classes
    subs = _subexpressions(pushed)
    keys = {n.node_id: reference_rank_type_key(reference_eval_expression(n), (), m) for n in subs}
    for a, b in itertools.combinations(subs, 2):
        assert (ids[a.node_id][0] == ids[b.node_id][0]) == (keys[a.node_id] == keys[b.node_id])


@st.composite
def _uc_trees(draw, depth, leaves):
    kind = draw(st.sampled_from(["u", "u", "u", "!", "leaf"])) if depth else "leaf"
    if kind == "leaf":
        return leaf(draw(st.sampled_from(leaves)))
    if kind == "!":
        return node(COMPLEMENT, draw(_uc_trees(depth - 1, leaves)))
    return node(UNION, draw(_uc_trees(depth - 1, leaves)), draw(_uc_trees(depth - 1, leaves)))


class TestExpressionClasses:
    """The classes the height reducer reads off the evaluation of its input,
    against the reference height reduction (a fresh rank type of every
    evaluated subexpression in every round)."""

    def test_seeded_against_reference(self):
        rng = random.Random(1010)
        for _ in range(60):
            leaves = [random_structure(rng, V, rng.randint(1, 3)) for _ in range(3)]
            t = _random_uc_tree(rng, rng.randint(1, 5), leaves)
            _check_against_reference(t, rng.randint(0, 2), rng.choice((1, 2)),
                                     lambda pairs, n: rng.sample(pairs, min(n, len(pairs))))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_graphs(max_size=3), min_size=1, max_size=3), st.integers(1, 5),
           st.integers(1, 2), st.integers(0, 2), st.data())
    def test_property_against_reference(self, leaves, depth, m, n_marks, data):
        t = data.draw(_uc_trees(depth, leaves))
        _check_against_reference(t, n_marks, m, lambda pairs, n: data.draw(
            st.lists(st.sampled_from(pairs), max_size=n, unique=True)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_graphs(max_size=3), min_size=1, max_size=3), st.integers(0, 5), st.data())
    def test_each_node_evaluates_to_its_block(self, leaves, depth, data):
        # the lemma the reducer's classes rest on
        pushed = push_complement_to_leaves(data.draw(_uc_trees(depth, leaves)))
        whole = eval_expression_tree(pushed)
        nodes, blocks = algebra._index(pushed, set())
        assert blocks[pushed.node_id][0] == range(whole.size)
        for nid, (block, _) in blocks.items():
            assert reference_eval_expression(nodes[nid]) == induced_substructure(whole, block)[0]

    def test_verdict_does_not_read_the_reducer_ids(self, monkeypatch):
        t = node(UNION, leaf(VERTEX), leaf(VERTEX))
        out, report = shrink_algebraic(t, [], 2, 0)
        assert out.size == 2 and report.ok()
        real = algebra.reduce_expression_height

        def merged(s, w_pairs, type_of, k):
            seen = []  # class ids in the order the typer first returns them

            def merged_type_of(kept):
                cid = type_of(kept)
                if cid not in seen:
                    seen.append(cid)
                return seen[0] if seen.index(cid) == 1 else cid  # the first two classes become one

            return real(s, w_pairs, merged_type_of, k)

        monkeypatch.setattr(algebra, "reduce_expression_height", merged)
        # the union now looks like a repeat of its own leaf and is cut to it
        with pytest.raises(VerificationFailed) as info:
            shrink_algebraic(t, [], 2, 0)
        assert info.value.report.verdicts == {
            "contains_marks": True, "substructure": True, "equivalent": False,
            "certificate_evaluates_back": True,
        }
        assert info.value.report.output_size == 1

    def test_one_typer_over_one_evaluation(self, monkeypatch):
        # the reducer reads its classes off the evaluation the verdicts need
        # anyway: the input is evaluated once, and one typer is opened over it
        t = node(COMPLEMENT, balanced_union(16))
        pushed, evaluations, typed = [], [], []
        real_push, real_eval, real_typer = (
            algebra.push_complement_to_leaves, algebra.eval_expression_tree, algebra.subset_typer)

        def push(s):
            pushed.append(real_push(s))
            return pushed[-1]

        def evaluate(s):
            out = real_eval(s)
            if s is t or any(s is p for p in pushed):
                evaluations.append(out)
            return out

        def typer(A, m, scope):
            typed.append(A)
            return real_typer(A, m, scope)

        monkeypatch.setattr(algebra, "push_complement_to_leaves", push)
        monkeypatch.setattr(algebra, "eval_expression_tree", evaluate)
        monkeypatch.setattr(algebra, "subset_typer", typer)
        out, report = shrink_algebraic(t, [5], 1, 1)
        assert out.size < 16 and report.ok()
        assert len(pushed) == 1 and len(evaluations) == 1
        assert sum(A is evaluations[0] for A in typed) == 1


class TestLeafShrinkers:
    def test_identity(self, monkeypatch):
        t = node(UNION, leaf(EDGE), leaf(EDGE))
        monkeypatch.setattr(algebra, "exhaustive_leaf_shrinker",
                            lambda B, marks, m: (B, tuple(range(B.size))))
        out, kept = shrink_leaves(t, set(), 1)
        assert eval_expression_tree(out) == eval_expression_tree(t)

    def test_exhaustive_finds_smallest(self):
        B = disjoint_union(disjoint_union(VERTEX, VERTEX), VERTEX)
        sub, kept = exhaustive_leaf_shrinker(B, set(), 1)
        assert sub.size == 1

    def test_exhaustive_respects_marks(self):
        B = disjoint_union(disjoint_union(VERTEX, VERTEX), VERTEX)
        sub, kept = exhaustive_leaf_shrinker(B, {2}, 1)
        assert 2 in kept

    def test_exhaustive_matches_the_building_reference(self):
        # E/2 + P/1, with and without a constant, marks and m in 0..3: the
        # same substructure and kept ids as building every candidate
        plain = Vocabulary.make({"E": 2, "P": 1})
        with_c = Vocabulary.make({"E": 2, "P": 1}, ("c",))
        rng = random.Random(1717)
        for trial in range(160):
            B = random_structure(rng, rng.choice((plain, with_c)), rng.randint(1, 5),
                                 density=rng.choice((0.2, 0.5, 0.8)))
            marks = set(rng.sample(range(B.size), rng.randint(0, min(2, B.size))))
            m = trial % 4
            got = exhaustive_leaf_shrinker(B, marks, m)
            assert got == reference_exhaustive_leaf_shrinker(B, marks, m), (B, marks, m)

    def test_exhaustive_builds_only_the_chosen_set(self, monkeypatch):
        built = []
        real = algebra.induced_substructure
        monkeypatch.setattr(algebra, "induced_substructure",
                            lambda A, keep: built.append(tuple(keep)) or real(A, keep))
        B = disjoint_union(disjoint_union(EDGE, VERTEX), make_path(3))
        sub, kept = exhaustive_leaf_shrinker(B, {0}, 2)
        assert built == [kept]

    def test_each_distinct_leaf_is_shrunk_once(self, monkeypatch):
        # three copies of one leaf, the middle one marked: two distinct
        # (leaf, marks) pairs, so two shrinks, each held to its verdicts
        calls = []
        real = algebra.exhaustive_leaf_shrinker
        monkeypatch.setattr(algebra, "exhaustive_leaf_shrinker", lambda B, marks, m: (
            calls.append((B, frozenset(marks))) or real(B, marks, m)))
        B = disjoint_union(disjoint_union(VERTEX, VERTEX), VERTEX)
        a, b, c = leaf(B), leaf(B), leaf(B)
        out, kept = shrink_leaves(node(UNION, a, node(UNION, b, c)), {(b.node_id, 2)}, 1)
        assert len(calls) == len(set(calls)) == 2
        assert kept == {a.node_id: (0,), b.node_id: (2,), c.node_id: (0,)}
        assert eval_expression_tree(out).size == 3
        # the whole pipeline: at m = 4 no copy is spliced out
        calls.clear()
        B = disjoint_union(EDGE, VERTEX)
        t = node(UNION, leaf(B), node(UNION, leaf(B), leaf(B)))
        _, report = shrink_algebraic(t, [B.size + 2], 4, 1)
        assert report.phases[0] == ("expression-height", 9, 9)
        assert len(calls) == len(set(calls)) == 2
        assert report.ok() and report.verdicts["contains_marks"]

    def test_leaves_sharing_an_id_refused(self):
        # marks, blocks and kept ids are keyed by leaf id
        a = leaf(EDGE)
        for tree in (node(UNION, a, a), node(UNION, a, node(COMPLEMENT, a))):
            with pytest.raises(ValueError, match="two leaves share a node id"):
                shrink_leaves(tree, set(), 1)
            with pytest.raises(ValueError, match="two leaves share a node id"):
                reduce_height(tree, set(), 1, 0)

    def test_bad_shrinker_caught(self, monkeypatch):
        def lying_shrinker(B, marks, m):
            return VERTEX, (0,)  # claims a non-equivalent substructure

        t = leaf(LOOP)
        monkeypatch.setattr(algebra, "exhaustive_leaf_shrinker", lying_shrinker)
        with pytest.raises(VerificationFailed):
            shrink_leaves(t, set(), 0)


class TestShrinkAlgebraic:
    def test_single_leaf_delegates(self):
        B = disjoint_union(VERTEX, VERTEX)
        out, report = shrink_algebraic(leaf(B), [], 1, 0)
        assert out.size == 1 and report.ok()

    def test_random_trees_all_verdicts(self):
        rng = random.Random(81)

        def rand_tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return leaf(rng.choice([VERTEX, LOOP]))
            if rng.random() < 0.4:
                return node(COMPLEMENT, rand_tree(depth - 1))
            return node(UNION, rand_tree(depth - 1), rand_tree(depth - 1))

        for _ in range(50):
            t = rand_tree(4)
            E = eval_expression_tree(t)
            k = rng.randint(0, 2)
            W = rng.sample(range(E.size), min(k, E.size))
            m = rng.randint(0, 2)
            out, report = shrink_algebraic(t, W, m, k)
            assert report.ok()
            assert report.certificate

    def test_cograph_style_tree(self):
        # single-vertex leaves under union/complement: a cograph builder
        rng = random.Random(82)

        def cograph(depth):
            if depth == 0:
                return leaf(VERTEX)
            if rng.random() < 0.5:
                return node(COMPLEMENT, node(UNION, cograph(depth - 1), cograph(depth - 1)))
            return node(UNION, cograph(depth - 1), cograph(depth - 1))

        t = cograph(4)
        E = eval_expression_tree(t)
        out, report = shrink_algebraic(t, [0], 2, 1)
        assert report.ok()
        assert m_equivalent(out, E, 2)

    def test_mark_bound(self):
        with pytest.raises(ValueError):
            shrink_algebraic(balanced_union(4), [0, 1], 1, 1)

    def test_a_leaf_used_twice_is_two_leaves(self):
        # push-down gives each leaf position its own leaf, so one leaf object
        # at two positions routes marks and witnesses to the right copy
        a = leaf(make_path(2))
        out, report = shrink_algebraic(node(UNION, a, node(COMPLEMENT, a)), {0}, 1, 1)
        assert report.ok() and report.certificate == "(u s0 (! s1))"
        b = leaf(make_cycle(4))
        out, report = shrink_algebraic(node(UNION, b, b), {0}, 2, 1)
        assert report.ok() and report.certificate == "s0"

    def test_construction_order_does_not_change_the_shrink(self):
        # (u (u A (! B)) (! (u C A))) with its four leaves built in two orders
        rng = random.Random(3535)
        for _ in range(300):
            A, B, C = (random_structure(rng, V, 3, density=0.3) for _ in range(3))
            results = []
            for order in ((0, 1, 2, 3), (3, 2, 1, 0)):
                made = {}
                for pos in order:
                    made[pos] = leaf((A, B, C, A)[pos])
                t = node(UNION, node(UNION, made[0], node(COMPLEMENT, made[1])),
                         node(COMPLEMENT, node(UNION, made[2], made[3])))
                out, report = shrink_algebraic(t, {0}, 2, 1)
                results.append((out, report.certificate))
            assert results[0] == results[1], (A, B, C)

    @pytest.mark.parametrize("text, W, m, certificate", [
        ("(! (u A (! B)))", [], 2, "(! (u (! (! s0)) (! s1)))"),
        ("(u A (! B))", [0], 1, "(u s0 (! s1))"),
        ("(! (u C C))", [], 1, "(! s0)"),
        ("(u (! (u A B)) (! C))", [1], 2, "(u (! (u (! (! s0)) (! (! s1)))) (! s2))"),
        ("(u (u C C) (u C C))", [0], 1, "s0"),
    ])
    def test_certificates(self, text, W, m, certificate):
        # certificate text is a recorded benchmark answer; the double
        # complements under a bowtie are part of it
        named = {"A": VERTEX, "B": EDGE, "C": make_cycle(4)}
        out, report = shrink_algebraic(parse_expression(text, named), W, m, len(W))
        assert report.ok() and report.certificate == certificate


class TestBlockWords:
    def test_single_block_is_leaf_shrink(self):
        B = disjoint_union(VERTEX, VERTEX)
        out, report = shrink_word_of_structures([B], [], 1, 0)
        assert report.ok() and out.size == 1  # the block shrinker did the work

    def test_twenty_identical_blocks(self):
        out, report = shrink_word_of_structures([VERTEX] * 20, [], 2, 0)
        assert report.ok()
        assert report.output_size < 20

    def test_marked_blocks_kept(self):
        parts = [VERTEX] * 10
        word = word_of_structures(parts)
        out, report = shrink_word_of_structures(parts, [7], 1, 1)
        assert report.ok()
        assert report.verdicts["contains_marks"]

    def test_random_words_verified(self):
        rng = random.Random(83)
        pool = [VERTEX, LOOP, EDGE]
        for _ in range(20):
            parts = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            total = sum(p.size for p in parts)
            k = rng.randint(0, 2)
            W = rng.sample(range(total), min(k, total))
            out, report = shrink_word_of_structures(parts, W, rng.randint(0, 2), k)
            assert report.ok()

    def test_tree_shape(self):
        shape = {0: None, 1: 0, 2: 0, 3: 1}
        parts = [EDGE, VERTEX, VERTEX, EDGE]  # six elements, indices 0..5
        out, report = shrink_tree_of_structures(shape, parts, [0, 5], 1, 2)
        assert report.ok()

    def test_each_distinct_block_is_shrunk_once(self, monkeypatch):
        # five copies of one block, the second marked: two distinct
        # (block, marks) pairs, so two shrinks, in a word and in a tree
        calls = []
        real = algebra.exhaustive_leaf_shrinker
        monkeypatch.setattr(algebra, "exhaustive_leaf_shrinker", lambda B, marks, m: (
            calls.append((B, frozenset(marks))) or real(B, marks, m)))
        B = disjoint_union(EDGE, VERTEX)
        _, report = shrink_word_of_structures([B] * 5, [B.size + 2], 1, 1)
        assert report.ok() and calls == [(B, frozenset()), (B, frozenset({2}))]
        calls.clear()
        shape = {0: None, 1: 0, 2: 0, 3: 1, 4: 1}
        _, report = shrink_tree_of_structures(shape, [B] * 5, [B.size + 2], 1, 1)
        assert report.ok() and calls == [(B, frozenset()), (B, frozenset({2}))]


def _reference_eval(t):
    if t.op == "leaf":
        return t.base
    if t.op == COMPLEMENT:
        return reference_complement(_reference_eval(t.children[0]))
    return reference_disjoint_union(*(_reference_eval(c) for c in t.children))


def _embeds_onto_marks(out: Structure, original: Structure, W) -> bool:
    """Some induced embedding of ``out`` into ``original`` has every mark of
    ``W`` in its image: ``out``, marked on some ``|W|`` of its elements,
    embeds into ``original`` marked on ``W``, marks onto marks."""
    marked = MarkedStructure(original, tuple(sorted(W)), ordered=False).expand()
    return any(
        brute_force_embedding(MarkedStructure(out, S, ordered=False).expand(), marked)
        is not None
        for S in itertools.combinations(range(out.size), len(W))
    )


def _check_shrink(out, report, original, W, m):
    assert report.ok()
    assert (report.input_size, report.output_size) == (original.size, out.size)
    assert _embeds_onto_marks(out, original, W)
    assert reference_rank_type_key(out, (), m) == reference_rank_type_key(original, (), m)


_tiny_graphs = _graphs(max_size=2)


@st.composite
def _marks(draw, size):
    k = draw(st.integers(0, 2))
    W = draw(st.sets(st.integers(0, size - 1), max_size=min(k, size)))
    return W, k


class TestShrinkContract:
    """Structure shrinks against the oracles: brute-force containment with the
    marks, and the reference rank type. Inputs stay at six elements or fewer."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.recursive(
            _tiny_graphs.map(leaf),
            lambda sub: st.one_of(
                st.builds(lambda c: node(COMPLEMENT, c), sub),
                st.builds(lambda a, b: node(UNION, a, b), sub, sub),
            ),
            max_leaves=4,
        ).filter(lambda t: algebra.evaluated_size(t) <= 6),
        st.integers(0, 2),
        st.data(),
    )
    def test_algebraic(self, t, m, data):
        original = _reference_eval(t)
        W, k = data.draw(_marks(original.size))
        out, report = shrink_algebraic(t, W, m, k)
        _check_shrink(out, report, original, W, m)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(_tiny_graphs, min_size=1, max_size=4)
           .filter(lambda ps: sum(p.size for p in ps) <= 6),
           st.booleans(), st.integers(0, 2), st.data())
    def test_blocks(self, parts, as_word, m, data):
        if as_word:
            shape = {i: (None if i == 0 else i - 1) for i in range(len(parts))}
        else:
            shape = {0: None} | {
                i: data.draw(st.integers(0, i - 1)) for i in range(1, len(parts))
            }
        original = reference_tree_of_structures(shape, parts)
        W, k = data.draw(_marks(original.size))
        if as_word:
            out, report = shrink_word_of_structures(parts, W, m, k)
        else:
            out, report = shrink_tree_of_structures(shape, parts, W, m, k)
        _check_shrink(out, report, original, W, m)


def _drops_marks(B, marks, m):
    # an honest induced substructure that leaves the marks out
    keep = [e for e in range(B.size) if e not in marks]
    return induced_substructure(B, keep)[0], tuple(keep)


def _claims_a_vertex(B, marks, m):
    return VERTEX, (0,)  # not the substructure of a looped vertex


def _keeps_one(B, marks, m):
    return induced_substructure(B, [0])[0], (0,)


class TestLyingLeafShrinker:
    TWO = disjoint_union(VERTEX, VERTEX)

    @pytest.mark.parametrize("shrinker, B, W, m, verdict", [
        (_drops_marks, TWO, {1}, 1, "contains_marks"),
        (_claims_a_vertex, LOOP, set(), 0, "substructure"),
        (_keeps_one, TWO, set(), 2, "equivalent"),
    ], ids=["contains_marks", "substructure", "equivalent"])
    def test_failed_verdict_named(self, monkeypatch, shrinker, B, W, m, verdict):
        monkeypatch.setattr(algebra, "exhaustive_leaf_shrinker", shrinker)
        for run in (lambda: shrink_algebraic(leaf(B), W, m, 1),
                    lambda: shrink_word_of_structures([B], W, m, 1)):
            with pytest.raises(VerificationFailed) as info:
                run()
            assert str(info.value) == f"leaf shrinker output fails {verdict}"


class TestMarkCheck:
    def test_fires_before_evaluation(self, monkeypatch):
        def not_allowed(*_):
            raise AssertionError("evaluated before the marks were checked")

        monkeypatch.setattr(algebra, "eval_expression_tree", not_allowed)
        monkeypatch.setattr(algebra, "tree_of_structures", not_allowed)
        with pytest.raises(ValueError, match=r"\|W\| = 2 exceeds k = 1"):
            shrink_algebraic(balanced_union(4), [0, 1], 1, 1)
        with pytest.raises(ValueError, match="mark 4 outside the universe"):
            shrink_algebraic(balanced_union(4), [4], 1, 1)
        with pytest.raises(ValueError, match="mark 4 outside the universe"):
            shrink_word_of_structures([VERTEX] * 4, [4], 1, 1)

    def test_pairs_checked_in_height_reduction(self):
        t = balanced_union(2)
        with pytest.raises(ValueError, match="outside the universe"):
            reduce_height(t, {(t.children[0].node_id, 1)}, 1, 1)


class TestWqoScanWords:
    def test_constant_sequence(self):
        items = [([VERTEX, VERTEX], set()), ([VERTEX, VERTEX], set())]
        assert wqo_scan_marked_words(items, 0) == (1, 2)

    def test_growing_unary_words(self):
        items = [([VERTEX] * n, set()) for n in (1, 2, 3)]
        assert wqo_scan_marked_words(items, 0) == (1, 2)

    def test_scan_continues_past_incomparable_prefix(self):
        loop_word = ([LOOP], {0})
        plain_word = ([VERTEX], {0})
        items = [loop_word, plain_word, loop_word]
        assert wqo_scan_marked_words(items, 1) == (1, 3)
        assert wqo_scan_marked_words([loop_word, plain_word], 1) is None

    def test_vocabularies_checked_before_the_scan(self):
        # the E-words embed, so a scan that checked only the pairs it reached
        # would return (1, 2) in the first order
        f_vertex = Structure(Vocabulary.make({"F": 2}), 1)
        e1, e2, f1 = ([VERTEX], set()), ([VERTEX, VERTEX], set()), ([f_vertex], set())
        for items in ([e1, e2, f1], [e1, f1, e2]):
            with pytest.raises(ValueError, match="all words must share one vocabulary"):
                wqo_scan_marked_words(items, 0)

    def test_end_marked_chains_do_embed(self):
        # unlike graph paths, order gaps absorb unmarked middles
        items = [([VERTEX] * 2, {0, 1}), ([VERTEX] * 3, {0, 2})]
        assert wqo_scan_marked_words(items, 2) == (1, 2)


# leaf names: any token the expression reader splits out whole
_names = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="()"),
    min_size=1, max_size=3,
)


@st.composite
def _named_trees(draw):
    """A tree over all five operations, its leaves' names, and the named
    structures; complemented leaves included, evaluations kept small."""
    pool = draw(st.dictionaries(_names, _graphs(max_size=2), min_size=1, max_size=3))
    names: dict[int, str] = {}

    def tree(depth):
        kind = draw(st.sampled_from(["leaf", UNION, COMPLEMENT, CARTESIAN, TENSOR, BOWTIE]))
        if depth == 0 or kind == "leaf":
            name = draw(st.sampled_from(sorted(pool)))
            t = leaf(pool[name])
            names[t.node_id] = name
            return node(COMPLEMENT, t) if draw(st.booleans()) else t
        if kind == COMPLEMENT:
            return node(COMPLEMENT, tree(depth - 1))
        return node(kind, tree(depth - 1), tree(depth - 1))

    t = tree(3)
    assume(algebra.evaluated_size(t) <= 16)
    return t, names, pool


class TestExpressionText:
    def test_round_trip(self):
        named = {"A": VERTEX, "B": EDGE}
        t = parse_expression("(u A (! B))", named)
        assert serialize_expression(t, {t.children[0].node_id: "A"}) == "(u A (! s0))"
        assert eval_expression_tree(t).size == 3

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_named_trees())
    def test_round_trip_property(self, case):
        t, names, pool = case
        text = serialize_expression(t, names)
        back = parse_expression(text, pool)
        back_names = {b.node_id: names[a.node_id] for a, b in zip(t.leaves(), back.leaves())}
        assert serialize_expression(back, back_names) == text
        assert eval_expression_tree(back) == eval_expression_tree(t)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_expression("(u A missing)", {"A": VERTEX})

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            parse_expression("(q A A)", {"A": VERTEX})

    def test_stray_parenthesis(self):
        with pytest.raises(ValueError):
            parse_expression("(u A A))", {"A": VERTEX})

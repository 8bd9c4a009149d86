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
    ExpressionClasses,
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
from fmtk.equiv import m_equivalent
from fmtk.errors import VerificationFailed
from fmtk import algebra, shrink
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
from fmtk.wqo import make_path

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
        assert out.children[0].complemented and out.children[1].complemented

    def test_double_complement_cancels(self):
        out = push_complement_to_leaves(node(COMPLEMENT, node(COMPLEMENT, leaf(EDGE))))
        assert out.op == "leaf" and not out.complemented

    def test_leaf_only_unchanged(self):
        out = push_complement_to_leaves(leaf(EDGE))
        assert out.op == "leaf" and out.structure == EDGE

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
            assert COMPLEMENT not in pushed.ops_used()
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
        out = reduce_expression_height(t, set(), 1, 0)
        assert eval_expression_tree(out).size < 16
        assert m_equivalent(eval_expression_tree(out), eval_expression_tree(t), 1)

    def test_flat_tree_unchanged(self):
        # at rank 2 the union is distinguishable from both leaves: no splice
        t = node(UNION, leaf(VERTEX), leaf(EDGE))
        assert reduce_expression_height(t, set(), 2, 0) is t

    def test_flat_tree_may_collapse_at_low_rank(self):
        # rank 1 cannot tell one isolated vertex from vertex-plus-edge
        t = node(UNION, leaf(VERTEX), leaf(EDGE))
        out = reduce_expression_height(t, set(), 1, 0)
        assert out.op == "leaf"
        assert m_equivalent(eval_expression_tree(out), eval_expression_tree(t), 1)

    def test_marked_leaves_survive(self):
        t = balanced_union(16)
        _, prov = eval_with_provenance(t)
        marked = {prov[7]}
        out = reduce_expression_height(t, marked, 1, 1)
        surviving = {l.node_id for l in out.leaves()}
        assert prov[7][0] in surviving

    def test_classifies_once(self, monkeypatch):
        calls = []
        real = ExpressionClasses.classify

        def counting(self, t):
            calls.append(t)
            return real(self, t)

        monkeypatch.setattr(ExpressionClasses, "classify", counting)
        t = balanced_union(16)
        out = reduce_expression_height(t, set(), 1, 0)
        assert algebra.evaluated_size(out) < 16
        assert len(calls) == 1


def _random_uc_tree(rng, depth, leaves):
    """A union/complement tree of height at most ``depth`` over ``leaves``."""
    roll = rng.random()
    if depth == 0 or roll < 0.1:
        return leaf(rng.choice(leaves))
    if roll < 0.3:
        return node(COMPLEMENT, _random_uc_tree(rng, depth - 1, leaves))
    return node(UNION, *(_random_uc_tree(rng, depth - 1, leaves) for _ in range(2)))


def _subexpressions(t):
    return [t] + [n for c in t.children for n in _subexpressions(c)]


def _check_against_reference(t, n_marks, m, pick):
    """Height reduction of the pushed ``t`` against the reference, and the
    class table's ids against reference rank keys, pair by pair."""
    pushed = push_complement_to_leaves(t)
    pairs = sorted({(lf.node_id, e) for lf in pushed.leaves() for e in range(lf.base.size)})
    w_pairs = set(pick(pairs, n_marks))
    k = len(w_pairs)
    out = reduce_expression_height(pushed, w_pairs, m, k)
    ref = reference_reduce_expression_height(pushed, w_pairs, m, k)
    assert serialize_expression(out) == serialize_expression(ref)
    assert [n.node_id for n in _subexpressions(out)] == [n.node_id for n in _subexpressions(ref)]

    ids = ExpressionClasses(m).classify(pushed)
    subs = _subexpressions(pushed)
    keys = {n.node_id: reference_rank_type_key(reference_eval_expression(n), (), m) for n in subs}
    for a, b in itertools.combinations(subs, 2):
        assert (ids[a.node_id] == ids[b.node_id]) == (keys[a.node_id] == keys[b.node_id])


@st.composite
def _uc_trees(draw, depth, leaves):
    kind = draw(st.sampled_from(["u", "u", "u", "!", "leaf"])) if depth else "leaf"
    if kind == "leaf":
        return leaf(draw(st.sampled_from(leaves)))
    if kind == "!":
        return node(COMPLEMENT, draw(_uc_trees(depth - 1, leaves)))
    return node(UNION, draw(_uc_trees(depth - 1, leaves)), draw(_uc_trees(depth - 1, leaves)))


class TestExpressionClasses:
    """The class table against the reference height reduction (a fresh
    rank type of every evaluated subexpression in every round)."""

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

    def test_one_rank_type_per_new_signature(self, monkeypatch):
        rng = random.Random(32)
        leaves = [random_structure(rng, V, 3) for _ in range(3)]

        def tree(d):
            if d == 0:
                return leaf(rng.choice(leaves))
            right = tree(d - 1)
            return node(UNION, tree(d - 1), node(COMPLEMENT, right) if d % 2 else right)

        t = push_complement_to_leaves(tree(5))
        assert len(t.leaves()) == 32
        tables, calls = [], []

        class Recording(ExpressionClasses):
            def __init__(self, m):
                super().__init__(m)
                tables.append(self)

        # the table types each representative through ``type_id``, which
        # ``ClassTable._class_of`` reads from ``fmtk.shrink``
        real = shrink.type_id
        monkeypatch.setattr(algebra, "ExpressionClasses", Recording)
        monkeypatch.setattr(shrink, "type_id", lambda *a: calls.append(a) or real(*a))
        out = reduce_expression_height(t, set(), 2, 0)
        assert out is not t  # some round spliced
        assert len(tables) == 1
        assert len(calls) <= len(tables[0]._ids)
        assert len(calls) < len(_subexpressions(t))


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
        real = algebra._shrink_leaf
        monkeypatch.setattr(algebra, "_shrink_leaf", lambda B, marks, m: (
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
            reduce_expression_height(t, {(t.children[0].node_id, 1)}, 1, 1)


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
            t = ExprNode(LEAF, base=pool[name], complemented=draw(st.booleans()))
            names[t.node_id] = name
            return t
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

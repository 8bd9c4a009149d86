import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtk import equiv, shrink
from fmtk.equiv import ef_game_equivalent, rank_type
from fmtk.errors import GuardExceeded, StructureFormatError, VerificationFailed
from fmtk.shrink import (
    SigmaTree,
    TreeClasses,
    from_structure,
    is_subtree,
    join_at,
    make_word,
    parse_trees,
    reduce_W_distances,
    reduce_degree,
    reduce_height_no_W,
    reduce_root_distance,
    serialize_tree,
    shrink_tree,
    shrink_word,
    to_structure,
    trees_equivalent,
    word_letters,
)
from fmtk.structures import MarkedStructure, Structure, find_embedding

from oracles import (
    random_tree,
    random_word,
    reference_induced_tree,
    reference_is_subtree,
    reference_reduce_W_distances,
    reference_reduce_height_no_W,
    reference_reduce_root_distance,
)


def chain(n, letter="a"):
    return make_word([letter] * n)


def star(leaves, letter="a"):
    parent = {0: None, **{i: 0 for i in range(1, leaves + 1)}}
    return SigmaTree(parent, {i: letter for i in range(leaves + 1)})


def random_deep_tree(rng):
    """A random word (40%) or tree of 1-30 nodes over 1-3 letters, its
    parents among the last few nodes so that paths run long; and its alphabet."""
    n = rng.randint(1, 30)
    sigma = ("a", "b", "c")[: rng.randint(1, 3)]
    if rng.random() < 0.4:
        return random_word(rng, n, sigma), sigma
    parent = {0: None, **{v: rng.randrange(max(0, v - rng.randint(1, 4)), v) for v in range(1, n)}}
    return SigmaTree(parent, {v: rng.choice(sigma) for v in parent}, sigma), sigma


class TestSigmaTree:
    def test_single_root_enforced(self):
        with pytest.raises(ValueError):
            SigmaTree({0: None, 1: None}, {0: "a", 1: "a"})

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            SigmaTree({0: 1, 1: 0}, {0: "a", 1: "a"})
        with pytest.raises(ValueError, match="parent map contains a cycle"):
            SigmaTree({0: None, 1: 2, 2: 1}, {0: "a", 1: "a", 2: "a"})

    def test_induced_reattaches_to_nearest_kept_ancestor(self):
        t = chain(4)
        sub = t.induced({1, 4})
        assert sub.parent == {1: None, 4: 1}

    def test_induced_equals_the_validated_rebuild(self):
        rng = random.Random(62)
        splits = 0
        for _ in range(150):
            t = random_deep_tree(rng)[0] if rng.random() < 0.5 else random_tree(
                rng, rng.randint(1, 30), ("a", "b", "c")[:rng.randint(1, 3)])
            top = rng.choice(t.nodes)
            keep = {top} | {v for v in t.descendants(top) if rng.random() < 0.5}
            sub = t.induced(keep)
            want = reference_induced_tree(t, keep)
            assert sub == want and sub.nodes == want.nodes and sub.root == want.root
            # children and depths by definition: the rebuild reads them
            # through the same parent-map reader as induced
            for v in sub.nodes:
                assert sub.children(v) == tuple(c for c in want.nodes if want.parent[c] == v)
                assert sub.depth(v) == len(list(want.ancestors(v)))
            # without a common ancestor: the same error on both routes
            forks = [v for v in t.nodes if len(t.children(v)) >= 2]
            if forks:
                v = rng.choice(forks)
                a, b = rng.sample(t.children(v), 2)
                keep = set(t.descendants(a)) | {b}
                with pytest.raises(ValueError, match="^a tree has exactly one root$"):
                    t.induced(keep)
                with pytest.raises(ValueError, match="^a tree has exactly one root$"):
                    reference_induced_tree(t, keep)
                splits += 1
        assert splits > 40
        with pytest.raises(ValueError, match="unknown nodes"):
            chain(3).induced({1, 7})

    def test_renumbered(self):
        t = chain(3).induced({1, 3})
        dense, renum = t.renumbered()
        assert dense.nodes == (0, 1)
        assert renum == {1: 0, 3: 1}

    def test_word_positions_start_at_one(self):
        w = make_word("abc")
        assert w.nodes == (1, 2, 3)
        assert word_letters(w) == ["a", "b", "c"]


class TestStructureRoundTrip:
    def test_single_node(self):
        t = SigmaTree({0: None}, {0: "a"})
        S, renum = to_structure(t)
        assert S.relations["Q_a"] == frozenset({(0,)})
        assert S.relations["le"] == frozenset({(0, 0)})

    def test_chain_of_two_has_three_order_pairs(self):
        S, _ = to_structure(chain(2).renumbered()[0])
        assert len(S.relations["le"]) == 3

    def test_round_trip_identity(self):
        rng = random.Random(50)
        for _ in range(25):
            t = random_tree(rng, rng.randint(1, 10), ("a", "b"))
            S, _ = to_structure(t)
            assert from_structure(S) == t

    def test_from_structure_rejects_non_tree_order(self):
        t = random_tree(random.Random(0), 4, ("a",))
        S, _ = to_structure(t)
        broken = S.relations["le"] | {(3, 2), (2, 3)}
        from fmtk.structures import Structure

        bad = Structure(S.vocab, S.size, {**S.relations, "le": broken})
        with pytest.raises(ValueError):
            from_structure(bad)


class TestJoin:
    def test_leaf_under_root(self):
        single = SigmaTree({0: None}, {0: "a"})
        out = join_at(single, 0, SigmaTree({0: None}, {0: "b"}))
        assert out.size == 2 and out.parent[1] == 0

    def test_size_adds(self):
        rng = random.Random(51)
        s = random_tree(rng, 6, ("a",))
        t = random_tree(rng, 4, ("a",))
        assert join_at(s, 3, t).size == 10

    def test_removing_graft_recovers_host(self):
        rng = random.Random(52)
        s = random_tree(rng, 5, ("a", "b"))
        t = random_tree(rng, 3, ("a", "b"))
        joined = join_at(s, 2, t)
        recovered = joined.induced(s.nodes)
        assert recovered == SigmaTree(s.parent, s.label, joined.alphabet)

    def test_invalid_attach_point(self):
        with pytest.raises(ValueError):
            join_at(chain(2), 99, chain(1))


@st.composite
def _ab_trees(draw, max_size=12):
    n = draw(st.integers(1, max_size))
    parent = {0: None, **{v: draw(st.integers(0, v - 1)) for v in range(1, n)}}
    label = {v: draw(st.sampled_from("ab")) for v in range(n)}
    return SigmaTree(parent, label, ("a", "b"))


@st.composite
def _tree_files(draw):
    """1 to 3 named trees with arbitrary node ids, alphabets and sorted marks."""
    names = draw(st.lists(st.sampled_from(["T", "w2", "Left_1", "x_"]),
                          min_size=1, max_size=3, unique=True))
    trees = {}
    for name in names:
        alphabet = draw(st.lists(st.sampled_from(["a", "b", "c10", "x_y"]),
                                 min_size=1, unique=True))
        ids = draw(st.lists(st.integers(-20, 60), min_size=1, max_size=10, unique=True))
        parent = {ids[0]: None}
        for i, v in enumerate(ids[1:], start=1):
            parent[v] = ids[draw(st.integers(0, i - 1))]
        label = {v: draw(st.sampled_from(alphabet)) for v in ids}
        marks = draw(st.sets(st.sampled_from(ids), max_size=3))
        trees[name] = (SigmaTree(parent, label, alphabet), tuple(sorted(marks)))
    return trees


def _count_rank_types(monkeypatch) -> list:
    """Record every type a class table computes: each representative is
    typed once, through ``type_id`` in the table's scope."""
    calls = []
    real = shrink.type_id

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(shrink, "type_id", counting)
    return calls


class TestTreeClasses:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_ab_trees(), st.integers(0, 2))
    def test_table_class_is_the_direct_rank_type(self, t, m):
        classes = TreeClasses(t, m)
        for v in t.nodes:
            sub = t.descendants(v)
            S, _ = to_structure(t.induced(sub))
            assert classes.of(sub) == rank_type(S, (), m).key

    @pytest.mark.parametrize("m", [1, 2])
    def test_child_multiplicities_are_capped_at_m(self, m, monkeypatch):
        def fan(leaves):  # an a-root over b-leaves
            parent = {0: None, **{i: 0 for i in range(1, leaves + 1)}}
            return SigmaTree(parent, {0: "a", **{i: "b" for i in range(1, leaves + 1)}}, ("a", "b"))

        classes = TreeClasses(fan(m), m)
        below = classes.classify(fan(m - 1))[0]
        at = classes.classify(fan(m))[0]
        calls = _count_rank_types(monkeypatch)
        above = classes.classify(fan(m + 1))[0]
        assert below != at
        assert above == at
        assert calls == []  # m + 1 leaves have the signature of m leaves

    def test_verdict_does_not_read_the_table(self, monkeypatch):
        word = make_word("ab")
        out, report = shrink_tree(word, set(), 1, 0)
        assert out == word and report.ok()
        real = TreeClasses._class_of
        seen = []  # class ids in the order the table first returns them

        def merged(self, sig):
            cid = real(self, sig)
            if cid not in seen:
                seen.append(cid)
            return seen[0] if seen.index(cid) == 1 else cid  # the first two classes become one

        monkeypatch.setattr(TreeClasses, "_class_of", merged)
        # "ab" now looks like a repeat of its own suffix "b" and is cut to it
        with pytest.raises(VerificationFailed) as info:
            shrink_tree(word, set(), 1, 0)
        assert info.value.report.verdicts == {
            "contains_marks": True, "is_subtree": True, "equivalent": False,
        }
        assert info.value.report.output_size == 1

    def test_representatives_equal_their_validated_rebuilds(self, monkeypatch):
        built = []
        real = TreeClasses._representative

        def recording(self, sig):
            built.append(real(self, sig))
            return built[-1]

        monkeypatch.setattr(TreeClasses, "_representative", recording)
        rng = random.Random(63)
        for _ in range(40):
            t, _ = random_deep_tree(rng)
            TreeClasses(t, rng.randint(0, 2)).classify(t)
        assert len(built) > 100
        for rep in built:
            again = Structure(rep.vocab, rep.size, rep.relations)
            assert rep == again and hash(rep) == hash(again)

    def test_long_word_computes_few_rank_types(self, monkeypatch):
        calls = _count_rank_types(monkeypatch)
        out, report = shrink_tree(make_word("a" * 480), set(), 1, 0)
        assert report.ok() and out.size == 1
        assert len(calls) < 10


class TestIsSubtree:
    def test_agrees_with_the_pairwise_definition(self):
        rng = random.Random(63)
        verdicts = []
        for _ in range(120):
            s = random_tree(rng, rng.randint(2, 16), ("a", "b"))
            keep = {s.root} | set(rng.sample(list(s.nodes), rng.randint(0, s.size - 1)))
            t = s.induced(keep)
            parent, label = dict(t.parent), dict(t.label)
            v = rng.choice(t.nodes)
            wrong_label = {**label, v: "b" if label[v] == "a" else "a"}
            candidates = [t, SigmaTree(parent, wrong_label, t.alphabet),
                          SigmaTree({**parent, max(s.nodes) + 1: v},
                                    {**label, max(s.nodes) + 1: "a"}, t.alphabet)]
            movable = [u for u in t.nodes if u != t.root]
            if movable:
                u = rng.choice(movable)
                hosts = [h for h in t.nodes if h not in t.descendants(u) and h != t.parent[u]]
                if hosts:
                    candidates.append(SigmaTree({**parent, u: rng.choice(hosts)}, label, t.alphabet))
            for c in candidates:
                verdicts.append(is_subtree(c, s))
                assert verdicts[-1] == reference_is_subtree(c, s)
        assert True in verdicts and False in verdicts


class TestReduceDegree:
    def test_star_collapses(self):
        s = star(10)
        out = reduce_degree(s, [], TreeClasses(s, 1), 0)
        assert len(out.children(0)) == 1
        assert trees_equivalent(out, s, 1)

    def test_fixpoint_unchanged(self):
        s = star(10)
        out = reduce_degree(s, [], TreeClasses(s, 1), 0)
        assert reduce_degree(out, [], TreeClasses(out, 1), 0) == out

    def test_small_tree_unchanged(self):
        s = star(2)
        assert reduce_degree(s, [], TreeClasses(s, 1), 1) == s

    def test_marked_leaf_retained(self):
        out = reduce_degree(star(10), [7], TreeClasses(star(10), 1), 1)
        assert 7 in out.nodes

    def test_per_class_cap_holds_in_output(self):
        rng = random.Random(62)
        from fmtk.shrink import TreeClasses

        for _ in range(15):
            s = random_tree(rng, rng.randint(3, 22), ("a", "b"))
            m, k = rng.randint(0, 2), rng.randint(0, 2)
            marks = set(rng.sample(list(s.nodes), min(k, s.size)))
            out = reduce_degree(s, marks, TreeClasses(s, m), k)
            classes = TreeClasses(out, m)
            for v in out.nodes:
                per_class = {}
                for c in out.children(v):
                    key = classes.of(out.descendants(c))
                    per_class[key] = per_class.get(key, 0) + 1
                assert all(n <= m + k for n in per_class.values())
            assert trees_equivalent(out, s, m)
            assert marks <= set(out.nodes)

    def test_too_many_marks_rejected(self):
        with pytest.raises(ValueError):
            reduce_degree(star(3), [1, 2], TreeClasses(star(3), 1), 1)


class TestReduceHeight:
    def test_long_unary_chain(self):
        s = chain(30)
        out = reduce_height_no_W(s, TreeClasses(s, 1))
        assert out.size < 5
        assert trees_equivalent(out, s, 1)

    def test_single_node_unchanged(self):
        s = SigmaTree({0: None}, {0: "a"})
        assert reduce_height_no_W(s, TreeClasses(s, 1)) == s

    def test_height_bounded_by_realized_classes(self):
        rng = random.Random(53)
        for _ in range(15):
            s = random_tree(rng, rng.randint(2, 20), ("a", "b"))
            m = rng.randint(0, 2)
            out = reduce_height_no_W(s, TreeClasses(s, m))
            classes = TreeClasses(out, m)
            distinct = {classes.of(out.descendants(v)) for v in out.nodes}
            # longest chain has pairwise distinct subtree classes
            assert out.height() + 1 <= len(distinct)
            assert trees_equivalent(out, s, m)
            assert reduce_height_no_W(out, TreeClasses(out, m)) == out

    def test_matches_the_reference(self):
        rng = random.Random(63)
        tables = {}  # one subtree table per alphabet and rank, as in shrink_tree
        spliced = 0
        for _ in range(600):
            s, sigma = random_deep_tree(rng)
            m = rng.randint(0, 2)
            classes = tables.setdefault((sigma, m), TreeClasses(s, m))
            want = reference_reduce_height_no_W(s, m, classes)
            assert reduce_height_no_W(s, classes) == want
            spliced += want.size < s.size
        assert spliced >= 300, spliced

    def test_classifies_once(self, monkeypatch):
        calls = []
        real = TreeClasses.classify

        def counting(self, t, *skip):
            calls.append(t)
            return real(self, t, *skip)

        monkeypatch.setattr(TreeClasses, "classify", counting)
        s = chain(30)
        out = reduce_height_no_W(s, TreeClasses(s, 1))
        assert out.size < s.size
        assert len(calls) == 1


class TestShrinkWord:
    def test_unary_word_rank_two(self):
        w = chain(20)
        v = shrink_word(w, 2)
        assert len(v.nodes) <= 4
        assert trees_equivalent(v, w, 2)

    def test_single_letter_unchanged(self):
        w = make_word("a")
        assert shrink_word(w, 2) == w

    def test_positions_preserved_in_order(self):
        w = make_word("abbaabba")
        v = shrink_word(w, 1)
        kept = sorted(v.nodes, key=v.depth)
        assert kept == sorted(v.nodes)  # order of positions = chain order

    def test_random_words_verified(self):
        rng = random.Random(54)
        for _ in range(100):
            w = random_word(rng, rng.randint(1, 40), ("a", "b"))
            m = rng.randint(0, 2)
            v = shrink_word(w, m)
            assert v.is_chain()
            assert is_subtree(v, w)
            assert trees_equivalent(v, w, m)

    def test_rejects_non_chain(self):
        with pytest.raises(ValueError):
            shrink_word(star(2), 1)

    def test_output_is_verified(self, monkeypatch):
        # a height reducer that drops the last letter: "abab...ab" at rank 2
        # knows it ends in b, the shortened word does not
        def drops_last(s, classes):
            return s.induced(set(s.nodes) - {max(s.nodes, key=s.depth)})

        monkeypatch.setattr(shrink, "reduce_height_no_W", drops_last)
        with pytest.raises(VerificationFailed) as info:
            shrink_word(make_word("ab" * 6), 2)
        assert info.value.report.verdicts["equivalent"] is False


class TestReduceRootDistance:
    def test_target_at_root_unchanged(self):
        s = chain(5)
        assert reduce_root_distance(s, 1, TreeClasses(s, 1)) == s

    def test_deep_chain_pulls_target_up(self):
        s = chain(25)
        out = reduce_root_distance(s, 25, TreeClasses(s, 1))
        assert out.size < 25 and 25 in out.nodes
        assert trees_equivalent(out, s, 1, (25,), (25,))

    def test_end_segments_always_kept(self):
        # first and last path segments survive every splice
        rng = random.Random(55)
        for _ in range(20):
            s = random_tree(rng, rng.randint(2, 18), ("a",))
            b = max(s.nodes, key=lambda v: (s.depth(v), v))
            out = reduce_root_distance(s, b, TreeClasses(s, 1))
            assert out.root == s.root and b in out.nodes
            assert trees_equivalent(out, s, 1, (b,), (b,))
            assert is_subtree(out, s)
            assert reduce_root_distance(out, b, TreeClasses(out, 1)) == out

    def test_matches_the_reference(self):
        rng = random.Random(61)
        tables = {}  # one subtree table per alphabet and rank, as in shrink_tree
        spliced = 0
        for _ in range(1000):
            s, sigma = random_deep_tree(rng)
            b = rng.choice(s.nodes)
            m = rng.randint(0, 2)
            classes = tables.setdefault((sigma, m), TreeClasses(s, m))
            want = reference_reduce_root_distance(s, b, m, classes)
            assert reduce_root_distance(s, b, classes) == want
            spliced += want.size < s.size
        assert spliced >= 300, spliced

    def test_one_segment_table_per_call(self, monkeypatch):
        built = []
        real = TreeClasses.__init__

        def counting(self, base, m):
            built.append(base)
            real(self, base, m)

        monkeypatch.setattr(TreeClasses, "__init__", counting)
        s = make_word("ab" * 15 + "a")
        out = reduce_root_distance(s, 31, TreeClasses(s, 1))
        assert out.size < s.size
        assert len(built) <= 2  # the tree's table and one segment table

    def test_dropped_letters_walk_only_their_side_subtrees(self, monkeypatch):
        # a word's letters have no side subtrees, so no subtree is walked
        walked = []
        real = SigmaTree.descendants
        monkeypatch.setattr(SigmaTree, "descendants",
                            lambda self, v: walked.append(v) or real(self, v))
        s = make_word("ab" * 15 + "a")
        out = reduce_root_distance(s, 31, TreeClasses(s, 1))
        assert out.size < s.size and walked == []


class TestReduceWDistances:
    def test_no_pair_unchanged(self):
        s = chain(10)
        assert reduce_W_distances(s, {3}, TreeClasses(s, 1)) == s

    def test_adjacent_marks_unchanged(self):
        s = chain(10)
        assert reduce_W_distances(s, {4, 5}, TreeClasses(s, 1)) == s

    def test_nodes_above_every_mark_are_kept(self):
        # 1 .. 19 lie below no mark; only the stretch 21 .. 24 is shortened
        s = chain(25)
        out = reduce_W_distances(s, {20, 25}, TreeClasses(s, 1))
        assert set(range(1, 21)) < set(out.nodes) and out.size < 25
        assert out == reference_reduce_W_distances(s, {20, 25}, 1)

    def test_far_marks_pulled_together(self):
        s = chain(25)
        out = reduce_W_distances(s, {1, 25}, TreeClasses(s, 1))
        assert {1, 25} <= set(out.nodes)
        assert out.size < 25
        assert trees_equivalent(out, s, 1)
        assert is_subtree(out, s)

    def test_consecutive_relation_preserved(self):
        rng = random.Random(56)
        for _ in range(15):
            s = random_tree(rng, rng.randint(4, 20), ("a", "b"))
            marks = set(rng.sample(list(s.nodes), min(3, s.size)))
            out = reduce_W_distances(s, marks, TreeClasses(s, 1))
            assert marks <= set(out.nodes)
            for a in marks:
                for b in marks:
                    if a != b:
                        assert (a in s.ancestors(b)) == (a in out.ancestors(b))
            assert reduce_W_distances(out, marks, TreeClasses(out, 1)) == out

    def test_matches_the_reference(self):
        rng = random.Random(64)
        tables = {}  # one subtree table per alphabet and rank, as in shrink_tree
        spliced = 0
        for _ in range(1000):
            s, sigma = random_deep_tree(rng)
            # the root is marked, as in shrink_tree, and 1-3 more nodes
            marks = {s.root, *rng.sample(s.nodes, min(rng.randint(1, 3), s.size))}
            m = rng.randint(0, 2)
            classes = tables.setdefault((sigma, m), TreeClasses(s, m))
            want = reference_reduce_W_distances(s, marks, m, classes)
            assert reduce_W_distances(s, marks, classes) == want
            spliced += want.size < s.size
        assert spliced >= 300, spliced

    def test_a_shared_stretch_is_reduced_once(self, monkeypatch):
        # marks 0, 9 and 10: the pairs (0, 9) and (0, 10) share the stretch
        # 1 .. 7 above the branch at 8, spliced from one word of the
        # segments 2 .. 7
        parent = {0: None, **{v: v - 1 for v in range(1, 10)}, 10: 8}
        s = SigmaTree(parent, {v: "a" for v in parent})
        words = []
        real = shrink.make_word

        def recording(*args):
            words.append(real(*args))
            return words[-1]

        monkeypatch.setattr(shrink, "make_word", recording)
        out = reduce_W_distances(s, {0, 9, 10}, TreeClasses(s, 1))
        assert [w.size for w in words] == [6]
        assert out.size < s.size and {0, 9, 10} <= set(out.nodes)
        assert out == reference_reduce_W_distances(s, {0, 9, 10}, 1, TreeClasses(s, 1))

    def test_one_classification_and_one_subtree_for_every_stretch(self, monkeypatch):
        # four chains of ten nodes under a marked root, each ending in a
        # mark, and the last forking at its ninth node into a second marked
        # leaf: four stretches, each spliced from one word of its own
        parent, label, marks = {0: None}, {0: "a"}, {0}
        for branch in range(4):
            above = 0
            for i in range(10):
                v = 1 + 10 * branch + i
                parent[v], label[v], above = above, "ab"[i % 3 == 2], v
            marks.add(above)
        parent[41], label[41] = 39, "a"
        marks.add(41)
        s = SigmaTree(parent, label, ("a", "b"))
        classes = TreeClasses(s, 1)
        want = reference_reduce_W_distances(s, marks, 1, TreeClasses(s, 1))
        classified, induced, words = [], [], []
        real_classify, real_induced = TreeClasses.classify, SigmaTree.induced
        real_word = shrink.make_word

        def classify(self, t, *skip):
            classified.append((self, t))
            return real_classify(self, t, *skip)

        def subtree(self, keep):
            induced.append(self)
            return real_induced(self, keep)

        def word(*args):
            words.append(real_word(*args))
            return words[-1]

        monkeypatch.setattr(TreeClasses, "classify", classify)
        monkeypatch.setattr(SigmaTree, "induced", subtree)
        monkeypatch.setattr(shrink, "make_word", word)
        out = reduce_W_distances(s, marks, classes)
        assert out == want and out.size < s.size
        assert [t for table, t in classified if table is classes] == [s]
        assert induced == [s]
        assert sorted(w.size for w in words) == [7, 8, 8, 8]
        assert len(classified) == 1 + len(words)


class TestShrinkTree:
    def test_everything_marked_unchanged(self):
        rng = random.Random(57)
        t = random_tree(rng, 3, ("a",))
        out, report = shrink_tree(t, set(t.nodes), 1, 3)
        assert out == t and report.ok()

    def test_random_trees_all_postconditions(self):
        rng = random.Random(58)
        for _ in range(60):
            size = rng.randint(1, 25)
            t = random_tree(rng, size, ("a", "b")[: rng.randint(1, 2)])
            k = rng.randint(0, 2)
            marks = set(rng.sample(list(t.nodes), min(k, size)))
            m = rng.randint(0, 2)
            out, report = shrink_tree(t, marks, m, k)
            assert report.ok()
            assert marks <= set(out.nodes)
            assert is_subtree(out, t)
            assert trees_equivalent(out, t, m)

    def test_hanging_subtrees_are_classified_once(self, monkeypatch):
        # a marked child of the root, and four unmarked chains hanging off
        # the root, long enough that each is spliced
        parent, label = {0: None, 1: 0}, {0: "a", 1: "b"}
        v = 2
        for length in (3, 4, 5, 6):
            above = 0
            for _ in range(length):
                parent[v], label[v], above = above, "a", v
                v += 1
        t = SigmaTree(parent, label, ("a", "b"))
        # the phase as it was: one reduction per hanging subtree
        kept = set(t.nodes)
        for h in t.children(0)[1:]:
            below = t.descendants(h)
            kept -= below - set(reference_reduce_height_no_W(t.induced(below), 1).nodes)
        want = reduce_degree(t.induced(kept), {1}, TreeClasses(t, 1), 1)
        calls = []
        real = TreeClasses.classify

        def counting(self, tree, *skip):
            calls.append(tree)
            return real(self, tree, *skip)

        monkeypatch.setattr(TreeClasses, "classify", counting)
        out, report = shrink_tree(t, {1}, 1, 1)
        assert report.ok() and out == want
        assert report.phases[1] == ("hanging-heights", t.size, len(kept))
        assert len(kept) < t.size
        assert len(calls) == 1  # mark-distances has nothing to reduce here

    def test_mark_bound_enforced(self):
        t = random_tree(random.Random(59), 5, ("a",))
        with pytest.raises(ValueError):
            shrink_tree(t, {0, 1, 2}, 1, 2)

    def test_unary_chain_sizes_stabilize(self):
        # growing inputs, fixed mark pattern: output size becomes constant
        sizes = set()
        for n in range(10, 61):
            out, report = shrink_tree(chain(n), {n}, 1, 1)
            assert report.ok()
            sizes.add(out.size)
        assert sizes == {5}

    def test_subtree_witnessed_by_identity_embedding(self):
        rng = random.Random(60)
        t = random_tree(rng, 12, ("a", "b"))
        out, _ = shrink_tree(t, {t.nodes[3]}, 1, 1)
        S_out, renum_out = to_structure(out)
        S_in, renum_in = to_structure(t)
        witness = {renum_out[v]: renum_in[v] for v in out.nodes}
        from fmtk.structures import check_embedding_witness

        assert check_embedding_witness(S_out, S_in, witness)
        assert find_embedding(S_out, S_in) is not None


def _counting(monkeypatch, owner, name) -> list:
    """Record the arguments of every call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _tree_refusal(call):
    try:
        call()
    except (KeyError, ValueError, RecursionError, GuardExceeded) as exc:
        return type(exc), str(exc)
    return None


class TestTreesEquivalent:
    """Equal trees with equal marks are equivalent, and are not encoded."""

    def test_equal_trees_are_not_encoded(self, monkeypatch):
        encoded = _counting(monkeypatch, shrink, "to_structure")
        typed = _counting(monkeypatch, equiv, "_type_of")
        built = _counting(monkeypatch, SigmaTree, "__init__")
        rng = random.Random(3604)
        trees = [random_tree(rng, rng.randint(1, 12), ("a", "b")) for _ in range(20)]
        copies = [SigmaTree(t.parent, t.label, t.alphabet) for t in trees]
        built.clear()
        for t, copy in zip(trees, copies):
            v = rng.choice(t.nodes)
            assert trees_equivalent(t, t, 2) and trees_equivalent(t, copy, 1, [v], (v,))
        assert encoded == typed == built == []
        # a shrink that changes nothing encodes nothing for its verdict
        word = make_word("ab")
        out, report = shrink_tree(word, set(), 1, 0)
        assert out == word and report.ok() and encoded == []

    def test_unequal_equivalent_trees_are_typed_on_both_sides(self, monkeypatch):
        typed = _counting(monkeypatch, equiv, "_type_of")
        word = make_word("aaaa")
        assert trees_equivalent(make_word("a" * 8), make_word("a" * 9), 2)
        assert trees_equivalent(word, word, 1, (2,), (3,))
        assert [(A.size, tup) for A, tup, *_ in typed] == [(8, ()), (9, ()), (4, (1,)), (4, (2,))]

    def test_rebuilt_only_when_the_alphabet_widens(self, monkeypatch):
        aab, ab, a, b = make_word("aab"), make_word("ab"), make_word("a"), make_word("b", ("b", "a"))
        built = _counting(monkeypatch, SigmaTree, "__init__")
        assert trees_equivalent(aab, ab, 1)
        assert built == []
        assert not trees_equivalent(a, ab, 1)  # a's alphabet widens
        assert not trees_equivalent(b, a, 1)  # b's is not sorted, a's widens
        assert [args[3] for args in built] == [("a", "b")] * 3
        # the verdicts of encoding both trees over the union, rebuilt or not
        monkeypatch.undo()
        rng = random.Random(3605)
        for _ in range(60):
            t1 = random_tree(rng, rng.randint(1, 6), ("a", "b", "c")[:rng.randint(1, 3)])
            t2 = random_tree(rng, rng.randint(1, 6), ("b", "a")[:rng.randint(1, 2)])
            m = rng.randint(0, 2)
            union = tuple(sorted(set(t1.alphabet) | set(t2.alphabet)))
            (S1, _), (S2, _) = (to_structure(SigmaTree(t.parent, t.label, union)) for t in (t1, t2))
            assert trees_equivalent(t1, t2, m) == (rank_type(S1, (), m) == rank_type(S2, (), m))

    def test_equal_trees_refused_as_their_encodings_are(self):
        t = make_word("abab")
        copy = SigmaTree(t.parent, t.label, t.alphabet)
        S, renum = to_structure(t)
        cases = [
            ((), -1),  # a negative rank
            ((), 250),  # the rank-type guard, on the width
            ((), 10**6),  # past the recursion limit
            ((9,), 1),  # a mark that is not a node
            ((1, 9), -1),  # the marks before the rank
            ((2,), 12),  # the guard, with a mark
        ]
        for marks, m in cases:
            want = _tree_refusal(lambda: rank_type(S, tuple(renum[v] for v in marks), m))
            assert want is not None
            assert _tree_refusal(lambda: trees_equivalent(t, copy, m, marks, marks)) == want
            assert _tree_refusal(lambda: trees_equivalent(t, t, m, marks, marks)) == want
        with pytest.raises(KeyError):
            trees_equivalent(t, t, 1, (0,), (0,))

    def test_unequal_trees_refused_as_their_encodings_are(self):
        # the refusals run before either tree is encoded, in the order that
        # encoding both over the union and typing them would meet them
        big, small = make_word("abab"), make_word("b", ("b",))
        union = ("a", "b")
        (S1, r1), (S2, r2) = (to_structure(SigmaTree(t.parent, t.label, union)) for t in (big, small))
        cases = [
            ((), (), -1),
            ((), (), 10**6),
            ((1,), (9,), 250),  # the second tree's unknown mark before the first's guard
            ((1,), (), -1),  # unequal marks before the rank
            ((1,), (), 10**6),
            ((9,), (9,), -1),
            ((2,), (1,), 12),  # the first tree's guard, with a mark
        ]
        for marks1, marks2, m in cases:
            want = _tree_refusal(lambda: equiv.marked_equivalent(
                S1, tuple(r1[v] for v in marks1), S2, tuple(r2[v] for v in marks2), m))
            assert want is not None
            assert _tree_refusal(lambda: trees_equivalent(big, small, m, marks1, marks2)) == want


def _game_equivalent(t: SigmaTree, s: SigmaTree, marks, m: int) -> bool:
    """Rank-``m`` equivalence of two trees with the same marks, by the
    Ehrenfeucht-Fraisse game on their encodings with the marks as constants."""
    expanded = []
    for tree in (t, s):
        S, renum = to_structure(tree)
        expanded.append(MarkedStructure(S, tuple(renum[v] for v in sorted(marks))).expand())
    return ef_game_equivalent(*expanded, m)


class TestShrinkProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), _ab_trees(max_size=10), st.integers(0, 2))
    def test_shrink_tree_keeps_marks_order_and_class(self, data, t, m):
        marks = data.draw(st.sets(st.sampled_from(t.nodes), max_size=2))
        out, report = shrink_tree(t, marks, m, len(marks))
        assert report.ok()
        assert marks <= set(out.nodes)
        assert reference_is_subtree(out, t)
        assert _game_equivalent(out, t, marks, m)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.text("ab", min_size=1, max_size=12), st.integers(0, 2))
    def test_shrink_word_is_an_equivalent_subword(self, letters, m):
        w = make_word(letters, ("a", "b"))
        v = shrink_word(w, m)
        assert v.is_chain()
        assert reference_is_subtree(v, w)
        assert _game_equivalent(v, w, (), m)


class TestTreeTextFormat:
    def test_round_trip(self):
        rng = random.Random(61)
        t = random_tree(rng, 8, ("a", "b"))
        text = serialize_tree("demo", t, (2, 5))
        parsed, marks = parse_trees(text)["demo"]
        assert parsed == t and marks == (2, 5)

    def test_bad_mark_rejected(self):
        text = "tree x\nalphabet: a\nnode 0 label a root\nmarks: 9\n"
        with pytest.raises(ValueError):
            parse_trees(text)

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError):
            parse_trees("tree x\nnonsense here\n")

    @pytest.mark.parametrize("text", [
        "tree T\nalphabet: a\nnode 1 label a root\nnode 2 label a parent 1\nnode 2 label a parent 1\n",
        "tree T\nalphabet: a b\nnode 1 label a root\nnode 1 label b root\n",
        "tree T\nalphabet: a a\nnode 1 label a root\n",
        "tree T\nalphabet: a\nnode 1 label a root\ntree T\nalphabet: a\nnode 1 label a root\n",
    ], ids=["child-node", "root-node", "alphabet", "tree-name"])
    def test_duplicates_are_format_errors(self, text):
        with pytest.raises(StructureFormatError):
            parse_trees(text)

    def test_bad_last_block_is_a_format_error(self):
        two_roots = "tree T\nalphabet: a\nnode 1 label a root\nnode 2 label a root\n"
        foreign_label = "tree T\nalphabet: a\nnode 1 label b root\n"
        for text in (two_roots, foreign_label):
            with pytest.raises(StructureFormatError):
                parse_trees(text)

    @pytest.mark.parametrize("text", [
        "alphabet: a\ntree T\nnode 0 label a root\n",
        "node 0 label a root\ntree T\nalphabet: a\n",
        "marks: 0\ntree T\nalphabet: a\nnode 0 label a root\n",
    ], ids=["alphabet", "node", "marks"])
    def test_line_before_first_header_rejected(self, text):
        first = text.splitlines()[0]
        with pytest.raises(StructureFormatError,
                           match=f"line 1: '{first}' comes before the first tree line"):
            parse_trees(text)

    def test_error_in_an_earlier_block_names_that_block(self):
        text = ("tree T\nalphabet: a\nnode 1 label b root\n"
                "tree U\nalphabet: a\nnode 1 label a root\n")
        with pytest.raises(StructureFormatError, match="^tree T: labels must come from"):
            parse_trees(text)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_tree_files())
    def test_serialize_parse_round_trip(self, trees):
        text = "\n".join(serialize_tree(n, t, marks) for n, (t, marks) in trees.items())
        parsed = parse_trees(text)
        assert list(parsed) == list(trees) and parsed == trees
        assert "\n".join(serialize_tree(n, t, m) for n, (t, m) in parsed.items()) == text

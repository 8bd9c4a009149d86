import gc
import itertools
import random

import pytest

from fmtk import algebra, equiv, folog, shrink
from fmtk.equiv import (
    RANK_TYPE_GUARD,
    TypeScope,
    check_rank_type_cost,
    class_fingerprint,
    ef_game_equivalent,
    m_equivalent,
    marked_equivalent,
    rank_type,
    realized_classes,
    subset_typer,
    type_id,
)
from fmtk.errors import GuardExceeded
from fmtk.shrink import SigmaTree, join_at, make_word, to_structure, trees_equivalent
from fmtk.structures import (
    MarkedStructure,
    Structure,
    Vocabulary,
    bowtie,
    cartesian_product,
    complement,
    disjoint_union,
    find_embedding,
    induced_substructure,
    kept_id_sets,
    parse_structures,
    serialize_structure,
    tensor_product,
)
from fmtk.translate import minimal_models
from fmtk.wqo import make_cycle, make_linear_order, make_path

from oracles import (
    all_structures,
    iso_representatives,
    permuted_copy,
    random_structure,
    random_tree,
    reference_ef_game_equivalent,
    reference_rank_type_key,
)

V = Vocabulary.make({"E": 2})


class TestRankType:
    def test_rank_zero_empty_tuple_is_universal(self):
        # no constants, no distinguished elements: nothing atomic to say
        rng = random.Random(30)
        types = {
            rank_type(random_structure(rng, V, rng.randint(1, 5)), (), 0).key
            for _ in range(20)
        }
        assert len(types) == 1

    def test_isomorphism_invariance(self):
        rng = random.Random(31)
        for _ in range(50):
            A = random_structure(rng, V, rng.randint(1, 5))
            B = permuted_copy(rng, A)
            assert rank_type(A, (), 2) == rank_type(B, (), 2)

    def test_cycles_share_rank_two_type(self):
        assert rank_type(make_cycle(4), (), 2) == rank_type(make_cycle(5), (), 2)

    def test_tuple_validation(self):
        with pytest.raises(ValueError):
            rank_type(make_cycle(3), (7,), 1)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            rank_type(make_cycle(3), (), -1)

    def test_fingerprint_is_stable(self):
        # frozen value: guards the canonical serialization against drift
        assert class_fingerprint(make_cycle(4), (), 2) == "a1f421973a416df0"
        assert class_fingerprint(make_cycle(5), (), 2) == "a1f421973a416df0"

    def test_fingerprint_of_a_key_too_wide_for_repr(self):
        # at m = 200 the key holds ints of more than 4,300 decimal digits
        V = Vocabulary.make({"E": 2})
        bare, loop = Structure(V, 1), Structure(V, 1, {"E": {(0, 0)}})
        fingerprint = class_fingerprint(bare, (), 200)
        assert fingerprint == class_fingerprint(Structure(V, 1), (), 200)
        assert fingerprint != class_fingerprint(loop, (), 200)


    def test_keys_match_leaf_by_leaf_reference(self):
        # keys must be tuple-for-tuple those of the leaf-by-leaf recursion;
        # each call types in a scope of its own, so descending m and the
        # repeat pass show that no call leans on state left by an earlier one
        rng = random.Random(41)
        preds = [{"U": 1}, {"E": 2}, {"T": 3}, {"U": 1, "E": 2, "T": 3}]
        for pred in preds:
            for consts in ((), ("c",), ("c", "d")):
                vocab = Vocabulary.make(pred, consts)
                for size in range(1, 7):
                    A = random_structure(rng, vocab, size, density=rng.choice([0.2, 0.5, 0.8]))
                    cases = [
                        (tuple(rng.randrange(size) for _ in range(length)), m)
                        for m in (3, 2, 1, 0) for length in (0, 1, 2)
                    ]
                    for _ in range(2):
                        for tup, m in cases:
                            assert rank_type(A, tup, m).key == reference_rank_type_key(A, tup, m)

    def test_keys_and_fingerprints_do_not_depend_on_call_order(self):
        # one structure serves every call, in three orders, and a fresh copy
        # of it must give the same fingerprints; each call types in a scope
        # of its own, so no call depends on the ones before it
        rng = random.Random(42)
        vocab = Vocabulary.make({"U": 1, "E": 2, "T": 3}, ("c",))
        for size in (3, 4, 5):
            A = random_structure(rng, vocab, size, density=0.4)
            cases = [(tuple(rng.randrange(size) for _ in range(length)), m)
                     for m in range(4) for length in range(3)]
            rng.shuffle(cases)
            for order in (cases, sorted(cases, key=lambda c: c[1]),
                          sorted(cases, key=lambda c: -c[1])):
                for tup, m in order:
                    rt = rank_type(A, tup, m)
                    assert rt.key == reference_rank_type_key(A, tup, m)
                    fresh = Structure(A.vocab, A.size, A.relations, A.constant_interp)
                    assert rt.fingerprint == rank_type(fresh, tup, m).fingerprint

    def test_keys_match_reference_where_sibling_bases_are_shared(self):
        # at m = 4 the nodes of rank 2 and 3 each lay out a sibling base that
        # their children copy, some several levels below the constants
        rng = random.Random(44)
        for consts in ((), ("c",), ("c", "d")):
            vocab = Vocabulary.make({"U": 1, "E": 2, "T": 3}, consts)
            for size in (3, 4, 5):
                A = random_structure(rng, vocab, size, density=rng.choice([0.3, 0.6]))
                for length in (1, 2):
                    tup = tuple(rng.randrange(size) for _ in range(length))
                    assert rank_type(A, tup, 4).key == reference_rank_type_key(A, tup, 4)

    def test_keys_match_reference_at_ranks_five_and_six(self):
        # three and four levels of rank-3-and-up nodes above the inline leaf step
        rng = random.Random(45)
        for pred in ({"U": 1}, {"E": 2}, {"T": 3}):
            for consts in ((), ("c",), ("c", "d")):
                vocab = Vocabulary.make(pred, consts)
                for size, m in ((2, 5), (2, 6), (3, 5)):
                    A = random_structure(rng, vocab, size, density=rng.choice([0.3, 0.6]))
                    for tup in ((), (rng.randrange(size),)):
                        assert rank_type(A, tup, m).key == reference_rank_type_key(A, tup, m)

    def test_a_node_per_sorted_tuple_of_moves(self, monkeypatch):
        # L18 at rank 5: a column for each of the 7,315 sorted tuples of
        # fewer than 5 moves, and a sibling base for each of the 1,330 of
        # fewer than 4; a node per ordered tuple took 117,326 columns
        calls = []
        real = equiv._column

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(equiv, "_column", counting)
        type_id(make_linear_order(18), 5, TypeScope())
        assert len(calls) <= 8645

    def test_keys_match_reference_on_longer_orders_and_cycles(self):
        for n in (7, 8, 9):
            for A in (make_linear_order(n), make_cycle(n)):
                assert rank_type(A, (), 3).key == reference_rank_type_key(A, (), 3)

    def test_renaming_moves_packed_facts_with_their_points(self):
        # point p after is point perm[p] before: renaming the packed facts of
        # pts gives the packed facts of pts reordered, for every fact arity
        rng = random.Random(46)
        vocabs = [Vocabulary.make({"U": 1}), V, Vocabulary.make({"T": 3}),
                  Vocabulary.make({"U": 1, "E": 2, "T": 3}, ("c", "d"))]
        for _ in range(40):
            for vocab in vocabs:
                A = random_structure(rng, vocab, rng.randint(1, 4), density=rng.choice([0.3, 0.6]))
                W = rng.randint(1, 5)
                pts = tuple(rng.randrange(A.size) for _ in range(W))
                perm = tuple(rng.sample(range(W), W))
                tables = equiv._fact_tables(A)
                steps = equiv._layout(tables[0], W)[1]
                moved = equiv._Moved(tables[0], perm)[equiv._prefix(A, tables, steps, pts)]
                assert moved == equiv._prefix(A, tables, steps, tuple(pts[perm[p]] for p in range(W)))

    def test_keys_match_reference_with_loops_and_no_predicates(self):
        looped = Structure(V, 4, {"E": {(0, 0), (0, 1), (2, 2), (3, 1)}})
        bare = Structure(Vocabulary.make({}, ["c"]), 3, {}, {"c": 1})
        for A in (looped, bare):
            for m in range(4):
                for tup in ((), (1,), (2, 2)):
                    assert rank_type(A, tup, m).key == reference_rank_type_key(A, tup, m)


def _not_allowed(*_):
    raise AssertionError("work began before the rank-type guard")


class TestRankTypeGuard:
    def test_value_admits_L33_at_rank_4_and_refuses_C12_at_rank_6(self):
        # both over one binary predicate; W = 4 gives leaves of 22 bits,
        # W = 6 of 51
        check_rank_type_cost((2,), 33, 4)
        assert (33**4 + 1024) * 22 <= RANK_TYPE_GUARD < (12**6 + 1024) * 51
        with pytest.raises(GuardExceeded):
            check_rank_type_cost((2,), 12, 6)

    def test_admits_L40_against_L41_at_rank_4(self):
        # linear orders of sizes a, b are rank-m equivalent iff a == b or
        # both are at least 2^m - 1; L42 is past the guard
        a, b, m = 40, 41, 4
        assert m_equivalent(make_linear_order(a), make_linear_order(b), m) == (
            a == b or min(a, b) >= 2**m - 1)
        with pytest.raises(GuardExceeded):
            check_rank_type_cost((2,), 42, m)

    def test_refused_before_any_type(self, monkeypatch):
        two_ternary = Structure(Vocabulary.make({"T": 3}), 2, {"T": {(0, 0, 1), (0, 1, 1), (1, 0, 0)}})
        monkeypatch.setattr(equiv, "_fact_tables", _not_allowed)
        monkeypatch.setattr(equiv, "_layout", _not_allowed)
        monkeypatch.setattr(equiv, "_column", _not_allowed)
        monkeypatch.setattr(equiv, "_kept_column", _not_allowed)
        with pytest.raises(GuardExceeded) as info:
            rank_type(make_cycle(12), (), 7)
        assert str(info.value) == (
            "rank type of (12^7 + 1024) x 70 fact bits exceeds the rank-type guard 67108864"
        )
        # a leaf with no facts still costs a bit
        no_facts = Structure(Vocabulary.make({}), 10**8, {})
        for A, m in ((two_ternary, 20), (ONE_TERNARY, 41), (ONE_TERNARY, 120), (no_facts, 1)):
            with pytest.raises(GuardExceeded):
                rank_type(A, (), m)

    def test_huge_rank_costs_nothing_to_refuse(self):
        # a rank past the recursion limit is refused before any width is
        # computed, and a power is never multiplied out past the guard
        with pytest.raises(RecursionError):
            check_rank_type_cost((2,), 2, 10**9)
        with pytest.raises(GuardExceeded, match=r"\(18446744073709551616\^400 \+ 1024\) x "):
            check_rank_type_cost((), 2**64, 400)

    def test_shrinks_refuse_before_work(self, monkeypatch):
        monkeypatch.setattr(shrink, "TreeClasses", _not_allowed)
        monkeypatch.setattr(algebra, "push_complement_to_leaves", _not_allowed)
        monkeypatch.setattr(algebra, "tree_of_structures", _not_allowed)
        big = make_cycle(50)
        with pytest.raises(GuardExceeded, match=r"\(60\^4 \+ 1024\) x 26 fact bits exceeds"):
            shrink.shrink_tree(make_word("a" * 60), set(), 4, 0)
        with pytest.raises(GuardExceeded, match=r"\(100\^4 \+ 1024\) x 22 fact bits exceeds"):
            algebra.shrink_algebraic(
                algebra.node(algebra.UNION, algebra.leaf(big), algebra.leaf(big)), [], 4, 0)
        with pytest.raises(GuardExceeded, match=r"\(100\^4 \+ 1024\) x 38 fact bits exceeds"):
            algebra.shrink_word_of_structures([big, big], [], 4, 0)
        # a negative rank
        with pytest.raises(ValueError, match="must be nonnegative"):
            shrink.shrink_tree(make_word("ab"), set(), -1, 0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            algebra.shrink_algebraic(algebra.leaf(big), [], -1, 0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            algebra.shrink_word_of_structures([big], [], -1, 0)
        # the width alone, on one element, in each pipeline's own vocabulary:
        # the letters and the order predicate count
        with pytest.raises(GuardExceeded, match=r"\(1\^250 \+ 1024\) x "):
            shrink.shrink_tree(make_word("a"), set(), 250, 0)
        with pytest.raises(GuardExceeded, match=r"\(1\^41 \+ 1024\) x 69741 fact bits exceeds"):
            algebra.shrink_algebraic(algebra.leaf(ONE_TERNARY), [], 41, 0)
        with pytest.raises(GuardExceeded, match=r"\(1\^40 \+ 1024\) x 66380 fact bits exceeds"):
            algebra.shrink_word_of_structures([ONE_TERNARY], [], 40, 0)


ONE_TERNARY = Structure(Vocabulary.make({"T": 3}), 1, {"T": {(0, 0, 0)}})


class TestWidthEdge:
    """On one element ``|A|^m`` is 1, so the rank-type guard bounds the
    width of the facts alone, at about 2^16 bits."""

    def test_value_admits_rank_200_on_a_binary_vocabulary(self):
        # the widest type of the test suite and the benchmark mixes (``fmtk
        # equiv --m 200``, W = 200 with one binary predicate) and T/3 at
        # rank 40 are admitted; T/3 at rank 41 is not
        rank_type(Structure(V, 1, {"E": {(0, 0)}}), (), 200)
        rank_type(ONE_TERNARY, (), 40)
        with pytest.raises(GuardExceeded):
            check_rank_type_cost((3,), 1, 41)

    def test_refused_before_any_facts(self, monkeypatch):
        monkeypatch.setattr(equiv, "_fact_tables", _not_allowed)
        monkeypatch.setattr(equiv, "_layout", _not_allowed)
        monkeypatch.setattr(equiv, "_column", _not_allowed)
        monkeypatch.setattr(equiv, "_kept_column", _not_allowed)
        with pytest.raises(GuardExceeded) as info:
            rank_type(ONE_TERNARY, (), 41)
        assert str(info.value) == (
            "rank type of (1^41 + 1024) x 69741 fact bits exceeds the rank-type guard 67108864"
        )
        # constants and the tuple count towards the width
        A = Structure(Vocabulary.make({"T": 3}, ("c",)), 1, {}, {"c": 0})
        with pytest.raises(GuardExceeded, match=r"^rank type of \(1\^39 \+ 1024\) x 69741 fact bits"):
            rank_type(A, (0,), 39)


EP = Vocabulary.make({"E": 2, "P": 1})
EP_C = Vocabulary.make({"E": 2, "P": 1}, ("c",))


def _refusal(call):
    try:
        call()
    except (ValueError, RecursionError, GuardExceeded) as exc:
        return type(exc), str(exc)
    return None


class TestTypeIds:
    """``type_id`` in a shared scope against keys of built substructures."""

    def test_subset_ids_agree_with_built_keys(self):
        # ids equal iff keys equal, over every pair of (structure, kept set,
        # rank) typed in one scope; each id expands to the built key
        rng = random.Random(1818)
        for vocab in (EP, EP_C):
            scope = TypeScope()
            by_id: dict = {}
            by_key: dict = {}
            for _ in range(150):
                A = random_structure(rng, vocab, rng.randint(1, 5),
                                     density=rng.choice((0.2, 0.5, 0.8)))
                sets = list(kept_id_sets(A))
                for kept in rng.sample(sets, min(4, len(sets))) + [None]:
                    m = rng.randint(0, 3)
                    i = type_id(A, m, scope) if kept is None else subset_typer(A, m, scope)(kept)
                    built = A if kept is None else induced_substructure(A, kept)[0]
                    key = rank_type(built, (), m).key
                    assert scope.key(i) == key
                    assert by_id.setdefault(i, key) == key
                    assert by_key.setdefault(key, i) == i
            assert len(by_id) > 50  # the sweep meets many classes, not a few

    def test_subset_keys_match_the_reference(self):
        # each kept set comes in a shuffled order: the typer walks it in
        # ascending order, as a sorted tuple of moves must be typed before
        # the tuples that rename it
        rng = random.Random(1819)
        for _ in range(40):
            A = random_structure(rng, EP_C, rng.randint(1, 5), density=0.5)
            m = rng.randint(0, 3)
            scope = TypeScope()
            type_of = subset_typer(A, m, scope)
            for kept in kept_id_sets(A):
                sub = induced_substructure(A, kept)[0]
                shuffled = list(kept)
                rng.shuffle(shuffled)
                assert scope.key(type_of(shuffled)) == reference_rank_type_key(sub, (), m)

    def test_marked_keys_match_the_reference(self):
        # marked pairs beside a constant, over E/2 and T/3, typed in one
        # scope: the moves, and their renamings, start after the pair
        rng = random.Random(1822)
        vocab = Vocabulary.make({"E": 2, "T": 3}, ("c",))
        for m in (3, 4):
            items = []
            for _ in range(8):
                A = random_structure(rng, vocab, rng.randint(2, 4), density=rng.choice((0.3, 0.6)))
                items += [(A, (rng.randrange(A.size), rng.randrange(A.size))) for _ in range(2)]
            keys = [reference_rank_type_key(A, tup, m) for A, tup in items]
            partition = realized_classes(items, m)
            assert partition.class_count() == len(set(keys))
            for members, fingerprint in zip(partition.classes, partition.fingerprints):
                assert len({keys[i] for i in members}) == 1
                assert equiv.RankType(m, keys[members[0]]).fingerprint == fingerprint

    def test_subset_ids_agree_with_built_keys_on_a_ternary_vocabulary(self):
        # the facts of arity 3 are added to a column whole, never to a
        # sibling base
        rng = random.Random(1821)
        vocab = Vocabulary.make({"E": 2, "T": 3}, ("c",))
        scope = TypeScope()
        by_key: dict = {}
        for _ in range(30):
            A = random_structure(rng, vocab, rng.randint(1, 5), density=rng.choice((0.3, 0.6)))
            m = rng.randint(1, 3)
            type_of = subset_typer(A, m, scope)
            for kept in kept_id_sets(A):
                i = type_of(kept)
                key = rank_type(induced_substructure(A, kept)[0], (), m).key
                assert scope.key(i) == key
                assert by_key.setdefault(key, i) == i

    def test_refuses_what_rank_type_refuses_in_the_same_order(self, monkeypatch):
        monkeypatch.setattr(equiv, "_fact_tables", _not_allowed)
        monkeypatch.setattr(equiv, "_layout", _not_allowed)
        monkeypatch.setattr(equiv, "_column", _not_allowed)
        monkeypatch.setattr(equiv, "_kept_column", _not_allowed)
        cases = [
            (make_cycle(3), -1),  # a negative rank
            (make_cycle(12), 7),  # the rank-type guard, on the leaves
            (make_cycle(12), 41),  # on the leaves and the width
            (ONE_TERNARY, 41),  # on the width alone
            (ONE_TERNARY, 10**6),  # past the recursion limit, before the guard
        ]
        for A, m in cases:
            want = _refusal(lambda: rank_type(A, (), m))
            assert want is not None
            assert _refusal(lambda: type_id(A, m, TypeScope())) == want
            assert _refusal(lambda: subset_typer(A, m, TypeScope())) == want

    def test_kept_sets_and_vocabularies_are_checked(self):
        A = Structure(EP_C, 3, {"E": {(0, 1)}}, {"c": 2})
        with pytest.raises(ValueError, match="must hold the constants"):
            subset_typer(A, 1, TypeScope())((0, 1))
        with pytest.raises(ValueError, match="nonempty set of elements"):
            subset_typer(A, 1, TypeScope())((2, 3))
        scope = TypeScope()
        type_id(make_path(2), 1, scope)
        with pytest.raises(ValueError, match="one vocabulary"):
            type_id(A, 1, scope)


class TestMEquivalent:
    def test_linear_orders(self):
        assert m_equivalent(make_linear_order(5), make_linear_order(8), 2)

    def test_paths_rank_one(self):
        assert m_equivalent(make_path(3), make_path(5), 1)

    def test_short_paths_distinguishable_at_rank_two(self):
        assert not m_equivalent(make_path(1), make_path(2), 2)
        assert not ef_game_equivalent(make_path(1), make_path(2), 2)

    def test_vocabulary_mismatch(self):
        with pytest.raises(ValueError):
            m_equivalent(make_path(1), make_linear_order(2), 1)

    def test_ten_marks_against_parsed_copy(self):
        A = MarkedStructure(make_cycle(12), tuple(range(10))).expand()
        B = parse_structures(serialize_structure("A", A))["A"]
        assert m_equivalent(A, B, 1)

    def test_monotone_in_rank(self):
        rng = random.Random(32)
        for _ in range(40):
            A = random_structure(rng, V, rng.randint(1, 4))
            B = random_structure(rng, V, rng.randint(1, 4))
            for m in range(3):
                if m_equivalent(A, B, m + 1):
                    assert m_equivalent(A, B, m)


def _pinned_pairs(rng, count):
    """``count`` each of permuted copies, copies with one tuple toggled and
    fresh pairs, on 3-6 elements over U/1, E/2, T/3 with the constants c and
    d on one element. E and T are empty, sparse or nearly full, so many
    elements share a profile and the game has many answers to try."""
    vocab = Vocabulary.make({"U": 1, "E": 2, "T": 3}, ("c", "d"))

    def pinned(size, density):
        relations = {name: frozenset(t for t in itertools.product(range(size), repeat=arity)
                                     if rng.random() < density[name])
                     for name, arity in vocab.predicates}
        e = rng.randrange(size)
        return Structure(vocab, size, relations, {"c": e, "d": e})

    for kind in ("copy", "flip", "fresh") * count:
        density = {"U": 0.5, "E": rng.choice((0, 0.1, 0.9, 1)), "T": rng.choice((0, 0.02, 1))}
        A = pinned(rng.randint(3, 6), density)
        B = permuted_copy(rng, A)
        if kind == "flip":
            name, arity = rng.choice(vocab.predicates)
            t = tuple(rng.randrange(B.size) for _ in range(arity))
            B = Structure(vocab, B.size, {**B.relations, name: B.relations[name] ^ {t}}, B.constant_interp)
        elif kind == "fresh":
            B = pinned(rng.randint(3, 6), density)
        yield A, B


class TestEfGame:
    def test_reflexive(self):
        rng = random.Random(33)
        for _ in range(10):
            A = random_structure(rng, V, rng.randint(1, 4))
            assert ef_game_equivalent(A, A, 2)

    def test_cycles(self):
        assert ef_game_equivalent(make_cycle(4), make_cycle(5), 2)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            ef_game_equivalent(make_cycle(3), make_cycle(3), -1)

    def test_exhaustive_agreement_small(self):
        reps = iso_representatives(all_structures(V, (1, 2)))
        for A in reps:
            for B in reps:
                for m in (0, 1, 2, 3):
                    assert m_equivalent(A, B, m) == ef_game_equivalent(A, B, m)

    def test_matches_pairwise_reference_game(self):
        # unary, binary and ternary predicates, with up to two constants; B is
        # a permuted copy of A (the game runs in full), that copy with one
        # tuple toggled, or a fresh structure
        rng = random.Random(43)
        preds = [{"U": 1}, {"E": 2}, {"T": 3}, {"U": 1, "E": 2, "T": 3}]
        for pred in preds:
            for consts in ((), ("c",), ("c", "d")):
                vocab = Vocabulary.make(pred, consts)
                for kind in ("copy", "flip", "fresh") * 4:
                    A = random_structure(rng, vocab, rng.randint(1, 4), density=rng.choice([0.3, 0.6]))
                    B = permuted_copy(rng, A)
                    if kind == "flip":
                        name, arity = rng.choice(vocab.predicates)
                        t = tuple(rng.randrange(B.size) for _ in range(arity))
                        B = Structure(vocab, B.size, {**B.relations, name: B.relations[name] ^ {t}},
                                      B.constant_interp)
                    elif kind == "fresh":
                        B = random_structure(rng, vocab, rng.randint(1, 4), density=rng.choice([0.3, 0.6]))
                    for m in (0, 1, 2):
                        assert ef_game_equivalent(A, B, m) == reference_ef_game_equivalent(A, B, m)

    def test_matches_reference_game_at_rank_3(self):
        # three rounds on 3-6 elements, where different orders of the same
        # moves reach one position, and c, d on one element repeat a pair
        rng = random.Random(44)
        for A, B in _pinned_pairs(rng, 8):
            assert ef_game_equivalent(A, B, 3) == reference_ef_game_equivalent(A, B, 3)

    def test_game_calls_no_rank_type_code(self, monkeypatch):
        # the checking route may not depend on the route it checks
        def refuse(*_):
            raise RuntimeError("the game search reached the rank-type code")

        for name in ("rank_type", "_recursion", "_column", "TypeScope", "_bit_map", "_Moved", "_Renaming",
                     "_insertion"):
            monkeypatch.setattr(equiv, name, refuse)
        rng = random.Random(45)
        pairs = list(_pinned_pairs(rng, 3))
        with pytest.raises(RuntimeError, match="rank-type code"):
            m_equivalent(*pairs[0], 1)
        for A, B in pairs:
            for m in (0, 1, 2, 3):
                assert ef_game_equivalent(A, B, m) == reference_ef_game_equivalent(A, B, m)

    def test_routes_agree_at_the_order_threshold(self):
        # linear orders of sizes a, b are rank-3 equivalent iff a == b or
        # both are at least 2**3 - 1
        for a, b, want in ((6, 7, False), (7, 8, True)):
            A, B = make_linear_order(a), make_linear_order(b)
            assert m_equivalent(A, B, 3) == ef_game_equivalent(A, B, 3) == want

    def test_rounds_left_are_part_of_a_position(self):
        # a repeated move reaches a set of pairs again with fewer rounds
        # left; at rank 4 that answer must not stand for the same set with
        # more rounds left (orders and cycles of 10 and 11 differ at rank 4)
        for make in (make_linear_order, make_cycle):
            A, B = make(10), make(11)
            assert ef_game_equivalent(A, B, 4) is m_equivalent(A, B, 4) is False

    def test_with_constants(self):
        VC = Vocabulary.make({"E": 2}, ["c1"])
        rng = random.Random(34)
        for _ in range(30):
            A = random_structure(rng, VC, rng.randint(1, 3))
            B = random_structure(rng, VC, rng.randint(1, 3))
            for m in (0, 1, 2):
                assert m_equivalent(A, B, m) == ef_game_equivalent(A, B, m)


class TestRealizedClasses:
    def test_singleton(self):
        part = realized_classes([(make_cycle(3), ())], 2)
        assert part.classes == [[0]]

    def test_large_cycles_collapse(self):
        items = [(make_cycle(n), ()) for n in (4, 5, 6)]
        part = realized_classes(items, 2)
        assert part.classes == [[0, 1, 2]]

    def test_short_paths_split(self):
        part = realized_classes([(make_path(1), ()), (make_path(2), ())], 2)
        assert part.class_count() == 2

    def test_marked_items(self):
        c = make_cycle(5)
        part = realized_classes([(c, (0,)), (c, (2,))], 1)
        assert part.class_count() == 1  # vertex-transitive

    def test_vocabularies_must_match(self):
        # keys carry no predicate names, so E/2 and F/2 copies would share one
        A = Structure(Vocabulary.make({"E": 2}), 3, {"E": [(0, 1)]})
        B = Structure(Vocabulary.make({"F": 2}), 3, {"F": [(0, 1)]})
        with pytest.raises(ValueError, match="identical vocabularies"):
            realized_classes([(A, ()), (B, ())], 2)


def _equivalent_pairs(rng, m):
    """Provably equivalent non-isomorphic pairs from the threshold families."""
    kind = rng.choice(("order", "path", "cycle", "iso"))
    if kind == "order":
        base = 2**m
        a, b = base + rng.randint(0, 2), base + rng.randint(0, 2)
        return make_linear_order(a), make_linear_order(b)
    if kind == "path":
        base = 3**m
        return make_path(base + rng.randint(0, 2)), make_path(base + rng.randint(0, 2))
    if kind == "cycle":
        base = max(3, 2**m)
        return make_cycle(base + rng.randint(0, 2)), make_cycle(base + rng.randint(0, 2))
    A = random_structure(rng, V, rng.randint(1, 4))
    return A, permuted_copy(rng, A)


class TestCongruence:
    def test_operations_preserve_equivalence(self):
        rng = random.Random(35)
        for _ in range(40):
            m = rng.randint(0, 2)
            A1, B1 = _equivalent_pairs(rng, m)
            A2, B2 = _equivalent_pairs(rng, m)
            if A1.vocab != A2.vocab:
                continue
            assert m_equivalent(A1, B1, m) and m_equivalent(A2, B2, m)
            assert m_equivalent(complement(A1), complement(B1), m)
            for op in (disjoint_union, cartesian_product, tensor_product, bowtie):
                assert m_equivalent(op(A1, A2), op(B1, B2), m)


def _marked_tree_pairs(rng, m, count, sigma=("a", "b")):
    """Marked-equivalent tree pairs, discovered by classing a random pool."""
    pool = []
    for _ in range(count):
        t = random_tree(rng, rng.randint(1, 6), sigma)
        pool.append((t, rng.choice(t.nodes)))
    encoded = []
    for t, mark in pool:
        padded = SigmaTree(t.parent, t.label, sigma)
        S, renum = to_structure(padded)
        encoded.append((S, (renum[mark],)))
    part = realized_classes(encoded, m)
    pairs = []
    for group in part.classes:
        for i, j in zip(group, group[1:]):
            pairs.append((pool[i], pool[j]))
    return pairs


class TestTreeComposition:
    def test_joining_equivalent_pieces_preserves_marked_equivalence(self):
        rng = random.Random(36)
        checked = 0
        for m in (1, 2):
            hosts = _marked_tree_pairs(rng, m, 40)
            grafts = _marked_tree_pairs(rng, m, 40)
            for ((s1, a1), (s2, a2)), ((f1, b1), (f2, b2)) in zip(hosts, grafts):
                r1 = join_at(s1, a1, f1)
                r2 = join_at(s2, a2, f2)
                graft1 = sorted(set(r1.nodes) - set(s1.nodes))
                graft2 = sorted(set(r2.nodes) - set(s2.nodes))
                marks1 = (a1, graft1[sorted(f1.nodes).index(b1)])
                marks2 = (a2, graft2[sorted(f2.nodes).index(b2)])
                assert trees_equivalent(r1, r2, m, marks1, marks2)
                checked += 1
        assert checked >= 10

    def test_unmarked_graft_preserves_host_mark(self):
        rng = random.Random(37)
        checked = 0
        for m in (1, 2):
            hosts = _marked_tree_pairs(rng, m, 30)
            for (s1, a1), (s2, a2) in hosts:
                f1 = random_tree(rng, rng.randint(1, 5), ("a", "b"))
                f2 = random_tree(rng, rng.randint(1, 5), ("a", "b"))
                if not trees_equivalent(f1, f2, m):
                    continue
                r1 = join_at(s1, a1, f1)
                r2 = join_at(s2, a2, f2)
                assert trees_equivalent(r1, r2, m, (a1,), (a2,))
                checked += 1
        assert checked >= 5


class TestVerdictsCompareIds:
    def test_no_verdict_expands_a_key(self, monkeypatch):
        # within one scope equal ids are equal keys, so a verdict compares ids
        def refuse(*_):
            raise AssertionError("a verdict expanded a rank-type key")

        monkeypatch.setattr(equiv.TypeScope, "key", refuse)
        p = make_path(4)
        assert m_equivalent(make_cycle(4), make_cycle(5), 2)
        assert not m_equivalent(make_path(1), make_path(2), 2)
        assert marked_equivalent(p, (0,), p, (4,), 2)
        assert not marked_equivalent(p, (0,), p, (2,), 2)
        assert trees_equivalent(make_word("a" * 8), make_word("a" * 9), 2)
        assert not trees_equivalent(make_word("ab"), make_word("ab"), 2, (1,), (2,))
        assert shrink.shrink_tree(make_word("ab" * 8), set(), 2, 0)[1].ok()
        vertex, loop = Structure(V, 1), Structure(V, 1, {"E": {(0, 0)}})
        assert algebra.shrink_word_of_structures([vertex, loop] * 4, [1], 1, 1)[1].ok()
        t = algebra.node(algebra.UNION, algebra.leaf(vertex),
                         algebra.node(algebra.COMPLEMENT, algebra.leaf(loop)))
        assert algebra.shrink_algebraic(t, [], 1, 0)[1].ok()


class TestNoCycles:
    def test_no_typing_leaves_garbage(self):
        # the recursion, the renaming memos, the embedding search, the game
        # search, the formula compiler and the expression walkers free what
        # they built when they return, with no cyclic-collector pass
        p2 = make_path(2)
        calls = [
            lambda: m_equivalent(make_linear_order(6), make_linear_order(7), 3),
            lambda: subset_typer(make_cycle(6), 3, TypeScope())(range(5)),
            lambda: find_embedding(make_path(3), make_path(5)),
            lambda: minimal_models([make_path(3), make_path(1), make_path(2), make_cycle(4)]),
            lambda: shrink.shrink_tree(make_word("ab" * 8), {3}, 2, 1),
            lambda: folog.evaluate(make_cycle(4), folog.parse(V, "forall x. exists y. (E(x, y) & !(x = y))")),
            lambda: ef_game_equivalent(make_cycle(6), make_cycle(7), 2),
            lambda: algebra.shrink_algebraic(
                algebra.parse_expression("(u A (! A))", {"A": p2}), [], 1, 0),
            lambda: folog.relativize(folog.parse(V, "forall x. exists y. E(x, y)"), ("a", "b")),
        ]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestMarkedEquivalence:
    def test_marked_refines_plain(self):
        p = make_path(4)
        assert marked_equivalent(p, (0,), p, (4,), 2)  # symmetric ends
        # rank 1 cannot count neighbors, rank 2 separates end from middle
        assert marked_equivalent(p, (0,), p, (2,), 1)
        assert not marked_equivalent(p, (0,), p, (2,), 2)

    def test_marked_types_match_game_on_constant_expansions(self):
        # tuple positions reduce to sentences once the marks become constants
        from fmtk.structures import MarkedStructure

        def check(A, B):
            ta = tuple(rng.randrange(A.size) for _ in range(rng.randint(1, 2)))
            tb = tuple(rng.randrange(B.size) for _ in range(len(ta)))
            m = rng.randint(0, 2)
            expanded = ef_game_equivalent(
                MarkedStructure(A, ta).expand(), MarkedStructure(B, tb).expand(), m
            )
            assert marked_equivalent(A, ta, B, tb, m) == expanded
            return expanded

        rng = random.Random(38)
        for _ in range(60):
            check(random_structure(rng, V, rng.randint(1, 4)), random_structure(rng, V, rng.randint(1, 4)))
        # with the constants c, d of their own, typed before the marks
        verdicts = [check(A, B) for A, B in _pinned_pairs(rng, 8)]
        assert True in verdicts and False in verdicts


def _count_typings(monkeypatch) -> list:
    """Record the ``(structure, tuple)`` of every typing ``equiv`` makes."""
    calls = []
    real = equiv._type_of

    def counting(A, tup, m, scope):
        calls.append((A, tup))
        return real(A, tup, m, scope)

    monkeypatch.setattr(equiv, "_type_of", counting)
    return calls


class TestReflexiveVerdicts:
    """Equivalence is reflexive, so equal inputs are decided by equality,
    after what typing them would refuse, in the same order."""

    def test_equal_inputs_are_not_typed(self, monkeypatch):
        calls = _count_typings(monkeypatch)
        rng = random.Random(3601)
        for _ in range(30):
            A = random_structure(rng, EP_C, rng.randint(1, 5))
            copy = Structure(A.vocab, A.size, A.relations, A.constant_interp)  # equal, not A
            ta = tuple(rng.randrange(A.size) for _ in range(rng.randint(0, 2)))
            assert m_equivalent(A, A, 3) and m_equivalent(A, copy, 2)
            assert marked_equivalent(A, ta, copy, list(ta), 2)
        assert calls == []

    def test_unequal_equivalent_inputs_are_typed_on_both_sides(self, monkeypatch):
        calls = _count_typings(monkeypatch)
        p, c4, c5 = make_path(4), make_cycle(4), make_cycle(5)
        assert m_equivalent(c4, c5, 2)
        assert marked_equivalent(p, (0,), p, (4,), 2)  # one structure, unequal tuples
        rng = random.Random(3602)
        A = random_structure(rng, EP, 5)
        B = permuted_copy(rng, A)
        assert B != A and m_equivalent(A, B, 2)
        assert calls == [(c4, ()), (c5, ()), (p, (0,)), (p, (4,)), (A, ()), (B, ())]

    def test_equal_inputs_refused_as_typing_refuses(self):
        A = Structure(EP_C, 3, {"E": {(0, 1)}}, {"c": 2})
        cases = [
            (make_cycle(3), (), -1),  # a negative rank
            (make_cycle(12), (), 7),  # the rank-type guard
            (ONE_TERNARY, (), 41),  # the guard on the width alone
            (ONE_TERNARY, (), 10**6),  # past the recursion limit, before the guard
            (A, (0, 3), 1),  # a tuple component outside the universe
            (A, (5,), -1),  # the tuple before the rank
            (A, (0,), 20),  # the guard, with a constant and a tuple
        ]
        for B, tup, m in cases:
            want = _refusal(lambda: rank_type(B, tup, m))
            assert want is not None
            copy = Structure(B.vocab, B.size, B.relations, B.constant_interp)
            assert _refusal(lambda: marked_equivalent(B, tup, copy, tup, m)) == want
            assert _refusal(lambda: marked_equivalent(B, tup, B, tup, m)) == want
        with pytest.raises(ValueError, match="must be nonnegative"):
            marked_equivalent(A, (), A, (), -1)
        with pytest.raises(ValueError, match="equal length"):
            marked_equivalent(A, (0,), A, (0, 0), 1)


class TestFactTables:
    def test_loops_match_a_scan_of_every_tuple(self):
        # loops are found by probing each element, sparse relations and
        # encoded trees' orders alike; a scan of every tuple must agree
        rng = random.Random(3603)
        vocab = Vocabulary.make({"E": 2, "F": 2, "P": 1})
        sparse = dense = 0
        for trial in range(200):
            if trial % 4 == 0:
                A, _ = to_structure(random_tree(rng, rng.randint(1, 9), ("a", "b")))
            else:
                A = random_structure(rng, vocab, rng.randint(1, 7), density=rng.choice((0.05, 0.3, 0.9)))
            binary = [name for name, arity in A.vocab.predicates if arity == 2]
            for name, (rel, loops, _) in zip(binary, equiv._fact_tables(A)[2]):
                assert rel is A.relations[name]
                assert sorted(loops) == sorted(a for a, b in rel if a == b)
                if len(rel) > A.size:
                    dense += 1
                else:
                    sparse += 1
        assert dense > 50 and sparse > 50

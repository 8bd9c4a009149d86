import random

import pytest

from fmtk import algebra, equiv, shrink
from fmtk.equiv import (
    FACT_WIDTH_GUARD,
    RANK_TYPE_GUARD,
    check_rank_type_cost,
    class_fingerprint,
    ef_game_equivalent,
    m_equivalent,
    marked_equivalent,
    rank_type,
    realized_classes,
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
    parse_structures,
    serialize_structure,
    tensor_product,
)
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
        # descending m and the repeat pass read entries cached by earlier calls
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
        # one structure serves every call, so later calls read ids interned by
        # earlier ones; a fresh copy computes each type from nothing
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
        assert 33**4 <= RANK_TYPE_GUARD < 12**6
        check_rank_type_cost(33, 4)
        with pytest.raises(GuardExceeded):
            check_rank_type_cost(12, 6)

    def test_refused_before_any_type(self, monkeypatch):
        monkeypatch.setattr(equiv, "_fact_tables", _not_allowed)
        monkeypatch.setattr(equiv, "_layout", _not_allowed)
        monkeypatch.setattr(equiv, "_columns", _not_allowed)
        with pytest.raises(GuardExceeded) as info:
            rank_type(make_cycle(12), (), 7)
        assert str(info.value) == (
            "rank type of cost |A|^m = 12^7 exceeds the rank-type guard 2000000"
        )

    def test_huge_rank_costs_nothing_to_refuse(self):
        # the power is never multiplied out past the guard
        with pytest.raises(GuardExceeded, match=r"2\^1000000000 exceeds"):
            check_rank_type_cost(2, 10**9)
        check_rank_type_cost(1, 10**9)

    def test_shrinks_refuse_before_work(self, monkeypatch):
        monkeypatch.setattr(shrink, "TreeClasses", _not_allowed)
        monkeypatch.setattr(algebra, "push_complement_to_leaves", _not_allowed)
        monkeypatch.setattr(algebra, "tree_of_structures", _not_allowed)
        big = make_cycle(50)
        with pytest.raises(GuardExceeded, match=r"60\^4 exceeds"):
            shrink.shrink_tree(make_word("a" * 60), set(), 4, 0)
        with pytest.raises(GuardExceeded, match=r"100\^4 exceeds"):
            algebra.shrink_algebraic(
                algebra.node(algebra.UNION, algebra.leaf(big), algebra.leaf(big)), [], 4, 0)
        with pytest.raises(GuardExceeded, match=r"100\^4 exceeds"):
            algebra.shrink_word_of_structures([big, big], [], 4, 0)


ONE_TERNARY = Structure(Vocabulary.make({"T": 3}), 1, {"T": {(0, 0, 0)}})


class TestFactWidthGuard:
    def test_value_admits_rank_200_on_a_binary_vocabulary(self):
        # the widest type of the test suite and the benchmark mixes (``fmtk
        # equiv --m 200``, W = 200 with one binary predicate) and the width
        # of T/3 at rank 40 are admitted; T/3 at rank 41 is not
        assert 200 * 199 // 2 + 200**2 <= FACT_WIDTH_GUARD
        rank_type(ONE_TERNARY, (), 40)
        assert 41 * 40 // 2 + 41**3 > FACT_WIDTH_GUARD

    def test_refused_before_any_facts(self, monkeypatch):
        monkeypatch.setattr(equiv, "_layout", _not_allowed)
        monkeypatch.setattr(equiv, "_columns", _not_allowed)
        with pytest.raises(GuardExceeded) as info:
            rank_type(ONE_TERNARY, (), 41)
        assert str(info.value) == "packed fact width 69741 exceeds the fact-width guard 65536"
        # constants and the tuple count towards the width
        A = Structure(Vocabulary.make({"T": 3}, ("c",)), 1, {}, {"c": 0})
        with pytest.raises(GuardExceeded, match="^packed fact width 69741 exceeds"):
            rank_type(A, (0,), 39)


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
                for m in (0, 1, 2):
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

        rng = random.Random(38)
        for _ in range(60):
            A = random_structure(rng, V, rng.randint(1, 4))
            B = random_structure(rng, V, rng.randint(1, 4))
            ta = tuple(rng.randrange(A.size) for _ in range(rng.randint(1, 2)))
            tb = tuple(rng.randrange(B.size) for _ in range(len(ta)))
            m = rng.randint(0, 2)
            expanded = ef_game_equivalent(
                MarkedStructure(A, ta).expand(), MarkedStructure(B, tb).expand(), m
            )
            assert marked_equivalent(A, ta, B, tb, m) == expanded

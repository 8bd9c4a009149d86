import itertools
import random

import pytest

from fmtk.errors import StructureFormatError
from fmtk.structures import (
    MarkedStructure,
    Structure,
    Vocabulary,
    bowtie,
    cartesian_product,
    check_embedding_witness,
    complement,
    disjoint_union,
    find_embedding,
    induced_substructure,
    is_isomorphic,
    parse_structures,
    serialize_structure,
    serialize_structures,
    tensor_product,
    tree_of_structures,
    word_of_structures,
)
from fmtk.wqo import make_cycle, make_linear_order, make_path

from oracles import (
    brute_force_embedding,
    permuted_copy,
    random_structure,
    reference_cartesian_product,
)

V = Vocabulary.make({"E": 2})


def digraph(n, edges):
    return Structure(V, n, {"E": frozenset(edges)})


class TestVocabulary:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary((("E", 2), ("E", 1)))
        with pytest.raises(ValueError):
            Vocabulary((("E", 2),), ("E",))

    def test_nonpositive_arity_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.make({"E": 0})

    def test_fresh_name(self):
        v = Vocabulary.make({"R": 1})
        assert v.fresh_name("R") == "R_"

    def test_symbols_stored_sorted(self):
        v = Vocabulary((("Q", 1), ("E", 2)), ("c2", "c10", "c1"))
        assert v.predicates == (("E", 2), ("Q", 1))
        assert v.constants == ("c1", "c10", "c2")
        assert v == Vocabulary.make({"E": 2, "Q": 1}, ["c1", "c2", "c10"])
        assert v.with_predicate("A", 1).predicates[0] == ("A", 1)


class TestStructureBasics:
    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            Structure(V, 0)

    def test_out_of_range_tuple_rejected(self):
        with pytest.raises(ValueError):
            digraph(2, [(0, 2)])

    def test_missing_constant_rejected(self):
        vc = Vocabulary.make({"E": 2}, ["c"])
        with pytest.raises(ValueError):
            Structure(vc, 2, {"E": set()})

    def test_content_equality(self):
        assert digraph(2, [(0, 1)]) == digraph(2, [(0, 1)])
        assert hash(digraph(2, [(0, 1)])) == hash(digraph(2, [(0, 1)]))
        assert digraph(2, [(0, 1)]) != digraph(2, [(1, 0)])

    def test_equality_ignores_insertion_order_and_sees_one_tuple(self):
        rng = random.Random(16)
        vocab = Vocabulary.make({"E": 2, "Q": 1}, ["c1", "c2"])
        for _ in range(20):
            A = random_structure(rng, vocab, rng.randint(1, 5))
            rels = list(A.relations.items())
            rng.shuffle(rels)
            shuffled = {}
            for name, tuples in rels:
                tuples = list(tuples)
                rng.shuffle(tuples)
                shuffled[name] = tuples
            consts = dict(reversed(list(A.constant_interp.items())))
            B = Structure(vocab, A.size, shuffled, consts)
            assert A == B and hash(A) == hash(B)
            for name, arity in vocab.predicates:
                t = tuple(rng.randrange(A.size) for _ in range(arity))
                flipped = dict(A.relations)
                flipped[name] = A.relations[name] ^ {t}
                assert A != Structure(vocab, A.size, flipped, A.constant_interp)
            if A.size > 1:
                moved = dict(A.constant_interp)
                moved["c1"] = (moved["c1"] + 1) % A.size
                assert A != Structure(vocab, A.size, A.relations, moved)


class TestInducedSubstructure:
    def test_single_vertex_from_edge(self):
        A = digraph(2, [(0, 1)])
        B, renum = induced_substructure(A, {0})
        assert B.size == 1 and not B.relations["E"]
        assert renum == {0: 0}

    def test_three_subsets_of_four_cycle_are_paths(self):
        c4 = make_cycle(4)
        p2 = make_path(2)
        for subset in itertools.combinations(range(4), 3):
            B, _ = induced_substructure(c4, subset)
            assert is_isomorphic(B, p2)

    def test_loop_vertex_from_witness_example(self):
        A = digraph(2, [(0, 0), (0, 1), (1, 1)])
        B, _ = induced_substructure(A, {1})
        assert B.size == 1 and (0, 0) in B.relations["E"]

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            induced_substructure(digraph(1, []), set())

    def test_subset_must_keep_constants(self):
        A = MarkedStructure(digraph(2, [(0, 1)]), (1,)).expand()
        with pytest.raises(ValueError):
            induced_substructure(A, {0})


class TestFindEmbedding:
    def test_path_into_longer_path(self):
        found = find_embedding(make_path(2), make_path(3))
        assert found is not None
        assert check_embedding_witness(make_path(2), make_path(3), found)

    def test_triangle_not_into_square(self):
        assert find_embedding(make_cycle(3), make_cycle(4)) is None

    def test_endpoint_marked_paths_are_incomparable(self):
        def marked_path(n):
            return MarkedStructure(make_path(n), (0, n)).expand()

        for i, j in itertools.permutations(range(2, 6), 2):
            assert find_embedding(marked_path(i), marked_path(j)) is None

    def test_vocabulary_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_embedding(make_path(1), make_linear_order(2))

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(42)
        for _ in range(150):
            A = random_structure(rng, V, rng.randint(1, 4), rng.choice([0.2, 0.5, 0.8]))
            B = random_structure(rng, V, rng.randint(1, 4), rng.choice([0.2, 0.5, 0.8]))
            got = find_embedding(A, B)
            expected = brute_force_embedding(A, B)
            assert (got is None) == (expected is None)
            if got is not None:
                assert check_embedding_witness(A, B, got)

    def test_constants_respected(self):
        rng = random.Random(9)
        vc = Vocabulary.make({"E": 2}, ["c1"])
        for _ in range(60):
            A = random_structure(rng, vc, rng.randint(1, 3))
            B = random_structure(rng, vc, rng.randint(1, 4))
            got = find_embedding(A, B)
            expected = brute_force_embedding(A, B)
            assert (got is None) == (expected is None)


class TestIsIsomorphic:
    def test_reflexive(self):
        rng = random.Random(1)
        for _ in range(20):
            A = random_structure(rng, V, rng.randint(1, 4))
            assert is_isomorphic(A, A)
            assert is_isomorphic(A, permuted_copy(rng, A))

    def test_different_paths(self):
        assert not is_isomorphic(make_path(2), make_path(3))

    def test_double_complement(self):
        c4 = make_cycle(4)
        assert is_isomorphic(c4, complement(complement(c4)))


class TestDisjointUnion:
    def test_sizes(self):
        A = random_structure(random.Random(0), V, 2)
        B = random_structure(random.Random(1), V, 3)
        assert disjoint_union(A, B).size == 5

    def test_no_cross_tuples(self):
        A = digraph(2, [(0, 1)])
        B = digraph(1, [])
        out = disjoint_union(A, B)
        assert (0, 2) not in out.relations["E"]
        assert (2, 0) not in out.relations["E"]
        assert (0, 1) in out.relations["E"]

    def test_commutative_up_to_isomorphism(self):
        rng = random.Random(5)
        for _ in range(20):
            A = random_structure(rng, V, rng.randint(1, 3))
            B = random_structure(rng, V, rng.randint(1, 3))
            assert is_isomorphic(disjoint_union(A, B), disjoint_union(B, A))

    def test_constants_rejected(self):
        A = MarkedStructure(digraph(1, []), (0,)).expand()
        with pytest.raises(ValueError):
            disjoint_union(A, A)


class TestComplement:
    def test_involution(self):
        rng = random.Random(7)
        for _ in range(25):
            A = random_structure(rng, V, rng.randint(1, 4))
            assert complement(complement(A)) == A

    def test_single_vertex_gains_loop(self):
        assert complement(digraph(1, [])).relations["E"] == frozenset({(0, 0)})

    def test_edgeless_two_vertices(self):
        out = complement(digraph(2, []))
        assert out.relations["E"] == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})


class TestProducts:
    def test_cartesian_size(self):
        A = random_structure(random.Random(2), V, 2)
        B = random_structure(random.Random(3), V, 3)
        assert cartesian_product(A, B).size == 6

    def test_cartesian_edge_rule(self):
        # fixing the first coordinate reproduces B's edges
        A = digraph(2, [])
        B = digraph(3, [(0, 1), (2, 2)])
        out = cartesian_product(A, B)
        for a in range(2):
            for b1 in range(3):
                for b2 in range(3):
                    lhs = (a * 3 + b1, a * 3 + b2) in out.relations["E"]
                    assert lhs == ((b1, b2) in B.relations["E"])

    def test_cartesian_unit(self):
        B = random_structure(random.Random(4), V, 3)
        K1 = digraph(1, [])  # a loop would add the diagonal to every product
        assert is_isomorphic(cartesian_product(K1, B), B)

    def test_tensor_size_and_edge_rule(self):
        A = make_linear_order(3)
        B = make_linear_order(4)
        grid = tensor_product(A, B)
        assert grid.size == 12
        for (a1, b1), (a2, b2) in itertools.product(
            itertools.product(range(3), range(4)), repeat=2
        ):
            expected = a1 <= a2 and b1 <= b2
            assert ((a1 * 4 + b1, a2 * 4 + b2) in grid.relations["le"]) == expected

    def test_tensor_with_edgeless_is_edgeless(self):
        A = random_structure(random.Random(6), V, 3)
        B = digraph(2, [])
        assert not tensor_product(A, B).relations["E"]

    def test_cartesian_matches_reference(self):
        rng = random.Random(9)
        for _ in range(200):
            arity = rng.randint(1, 3)
            vocab = Vocabulary.make({"R": arity, "S": 1})
            A = random_structure(rng, vocab, rng.randint(1, 4), rng.random())
            B = random_structure(rng, vocab, rng.randint(1, 4), rng.random())
            assert cartesian_product(A, B) == reference_cartesian_product(A, B)

    def test_products_commutative_up_to_isomorphism(self):
        rng = random.Random(8)
        for op in (cartesian_product, tensor_product):
            for _ in range(12):
                A = random_structure(rng, V, rng.randint(1, 3))
                B = random_structure(rng, V, rng.randint(1, 3))
                assert is_isomorphic(op(A, B), op(B, A))


class TestBowtie:
    def test_two_plain_vertices(self):
        out = bowtie(digraph(1, []), digraph(1, []))
        assert out.size == 2
        assert out.relations["E"] == frozenset({(0, 1), (1, 0)})

    def test_size(self):
        A = random_structure(random.Random(11), V, 3)
        B = random_structure(random.Random(12), V, 2)
        assert bowtie(A, B).size == 5

    def test_both_operands_embed(self):
        rng = random.Random(13)
        for op in (disjoint_union, bowtie):
            for _ in range(15):
                A = random_structure(rng, V, rng.randint(1, 3))
                B = random_structure(rng, V, rng.randint(1, 3))
                out = op(A, B)
                assert find_embedding(A, out) is not None
                assert find_embedding(B, out) is not None


class TestMonotonicity:
    def test_operations_preserve_induced_containment(self):
        rng = random.Random(14)
        for _ in range(20):
            B1 = random_structure(rng, V, rng.randint(2, 4))
            B2 = random_structure(rng, V, rng.randint(2, 4))
            A1, _ = induced_substructure(B1, rng.sample(range(B1.size), rng.randint(1, B1.size)))
            A2, _ = induced_substructure(B2, rng.sample(range(B2.size), rng.randint(1, B2.size)))
            assert find_embedding(complement(A1), complement(B1)) is not None
            for op in (disjoint_union, cartesian_product, tensor_product, bowtie):
                assert find_embedding(op(A1, A2), op(B1, B2)) is not None


class TestBlockCompositions:
    def test_word_of_single_vertices_is_chain(self):
        out = word_of_structures([digraph(1, []), digraph(1, [])])
        le = out.relations["le"]
        assert (0, 0) in le and (1, 1) in le and (0, 1) in le
        assert (1, 0) not in le

    def test_within_block_order_holds_both_ways(self):
        out = word_of_structures([digraph(2, [(0, 1)])])
        le = out.relations["le"]
        assert (0, 1) in le and (1, 0) in le

    def test_total_size(self):
        parts = [digraph(2, []), digraph(3, []), digraph(1, [])]
        assert word_of_structures(parts).size == 6

    def test_cross_block_tuples_false(self):
        out = word_of_structures([digraph(1, [(0, 0)]), digraph(1, [(0, 0)])])
        assert (0, 1) not in out.relations["E"]
        assert (1, 0) not in out.relations["E"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            word_of_structures([])

    def test_tree_singleton_matches_word(self):
        part = digraph(2, [(0, 1)])
        assert tree_of_structures({0: None}, [part]) == word_of_structures([part])

    def test_path_shape_matches_word(self):
        parts = [digraph(1, []), digraph(2, [(0, 1)]), digraph(1, [(0, 0)])]
        shape = {0: None, 1: 0, 2: 1}
        assert is_isomorphic(tree_of_structures(shape, parts), word_of_structures(parts))

    def test_siblings_incomparable(self):
        parts = [digraph(1, []), digraph(1, []), digraph(1, [])]
        out = tree_of_structures({0: None, 1: 0, 2: 0}, parts)
        le = out.relations["le"]
        assert (0, 1) in le and (0, 2) in le
        assert (1, 2) not in le and (2, 1) not in le

    def test_tree_composition_satisfies_poset_tree_axiom(self):
        # predecessors of a common upper bound are comparable; checked by the
        # formula evaluator on the composed structure
        from fmtk.folog import evaluate, parse

        parts = [digraph(1, []), digraph(2, [(0, 1)]), digraph(1, [(0, 0)])]
        out = tree_of_structures({0: None, 1: 0, 2: 0}, parts)
        axiom = parse(
            out.vocab,
            "forall a. forall b. forall c. ((le(a,c) & le(b,c)) -> (le(a,b) | le(b,a)))",
        )
        assert evaluate(out, axiom)

    def test_tree_shape_validation(self):
        parts = [digraph(1, []), digraph(1, [])]
        with pytest.raises(ValueError):
            tree_of_structures({0: 1, 1: 0}, parts)
        with pytest.raises(ValueError):
            tree_of_structures({0: None, 1: None}, parts)


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(15)
        vocab = Vocabulary.make({"E": 2, "Q": 1}, ["c1"])
        named = {f"s{i}": random_structure(rng, vocab, rng.randint(1, 4)) for i in range(5)}
        parsed = parse_structures(serialize_structures(named))
        assert parsed == named

    def test_comments_and_spacing(self):
        text = """
        # a comment
        structure demo
        vocab: E/2
        universe: 2
        E: (0,1)   # trailing comment
        """
        parsed = parse_structures(text)
        assert parsed["demo"].relations["E"] == frozenset({(0, 1)})

    def test_duplicate_name_rejected(self):
        text = serialize_structure("a", make_path(1)) + serialize_structure("a", make_path(1))
        with pytest.raises(ValueError):
            parse_structures(text)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_structures("structure x\nvocab: E/2\nuniverse: 1\nE: (0,1")

    def test_bad_last_block_is_a_format_error(self):
        # the last block is built after the line loop; its errors must still
        # come out as format errors, not as a raw KeyError or ValueError
        unknown = "structure A\nvocab: E/2\nuniverse: 2\nF: (0,1)\n"
        wrong_arity = "structure A\nvocab: E/2\nuniverse: 2\nE: (0,1,1)\n"
        for text in (unknown, wrong_arity):
            with pytest.raises(StructureFormatError):
                parse_structures(text)

    def test_ten_marks_round_trip(self):
        # constants c1 .. c10: parsing must not reorder them against expand()
        A = MarkedStructure(make_cycle(12), tuple(range(10))).expand()
        parsed = parse_structures(serialize_structure("A", A))["A"]
        assert parsed == A

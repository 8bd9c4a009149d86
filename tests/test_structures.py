import itertools
import re
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtk.algebra import shrink_tree_of_structures, shrink_verdicts
from fmtk.errors import StructureFormatError
from fmtk.shrink import (
    SigmaTree,
    make_word,
    parse_trees,
    serialize_tree,
    shrink_tree,
    to_structure,
    trees_equivalent,
)
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
    random_tree,
    reference_cartesian_product,
    reference_check_embedding_witness,
    reference_check_structure,
    reference_complement,
    reference_disjoint_union,
    reference_induced_substructure,
    reference_tensor_product,
    reference_to_structure,
    reference_tree_of_structures,
)

V = Vocabulary.make({"E": 2})
# one predicate of each arity 1-3
V123 = Vocabulary.make({"P": 1, "E": 2, "T": 3})
V123C = V123.with_constants(["c"])


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


def _outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


class TestBulkChecks:
    """The constructor's bulk checks against the per-tuple loop."""

    KINDS = ("valid", "wrong arity", "mixed arities", "negative", "equal to size", "unknown")

    def _relations(self, rng, size, kind):
        rels = {}
        for name, arity in V123.predicates:
            tuples = [t for t in itertools.product(range(size), repeat=arity)
                      if rng.random() < 0.4]
            rels[name] = tuples
        name, arity = rng.choice(V123.predicates)
        tuples = rels[name]
        pos = rng.randint(0, len(tuples))
        if kind == "wrong arity":
            tuples.insert(pos, tuple(rng.randrange(size) for _ in range(rng.choice(
                [a for a in (arity - 1, arity + 1) if a >= 1]))))
        elif kind == "mixed arities":
            other = 2 if arity != 2 else 3
            tuples[pos:pos] = [tuple(rng.randrange(size) for _ in range(other))
                               for _ in range(rng.randint(1, 3))]
        elif kind in ("negative", "equal to size"):
            bad = list(rng.choice(tuples)) if tuples else [0] * arity
            bad[rng.randrange(arity)] = -1 if kind == "negative" else size
            tuples.insert(pos, tuple(bad))
        elif kind == "unknown":
            rels["F"] = [(0,)]
        container = rng.choice((list, set, frozenset))
        return {n: container(ts) for n, ts in rels.items()}

    def test_accepts_and_rejects_like_the_per_tuple_loop(self):
        rng = random.Random(71)
        rejected = {kind: 0 for kind in self.KINDS}
        for _ in range(600):
            size = rng.randint(1, 7)
            kind = rng.choice(self.KINDS)
            rels = self._relations(rng, size, kind)
            got = _outcome(lambda: Structure(V123, size, rels).relations)
            assert got == _outcome(lambda: reference_check_structure(V123, size, rels)), kind
            if isinstance(got, tuple):
                rejected[kind] += 1
        assert rejected["valid"] == 0
        assert all(rejected[kind] > 50 for kind in self.KINDS[1:]), rejected

    def test_frozenset_is_kept_and_other_inputs_copied(self):
        edges = frozenset({(0, 1)})
        assert Structure(V, 2, {"E": edges}).relations["E"] is edges
        assert Structure(V, 2, {"E": [[0, 1]]}).relations["E"] == edges
        assert Structure(V, 2, {"E": iter([(0, 1)])}).relations["E"] == edges
        with pytest.raises(ValueError, match=r"tuple \(0, 2\) out of range"):
            Structure(V, 2, {"E": iter([(0, 1), (0, 2)])})


class TestHash:
    def test_equal_structures_built_differently_hash_alike(self):
        VP = Vocabulary.make({"E": 2, "P": 1})
        A = parse_structures(
            "structure A\nvocab: E/2, P/1\nuniverse: 3\nE: (0,1) (1,2)\nP: (2)\n")["A"]
        single = Structure(VP, 1)
        builds = [
            Structure(VP, 3, {"E": [(0, 1), (1, 2)], "P": [(2,)]}),
            Structure(VP, 3, {"P": {(2,)}, "E": frozenset({(1, 2), (0, 1)})}),
            Structure(VP, 3, {"E": [[1, 2], [0, 1], [0, 1]], "P": [[2]]}),
            complement(complement(A)),
            induced_substructure(disjoint_union(A, single), range(3))[0],
            induced_substructure(disjoint_union(single, A), range(1, 4))[0],
        ]
        for B in builds:
            assert B == A and hash(B) == hash(A)
        VC = VP.with_constants(["c1", "c2"])
        B = Structure(VC, 3, A.relations, {"c1": 0, "c2": 2})
        C = Structure(VC, 3, dict(reversed(A.relations.items())), {"c2": 2, "c1": 0})
        assert B == C and hash(B) == hash(C)


class TestOperationsAgainstOracles:
    """Each operation's output equals its tuple-by-tuple reference."""

    def test_induced_substructure(self):
        rng = random.Random(72)
        for _ in range(200):
            size = rng.randint(1, 7)
            A = random_structure(rng, V123C, size, density=rng.random())
            subset = {A.constant_interp["c"]} | {e for e in range(size) if rng.random() < 0.6}
            assert induced_substructure(A, subset) == reference_induced_substructure(A, subset)

    def test_disjoint_union_and_complement(self):
        rng = random.Random(73)
        for _ in range(150):
            A = random_structure(rng, V123, rng.randint(1, 7), density=rng.random())
            B = random_structure(rng, V123, rng.randint(1, 7), density=rng.random())
            assert disjoint_union(A, B) == reference_disjoint_union(A, B)
            assert complement(A) == reference_complement(A)

    def test_to_structure(self):
        rng = random.Random(74)
        for _ in range(150):
            sigma = ("a", "b", "c")[:rng.randint(1, 3)]
            t = random_tree(rng, rng.randint(1, 30), sigma)
            if rng.random() < 0.3:
                t = make_word([rng.choice(sigma) for _ in range(rng.randint(1, 30))], sigma)
            assert to_structure(t) == reference_to_structure(t)

    def test_derived_structures_serialize_as_their_references(self):
        rng = random.Random(75)
        for _ in range(60):
            A = random_structure(rng, V123, rng.randint(1, 4), density=rng.random())
            B = random_structure(rng, V123, rng.randint(1, 4), density=rng.random())
            for got, want in [
                (bowtie(A, B), reference_complement(reference_disjoint_union(
                    reference_complement(A), reference_complement(B)))),
                (cartesian_product(A, B), reference_cartesian_product(A, B)),
                (tensor_product(A, B), reference_tensor_product(A, B)),
            ]:
                assert serialize_structure("S", got) == serialize_structure("S", want)
        for _ in range(60):
            n = rng.randint(1, 5)
            order = rng.sample(range(n), n)  # order[0] is the root block
            shape = {order[0]: None, **{order[i]: order[rng.randrange(i)] for i in range(1, n)}}
            parts = [random_structure(rng, V123, rng.randint(1, 3)) for _ in range(n)]
            assert (serialize_structure("S", tree_of_structures(shape, parts))
                    == serialize_structure("S", reference_tree_of_structures(shape, parts)))


def _rebuilt(S):
    """``S`` built again through the validating constructor."""
    return Structure(S.vocab, S.size, S.relations, S.constant_interp)


class TestDerivedBuilds:
    """Operations build from validated parts with ``Structure._derived``,
    which checks nothing; the checking route never goes through it."""

    def test_derived_structures_equal_their_validated_rebuilds(self):
        rng = random.Random(76)
        ops = 0
        for _ in range(120):
            consts = ["c", "d"][:rng.randint(0, 2)]
            A = random_structure(rng, V123.with_constants(consts), rng.randint(1, 6),
                                 density=rng.random())
            fixed = set(A.constant_interp.values())
            subset = fixed | {e for e in range(A.size) if rng.random() < 0.6} or {0}
            B = random_structure(rng, V123, rng.randint(1, 6), density=rng.random())
            C = random_structure(rng, V123, rng.randint(1, 6), density=rng.random())
            n = rng.randint(1, 4)
            shape = {0: None, **{i: rng.randrange(i) for i in range(1, n)}}
            parts = [random_structure(rng, V123, rng.randint(1, 3), density=rng.random())
                     for _ in range(n)]
            for S in (induced_substructure(A, subset)[0], disjoint_union(B, C), complement(B),
                      cartesian_product(B, C), tensor_product(B, C), bowtie(B, C),
                      tree_of_structures(shape, parts), word_of_structures(parts)):
                assert all(type(rel) is frozenset for rel in S.relations.values())
                R = _rebuilt(S)
                assert S == R and hash(S) == hash(R)
                ops += 1
        assert ops == 960

    def test_checking_route_builds_nothing_through_derived(self, monkeypatch):
        rng = random.Random(77)
        A = random_structure(rng, V123C, 5)
        sub, renum = induced_substructure(A, {A.constant_interp["c"], 1, 3})
        witness = sorted(renum)
        text = serialize_structures({"A": A, "S": sub})
        t = random_tree(rng, 14, ("a", "b"))
        out, _ = shrink_tree(t, set(), 1, 0)

        def refuse(*_args):
            raise RuntimeError("the checking route reached a private builder")

        monkeypatch.setattr(Structure, "_derived", refuse)
        monkeypatch.setattr(SigmaTree, "induced", refuse)
        with pytest.raises(RuntimeError, match="private builder"):
            complement(make_path(3))
        assert trees_equivalent(out, t, 1)
        S, _ = to_structure(t)
        assert S == _rebuilt(S)
        verdicts = shrink_verdicts(A, sub, witness, {witness[0]}, 1)
        assert verdicts["contains_marks"] and verdicts["substructure"]
        assert check_embedding_witness(sub, A, dict(enumerate(witness)))
        assert parse_structures(text) == {"A": A, "S": sub}
        assert parse_trees(serialize_tree("T", t))["T"] == (t, ())
        for name in ("test_accepts_and_rejects_like_the_per_tuple_loop",
                     "test_frozenset_is_kept_and_other_inputs_copied"):
            getattr(TestBulkChecks(), name)()


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
        # one constant over E/2, then 0-3 constants over E/2 with P/1 or R/3;
        # small universes put two constants on one element, and their images
        # in B then often conflict
        rng = random.Random(9)
        vocabs = [Vocabulary.make({"E": 2}, ["c1"])] * 60 + [
            Vocabulary.make(preds, [f"c{i + 1}" for i in range(n)])
            for preds in ({"E": 2}, {"E": 2, "P": 1}, {"E": 2, "R": 3})
            for n in range(4)
        ] * 40
        seen = {"found": 0, "shared": 0, "conflicting": 0}
        for vc in vocabs:
            A = random_structure(rng, vc, rng.randint(1, 3))
            B = random_structure(rng, vc, rng.randint(1, 4))
            got = find_embedding(A, B)
            expected = brute_force_embedding(A, B)
            assert (got is None) == (expected is None)
            if got is not None:
                assert check_embedding_witness(A, B, got)
                seen["found"] += 1
            shared = [(c, d) for c, d in itertools.combinations(vc.constants, 2)
                      if A.constant_interp[c] == A.constant_interp[d]]
            seen["shared"] += bool(shared)
            if any(B.constant_interp[c] != B.constant_interp[d] for c, d in shared):
                seen["conflicting"] += 1
                assert got is None
        assert min(seen.values()) >= 20, seen


def _random_map(rng, size, B):
    """A map from ``0 .. size-1`` into ``B`` and whether it is injective: an
    increasing or a shuffled injection, a map that may collapse elements, one
    with a value out of range, or one whose domain misses or adds an
    element."""
    kind = rng.choice(("increasing", "increasing", "injective", "collapsing", "out", "domain"))
    if kind == "increasing":
        return dict(enumerate(sorted(rng.sample(range(B.size), size)))), True
    if kind == "injective":
        return dict(enumerate(rng.sample(range(B.size), size))), True
    mapping = {a: rng.randrange(B.size) for a in range(size)}
    if kind == "out":
        mapping[rng.randrange(size)] = rng.choice((-1, B.size, B.size + 3))
    elif kind == "domain":
        if rng.random() < 0.5:
            del mapping[rng.randrange(size)]
        else:
            mapping[size] = rng.randrange(B.size)
    return mapping, False


class TestCheckEmbeddingWitness:
    @pytest.mark.parametrize("vocab", [V, V123, V123C, Vocabulary.make({"T": 3}, ["c", "d"])],
                             ids=["E2", "P1-E2-T3", "P1-E2-T3-c", "T3-cd"])
    def test_agrees_with_the_tuple_by_tuple_reference(self, vocab):
        rng = random.Random(2020)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            B = random_structure(rng, vocab, rng.randint(1, 5), rng.choice([0.1, 0.4, 0.8]))
            size = rng.randint(1, B.size)
            mapping, injective = _random_map(rng, size, B)
            inv = {b: a for a, b in mapping.items()}
            if injective and set(B.constant_interp.values()) <= set(inv) and rng.random() < 0.6:
                # ``A`` is ``B`` on the image, read back through the map, and
                # now and then one fact flipped
                rels = {name: {tuple(inv[e] for e in t) for t in tuples if all(e in inv for e in t)}
                        for name, tuples in B.relations.items()}
                if rng.random() < 0.3:
                    name, arity = rng.choice(vocab.predicates)
                    rels[name] ^= {tuple(rng.randrange(size) for _ in range(arity))}
                consts = {c: inv[e] for c, e in B.constant_interp.items()}
            else:
                rels = random_structure(rng, vocab, size, rng.choice([0.1, 0.4, 0.8])).relations
                consts = {c: rng.randrange(size) for c in vocab.constants}
            A = Structure(vocab, size, rels, consts)
            got = check_embedding_witness(A, B, mapping)
            assert got == reference_check_embedding_witness(A, B, mapping), (A, B, mapping)
            verdicts[got] += 1
        assert min(verdicts.values()) >= 30, verdicts

    def test_vocabulary_mismatch_is_no_witness(self):
        assert not check_embedding_witness(make_path(1), make_linear_order(2), {0: 0, 1: 1})


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
        # each fault refused as SigmaTree refuses it, never with a KeyError
        for shape, message in (({0: 1, 1: 0}, "a tree has exactly one root"),
                               ({0: None, 1: None}, "a tree has exactly one root"),
                               ({0: None, 1: 5}, "parent of 1 is not a node"),
                               ({0: None, 1: 2, 2: 1}, "parent map contains a cycle")):
            parts = [digraph(1, [])] * len(shape)
            for build in (lambda: SigmaTree(shape, dict.fromkeys(shape, "a")),
                          lambda: tree_of_structures(shape, parts),
                          lambda: shrink_tree_of_structures(shape, parts, (), 1, 1)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    build()


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

    @pytest.mark.parametrize("text, where", [
        ("structure A\nvocab: E/2\nuniverse: 3\nE: (0,1)\nE: (1,2)\n",
         "line 5: predicate 'E' is given on two lines"),
        ("structure A\nvocab: E/2\nvocab: E/2\nuniverse: 3\n",
         "line 3: 'vocab:' is given on two lines"),
        ("structure A\nvocab: E/2\nuniverse: 3\nuniverse: 4\n",
         "line 4: 'universe:' is given on two lines"),
        ("structure A\nvocab: E/2\nuniverse: 3\nconst c = 0\nconst c = 1\n",
         "line 5: constant 'c' is given on two lines"),
        ("structure A\nvocab: E/2, E/1\nuniverse: 3\n",
         "line 2: predicate 'E' is listed twice in the vocabulary"),
        ("structure A\nvocab: E/2\nuniverse: 2\nF: (0,1)\nstructure B\nvocab: E/2\nuniverse: 1\n",
         "line 4: predicate 'F' is not in the vocabulary of structure A"),
    ], ids=["predicate", "vocab", "universe", "const", "vocab-entry", "undeclared"])
    def test_repeated_or_undeclared_symbols_rejected(self, text, where):
        with pytest.raises(StructureFormatError, match=where):
            parse_structures(text)

    @pytest.mark.parametrize("text", [
        "vocab: E/2\nuniverse: 2\nE: (0,1)\nstructure A\n",
        "E: (0,1)\nstructure A\nvocab: E/2\nuniverse: 2\n",
    ], ids=["vocab", "predicate"])
    def test_line_before_first_header_rejected(self, text):
        first = text.splitlines()[0]
        with pytest.raises(StructureFormatError,
                           match=rf"line 1: '{re.escape(first)}' comes before the first structure line"):
            parse_structures(text)

    def test_error_in_an_earlier_block_names_that_block(self):
        text = ("structure A\nvocab: E/2\nuniverse: 2\nE: (0,5)\n"
                "structure B\nvocab: E/2\nuniverse: 1\n")
        with pytest.raises(StructureFormatError, match=r"^structure A: tuple \(0, 5\)"):
            parse_structures(text)

    def test_line_errors_name_their_line(self):
        text = "structure A\nvocab: E/2\nuniverse: 2\nE: (0,1\nstructure B\n"
        with pytest.raises(StructureFormatError, match=r"^line 4: 'E: \(0,1': bad tuple"):
            parse_structures(text)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_serialize_parse_round_trip(self, data):
        names = data.draw(st.lists(st.sampled_from(["A", "g2", "Left_1", "x_"]),
                                   min_size=1, max_size=3, unique=True))
        named = {}
        for name in names:
            preds = data.draw(st.sets(st.sampled_from(V123.predicates)))
            consts = data.draw(st.sets(st.sampled_from(["c1", "c2", "c10"])))
            vocab = Vocabulary(tuple(preds), tuple(consts))
            size = data.draw(st.integers(1, 5))
            rels = {
                pred: data.draw(st.sets(st.tuples(*[st.integers(0, size - 1)] * arity),
                                        max_size=12))
                for pred, arity in vocab.predicates
            }
            interp = {c: data.draw(st.integers(0, size - 1)) for c in consts}
            named[name] = Structure(vocab, size, rels, interp)
        text = serialize_structures(named)
        parsed = parse_structures(text)
        assert list(parsed) == names and parsed == named
        assert serialize_structures(parsed) == text

    def test_ten_marks_round_trip(self):
        # constants c1 .. c10: parsing must not reorder them against expand()
        A = MarkedStructure(make_cycle(12), tuple(range(10))).expand()
        parsed = parse_structures(serialize_structure("A", A))["A"]
        assert parsed == A

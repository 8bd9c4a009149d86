import itertools
import random

import pytest

from fmtk import wqo
from fmtk.equiv import m_equivalent
from fmtk.errors import GuardExceeded
from fmtk.structures import (
    MarkedStructure,
    Structure,
    Vocabulary,
    disjoint_union,
    find_embedding,
    tensor_product,
)
from fmtk.wqo import (
    antichain_certificate,
    dickson_pair,
    graph_components,
    linear_order_embedding_pair,
    make_cycle,
    make_Gn,
    make_grid,
    make_Hn,
    make_linear_order,
    make_path,
    order_type_tuple,
)

from oracles import random_graph, reference_components

GRAPH = Vocabulary.make({"E": 2})


def _graph(size, pairs):
    return Structure(GRAPH, size, {"E": frozenset(pairs) | {(b, a) for a, b in pairs}})


STAR = _graph(5, [(0, leaf) for leaf in range(1, 5)])


class TestDickson:
    def test_documented_example(self):
        assert dickson_pair([(3, 1), (2, 2), (1, 3), (4, 4)]) == (1, 4)

    def test_antichain(self):
        assert dickson_pair([(1, 2), (2, 1)]) is None

    def test_constant_sequence(self):
        assert dickson_pair([(2, 2), (2, 2), (2, 2)]) == (1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dickson_pair([(1, 2), (1, 2, 3)])


class TestMarkedLinearOrders:
    def test_identical_items(self):
        item = (make_linear_order(4), (1, 3))
        assert linear_order_embedding_pair([item, item], 2) == (1, 2)

    def test_pair_verified_by_embedding(self):
        items = [
            (make_linear_order(4), (0, 2)),
            (make_linear_order(6), (0, 3)),
        ]
        assert linear_order_embedding_pair(items, 2) == (1, 2)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(70)
        for trial in range(10):
            k = rng.randint(1, 3)
            items = []
            for _ in range(10):
                n = rng.randint(max(k, 2), 12)
                order = make_linear_order(n)
                marks = tuple(rng.randrange(n) for _ in range(k))
                items.append((order, marks))
            got = linear_order_embedding_pair(items, k)
            expanded = [MarkedStructure(A, marks).expand() for A, marks in items]
            oracle_hits = [
                (i + 1, j + 1)
                for j in range(len(items))
                for i in range(j)
                if find_embedding(expanded[i], expanded[j]) is not None
            ]
            assert (got is None) == (not oracle_hits)
            if got is not None:
                i, j = got
                assert find_embedding(expanded[i - 1], expanded[j - 1]) is not None

    def test_gap_counts(self):
        order = make_linear_order(6)
        assert order_type_tuple(order, (0, 3)) == (1, 4, 3)

    def test_mark_count_must_match(self):
        with pytest.raises(ValueError):
            linear_order_embedding_pair([(make_linear_order(3), (0,))], 2)


class TestMarkEncodings:
    def test_empty_marks_give_empty_predicate(self):
        A = make_path(2)
        expanded = MarkedStructure(A, (), ordered=False).expand()
        pred = next(n for n, _ in expanded.vocab.predicates if n != "E")
        assert expanded.relations[pred] == frozenset()

    def test_ordered_forgets_to_unordered(self):
        A = make_path(3)
        ms = MarkedStructure(A, (2, 0))
        unordered = MarkedStructure(ms.base, ms.marks, ordered=False)
        assert unordered.expand() == MarkedStructure(A, (0, 2), ordered=False).expand()
        # built from checked parts, each equals what the checked constructor builds
        assert ms.expand() == Structure(A.vocab.with_constants(["c1", "c2"]), 4, A.relations,
                                        {"c1": 2, "c2": 0})
        assert unordered.expand() == Structure(A.vocab.with_predicate("R", 1), 4,
                                               {**A.relations, "R": {(0,), (2,)}})

    def test_predicate_embedding_lifts_to_some_ordering(self):
        # an unordered-mark embedding induces an ordered one after permuting
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(2, 5)
            A = make_path(n - 1)
            B = make_path(rng.randint(n - 1, 6))
            marks_a = tuple(sorted(rng.sample(range(A.size), 2)))
            marks_b_pool = range(B.size)
            marks_b = tuple(sorted(rng.sample(marks_b_pool, 2)))
            unordered = find_embedding(
                MarkedStructure(A, marks_a, ordered=False).expand(),
                MarkedStructure(B, marks_b, ordered=False).expand(),
            )
            if unordered is None:
                continue
            ordered_hits = [
                perm
                for perm in itertools.permutations(marks_a)
                if find_embedding(
                    MarkedStructure(A, perm).expand(), MarkedStructure(B, marks_b).expand()
                )
                is not None
            ]
            assert ordered_hits


class TestAntichain:
    def test_endpoint_marked_paths(self):
        items = [
            MarkedStructure(make_path(n), (0, n)) for n in range(2, 6)
        ]
        ok, pair = antichain_certificate(items)
        assert ok and pair is None

    def test_unmarked_paths_are_not_an_antichain(self):
        items = [MarkedStructure(make_path(n), ()) for n in range(2, 6)]
        ok, pair = antichain_certificate(items)
        assert not ok and pair == (1, 2)

    def test_singleton(self):
        ok, _ = antichain_certificate([MarkedStructure(make_path(2), (0,))])
        assert ok


class TestGenerators:
    def test_h1_size(self):
        assert make_Hn(1).size == 10  # one copy each of paths with 1..4 vertices

    def test_g1_size(self):
        assert make_Gn(1).size == 13

    def test_cycle_three_is_triangle(self):
        c3 = make_cycle(3)
        assert c3.relations["E"] == frozenset(
            (i, j) for i in range(3) for j in range(3) if i != j
        )

    def test_grid_is_tensor_of_orders(self):
        assert make_grid(3, 4) == tensor_product(
            make_linear_order(3), make_linear_order(4)
        )

    def test_hn_guard(self, monkeypatch):
        with pytest.raises(GuardExceeded):
            make_Hn(3)
        monkeypatch.setattr(wqo, "HN_GUARD", 3)
        assert make_Hn(3).size == 3 * sum(range(1, 3**3 + 2))

    def test_path_convention(self):
        assert make_path(0).size == 1
        assert make_path(3).size == 4


class TestPathsCyclesFacts:
    def test_paths_equivalent_past_threshold(self):
        for m in (1, 2):
            base = 3**m
            assert m_equivalent(make_path(base), make_path(base + 2), m)

    def test_copies_collapse(self):
        def n_copies(count, length):
            out = make_path(length)
            for _ in range(count - 1):
                out = disjoint_union(out, make_path(length))
            return out

        assert m_equivalent(n_copies(2, 4), n_copies(1, 3), 1)
        assert m_equivalent(n_copies(3, 10), n_copies(2, 9), 2)

    def test_gn_equivalent_hn(self):
        for m, n in ((0, 1), (1, 1), (1, 2)):
            assert m_equivalent(make_Gn(n), make_Hn(n), m)


class TestGraphComponents:
    def test_listing_order(self):
        # path 3-0-4-1, cycle 2-6-5-7, isolated vertex 8
        A = _graph(9, [(3, 0), (0, 4), (4, 1), (2, 6), (6, 5), (5, 7), (7, 2)])
        assert graph_components(A) == [
            ("path", [1, 4, 0, 3]), ("cycle", [2, 6, 5, 7]), ("path", [8]),
        ]

    def test_other_components_are_sorted(self):
        A = disjoint_union(make_path(1), STAR)
        assert graph_components(A) == [("path", [0, 1]), ("other", [2, 3, 4, 5, 6])]

    @pytest.mark.parametrize("A", [
        Structure(GRAPH, 2, {"E": {(0, 1)}}),
        Structure(GRAPH, 2, {"E": {(0, 1), (1, 0), (1, 1)}}),
        Structure(Vocabulary.make({"E": 1}), 2, {"E": {(0,)}}),
        Structure(Vocabulary.make({"E": 3}), 2, {"E": {(0, 1, 0)}}),
        Structure(Vocabulary.make({"F": 2}), 2, {"F": {(0, 1), (1, 0)}}),
    ], ids=["asymmetric", "loop", "E/1", "E/3", "no-E"])
    def test_none_unless_symmetric_loopfree_binary(self, A):
        assert graph_components(A) is None

    def test_walks_match_flood_fill(self):
        rng = random.Random(74)
        for _ in range(300):
            A = random_graph(rng, rng.randint(1, 9))
            comps = graph_components(A)
            if comps is None:
                continue
            assert [sorted(c) for _, c in comps] == reference_components(A)
            E = A.relations["E"]
            for kind, c in comps:
                if kind == "other":
                    assert c == sorted(c)
                    continue
                steps = list(zip(c, c[1:])) + ([(c[-1], c[0])] if kind == "cycle" else [])
                assert all(step in E for step in steps)
                assert len(E & {(a, b) for a in c for b in c}) == 2 * len(steps)
                if kind == "path":
                    assert c[0] <= c[-1]
                else:
                    assert c[0] == min(c) and c[1] < c[-1]

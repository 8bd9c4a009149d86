import random

import pytest

from fmtk.errors import GuardExceeded, VerificationFailed
from fmtk.folog import (
    Implies,
    evaluate,
    free_vars,
    is_quantifier_free,
    parse,
    print_formula,
    quantifier_rank,
    relativize,
    size_bound_sentence,
    to_formula,
)
from fmtk.structures import Structure, Vocabulary, find_embedding, induced_substructure
from fmtk.translate import (
    CLASS_TESTS,
    ClassSample,
    atomic_diagram_sentence,
    core_formula,
    enumerate_structures,
    find_cores,
    forall_star_from_minimal_models,
    is_cycle_graph,
    is_linear_order,
    is_path_graph,
    is_paths_cycle_family,
    minimal_models,
    psc_check,
    sample_agreement,
    translate_auto,
    translate_to_exists_forall,
)
from fmtk.structures import disjoint_union
from fmtk.wqo import make_cycle, make_Gn, make_Hn, make_linear_order, make_path

from oracles import (
    permuted_copy,
    random_formula,
    random_graph,
    random_structure,
    reference_find_cores,
    reference_graph_classes,
    reference_minimal_models,
)

V = Vocabulary.make({"E": 2})
WITNESS_PHI = "exists x. forall y. E(x,y)"
WITNESS_EXAMPLE = Structure(V, 2, {"E": {(0, 0), (0, 1), (1, 1)}})


def all_sample(structures):
    return ClassSample(list(structures), membership=lambda s: True)


# vocabularies with a constant and with a unary predicate
CASE_VOCABS = [V, Vocabulary.make({"E": 2, "P": 1}), Vocabulary.make({"E": 2}, ("c",))]
# membership tests: none, everything, a substructure-closed class and one
# that is not
MEMBERSHIPS = [
    None,
    lambda s: True,
    lambda s: all(a != b for a, b in s.relations["E"]),
    lambda s: s.size != 2,
]


class TestFindCores:
    def test_witness_example_cores(self):
        phi = parse(V, WITNESS_PHI)
        cores = find_cores(WITNESS_EXAMPLE, phi, 1, all_sample([WITNESS_EXAMPLE]))
        assert (0,) in cores and (1,) in cores

    def test_every_small_set_is_a_core_for_acyclicity(self):
        # target class closed under substructures: every mark set certifies it
        def is_loop_free_dag(s):
            if any(a == b for a, b in s.relations["E"]):
                return False
            # no directed cycle: brute-force reachability
            edges = s.relations["E"]
            reach = {v: {b for a, b in edges if a == v} for v in range(s.size)}
            changed = True
            while changed:
                changed = False
                for v in range(s.size):
                    new = set().union(*(reach[u] for u in reach[v])) if reach[v] else set()
                    if not new <= reach[v]:
                        reach[v] |= new
                        changed = True
            return all(v not in reach[v] for v in range(s.size))

        A = Structure(V, 3, {"E": {(0, 1), (1, 2)}})
        cores = find_cores(A, is_loop_free_dag, 2, all_sample([A]))
        expected = 1 + 3 + 3  # empty set, singletons, pairs
        assert len(cores) == expected

    def test_empty_core_when_every_substructure_models(self):
        phi = parse(V, WITNESS_PHI)
        cores = find_cores(WITNESS_EXAMPLE, phi, 0, all_sample([WITNESS_EXAMPLE]))
        assert cores == [()]

    def test_matches_reference(self):
        rng = random.Random(94)
        kinds = set()
        checked = 0
        while checked < 210:
            vocab = rng.choice(CASE_VOCABS)
            A = random_structure(rng, vocab, rng.randint(1, 7), rng.choice((0.2, 0.4, 0.6)))
            membership = rng.randrange(len(MEMBERSHIPS))
            sample = ClassSample([A], MEMBERSHIPS[membership])
            if not sample.member(A):
                continue
            if rng.random() < 0.5:
                crit = random_formula(rng, vocab, rng.randint(1, 3))
                if free_vars(crit):
                    continue
            else:
                crit = lambda B, r=rng.randrange(3): len(B.relations["E"]) % 3 != r
            k = rng.randint(0, 3)
            got = find_cores(A, crit, k, sample)
            assert got == reference_find_cores(A, crit, k, sample), (A, crit, k)
            kinds.add((vocab, membership, callable(crit), k, bool(got)))
            checked += 1
        # every vocabulary, membership, kind of target and k, with and
        # without cores
        assert [len(set(column)) for column in zip(*kinds)] == [3, 4, 2, 4, 2]

    def test_pruning_builds_few_substructures(self, monkeypatch):
        import fmtk.translate as tr

        built = []

        def counting(A, subset):
            built.append(subset)
            return induced_substructure(A, subset)

        monkeypatch.setattr(tr, "induced_substructure", counting)
        A = make_cycle(12)
        phi = parse(V, "forall x. exists y. E(x,y)")
        sample = all_sample([A])
        assert find_cores(A, phi, 1, sample) == reference_find_cores(A, phi, 1, sample) == []
        # the exhaustive search builds all 4,095 nonempty subsets
        assert len(built) < 100

    def test_guard(self):
        big = Structure(V, 13)
        with pytest.raises(GuardExceeded):
            find_cores(big, parse(V, WITNESS_PHI), 1, all_sample([big]))


class TestPscCheck:
    def test_complete_digraphs_pass_k1(self):
        def complete(n):
            return Structure(V, n, {"E": {(i, j) for i in range(n) for j in range(n)}})

        phi = parse(V, WITNESS_PHI)
        ok, certs = psc_check(phi, 1, all_sample([complete(n) for n in (1, 2, 3)]))
        assert ok and len(certs) == 3

    def test_fails_at_k0_with_fragile_model(self):
        # one model loses its witness in a one-vertex substructure
        fragile = Structure(V, 2, {"E": {(0, 0), (0, 1)}})
        phi = parse(V, WITNESS_PHI)
        ok, certs = psc_check(phi, 0, all_sample([fragile]))
        assert not ok
        assert certs[0].cores == []

    def test_universal_sentences_pass_k0(self):
        rng = random.Random(90)
        sample = all_sample(
            [random_structure(rng, V, rng.randint(1, 4)) for _ in range(12)]
        )
        phi = parse(V, "forall x. forall y. (E(x,y) -> E(y,x))")
        ok, _ = psc_check(phi, 0, sample)
        assert ok

    def test_every_sentence_passes_over_cycles(self):
        # no cycle sits properly inside another, so the empty set certifies
        # any sentence over the cycles class
        rng = random.Random(93)
        sample = ClassSample(
            [make_cycle(n) for n in range(3, 8)], membership=is_cycle_graph
        )
        for _ in range(10):
            phi = random_formula(rng, V, rng.randint(1, 2))
            ok, certs = psc_check(phi, 0, sample)
            assert ok
            assert all(() in c.cores for c in certs)


class TestTranslation:
    def test_shape(self):
        phi = parse(V, "forall x. E(x,x)")
        ps = translate_to_exists_forall(phi, 0, 1)
        assert ps.exist_vars == () and ps.univ_vars == ("y1",)
        assert is_quantifier_free(ps.matrix)

    def test_p_must_be_positive(self):
        with pytest.raises(ValueError):
            translate_to_exists_forall(parse(V, "forall x. E(x,x)"), 1, 0)

    def test_shortcut_matches_full_relativization(self):
        # the folded size-bound implication equals the honest expansion
        phi = parse(V, "exists x. E(x,x)")
        k, p = 1, 2
        ps = translate_to_exists_forall(phi, k, p)
        allvars = ps.exist_vars + ps.univ_vars
        full = relativize(Implies(size_bound_sentence(k + p), phi), allvars)
        assert ps.matrix == full

    def test_cycle_sample_agreement(self):
        sample = ClassSample(
            [make_cycle(n) for n in range(3, 9)], membership=is_cycle_graph
        )
        picks = [
            "forall x. forall y. (E(x,y) -> E(y,x))",
            "forall x. !E(x,x)",
            "exists x. E(x,x)",
            "forall x. forall y. (E(x,y) -> !(x = y))",
            "forall x. forall y. ((E(x,y) & E(y,x)) -> !(x = y))",
        ]
        for text in picks:
            phi = parse(V, text)
            p = 2 ** quantifier_rank(phi) if quantifier_rank(phi) else 1
            ps = translate_to_exists_forall(phi, 0, p)
            assert sample_agreement(phi, ps, sample) == []

    def test_linear_order_minimum(self):
        OV = Vocabulary.make({"le": 2})
        phi = parse(OV, "exists x. forall y. le(x,y)")
        p = max(2 ** quantifier_rank(phi), 1)
        ps = translate_to_exists_forall(phi, 1, p)
        sample = ClassSample(
            [make_linear_order(n) for n in range(1, 9)], membership=is_linear_order
        )
        assert sample_agreement(phi, ps, sample) == []

    def test_translated_sentences_pass_psc(self):
        # existential-then-universal sentences always leave their witnesses as cores
        sample = all_sample([make_cycle(n) for n in (3, 4, 5)])
        phi = parse(V, "exists x. exists y. E(x,y)")
        ps = translate_to_exists_forall(phi, 2, 2)
        ok, _ = psc_check(to_formula(ps), 2, sample)
        assert ok

    def test_auto_mode(self):
        sample = ClassSample(
            [make_cycle(n) for n in range(3, 8)], membership=is_cycle_graph
        )
        phi = parse(V, "forall x. !E(x,x)")
        result = translate_auto(phi, 0, sample, max_p=8)
        assert result.verified and result.p >= 1

    def test_auto_mode_reports_failure_at_cap(self):
        # two-element-chain sentence cannot be captured with one universal
        sample = all_sample([make_path(1), Structure(V, 1)])
        phi = parse(V, "exists x. exists y. (E(x,y) & !(x = y))")
        result = translate_auto(phi, 0, sample, max_p=1)
        assert not result.verified
        assert result.disagreements


class TestCoreFormula:
    def test_defines_cores_on_models(self):
        phi = parse(V, WITNESS_PHI)
        cf = core_formula(phi, 1, 4)
        assert free_vars(cf) == {"x1"}
        sample = all_sample([WITNESS_EXAMPLE])
        cores = find_cores(WITNESS_EXAMPLE, phi, 1, sample)
        singles = {c[0] for c in cores if len(c) == 1}
        satisfied = {
            a for a in range(WITNESS_EXAMPLE.size)
            if evaluate(WITNESS_EXAMPLE, cf, {"x1": a})
        }
        assert satisfied == singles

    def test_random_samples_match_find_cores(self):
        rng = random.Random(91)
        checked = 0
        for _ in range(25):
            A = random_structure(rng, V, rng.randint(1, 3))
            phi = random_formula(rng, V, rng.randint(1, 2))
            if not evaluate(A, phi):
                continue
            sample = all_sample([A])
            cores = {c[0] for c in find_cores(A, phi, 1, sample) if len(c) == 1}
            cf = core_formula(phi, 1, 3)
            satisfied = {a for a in range(A.size) if evaluate(A, cf, {"x1": a})}
            assert satisfied == cores
            checked += 1
        assert checked >= 8


class TestMinimalModels:
    def test_edgeless_class(self):
        sample = all_sample(enumerate_structures(V, 3))
        edgeless = lambda s: not s.relations["E"]
        sentence = forall_star_from_minimal_models(edgeless, sample)
        for A in sample.structures:
            assert evaluate(A, sentence) == edgeless(A)

    def test_loop_free_class_shape(self):
        sample = all_sample(enumerate_structures(V, 3))
        loopfree = lambda s: all(a != b for a, b in s.relations["E"])
        sentence = forall_star_from_minimal_models(loopfree, sample)
        assert print_formula(sentence) == "!(exists x1. E(x1, x1))"

    def test_everything_class_gives_trivial_truth(self):
        sample = all_sample(enumerate_structures(V, 2))
        sentence = forall_star_from_minimal_models(lambda s: True, sample)
        assert all(evaluate(A, sentence) for A in sample.structures)

    def test_minimal_models_are_minimal(self):
        structures = [Structure(V, 1, {"E": {(0, 0)}}), make_path(1), make_path(2)]
        minima = minimal_models(structures)
        assert len(minima) == 2  # the loop and the single edge; P_2 contains P_1

    def test_matches_reference(self):
        rng = random.Random(95)
        for _ in range(200):
            vocab = rng.choice(CASE_VOCABS)
            structures = [random_structure(rng, vocab, rng.randint(1, 4), rng.choice((0.2, 0.5)))
                          for _ in range(rng.randint(1, 10))]
            structures += [permuted_copy(rng, rng.choice(structures))
                           for _ in range(rng.randint(0, 5))]
            rng.shuffle(structures)
            got = minimal_models(structures)
            want = reference_minimal_models(structures)
            # the same objects, in the same order
            assert [id(A) for A in got] == [id(A) for A in want]

    def test_one_element_profile_per_structure(self, monkeypatch):
        import fmtk.structures as fs
        import fmtk.translate as tr

        structures = enumerate_structures(V, 3)
        want = minimal_models(structures)
        profiled = []
        real = fs._element_profile

        def counting(A):
            profiled.append(id(A))
            return real(A)

        # wherever the search takes its profiles from
        monkeypatch.setattr(fs, "_element_profile", counting)
        monkeypatch.setattr(tr, "_element_profile", counting, raising=False)
        got = minimal_models(structures)
        assert [id(A) for A in got] == [id(A) for A in want]
        assert len(profiled) == len(set(profiled)) <= len(structures)

    def test_minimal_model_guard(self, monkeypatch):
        import fmtk.translate as tr

        calls = []
        search = tr._embedding  # minimal_models' embedding search

        def counting(A, B, *profiles):
            calls.append((A, B))
            return search(A, B, *profiles)

        monkeypatch.setattr(tr, "_embedding", counting)
        monkeypatch.setattr(tr, "MINIMAL_MODEL_GUARD", 1)
        sample = all_sample(enumerate_structures(V, 3))
        with pytest.raises(GuardExceeded, match="^minimal models 2 exceeds the minimal-model guard 1$"):
            forall_star_from_minimal_models(lambda s: not s.relations["E"], sample)
        # refused at the second minimum, before the 15 two-element structures
        # with an edge have all been tried
        assert 0 < len(calls) < 15

    def test_verification_names_the_first_disagreement(self):
        # "more than one element" is not closed under substructures: the
        # sentence built from its one outside minimal model rejects every
        # structure, and the class accepts the second one
        sample = all_sample([make_linear_order(n) for n in (1, 2, 3)])
        with pytest.raises(
            VerificationFailed,
            match=r"sample structure 1 \(size 2\): sentence False, class True$",
        ):
            forall_star_from_minimal_models(lambda s: s.size != 1, sample)

    def test_downward_closed_output(self):
        from fmtk.structures import induced_substructure

        sample = all_sample(enumerate_structures(V, 3))
        edgeless = lambda s: not s.relations["E"]
        sentence = forall_star_from_minimal_models(edgeless, sample)
        for A in sample.structures:
            if not evaluate(A, sentence):
                continue
            for drop in range(A.size):
                keep = [e for e in range(A.size) if e != drop]
                if not keep:
                    continue
                sub, _ = induced_substructure(A, keep)
                assert evaluate(sub, sentence)


class TestAtomicDiagram:
    def test_loop_vertex(self):
        loop = Structure(V, 1, {"E": {(0, 0)}})
        d = atomic_diagram_sentence(loop)
        assert print_formula(d) == "exists x1. E(x1, x1)"

    def test_models_are_exactly_superstructures(self):
        structures = enumerate_structures(V, 2)
        rng = random.Random(92)
        for A in rng.sample(structures, 6):
            d = atomic_diagram_sentence(A)
            assert quantifier_rank(d) == A.size
            for B in rng.sample(structures, 10) + [A]:
                assert evaluate(B, d) == (find_embedding(A, B) is not None)


class TestClassTests:
    def test_family_checks(self):
        assert is_cycle_graph(make_cycle(5))
        assert not is_cycle_graph(make_path(4))
        assert is_path_graph(make_path(0))
        assert is_linear_order(make_linear_order(3))
        assert is_paths_cycle_family(make_Hn(1))
        assert is_paths_cycle_family(make_Gn(2))
        assert not is_paths_cycle_family(make_path(2))

    @pytest.mark.parametrize("A", [
        Structure(Vocabulary.make({"E": 1}), 3, {"E": {(0,), (1,), (2,)}}),
        Structure(Vocabulary.make({"E": 3}), 3, {"E": {(0, 1, 2), (2, 1, 0)}}),
        Structure(Vocabulary.make({"F": 2}), 3, {"F": {(0, 1), (1, 0), (1, 2), (2, 1)}}),
    ], ids=["E/1", "E/3", "no-E"])
    @pytest.mark.parametrize("name", sorted(CLASS_TESTS))
    def test_non_graph_vocabulary(self, A, name):
        # a bool, never an exception; no graph class holds without a binary E
        verdict = CLASS_TESTS[name](A)
        assert isinstance(verdict, bool)
        if name in ("cycles", "paths", "path-unions", "paths-cycle-family"):
            assert verdict is False

    def test_graph_classes_match_reference(self):
        rng = random.Random(76)
        graphs = [random_graph(rng, rng.randint(1, 9)) for _ in range(1500)]
        family = [make_Hn(1), make_Gn(1), make_Hn(2), make_Gn(2)]
        graphs += family + [permuted_copy(rng, A) for A in family]
        extras = (make_path(0), make_cycle(3), make_cycle(9))
        graphs += [disjoint_union(A, B) for A in family[:2] for B in extras]
        graphs += [Structure(A.vocab, A.size, {"E": A.relations["E"] - {max(A.relations["E"])}})
                   for A in family]
        verdicts = []
        for A in graphs:
            want = reference_graph_classes(A)
            assert {name: CLASS_TESTS[name](A) for name in want} == want
            verdicts.append(tuple(want.values()))
        # every class is hit, and missed
        assert all(any(v) and not all(v) for v in zip(*verdicts))

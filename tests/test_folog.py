import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmtk.errors import FormulaSyntaxError
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
    PrefixSentence,
    Var,
    assemble_prefix,
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
from fmtk.equiv import m_equivalent
from fmtk.structures import Structure, Vocabulary, induced_substructure
from fmtk.translate import atomic_diagram_sentence
from fmtk.wqo import make_cycle

from oracles import (
    all_structures,
    game_evaluate,
    random_formula,
    random_structure,
    reference_evaluate,
)

V = Vocabulary.make({"E": 2})
VC = Vocabulary.make({"E": 2}, ["c"])

WITNESS_EXAMPLE = Structure(V, 2, {"E": {(0, 0), (0, 1), (1, 1)}})

# property tests: 150 examples each, the same ones on every run
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
VH = Vocabulary.make({"E": 2, "P": 1}, ["c"])
_terms = st.sampled_from([Var("x"), Var("y"), Cst("c")])
_formulas = st.recursive(
    st.one_of(
        st.builds(lambda a, b: Atom("E", (a, b)), _terms, _terms),
        st.builds(lambda a: Atom("P", (a,)), _terms),
        st.builds(Eq, _terms, _terms),
    ),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Exists, st.sampled_from(["x", "y"]), sub),
        st.builds(Forall, st.sampled_from(["x", "y"]), sub),
    ),
    max_leaves=10,
)


@st.composite
def _structures(draw):
    n = draw(st.integers(1, 3))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    points = draw(st.lists(st.integers(0, n - 1), unique=True))
    return Structure(VH, n, {"E": edges, "P": {(e,) for e in points}},
                     {"c": draw(st.integers(0, n - 1))})


def _shadowing(f, rng, pool=("a", "b")):
    """``f`` with every bound variable renamed to a name from ``pool``, so
    binders shadow the free variables and each other."""
    names = {}

    def t(x):
        return Var(names.get(x.name, x.name)) if isinstance(x, Var) else x

    def walk(g):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(t(x) for x in g.args))
        if isinstance(g, Eq):
            return Eq(t(g.lhs), t(g.rhs))
        if isinstance(g, Not):
            return Not(walk(g.sub))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.lhs), walk(g.rhs))
        names[g.var] = rng.choice(pool)
        return type(g)(names[g.var], walk(g.body))

    return walk(f)


def _staged_block(rng, vocab, cls):
    """A block of one to three ``cls`` quantifiers over a chain of the
    block's connective (``And`` under ``Exists``, ``Or`` under ``Forall``)
    whose parts read random subsets of the block variables and of the free
    ``a`` and ``b``."""
    names = tuple(f"x{i + 1}" for i in range(rng.randint(1, 3)))
    parts = []
    for _ in range(rng.randint(1, 6)):
        scope = tuple(v for v in names + ("a", "b") if rng.random() < 0.5) or ("a",)
        parts.append(random_formula(rng, vocab, rng.randint(0, 1), scope=scope))
    out = functools.reduce(And if cls is Exists else Or, parts)
    for x in reversed(names):
        out = cls(x, out)
    return out


def _misfits(f, vocab) -> set[str]:
    """The refusals ``f`` earns over ``vocab``, in the evaluator's words: one
    per predicate that ``vocab`` lacks or has at another arity, and one per
    constant it lacks."""
    arities = dict(vocab.predicates)
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, (Exists, Forall)):
            stack.append(g.body)
        elif isinstance(g, (And, Or, Implies)):
            stack += (g.lhs, g.rhs)
        else:
            terms = g.args if isinstance(g, Atom) else (g.lhs, g.rhs)
            out |= {f"unknown constant {t.name}" for t in terms
                    if isinstance(t, Cst) and t.name not in vocab.constants}
            if isinstance(g, Atom) and g.pred not in arities:
                out.add(f"unknown predicate {g.pred}")
            elif isinstance(g, Atom) and arities[g.pred] != len(g.args):
                out.add(f"arity mismatch for {g.pred}")
    return out


class TestParsePrint:
    def test_basic_sentence(self):
        f = parse(V, "exists x. forall y. E(x,y)")
        assert f == Exists("x", Forall("y", Atom("E", (Var("x"), Var("y")))))

    def test_precedence(self):
        f = parse(V, "E(x,x) & !E(x,y) | E(y,y) -> x = y")
        assert isinstance(f, Implies)
        assert isinstance(f.lhs, Or)
        assert isinstance(f.lhs.lhs, And)

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(V, "E(x")
        assert err.value.position == 3

    def test_unknown_predicate(self):
        with pytest.raises(FormulaSyntaxError):
            parse(V, "F(x,y)")

    def test_arity_mismatch(self):
        with pytest.raises(FormulaSyntaxError):
            parse(V, "E(x)")

    def test_predicate_as_term_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse(V, "E(E, x)")

    def test_constant_recognized(self):
        f = parse(VC, "E(c, x)")
        assert f == Atom("E", (Cst("c"), Var("x")))

    def test_round_trip_on_random_asts(self):
        rng = random.Random(100)
        for _ in range(100):
            f = random_formula(rng, VC, rng.randint(0, 3), scope=("a", "b"))
            assert parse(VC, print_formula(f)) == f


class TestQuantifierRank:
    def test_quantifier_free(self):
        assert quantifier_rank(parse(V, "E(x,y) & x = y")) == 0

    def test_nested(self):
        assert quantifier_rank(parse(V, "exists x. forall y. E(x,y)")) == 2

    def test_parallel_branches(self):
        f = parse(V, "exists x. (E(x,x) & (forall y. E(x,y)))")
        assert quantifier_rank(f) == 2


class TestEvaluate:
    def test_witness_example(self):
        assert evaluate(WITNESS_EXAMPLE, parse(V, "exists x. forall y. E(x,y)"))

    def test_plain_vertex_has_no_loop(self):
        A = Structure(V, 1)
        assert not evaluate(A, parse(V, "exists x. E(x,x)"))

    def test_unassigned_free_variable(self):
        with pytest.raises(ValueError):
            evaluate(WITNESS_EXAMPLE, parse(V, "E(x,y)"), {"x": 0})

    def test_agrees_with_game_oracle(self):
        # every structure with at most 3 elements, 50 random sentences
        rng = random.Random(17)
        pool = all_structures(V, (1, 2, 3))
        for _ in range(50):
            f = random_formula(rng, V, rng.randint(1, 2))
            for A in pool:
                assert evaluate(A, f) == game_evaluate(A, f)

    def test_respects_rank_equivalence(self):
        rng = random.Random(18)
        c4, c5 = make_cycle(4), make_cycle(5)
        assert m_equivalent(c4, c5, 2)
        for _ in range(40):
            f = random_formula(rng, V, rng.randint(1, 2))
            assert evaluate(c4, f) == evaluate(c5, f)


class TestCompiledEvaluate:
    """The compiled evaluator against the recursive reference evaluator and
    the game evaluator."""

    VOCABS = [
        Vocabulary.make({"P": 1}),
        Vocabulary.make({"P": 1}, ["c"]),
        V,
        VC,
        Vocabulary.make({"T": 3, "P": 1}),
        Vocabulary.make({"T": 3, "P": 1}, ["c", "d"]),
    ]

    def test_agrees_with_reference_and_game(self):
        rng = random.Random(23)
        for vocab in self.VOCABS:
            for i in range(40):
                f = random_formula(rng, vocab, rng.randint(0, 3), scope=("a", "b"))
                if i % 2:
                    f = _shadowing(f, rng)
                for _ in range(3):
                    A = random_structure(rng, vocab, rng.randint(1, 4))
                    env = {"a": rng.randrange(A.size), "b": rng.randrange(A.size)}
                    got = evaluate(A, f, env)
                    assert got == reference_evaluate(A, f, env) == game_evaluate(A, f, env)

    def test_shadowed_binder_restores_the_outer_value(self):
        A = Structure(V, 2, {"E": {(0, 0)}})
        x = Var("x")
        f = And(Exists("x", Not(Atom("E", (x, x)))), Atom("E", (x, x)))
        assert evaluate(A, f, {"x": 0})
        assert not evaluate(A, f, {"x": 1})

    def test_one_formula_on_several_vocabularies(self):
        # each vocabulary compiles its own plan; a formula whose symbols fit
        # agrees with the reference, and any other is refused for one of its
        # missing symbols or wrong arities
        rng = random.Random(24)
        others = [
            Vocabulary.make({"E": 2, "P": 1}, ["c"]),
            Vocabulary.make({"E": 3}),
            Vocabulary.make({"P": 1}),
            Vocabulary.make({"E": 2}, ["d"]),
        ]
        outcomes = []
        for _ in range(40):
            f = random_formula(rng, VC, rng.randint(1, 2), scope=("a",))
            for vocab in [VC] + others + [VC]:
                if "c" not in vocab.constants:
                    vocab = vocab.with_constants(["c"]) if rng.random() < 0.5 else vocab
                A = random_structure(rng, vocab, rng.randint(1, 3))
                env = {"a": rng.randrange(A.size)}
                misfits = _misfits(f, vocab)
                if misfits:
                    with pytest.raises(ValueError) as info:
                        evaluate(A, f, env)
                    assert str(info.value) in misfits
                else:
                    assert evaluate(A, f, env) == reference_evaluate(A, f, env)
                outcomes.append(bool(misfits))
        assert set(outcomes) == {False, True}

    def test_errors_are_raised_when_compiled(self):
        # a symbol the vocabulary lacks, or a wrong arity, is refused wherever
        # it sits: behind a short-circuit, under Not, inside a staged block;
        # A has no loop, so a walk of the syntax tree would never reach Q in
        # the blocks after loop_y. No fact is looked up before the refusal.
        lookups = []

        class Counting(dict):
            def __getitem__(self, name):
                lookups.append(name)
                return super().__getitem__(name)

        x, y = Var("x"), Var("y")
        known, unknown, loop_y = Eq(x, x), Atom("Q", (x,)), Atom("E", (y, y))
        A = Structure._derived(V, 2, Counting({"E": frozenset({(0, 1)})}))
        for message, f in [
            ("unknown predicate Q", Or(known, unknown)),
            ("unknown predicate Q", Or(unknown, known)),
            ("arity mismatch for E", And(Not(known), Atom("E", (x,)))),
            ("arity mismatch for E", And(Atom("E", (x,)), Not(known))),
            ("unknown constant z", Or(known, Eq(Cst("z"), x))),
            ("unknown constant z", Or(Eq(x, Cst("z")), known)),
            ("unknown predicate Q", Exists("x", Exists("y", And(loop_y, unknown)))),
            ("unknown predicate Q", Exists("x", Exists("y", And(loop_y, Not(unknown))))),
            ("unknown predicate Q", Exists("x", Exists("y", And(loop_y, Or(unknown, known))))),
            ("unknown predicate Q", Exists("x", Exists("y", And(Atom("Q", (y,)), Atom("E", (x, x)))))),
        ]:
            with pytest.raises(ValueError, match=message):
                evaluate(A, f, {"x": 0})
        assert lookups == []

    def test_atomic_diagram_tests_each_fact_once_its_variables_are_bound(self):
        # the diagram of {(0,1),(0,2)} on the directed 6-cycle: x1 = x2 is
        # rejected before x3 is picked (300 lookups with every fact tested
        # innermost)
        lookups = []

        class Counting(dict):
            def __getitem__(self, name):
                lookups.append(name)
                return super().__getitem__(name)

        c6 = make_cycle(6)
        A = Structure._derived(c6.vocab, c6.size, Counting(c6.relations))
        f = atomic_diagram_sentence(Structure(V, 3, {"E": {(0, 1), (0, 2)}}))
        assert evaluate(A, f) is False
        assert len(lookups) <= 100
        assert reference_evaluate(c6, f) is False

    def test_an_unread_block_variable_gets_no_loop(self):
        # U holds everywhere on six elements: y is read by no part, so the
        # block makes the lookups of the block without it, 6 * (1 + 6)
        # (222 when y is looped over)
        lookups = []

        class Counting(dict):
            def __getitem__(self, name):
                lookups.append(name)
                return super().__getitem__(name)

        vocab = Vocabulary.make({"U": 1})
        A = Structure._derived(vocab, 6, Counting({"U": frozenset((i,) for i in range(6))}))
        body = And(Atom("U", (Var("x"),)), Not(Atom("U", (Var("z"),))))
        counts = []
        for f in (Exists("x", Exists("y", Exists("z", body))), Exists("x", Exists("z", body))):
            del lookups[:]
            assert evaluate(A, f) is False
            counts.append(len(lookups))
            assert reference_evaluate(A, f) is False
        assert counts == [42, 42]

    def test_staged_blocks_agree_with_reference(self):
        # atomic diagrams, true (of a substructure) and mostly false (of a
        # random structure), their Or/Not combinations, and blocks of one
        # quantifier over a chain of its own connective whose parts read
        # random subsets of the block variables and the free a, b
        rng = random.Random(31)
        seen = set()
        for vocab in self.VOCABS:
            for i in range(30):
                A = random_structure(rng, vocab, rng.randint(1, 4))
                marks = rng.sample(range(A.size), rng.randint(1, min(2, A.size)))
                keep = {*A.constant_interp.values(), *marks}
                diagrams = [
                    atomic_diagram_sentence(induced_substructure(A, keep)[0]),
                    atomic_diagram_sentence(random_structure(rng, vocab, rng.randint(1, 3))),
                ]
                formulas = diagrams + [
                    Or(*diagrams), Not(Or(*diagrams)), And(Not(diagrams[1]), diagrams[0]),
                    _staged_block(rng, vocab, Exists), _staged_block(rng, vocab, Forall),
                ]
                if i % 2:
                    formulas = [_shadowing(f, rng) for f in formulas]
                env = {"a": rng.randrange(A.size), "b": rng.randrange(A.size)}
                for f in formulas:
                    got = evaluate(A, f, env)
                    assert got == reference_evaluate(A, f, env), (vocab, A, f, env)
                    seen.add((type(f), got))
        assert {(Exists, True), (Exists, False), (Forall, True), (Forall, False)} <= seen

    def test_unassigned_error_matches_reference(self):
        f = parse(V, "E(x,y) & E(z,x)")
        with pytest.raises(ValueError) as got:
            evaluate(WITNESS_EXAMPLE, f, {"x": 0})
        with pytest.raises(ValueError) as want:
            reference_evaluate(WITNESS_EXAMPLE, f, {"x": 0})
        assert str(got.value) == str(want.value) == "unassigned free variables: ['y', 'z']"


class TestProperties:
    @PROPERTY
    @given(_formulas)
    def test_print_parse_round_trip(self, f):
        assert parse(VH, print_formula(f)) == f

    @PROPERTY
    @given(_formulas, _structures(), st.integers(0, 2), st.integers(0, 2))
    def test_evaluate_matches_game(self, f, A, x, y):
        env = {"x": x % A.size, "y": y % A.size}
        assert evaluate(A, f, env) == game_evaluate(A, f, env)


class TestRelativize:
    def test_quantifier_free_sentence_unchanged(self):
        f = parse(VC, "E(c,c)")
        assert relativize(f, ("x1",)) == f

    def test_witness_sentence_collapses(self):
        f = parse(V, "exists x. forall y. E(x,y)")
        assert relativize(f, ("x1",)) == Atom("E", (Var("x1"), Var("x1")))

    def test_requires_sentence(self):
        with pytest.raises(ValueError):
            relativize(parse(V, "E(x,y)"), ("x1",))

    def test_requires_variables(self):
        with pytest.raises(ValueError):
            relativize(parse(V, "exists x. E(x,x)"), ())

    def test_prefix_named_like_bound_variables(self):
        # a binder named like a prefix variable must not capture it
        rng = random.Random(22)
        structures = all_structures(V, (1, 2)) + [random_structure(rng, V, 3) for _ in range(4)]
        sentences = [parse(V, "exists x. forall y. (E(x,y) | (exists x. E(y,x)))"),
                     parse(V, "forall _q0. exists _q1. E(_q0,_q1)")]
        sentences += [random_formula(rng, V, rng.randint(1, 2)) for _ in range(12)]
        for f in sentences:
            bound = sorted(_bound_names(f))
            for xs in (tuple(bound[:2]), tuple(bound[::-1][:2]), ("_q0",)):
                rel = relativize(f, xs)
                for A in rng.sample(structures, 4):
                    for values in itertools.product(range(A.size), repeat=len(xs)):
                        sub, _ = induced_substructure(A, set(values))
                        got = reference_evaluate(A, rel, dict(zip(xs, values)))
                        assert got == reference_evaluate(sub, f)

    def test_always_quantifier_free(self):
        rng = random.Random(19)
        for _ in range(40):
            f = random_formula(rng, V, rng.randint(1, 3))
            out = relativize(f, ("x1", "x2"))
            assert is_quantifier_free(out)
            assert free_vars(out) <= {"x1", "x2"}

    def test_semantic_contract_exhaustively(self):
        # truth of the relativized formula = truth inside the induced substructure
        rng = random.Random(20)
        structures = all_structures(V, (1, 2)) + [
            random_structure(rng, V, 3) for _ in range(10)
        ]
        sentences = [random_formula(rng, V, rng.randint(1, 2)) for _ in range(30)]
        for f in sentences:
            for A in rng.sample(structures, 8):
                for length in (1, 2):
                    xs = tuple(f"x{i+1}" for i in range(length))
                    rel = relativize(f, xs)
                    for values in itertools.product(range(A.size), repeat=length):
                        sub, _ = induced_substructure(A, set(values))
                        expected = evaluate(sub, f)
                        got = evaluate(A, rel, dict(zip(xs, values)))
                        assert got == expected

    def test_contract_with_constants(self):
        rng = random.Random(21)
        for _ in range(40):
            A = random_structure(rng, VC, rng.randint(1, 3))
            f = random_formula(rng, VC, rng.randint(1, 2))
            rel = relativize(f, ("x1",), constants=("c",))
            for a in range(A.size):
                sub, _ = induced_substructure(A, {a, A.constant_interp["c"]})
                assert evaluate(A, rel, {"x1": a}) == evaluate(sub, f)


class TestSizeBound:
    def test_single_vertex_small(self):
        assert evaluate(Structure(V, 1), size_bound_sentence(1))

    def test_two_vertices_not_small(self):
        assert not evaluate(Structure(V, 2), size_bound_sentence(1))

    def test_matches_cardinality(self):
        rng = random.Random(22)
        for _ in range(30):
            A = random_structure(rng, V, rng.randint(1, 6))
            n = rng.randint(1, 6)
            assert evaluate(A, size_bound_sentence(n)) == (A.size <= n)

    def test_shape_is_exists_block_then_one_universal(self):
        f = size_bound_sentence(3)
        depth = 0
        while isinstance(f, Exists):
            depth += 1
            f = f.body
        assert depth == 3 and isinstance(f, Forall)
        assert is_quantifier_free(f.body)


class TestPrefixSentence:
    def test_zero_prefix_is_matrix(self):
        matrix = parse(VC, "E(c,c)")  # k = p = 0 needs a ground matrix
        ps = assemble_prefix(0, 0, matrix)
        assert to_formula(ps) == matrix

    def test_one_one(self):
        matrix = Atom("E", (Var("x1"), Var("y1")))
        ps = assemble_prefix(1, 1, matrix)
        assert to_formula(ps) == Exists("x1", Forall("y1", matrix))

    def test_matrix_must_be_quantifier_free(self):
        with pytest.raises(ValueError):
            PrefixSentence((), (), parse(V, "exists x. E(x,x)"))

    def test_matrix_variables_must_be_declared(self):
        with pytest.raises(ValueError):
            assemble_prefix(1, 0, Atom("E", (Var("z"), Var("z"))))

    def test_round_trip_through_formula(self):
        matrix = parse(V, "E(x1,y1) | x1 = y1")
        ps = assemble_prefix(1, 1, matrix)
        f = to_formula(ps)
        assert quantifier_rank(f) == 2
        assert free_vars(f) == frozenset()


def _bound_names(f) -> set[str]:
    if isinstance(f, (Exists, Forall)):
        return {f.var} | _bound_names(f.body)
    if isinstance(f, Not):
        return _bound_names(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return _bound_names(f.lhs) | _bound_names(f.rhs)
    return set()

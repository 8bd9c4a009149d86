"""The immutable values built on ``fmtk.records.Record`` behave as the frozen
dataclasses they replace: equality within one class, ``hash`` of the field
tuple, ``Name(field=value, ...)`` reprs, no assignment, and each class's own
validation."""

import inspect

import pytest

from fmtk.algebra import LEAF, UNION, ExprNode, leaf, node
from fmtk.equiv import RankType, rank_type
from fmtk.folog import (
    And, Atom, Cst, Eq, Exists, Forall, Implies, Not, Or, PrefixSentence, Var, parse,
)
from fmtk.structures import MarkedStructure, Vocabulary
from fmtk.wqo import make_cycle, make_path

V = Vocabulary.make({"E": 2})
x, y = Var("x"), Var("y")
E = Atom("E", (x, y))

# (record, its fields in order)
RECORDS = [
    (x, ("x",)),
    (Cst("c"), ("c",)),
    (E, ("E", (x, y))),
    (Eq(x, y), (x, y)),
    (Not(E), (E,)),
    (And(E, E), (E, E)),
    (Or(E, Eq(x, y)), (E, Eq(x, y))),
    (Implies(E, E), (E, E)),
    (Exists("x", E), ("x", E)),
    (Forall("y", E), ("y", E)),
    (PrefixSentence(("x",), ("y",), E), (("x",), ("y",), E)),
    (V, ((("E", 2),), ())),
    (RankType(1, ((1, 0, (0,)),)), (1, ((1, 0, (0,)),))),
]


class TestValueSemantics:
    @pytest.mark.parametrize("record, fields", RECORDS, ids=lambda r: type(r).__name__)
    def test_hash_is_the_hash_of_the_fields(self, record, fields):
        assert hash(record) == hash(fields)

    @pytest.mark.parametrize("record, fields", RECORDS, ids=lambda r: type(r).__name__)
    def test_equal_to_a_rebuilt_copy(self, record, fields):
        copy = type(record)(*fields)
        assert copy == record and not copy != record
        assert copy is not record

    def test_equality_needs_the_same_class(self):
        assert Var("x") != Cst("x")
        assert And(E, E) != Or(E, E)
        assert Exists("x", E) != Forall("x", E)
        assert Var("x") != ("x",)
        assert len({Var("x"), Cst("x"), Var("x")}) == 2

    def test_fields_are_compared_in_order(self):
        assert Eq(x, y) != Eq(y, x)
        assert Atom("E", (x, y)) != Atom("F", (x, y))

    def test_rank_types_of_equivalent_structures_are_equal(self):
        assert rank_type(make_cycle(4), (), 2) == rank_type(make_cycle(5), (), 2)
        assert rank_type(make_cycle(4), (), 2) != rank_type(make_path(1), (), 2)

    def test_repr(self):
        assert repr(Var("x")) == "Var(name='x')"
        assert repr(V) == "Vocabulary(predicates=(('E', 2),), constants=())"
        assert repr(Exists("x", Not(Eq(x, Cst("c"))))) == (
            "Exists(var='x', body=Not(sub=Eq(lhs=Var(name='x'), rhs=Cst(name='c'))))"
        )
        assert repr(PrefixSentence((), ("y",), Eq(y, y))) == (
            "PrefixSentence(exist_vars=(), univ_vars=('y',), "
            "matrix=Eq(lhs=Var(name='y'), rhs=Var(name='y')))"
        )
        assert repr(RankType(0, (1, 0, ()))) == "RankType(rank=0, key=(1, 0, ()))"

    @pytest.mark.parametrize("record, fields", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, record, fields):
        name = next(iter(inspect.signature(type(record)).parameters))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) == fields[0]

    def test_keyword_construction(self):
        assert Var(name="x") == x
        assert Vocabulary(predicates=(("E", 2),)) == V
        assert MarkedStructure(make_path(2), (0,), ordered=False).ordered is False


class TestValidation:
    def test_vocabulary_sorts_and_validates(self):
        v = Vocabulary((("Q", 1), ("E", 2)), ("c2", "c1"))
        assert v.predicates == (("E", 2), ("Q", 1)) and v.constants == ("c1", "c2")
        assert hash(v) == hash(((("E", 2), ("Q", 1)), ("c1", "c2")))
        assert v == Vocabulary((("E", 2), ("Q", 1)), ("c1", "c2"))
        with pytest.raises(ValueError, match="duplicate symbol names"):
            Vocabulary((("E", 2), ("E", 1)))
        with pytest.raises(ValueError, match="not an identifier"):
            Vocabulary((("1E", 2),))
        with pytest.raises(ValueError, match="non-positive arity"):
            Vocabulary((("E", 0),))

    def test_prefix_sentence(self):
        with pytest.raises(ValueError, match="quantifier-free"):
            PrefixSentence((), (), parse(V, "exists x. E(x,x)"))
        with pytest.raises(ValueError, match="disjoint"):
            PrefixSentence(("x",), ("x",), Eq(x, x))
        with pytest.raises(ValueError, match="free variables"):
            PrefixSentence(("x",), (), Eq(x, y))

    def test_marked_structure(self):
        with pytest.raises(ValueError, match="outside the universe"):
            MarkedStructure(make_path(2), (3,))
        with pytest.raises(ValueError, match="distinct"):
            MarkedStructure(make_path(2), (1, 1), ordered=False)
        assert MarkedStructure(make_path(2), (1, 1)).marks == (1, 1)

    def test_expression_node(self):
        A = make_path(1)
        with pytest.raises(ValueError, match="a leaf carries a structure"):
            ExprNode(LEAF)
        with pytest.raises(ValueError, match="unknown operation"):
            ExprNode("?", (leaf(A),))
        with pytest.raises(ValueError, match="expects 2 children"):
            ExprNode(UNION, (leaf(A),))
        with pytest.raises(ValueError, match="internal nodes carry no structure"):
            ExprNode(UNION, (leaf(A), leaf(A)), base=A)

    def test_expression_node_ids_are_fresh_per_node(self):
        A = make_path(1)
        a, b = leaf(A), leaf(A)
        u = node(UNION, a, b)
        assert len({a.node_id, b.node_id, u.node_id}) == 3
        assert a != b  # the id is a field, as it was in the dataclass
        assert ExprNode(LEAF, base=A, node_id=a.node_id) == a

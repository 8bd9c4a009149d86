"""Shrinking structures built by operation expressions.

Structures assembled from disjoint unions and complements (think cographs
built from single vertices) can be shrunk compositionally: push the
complements down to the leaves, splice out repeated subexpression classes,
then shrink each leaf. The result comes with a machine-checked certificate
that it still lies in the expression-generated class.
"""

import random

from fmtk.algebra import (
    COMPLEMENT,
    UNION,
    eval_expression_tree,
    leaf,
    node,
    parse_expression,
    push_complement_to_leaves,
    serialize_expression,
    shrink_algebraic,
)
from fmtk.structures import Structure, Vocabulary

V = Vocabulary.make({"E": 2})
vertex = Structure(V, 1)

# A cograph recipe: join = complement of the union of complements.
rng = random.Random(2)


def cograph(depth):
    if depth == 0:
        return leaf(vertex)
    left, right = cograph(depth - 1), cograph(depth - 1)
    if rng.random() < 0.5:
        return node(COMPLEMENT, node(UNION, left, right))
    return node(UNION, left, right)


expr = cograph(4)
graph = eval_expression_tree(expr)
print("built a cograph with", graph.size, "vertices and",
      len(graph.relations["E"]) // 2, "edges")

# Complements pushed to the leaves leave unions, join-like nodes and
# complemented leaves; the evaluation does not change at all.
pushed = push_complement_to_leaves(expr)
print("after push-down, evaluation unchanged:",
      eval_expression_tree(pushed) == graph)

# Shrink around two marked vertices at rank 2. The report re-verifies the
# containment, the substructure witness, the equivalence, and that the
# certificate expression evaluates back to the output.
marks = [0, graph.size - 1]
out, report = shrink_algebraic(expr, marks, 2, 2)
print(f"\nshrunk {report.input_size} -> {report.output_size} vertices")
for phase, before, after in report.phases:
    print(f"  {phase}: {before} -> {after}")
print("  verdicts:", report.verdicts)
print("  certificate:", report.certificate)

# Expressions also round-trip through a text form.
named = {"a": vertex}
parsed = parse_expression("(! (u a (! a)))", named)
print("\nparsed expression evaluates to",
      eval_expression_tree(parsed).size, "vertices:",
      serialize_expression(parsed))

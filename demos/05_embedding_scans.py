"""Embedding scans over sequences of marked structures.

Sequences of marked linear orders always contain an embedding pair once they
are long enough; marked paths do not. This demo runs the gap-count scan on
orders, certifies a path antichain, and asks which quantifier rank tells a
member of the paths-plus-one-cycle family from the same paths without it.
"""

from fmtk.equiv import m_equivalent
from fmtk.structures import MarkedStructure
from fmtk.wqo import (
    antichain_certificate,
    dickson_pair,
    linear_order_embedding_pair,
    make_Gn,
    make_Hn,
    make_linear_order,
    make_path,
)

# Componentwise domination in tuples of counts: the engine behind the
# order scan.
print("dominated pair in [(3,1),(2,2),(1,3),(4,4)]:",
      dickson_pair([(3, 1), (2, 2), (1, 3), (4, 4)]))
print("an antichain has none:", dickson_pair([(1, 2), (2, 1)]))

# Marked linear orders: group by the relative pattern of the marks, compare
# inclusive gap counts, verify the winning pair by an actual embedding.
items = [
    (make_linear_order(5), (0, 3)),
    (make_linear_order(4), (2, 0)),
    (make_linear_order(7), (1, 5)),
]
print("\nembedding pair among three marked orders:",
      linear_order_embedding_pair(items, 2))

# Paths with both endpoints marked are pairwise incomparable: keeping the
# endpoints pins the whole path.
marked_paths = [MarkedStructure(make_path(n), (0, n)) for n in range(2, 6)]
ok, _ = antichain_certificate(marked_paths)
print("endpoint-marked paths P2..P5 form an antichain:", ok)

# Without marks they chain into each other immediately.
plain = [MarkedStructure(make_path(n), ()) for n in range(2, 6)]
ok, pair = antichain_certificate(plain)
print("unmarked paths are comparable:", not ok, "first pair:", pair)

# The paths-plus-one-cycle family: G_n puts a cycle on 3**n vertices next to
# H_n, and rank m tells the two apart only when n is small against m.
print()
for n, m in ((1, 2), (1, 3), (2, 3)):
    print(f"G_{n} and H_{n} rank-{m} equivalent:", m_equivalent(make_Gn(n), make_Hn(n), m))

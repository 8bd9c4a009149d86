"""Expression trees over structure operations, complement push-down, and
shrinking of compositions, structure-words, and structure-trees.

Every leaf and block is shrunk by :func:`exhaustive_leaf_shrinker`, which
returns ``(substructure, kept)``: ``kept`` lists the original element ids
retained, in increasing order (``kept[i]`` is the old id of new element
``i``). That witness routes marks and certifies containment.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from .equiv import TypeScope, check_rank_type_cost, m_equivalent, subset_typer, type_id
from .errors import StructureFormatError, VerificationFailed, check_guard
from .records import Record
from .shrink import ShrinkReport, SigmaTree, shrink_tree, splice_repeats
from .structures import (
    MarkedStructure,
    Structure,
    block_offsets,
    bowtie,
    cartesian_product,
    check_embedding_witness,
    checked_marks,
    complement,
    disjoint_union,
    find_embedding,
    induced_substructure,
    kept_id_sets,
    tensor_product,
    tree_of_structures,
    word_of_structures,
)

UNION, COMPLEMENT, CARTESIAN, TENSOR, BOWTIE, LEAF = "u", "!", "x", "t", "bw", "leaf"
_ARITY = {UNION: 2, COMPLEMENT: 1, CARTESIAN: 2, TENSOR: 2, BOWTIE: 2}

EXHAUSTIVE_SHRINK_GUARD = 12  # largest leaf the exhaustive leaf shrinker searches

_ids = itertools.count()


class ExprNode(Record):
    """One node of an expression tree; leaves carry structures.

    ``node_id`` is fresh per node unless given.
    """

    __slots__ = ("op", "children", "base", "node_id")

    def __init__(self, op: str, children: tuple["ExprNode", ...] = (),
                 base: Structure | None = None, node_id: int | None = None):
        if node_id is None:
            node_id = next(_ids)
        if op == LEAF:
            if children or base is None:
                raise ValueError("a leaf carries a structure and no children")
        else:
            if op not in _ARITY:
                raise ValueError(f"unknown operation {op!r}")
            if len(children) != _ARITY[op]:
                raise ValueError(f"operation {op!r} expects {_ARITY[op]} children")
            if base is not None:
                raise ValueError("internal nodes carry no structure")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "node_id", node_id)

    def leaves(self) -> list["ExprNode"]:
        if self.op == LEAF:
            return [self]
        return [leaf for c in self.children for leaf in c.leaves()]

    def ops_used(self) -> set[str]:
        if self.op == LEAF:
            return set()
        return {self.op} | {op for c in self.children for op in c.ops_used()}


def leaf(S: Structure) -> ExprNode:
    return ExprNode(LEAF, base=S)


def node(op: str, *children: ExprNode) -> ExprNode:
    return ExprNode(op, tuple(children))


_EVAL = {
    UNION: disjoint_union,
    COMPLEMENT: complement,
    CARTESIAN: cartesian_product,
    TENSOR: tensor_product,
    BOWTIE: bowtie,
}


def eval_expression_tree(s: ExprNode) -> Structure:
    """Bottom-up evaluation through the structure operations."""
    if s.op == LEAF:
        return s.base
    return _EVAL[s.op](*(eval_expression_tree(c) for c in s.children))


def evaluated_size(s: ExprNode) -> int:
    """Universe size of :func:`eval_expression_tree`'s result, read off the
    tree without evaluating it."""
    if s.op == LEAF:
        return s.base.size
    sizes = [evaluated_size(c) for c in s.children]
    if s.op in (CARTESIAN, TENSOR):
        return sizes[0] * sizes[1]
    return sum(sizes)


def eval_with_provenance(s: ExprNode) -> tuple[Structure, tuple[tuple[int, int], ...]]:
    """Evaluation plus, per element, the ``(leaf id, leaf element)`` it came
    from. Defined for complement/union/bowtie trees, where universes stack
    leaf by leaf in leaf order."""
    bad = s.ops_used() - {COMPLEMENT, UNION, BOWTIE}
    if bad:
        raise ValueError(f"provenance undefined for operation {min(bad)!r}")
    prov = tuple((lf.node_id, e) for lf in s.leaves() for e in range(lf.base.size))
    return eval_expression_tree(s), prov


def push_complement_to_leaves(s: ExprNode) -> ExprNode:
    """Negation normal form of a union/complement tree: union/bowtie nodes,
    complements over leaves only, and the same evaluation element-for-element.
    Each leaf position gets a fresh leaf, numbered left to right before any
    inner node, and a complement over a leaf takes that leaf's id."""
    bad = s.ops_used() - {UNION, COMPLEMENT}
    if bad:
        raise ValueError(f"push-down is defined for union/complement trees, found {sorted(bad)}")
    fresh = iter([leaf(lf.base) for lf in s.leaves()])

    def walk(t: ExprNode, neg: bool) -> ExprNode:
        if t.op == LEAF:
            lf = next(fresh)
            return ExprNode(COMPLEMENT, (lf,), node_id=lf.node_id) if neg else lf
        if t.op == COMPLEMENT:
            return walk(t.children[0], not neg)
        return ExprNode(
            BOWTIE if neg else UNION, tuple(walk(c, neg) for c in t.children)
        )

    pushed = walk(s, False)
    del walk  # it refers to itself: unbound here, it is freed now, not by the cyclic collector
    return pushed


def reexpand_bowties(t: ExprNode) -> ExprNode:
    """Certificate form: write every bowtie back through union and complement."""
    if t.op == LEAF:
        return t
    children = tuple(reexpand_bowties(c) for c in t.children)
    if t.op == BOWTIE:
        return node(
            COMPLEMENT,
            node(UNION, node(COMPLEMENT, children[0]), node(COMPLEMENT, children[1])),
        )
    return ExprNode(t.op, children)


# ---------------------------------------------------------------------------
# height reduction and leaf shrinking


def _distinct_leaves(t: ExprNode) -> list[ExprNode]:
    """``t``'s leaves, which must not share ids: marks are keyed by leaf id."""
    leaves = t.leaves()
    if len({lf.node_id for lf in leaves}) < len(leaves):
        raise ValueError("two leaves share a node id")
    return leaves


def _index(
    t: ExprNode, w_leaf_ids: set[int]
) -> tuple[dict[int, ExprNode], dict[int, tuple[range, int]]]:
    """Every node of ``t`` by node id, and its block of ``t``'s evaluation
    with how many marked leaves it covers. The leaves' universes stack in
    leaf order, so each node's block is one range. A complemented leaf is
    one node, since its leaf alone is not the whole's substructure there."""
    nodes: dict[int, ExprNode] = {}
    blocks: dict[int, tuple[range, int]] = {}

    def walk(n: ExprNode, lo: int) -> tuple[int, int]:
        if n.op in (UNION, BOWTIE):
            hi, c = lo, 0
            for ch in n.children:
                hi, below = walk(ch, hi)
                c += below
        elif n.op == LEAF or n.op == COMPLEMENT and n.children[0].op == LEAF:
            lf = n.children[0] if n.children else n
            hi, c = lo + lf.base.size, int(lf.node_id in w_leaf_ids)
        else:
            raise ValueError(f"height reduction expects negation normal form, found {n.op!r}")
        nodes[n.node_id] = n
        blocks[n.node_id] = (range(lo, hi), c)
        return hi, c

    walk(t, 0)
    del walk  # it refers to itself: unbound here, it is freed now, not by the cyclic collector
    return nodes, blocks


def reduce_expression_height(
    s: ExprNode, w_pairs: set[tuple[int, int]], type_of, k: int
) -> ExprNode:
    """Splice out nested subexpressions that evaluate into the same rank class
    and cover the same number of marked leaves; marked leaves survive.

    :func:`~fmtk.shrink.splice_repeats` splices, deepest first: a node ``b``
    whose (class, marked-leaf count) repeats at an ancestor ``a`` puts its
    subexpression in the place of ``a``'s. ``type_of`` is
    :func:`~fmtk.equiv.subset_typer` over the evaluation of ``s``, opened by
    the caller, which evaluates ``s`` anyway. Every node of a union/bowtie
    tree (a complemented leaf is one node) evaluates to the induced
    substructure of the whole on its block, since ``u`` and ``bw`` restrict
    to each operand on its block; so by the relativization lemma a node's
    class is the type id of its block, in the typer's one scope, and ids are
    equal exactly when the rank-``m`` keys of the evaluated subexpressions
    are. ``a`` and ``b`` also cover equal numbers of marked leaves, so no
    splice changes the pair of a node that remains, and the result is built
    once, reusing every unchanged node. :func:`shrink_algebraic`'s
    ``equivalent`` verdict does not read the ids: it compares full rank
    types of the evaluated input and output.
    """
    w_pairs = checked_marks(
        w_pairs, k, {(lf.node_id, e) for lf in _distinct_leaves(s) for e in range(lf.base.size)}
    )
    nodes, blocks = _index(s, {lid for lid, _ in w_pairs})
    g = {nid: (type_of(block), count) for nid, (block, count) in blocks.items()}
    kids = {nid: [c.node_id for c in n.children] if n.op in (UNION, BOWTIE) else []
            for nid, n in nodes.items()}
    root, _ = splice_repeats(s.node_id, kids, g)

    def build(nid: int) -> ExprNode:
        n = nodes[nid]
        children = tuple(build(c) for c in kids[nid])
        if all(new is old for new, old in zip(children, n.children)):
            return n
        return ExprNode(n.op, children, node_id=nid)

    out = build(root)
    del build  # it refers to itself: unbound here, it is freed now, not by the cyclic collector
    return out


def exhaustive_leaf_shrinker(B: Structure, marks, m: int):
    """Smallest equivalent mark-containing induced substructure, by direct
    enumeration over subsets; guarded at ``EXHAUSTIVE_SHRINK_GUARD``.

    The kept sets come smallest first, in the order of
    :func:`~fmtk.structures.kept_id_sets`. By the relativization lemma the
    type of ``B[kept]`` is read on ``B``'s own facts with the quantifiers
    restricted to ``kept`` (:func:`~fmtk.equiv.subset_typer`), so each
    set's type id is compared with ``B``'s in one shared scope, and only the
    chosen set is built.
    """
    check_guard("structure of size", B.size, EXHAUSTIVE_SHRINK_GUARD,
                "the exhaustive-shrink guard")
    type_of = subset_typer(B, m, TypeScope())
    target = type_of(range(B.size))
    for keep in kept_id_sets(B, marks):
        if type_of(keep) == target:
            return induced_substructure(B, keep)[0], keep
    return B, tuple(range(B.size))


def shrink_verdicts(original: Structure, out: Structure, witness, W, m: int) -> dict[str, bool]:
    """The postconditions every structure shrink re-checks. ``witness[i]`` is
    the element of ``original`` behind element ``i`` of ``out``: ``out`` must
    hold every mark of ``W`` (elements of ``original``), be the induced
    substructure of ``original`` that ``witness`` names, and have its rank-``m``
    type."""
    return {
        "contains_marks": set(W) <= set(witness),
        "substructure": check_embedding_witness(out, original, dict(enumerate(witness))),
        "equivalent": m_equivalent(out, original, m),
    }


def _shrink_each(parts, m: int) -> list[tuple[Structure, tuple[int, ...]]]:
    """:func:`exhaustive_leaf_shrinker` on each ``(structure, marks)`` pair,
    its output held to :func:`shrink_verdicts`; equal pairs are shrunk once."""
    keys = [(B, frozenset(marks)) for B, marks in parts]
    shrunk = {}
    for B, marks in dict.fromkeys(keys):
        sub, kept = exhaustive_leaf_shrinker(B, set(marks), m)
        kept = tuple(kept)
        if list(kept) != sorted(set(kept)):
            raise VerificationFailed("leaf shrinker must return kept ids sorted and distinct")
        failed = [name for name, ok in shrink_verdicts(B, sub, kept, marks, m).items() if not ok]
        if failed:
            raise VerificationFailed(f"leaf shrinker output fails {', '.join(failed)}")
        shrunk[B, marks] = sub, kept
    return [shrunk[key] for key in keys]


def shrink_leaves(
    t: ExprNode, w_pairs: set[tuple[int, int]], m: int
) -> tuple[ExprNode, dict[int, tuple[int, ...]]]:
    """Replace every leaf with its shrunken version, which keeps the leaf's
    marks among ``w_pairs`` (``(leaf id, element)`` pairs); returns the new
    tree and the per-leaf kept-id witnesses. Equal leaves with equal marks
    are shrunk once."""
    leaves = _distinct_leaves(t)
    parts = [(lf.base, {e for lid, e in w_pairs if lid == lf.node_id}) for lf in leaves]
    shrunk = {lf.node_id: done for lf, done in zip(leaves, _shrink_each(parts, m))}

    def walk(n: ExprNode) -> ExprNode:
        if n.op == LEAF:
            return ExprNode(LEAF, base=shrunk[n.node_id][0], node_id=n.node_id)
        return ExprNode(n.op, tuple(walk(c) for c in n.children), node_id=n.node_id)

    out = walk(t)
    del walk  # it refers to itself: unbound here, it is freed now, not by the cyclic collector
    return out, {lid: kept for lid, (_, kept) in shrunk.items()}


def _marks_by_part(W: set[int], offsets: list[int]) -> list[set[int]]:
    """Route marks of a stack of parts (``offsets`` from ``block_offsets``) to
    their parts: entry ``i`` holds part ``i``'s marks, as its own element ids."""
    per_part: list[set[int]] = [set() for _ in offsets]
    for e in W:
        i = bisect_right(offsets, e) - 1
        per_part[i].add(e - offsets[i])
    return per_part


def shrink_algebraic(s: ExprNode, W, m: int, k: int) -> tuple[Structure, ShrinkReport]:
    """Shrink the evaluation of a union/complement tree around the marked
    elements ``W`` (element indices of the evaluation).

    Pipeline: push complements to the leaves, splice repeated classes out of
    the expression, shrink each leaf. The result is re-verified by
    :func:`shrink_verdicts` and its re-expanded union/complement certificate
    must evaluate back to it; the certificate is attached to the report.
    """
    size = evaluated_size(s)
    W = checked_marks(W, k, range(size))
    vocab = s.leaves()[0].base.vocab
    check_rank_type_cost(vocab.arities, size, m, len(vocab.constants))
    pushed = push_complement_to_leaves(s)
    original, prov = eval_with_provenance(pushed)
    w_pairs = {prov[e] for e in W}
    t1 = reduce_expression_height(pushed, w_pairs, subset_typer(original, m, TypeScope()), k)
    mid_size = evaluated_size(t1)
    t2, kept_maps = shrink_leaves(t1, w_pairs, m)
    out = eval_expression_tree(t2)
    phases = [("expression-height", original.size, mid_size), ("leaf-shrink", mid_size, out.size)]

    # the element of ``original`` behind each (leaf id, element) pair of a
    # surviving leaf; ``out`` stacks the surviving leaves' kept elements
    element_of = {pair: e for e, pair in enumerate(prov)}
    witness = [element_of[lf.node_id, old] for lf in t2.leaves() for old in kept_maps[lf.node_id]]
    certificate_tree = reexpand_bowties(t2)
    verdicts = shrink_verdicts(original, out, witness, W, m)
    verdicts["certificate_evaluates_back"] = eval_expression_tree(certificate_tree) == out
    report = ShrinkReport(original.size, out.size, phases, verdicts,
                          serialize_expression(certificate_tree))
    report.raise_if_failed()
    return out, report


# ---------------------------------------------------------------------------
# words and trees over a structure class


def shrink_word_of_structures(
    parts: list[Structure], W, m: int, k: int
) -> tuple[Structure, ShrinkReport]:
    """Shrink a block word: first each block through
    :func:`exhaustive_leaf_shrinker`, then the block sequence as a word whose
    letters name the blocks' rank classes."""
    return _shrink_blocks({i: (None if i == 0 else i - 1) for i in range(len(parts))},
                          parts, W, m, k)


def shrink_tree_of_structures(
    shape: dict[int, int | None], parts: list[Structure], W, m: int, k: int
) -> tuple[Structure, ShrinkReport]:
    """Tree-shaped analogue of :func:`shrink_word_of_structures`."""
    return _shrink_blocks(shape, parts, W, m, k)


def _shrink_blocks(shape, parts, W, m, k):
    size = sum(p.size for p in parts)
    W = checked_marks(W, k, range(size))
    # the parts' predicates and the order predicate of tree_of_structures
    check_rank_type_cost((*parts[0].vocab.arities, 2) if parts else (), size, m)
    original = tree_of_structures(shape, parts)
    offsets = block_offsets(parts)
    marks = _marks_by_part(W, offsets)
    shrunk, kept = zip(*_shrink_each(zip(parts, marks), m))
    stage1_size = sum(b.size for b in shrunk)

    # the block tree over the block indices, lettered by type ids in one scope
    scope = TypeScope()
    seq_tree = SigmaTree(shape, {i: str(type_id(b, m, scope)) for i, b in enumerate(shrunk)})
    seq_out, seq_report = shrink_tree(seq_tree, {i for i, ms in enumerate(marks) if ms}, m, k)
    kept_shape, renum = seq_out.renumbered()
    kept_blocks = list(renum)  # old block index of each new block, in order
    out = tree_of_structures(kept_shape.parent, [shrunk[i] for i in kept_blocks])
    phases = [("block-shrink", original.size, stage1_size),
              ("block-sequence", stage1_size, out.size)]

    witness = [offsets[i] + old for i in kept_blocks for old in kept[i]]
    verdicts = shrink_verdicts(original, out, witness, W, m)
    verdicts["sequence_verified"] = seq_report.ok()
    report = ShrinkReport(original.size, out.size, phases, verdicts)
    report.raise_if_failed()
    return out, report


def wqo_scan_marked_words(
    items: list[tuple[list[Structure], set[int]]], k: int
) -> tuple[int, int] | None:
    """Scan marked block words for an embedding pair, marks onto marks.

    Each item is a parts list plus marked element indices of its composition;
    returns the first ``(i, j)`` (1-based, smallest ``j`` then smallest ``i``)
    with an embedding of word ``i`` into word ``j``, or ``None``.
    """
    encoded = []
    for parts, marks in items:
        if len(marks) > k:
            raise ValueError(f"a word carries {len(marks)} marks; k = {k}")
        word = word_of_structures(parts)
        encoded.append(MarkedStructure(word, tuple(sorted(marks)), ordered=False).expand())
    if any(w.vocab != encoded[0].vocab for w in encoded):
        raise ValueError("all words must share one vocabulary")
    for j in range(1, len(encoded)):
        for i in range(j):
            if find_embedding(encoded[i], encoded[j]) is not None:
                return (i + 1, j + 1)
    return None


# ---------------------------------------------------------------------------
# s-expression text format


def serialize_expression(t: ExprNode, names: dict[int, str] | None = None) -> str:
    """Render as an s-expression; leaves print their given names or ``s<i>``."""
    counter = itertools.count()

    def walk(n: ExprNode) -> str:
        if n.op == LEAF:
            return names[n.node_id] if names and n.node_id in names else f"s{next(counter)}"
        inner = " ".join(walk(c) for c in n.children)
        return f"({n.op} {inner})"

    text = walk(t)
    del walk  # it refers to itself: unbound here, it is freed now, not by the cyclic collector
    return text


def parse_expression(text: str, structures: dict[str, Structure]) -> ExprNode:
    """Parse ``(u a (! b))``-style input; leaf names index ``structures``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse_one() -> ExprNode:
        nonlocal pos
        if pos >= len(tokens):
            raise StructureFormatError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise StructureFormatError("unexpected ')'")
        if tok != "(":
            if tok not in structures:
                raise StructureFormatError(f"unknown structure name {tok!r}")
            return leaf(structures[tok])
        if pos >= len(tokens):
            raise StructureFormatError("unexpected end of expression")
        op = tokens[pos]
        pos += 1
        if op not in _ARITY:
            raise StructureFormatError(f"unknown operation {op!r}")
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            children.append(parse_one())
        if pos >= len(tokens):
            raise StructureFormatError("missing ')'")
        pos += 1
        return ExprNode(op, tuple(children))

    out = parse_one()
    del parse_one  # it refers to itself: unbound here, it is freed now, not by the cyclic collector
    if pos != len(tokens):
        raise StructureFormatError("trailing input after expression")
    return out

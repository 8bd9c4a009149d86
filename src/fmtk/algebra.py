"""Expression trees over structure operations, complement push-down, and
shrinking of compositions, structure-words, and structure-trees.

Shrinkers here are parametric in a *leaf shrinker*: a callable
``(structure, marks, m) -> (substructure, kept)`` where ``kept`` lists the
original element ids retained, in increasing order (``kept[i]`` is the old id
of new element ``i``). That witness routes marks and certifies containment.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from .equiv import check_rank_type_cost, class_fingerprint, rank_type
from .errors import StructureFormatError, VerificationFailed, check_guard
from .records import Record
from .shrink import ClassTable, ShrinkReport, SigmaTree, deepest_repeat, shrink_tree
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
    induced_supersets,
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

    A leaf keeps its pre-complement ``base`` and a ``complemented`` flag so
    that push-down and leaf shrinking can work through the complement.
    ``node_id`` is fresh per node unless given.
    """

    __slots__ = ("op", "children", "base", "complemented", "node_id")

    def __init__(self, op: str, children: tuple["ExprNode", ...] = (),
                 base: Structure | None = None, complemented: bool = False,
                 node_id: int | None = None):
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
        object.__setattr__(self, "complemented", complemented)
        object.__setattr__(self, "node_id", node_id)

    @property
    def structure(self) -> Structure:
        if self.op != LEAF:
            raise ValueError("only leaves carry structures")
        return complement(self.base) if self.complemented else self.base

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
    CARTESIAN: cartesian_product,
    TENSOR: tensor_product,
    BOWTIE: bowtie,
}


def eval_expression_tree(s: ExprNode) -> Structure:
    """Bottom-up evaluation through the structure operations."""
    if s.op == LEAF:
        return s.structure
    if s.op == COMPLEMENT:
        return complement(eval_expression_tree(s.children[0]))
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
    """Rewrite a union/complement tree into a union/bowtie tree whose leaves
    absorb the complements; evaluation is unchanged element-for-element."""
    bad = s.ops_used() - {UNION, COMPLEMENT}
    if bad:
        raise ValueError(f"push-down is defined for union/complement trees, found {sorted(bad)}")

    def walk(t: ExprNode, neg: bool) -> ExprNode:
        if t.op == LEAF:
            return ExprNode(
                LEAF,
                base=t.base,
                complemented=t.complemented ^ neg,
                node_id=t.node_id,
            )
        if t.op == COMPLEMENT:
            return walk(t.children[0], not neg)
        return ExprNode(
            BOWTIE if neg else UNION, tuple(walk(c, neg) for c in t.children)
        )

    return walk(s, False)


def reexpand_bowties(t: ExprNode) -> ExprNode:
    """Certificate form: write every bowtie and complemented leaf back through
    union and complement."""
    if t.op == LEAF:
        plain = ExprNode(LEAF, base=t.base, node_id=t.node_id)
        return node(COMPLEMENT, plain) if t.complemented else plain
    children = tuple(reexpand_bowties(c) for c in t.children)
    if t.op == BOWTIE:
        return node(
            COMPLEMENT,
            node(UNION, node(COMPLEMENT, children[0]), node(COMPLEMENT, children[1])),
        )
    return ExprNode(t.op, children)


# ---------------------------------------------------------------------------
# height reduction and leaf shrinking


class ExpressionClasses(ClassTable):
    """Rank-``m`` classes of the subexpressions of union/bowtie trees,
    composed bottom-up; one table serves one height reduction.

    A leaf's signature is its structure and complement flag, and its class is
    the rank-``m`` type of that structure, complement applied. An inner
    node's signature is its operation and its children's class ids, sorted:
    disjoint union ``u`` and bowtie are commutative up to isomorphism. The
    signature fixes the class. For ``u`` this is Feferman-Vaught composition:
    the rank-``m`` type of a disjoint union follows from the rank-``m`` types
    of its parts. Bowtie is ``!(!A u !B)``, and complement maps rank-``m``
    classes to rank-``m`` classes, since a sentence about ``!A`` is one of
    the same rank about ``A`` with every atom negated. So a new signature
    evaluates its operation over its children's small representatives, and
    only that structure gets a :func:`rank_type`; no real subexpression is
    evaluated.
    """

    def classify(self, t: ExprNode) -> dict[int, int]:
        """The class id of every node's subexpression in ``t``, by node id."""
        ids: dict[int, int] = {}

        def walk(n: ExprNode) -> int:
            if n.op == LEAF:
                sig = (LEAF, n.base, n.complemented)
            else:
                sig = (n.op, *sorted(walk(c) for c in n.children))
            cid = self._ids.get(sig)
            if cid is None:
                cid = self._intern(sig)
            ids[n.node_id] = cid
            return cid

        walk(t)
        return ids

    def _representative(self, sig: tuple) -> tuple:
        op = sig[0]
        if op == LEAF:
            rep = complement(sig[1]) if sig[2] else sig[1]
        elif op in (UNION, BOWTIE):
            rep = _EVAL[op](*(self._reps[c] for c in sig[1:]))
        else:
            raise ValueError(f"classes compose over union and bowtie, not {op!r}")
        return rep, rank_type(rep, (), self.m).key


def _index(t: ExprNode, w_leaf_ids: set[int]) -> tuple[dict[int, ExprNode], dict[int, int]]:
    """Every node of ``t`` by node id, and how many marked leaves it covers."""
    nodes: dict[int, ExprNode] = {}
    counts: dict[int, int] = {}

    def walk(n: ExprNode) -> int:
        if n.op == LEAF:
            c = 1 if n.node_id in w_leaf_ids else 0
        else:
            c = sum(walk(ch) for ch in n.children)
        nodes[n.node_id] = n
        counts[n.node_id] = c
        return c

    walk(t)
    return nodes, counts


def _replace(t: ExprNode, target_id: int, replacement: ExprNode) -> ExprNode:
    if t.node_id == target_id:
        return replacement
    if t.op == LEAF:
        return t
    return ExprNode(
        t.op,
        tuple(_replace(c, target_id, replacement) for c in t.children),
        node_id=t.node_id,
    )


def reduce_expression_height(
    s: ExprNode, w_pairs: set[tuple[int, int]], m: int, k: int
) -> ExprNode:
    """Splice out nested subexpressions that evaluate into the same rank class
    and cover the same number of marked leaves; marked leaves survive.

    Each round splices the pair :func:`~fmtk.shrink.deepest_repeat` picks: the
    deepest node ``b`` whose (class, marked-leaf count) repeats at an
    ancestor ``a``, and ``b``'s subexpression takes the place of ``a``'s.
    Classes come from one :class:`ExpressionClasses` table for the whole
    call, so a round is one walk with dictionary lookups, and a rank type is
    computed once per new signature, on a small representative. The table's
    ids are equal exactly when the rank-``m`` keys of the evaluated
    subexpressions are (see :class:`ExpressionClasses` for why composing
    classes is sound). :func:`shrink_algebraic`'s ``equivalent`` verdict
    does not read the table: it compares full rank types of the evaluated
    input and output.
    """
    w_pairs = checked_marks(
        w_pairs, k, {(lf.node_id, e) for lf in s.leaves() for e in range(lf.base.size)}
    )
    bad = s.ops_used() - {UNION, BOWTIE}
    if bad:
        raise ValueError(f"height reduction expects a union/bowtie tree, found {sorted(bad)}")
    w_leaf_ids = {lid for lid, _ in w_pairs}
    classes = ExpressionClasses(m)
    cur = s
    while True:
        ids = classes.classify(cur)
        nodes, counts = _index(cur, w_leaf_ids)
        g = {nid: (cid, counts[nid]) for nid, cid in ids.items()}
        found = deepest_repeat(
            cur.node_id, lambda nid: [c.node_id for c in nodes[nid].children], g
        )
        if found is None:
            return cur
        a_id, b_id = found
        cur = _replace(cur, a_id, nodes[b_id])


def identity_leaf_shrinker(B: Structure, marks, m: int):
    return B, tuple(range(B.size))


def sigma_tree_leaf_shrinker(B: Structure, marks, m: int):
    """Leaf shrinker for blocks that encode labeled trees or words: decode,
    run the tree shrink pipeline, re-encode the kept nodes."""
    from .shrink import from_structure

    tree = from_structure(B)
    marked_nodes = {tree.nodes[e] for e in marks}
    out, _ = shrink_tree(tree, marked_nodes, m, max(len(marked_nodes), 1))
    kept = tuple(sorted(tree.nodes.index(v) for v in out.nodes))
    sub, _ = induced_substructure(B, kept)
    return sub, kept


def exhaustive_leaf_shrinker(B: Structure, marks, m: int):
    """Smallest equivalent mark-containing induced substructure, by direct
    enumeration over subsets; guarded at ``EXHAUSTIVE_SHRINK_GUARD``."""
    check_guard("structure of size", B.size, EXHAUSTIVE_SHRINK_GUARD,
                "the exhaustive-shrink guard")
    target = rank_type(B, (), m)
    for keep, sub in induced_supersets(B, marks):
        if rank_type(sub, (), m) == target:
            return sub, keep
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
        "equivalent": rank_type(out, (), m) == rank_type(original, (), m),
    }


def _apply_leaf_shrinker(B: Structure, marks, m: int, leaf_shrinker):
    sub, kept = leaf_shrinker(B, set(marks), m)
    kept = tuple(kept)
    if list(kept) != sorted(set(kept)):
        raise VerificationFailed("leaf shrinker must return kept ids sorted and distinct")
    failed = [name for name, ok in shrink_verdicts(B, sub, kept, marks, m).items() if not ok]
    if failed:
        raise VerificationFailed(f"leaf shrinker output fails {', '.join(failed)}")
    return sub, kept


def shrink_leaves(
    t: ExprNode, w_pairs: set[tuple[int, int]], m: int, leaf_shrinker
) -> tuple[ExprNode, set[tuple[int, int]], dict[int, tuple[int, ...]]]:
    """Replace every leaf with its shrunken version; marks are re-addressed.

    Returns the new tree, the marks as ``(leaf id, new element)`` pairs, and
    the per-leaf kept-id witnesses.
    """
    kept_maps: dict[int, tuple[int, ...]] = {}

    def walk(n: ExprNode) -> ExprNode:
        if n.op != LEAF:
            return ExprNode(n.op, tuple(walk(c) for c in n.children), node_id=n.node_id)
        marks = {e for lid, e in w_pairs if lid == n.node_id}
        sub, kept = _apply_leaf_shrinker(n.base, marks, m, leaf_shrinker)
        kept_maps[n.node_id] = kept
        return ExprNode(LEAF, base=sub, complemented=n.complemented, node_id=n.node_id)

    out = walk(t)
    new_pairs = set()
    for lid, e in w_pairs:
        new_pairs.add((lid, kept_maps[lid].index(e)))
    return out, new_pairs, kept_maps


def _marks_by_part(W: set[int], offsets: list[int]) -> list[set[int]]:
    """Route marks of a stack of parts (``offsets`` from ``block_offsets``) to
    their parts: entry ``i`` holds part ``i``'s marks, as its own element ids."""
    per_part: list[set[int]] = [set() for _ in offsets]
    for e in W:
        i = bisect_right(offsets, e) - 1
        per_part[i].add(e - offsets[i])
    return per_part


def shrink_algebraic(
    s: ExprNode, W, m: int, k: int, leaf_shrinker=None
) -> tuple[Structure, ShrinkReport]:
    """Shrink the evaluation of a union/complement tree around the marked
    elements ``W`` (element indices of the evaluation).

    Pipeline: push complements to the leaves, splice repeated classes out of
    the expression, shrink each leaf. The result is re-verified by
    :func:`shrink_verdicts` and its re-expanded union/complement certificate
    must evaluate back to it; the certificate is attached to the report.
    """
    size = evaluated_size(s)
    W = checked_marks(W, k, range(size))
    check_rank_type_cost(size, m)
    leaf_shrinker = leaf_shrinker or exhaustive_leaf_shrinker
    pushed = push_complement_to_leaves(s)
    original = eval_expression_tree(pushed)
    # the evaluation stacks the leaves' universes in leaf order
    leaves = pushed.leaves()
    offsets = block_offsets([lf.base for lf in leaves])
    offset_of = {lf.node_id: off for lf, off in zip(leaves, offsets)}
    w_pairs = {
        (lf.node_id, e)
        for lf, marks in zip(leaves, _marks_by_part(W, offsets))
        for e in marks
    }
    t1 = reduce_expression_height(pushed, w_pairs, m, k)
    mid_size = evaluated_size(t1)
    t2, _, kept_maps = shrink_leaves(t1, w_pairs, m, leaf_shrinker)
    out = eval_expression_tree(t2)
    phases = [("expression-height", original.size, mid_size), ("leaf-shrink", mid_size, out.size)]

    # spliced and shrunk leaves keep their leaf order, so ``out`` is a stack
    # of the surviving leaves' kept elements
    witness = [offset_of[lf.node_id] + old for lf in t2.leaves() for old in kept_maps[lf.node_id]]
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
    parts: list[Structure], W, m: int, k: int, leaf_shrinker=None
) -> tuple[Structure, ShrinkReport]:
    """Shrink a block word: first each block through the leaf shrinker, then
    the block sequence as a word whose letters are block rank fingerprints."""
    return _shrink_blocks(
        {i: (None if i == 0 else i - 1) for i in range(len(parts))},
        parts, W, m, k, leaf_shrinker,
    )


def shrink_tree_of_structures(
    shape: dict[int, int | None], parts: list[Structure], W, m: int, k: int,
    leaf_shrinker=None,
) -> tuple[Structure, ShrinkReport]:
    """Tree-shaped analogue of :func:`shrink_word_of_structures`."""
    return _shrink_blocks(shape, parts, W, m, k, leaf_shrinker)


def _shrink_blocks(shape, parts, W, m, k, leaf_shrinker):
    size = sum(p.size for p in parts)
    W = checked_marks(W, k, range(size))
    check_rank_type_cost(size, m)
    leaf_shrinker = leaf_shrinker or exhaustive_leaf_shrinker
    original = tree_of_structures(shape, parts)
    offsets = block_offsets(parts)
    marks = _marks_by_part(W, offsets)
    shrunk, kept = zip(*(
        _apply_leaf_shrinker(part, marks[i], m, leaf_shrinker) for i, part in enumerate(parts)
    ))
    stage1_size = sum(b.size for b in shrunk)

    # the block tree over the block indices, lettered by the block classes
    seq_tree = SigmaTree(shape, {i: class_fingerprint(b, (), m) for i, b in enumerate(shrunk)})
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
    for j in range(1, len(encoded)):
        for i in range(j):
            if encoded[i].vocab != encoded[j].vocab:
                raise ValueError("all words must share one vocabulary")
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
            if names and n.node_id in names:
                base = names[n.node_id]
            else:
                base = f"s{next(counter)}"
            return f"(! {base})" if n.complemented else base
        inner = " ".join(walk(c) for c in n.children)
        return f"({n.op} {inner})"

    return walk(t)


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
    if pos != len(tokens):
        raise StructureFormatError("trailing input after expression")
    return out

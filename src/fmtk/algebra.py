"""Expression trees over structure operations, complement push-down, and
shrinking of compositions, structure-words, and structure-trees.

Shrinkers here are parametric in a *leaf shrinker*: a callable
``(structure, marks, m) -> (substructure, kept)`` where ``kept`` lists the
original element ids retained, in increasing order (``kept[i]`` is the old id
of new element ``i``). That witness routes marks and certifies containment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .equiv import class_fingerprint, rank_type
from .errors import StructureFormatError, VerificationFailed, check_guard
from .shrink import ShrinkReport, SigmaTree, shrink_tree
from .structures import (
    MarkedStructure,
    Structure,
    block_offsets,
    bowtie,
    cartesian_product,
    check_embedding_witness,
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


@dataclass(frozen=True)
class ExprNode:
    """One node of an expression tree; leaves carry structures.

    A leaf keeps its pre-complement ``base`` and a ``complemented`` flag so
    that push-down and leaf shrinking can work through the complement.
    """

    op: str
    children: tuple["ExprNode", ...] = ()
    base: Structure | None = None
    complemented: bool = False
    node_id: int = field(default_factory=lambda: next(_ids))

    def __post_init__(self):
        if self.op == LEAF:
            if self.children or self.base is None:
                raise ValueError("a leaf carries a structure and no children")
        else:
            if self.op not in _ARITY:
                raise ValueError(f"unknown operation {self.op!r}")
            if len(self.children) != _ARITY[self.op]:
                raise ValueError(f"operation {self.op!r} expects {_ARITY[self.op]} children")
            if self.base is not None:
                raise ValueError("internal nodes carry no structure")

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
    from. Defined for complement/union/bowtie trees, where universes stack."""
    if s.op == LEAF:
        return s.structure, tuple((s.node_id, e) for e in range(s.base.size))
    if s.op == COMPLEMENT:
        inner, prov = eval_with_provenance(s.children[0])
        return complement(inner), prov
    if s.op in (UNION, BOWTIE):
        la, pa = eval_with_provenance(s.children[0])
        rb, pb = eval_with_provenance(s.children[1])
        return _EVAL[s.op](la, rb), pa + pb
    raise ValueError(f"provenance undefined for operation {s.op!r}")


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


def _w_leaf_counts(t: ExprNode, w_leaf_ids: set[int]) -> dict[int, int]:
    counts: dict[int, int] = {}

    def walk(n: ExprNode) -> int:
        if n.op == LEAF:
            c = 1 if n.node_id in w_leaf_ids else 0
        else:
            c = sum(walk(ch) for ch in n.children)
        counts[n.node_id] = c
        return c

    walk(t)
    return counts


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
    and cover the same number of marked leaves; marked leaves survive."""
    if len(w_pairs) > k:
        raise ValueError(f"|W| = {len(w_pairs)} exceeds k = {k}")
    bad = s.ops_used() - {UNION, BOWTIE}
    if bad:
        raise ValueError(f"height reduction expects a union/bowtie tree, found {sorted(bad)}")
    w_leaf_ids = {lid for lid, _ in w_pairs}
    cur = s
    while True:
        counts = _w_leaf_counts(cur, w_leaf_ids)
        evals: dict[int, Structure] = {}

        def fill(n: ExprNode) -> Structure:
            if n.op == LEAF:
                out = n.structure
            else:
                out = _EVAL[n.op](*(fill(c) for c in n.children))
            evals[n.node_id] = out
            return out

        fill(cur)
        g = {
            nid: (rank_type(evals[nid], (), m).key, counts[nid]) for nid in evals
        }

        best: tuple | None = None  # (-depth_b, b_id, depth_a, a_id, b_node)

        def scan(n: ExprNode, depth: int, chain: list[tuple[int, int]]):
            nonlocal best
            for a_id, a_depth in chain:
                if g[a_id] == g[n.node_id]:
                    cand = (-depth, n.node_id, a_depth, a_id, n)
                    if best is None or cand[:4] < best[:4]:
                        best = cand
            for c in n.children:
                scan(c, depth + 1, chain + [(n.node_id, depth)])

        scan(cur, 0, [])
        if best is None:
            return cur
        _, _, _, a_id, b_node = best
        if a_id == cur.node_id:
            cur = b_node
        else:
            cur = _replace(cur, a_id, b_node)


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


def _apply_leaf_shrinker(B: Structure, marks, m: int, leaf_shrinker):
    sub, kept = leaf_shrinker(B, set(marks), m)
    kept = tuple(kept)
    if list(kept) != sorted(set(kept)):
        raise VerificationFailed("leaf shrinker must return kept ids sorted and distinct")
    witness = {new: old for new, old in enumerate(kept)}
    if not check_embedding_witness(sub, B, witness):
        raise VerificationFailed("leaf shrinker output is not the induced substructure it claims")
    if not set(marks) <= set(kept):
        raise VerificationFailed("leaf shrinker dropped a marked element")
    if rank_type(sub, (), m) != rank_type(B, (), m):
        raise VerificationFailed("leaf shrinker output is not equivalent at the requested rank")
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


def shrink_algebraic(
    s: ExprNode, W, m: int, k: int, leaf_shrinker=None
) -> tuple[Structure, ShrinkReport]:
    """Shrink the evaluation of a union/complement tree around the marked
    elements ``W`` (element indices of the evaluation).

    Pipeline: push complements to the leaves, splice repeated classes out of
    the expression, shrink each leaf. The result is re-verified to contain
    ``W``, embed into the original evaluation, and match its rank class; the
    re-expanded union/complement certificate is attached to the report.
    """
    W = set(W)
    if len(W) > k:
        raise ValueError(f"|W| = {len(W)} exceeds k = {k}")
    leaf_shrinker = leaf_shrinker or exhaustive_leaf_shrinker
    pushed = push_complement_to_leaves(s)
    original, prov0 = eval_with_provenance(pushed)
    if not W <= set(range(original.size)):
        raise ValueError("marks must be elements of the evaluation")
    phases: list[tuple[str, int, int]] = []
    w_pairs = {prov0[e] for e in W}
    t1 = reduce_expression_height(pushed, w_pairs, m, k)
    mid_size = evaluated_size(t1)
    phases.append(("expression-height", original.size, mid_size))

    t2, new_pairs, kept_maps = shrink_leaves(t1, w_pairs, m, leaf_shrinker)
    out, prov_out = eval_with_provenance(t2)
    phases.append(("leaf-shrink", mid_size, out.size))

    pair_to_original = {pair: idx for idx, pair in enumerate(prov0)}
    witness = {}
    for idx, (lid, e) in enumerate(prov_out):
        witness[idx] = pair_to_original[(lid, kept_maps[lid][e])]
    w_out = {idx for idx, pair in enumerate(prov_out) if pair in new_pairs}

    certificate = serialize_expression(reexpand_bowties(t2))
    verdicts = {
        "contains_marks": {witness[i] for i in w_out} == W,
        "substructure": check_embedding_witness(out, original, witness),
        "equivalent": rank_type(out, (), m) == rank_type(original, (), m),
        "certificate_evaluates_back": eval_expression_tree(reexpand_bowties(t2)) == out,
    }
    report = ShrinkReport(original.size, out.size, phases, verdicts, certificate)
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
    W = set(W)
    if len(W) > k:
        raise ValueError(f"|W| = {len(W)} exceeds k = {k}")
    leaf_shrinker = leaf_shrinker or exhaustive_leaf_shrinker
    original = tree_of_structures(shape, parts)
    if not W <= set(range(original.size)):
        raise ValueError("marks must be elements of the block composition")
    offsets = block_offsets(parts)
    phases: list[tuple[str, int, int]] = []

    def block_of(e: int) -> int:
        for i in reversed(range(len(parts))):
            if e >= offsets[i]:
                return i
        raise AssertionError

    marks_per_block: dict[int, set[int]] = {i: set() for i in range(len(parts))}
    for e in W:
        i = block_of(e)
        marks_per_block[i].add(e - offsets[i])

    shrunk: list[Structure] = []
    kept_maps: list[tuple[int, ...]] = []
    for i, part in enumerate(parts):
        sub, kept = _apply_leaf_shrinker(part, marks_per_block[i], m, leaf_shrinker)
        shrunk.append(sub)
        kept_maps.append(kept)
    stage1_size = sum(b.size for b in shrunk)
    phases.append(("block-shrink", original.size, stage1_size))

    letters = [class_fingerprint(b, (), m) for b in shrunk]
    # block tree over 1-based node ids, letters are the block classes
    seq_parent = {
        i + 1: (None if shape[i] is None else shape[i] + 1) for i in range(len(parts))
    }
    seq_tree = SigmaTree(seq_parent, {i + 1: letters[i] for i in range(len(parts))})
    carrying = {i + 1 for i in range(len(parts)) if marks_per_block[i]}
    seq_out, seq_report = shrink_tree(seq_tree, carrying, m, k)

    kept_blocks = sorted(i - 1 for i in seq_out.nodes)
    renum_blocks = {old: new for new, old in enumerate(kept_blocks)}
    new_shape = {
        renum_blocks[i]: (
            None
            if seq_out.parent[i + 1] is None
            else renum_blocks[seq_out.parent[i + 1] - 1]
        )
        for i in kept_blocks
    }
    out = tree_of_structures(new_shape, [shrunk[i] for i in kept_blocks])
    phases.append(("block-sequence", stage1_size, out.size))

    new_offsets = block_offsets([shrunk[i] for i in kept_blocks])
    witness = {}
    for new_i, old_i in enumerate(kept_blocks):
        for new_e in range(shrunk[old_i].size):
            witness[new_offsets[new_i] + new_e] = (
                offsets[old_i] + kept_maps[old_i][new_e]
            )
    w_out = {n for n, old in witness.items() if old in W}

    verdicts = {
        "contains_marks": {witness[n] for n in w_out} == W,
        "substructure": check_embedding_witness(out, original, witness),
        "equivalent": rank_type(out, (), m) == rank_type(original, (), m),
        "sequence_verified": seq_report.ok(),
    }
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

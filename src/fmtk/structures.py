"""Finite relational structures and the operations that combine them.

Elements of a structure are always the dense integers ``0 .. size-1``.
Operations that build new structures re-index deterministically:

* ``induced_substructure`` keeps the subset in increasing order and also
  returns the old->new renumbering map;
* ``disjoint_union`` (and ``bowtie``) place the left operand first, so the
  left block keeps its indices and the right block is shifted by ``|A|``;
* ``cartesian_product`` / ``tensor_product`` index pairs row-major:
  ``(a, b) -> a * |B| + b``.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Collection
from contextlib import contextmanager

from .errors import StructureFormatError
from .records import Record

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Vocabulary(Record):
    """A finite relational signature: named predicates plus constant names.

    Both are stored sorted by name, so equal signatures compare equal however
    they were built.
    """

    __slots__ = ("predicates", "constants", "_hash")
    _fields = ("predicates", "constants")

    def __init__(self, predicates: tuple[tuple[str, int], ...], constants: tuple[str, ...] = ()):
        names = [n for n, _ in predicates] + list(constants)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate symbol names in vocabulary: {names}")
        for name in names:
            if not _IDENT.match(name):
                raise ValueError(f"symbol name is not an identifier: {name!r}")
        for name, arity in predicates:
            if arity < 1:
                raise ValueError(f"predicate {name} has non-positive arity {arity}")
        predicates, constants = tuple(sorted(predicates)), tuple(sorted(constants))
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "constants", constants)
        # hashed once: every ``folog.evaluate`` call hashes the vocabulary
        object.__setattr__(self, "_hash", hash((predicates, constants)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def make(predicates: dict[str, int], constants=()) -> "Vocabulary":
        return Vocabulary(tuple(predicates.items()), tuple(constants))

    def arity(self, name: str) -> int:
        for pred, arity in self.predicates:
            if pred == name:
                return arity
        raise KeyError(name)

    @property
    def predicate_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.predicates)

    def has_predicate(self, name: str) -> bool:
        return any(n == name for n, _ in self.predicates)

    def with_constants(self, names) -> "Vocabulary":
        return Vocabulary(self.predicates, self.constants + tuple(names))

    def with_predicate(self, name: str, arity: int) -> "Vocabulary":
        return Vocabulary(self.predicates + ((name, arity),), self.constants)

    def fresh_name(self, base: str) -> str:
        name = base
        taken = set(self.predicate_names) | set(self.constants)
        while name in taken:
            name += "_"
        return name


class Structure:
    """A finite interpretation of a :class:`Vocabulary`.

    Immutable after construction; equality and hashing are by content, so
    structures can key caches and sets. The constructor validates what it is
    given, checking each relation in bulk (:func:`_checked_relation`), the
    constants and the predicate names: every structure read from a file,
    encoded from a tree or made by a generator is built by it. An operation
    whose parts are structures already built (an induced substructure, a
    union, a complement, a product, a tree of structures, a class-table
    representative) builds its result with :meth:`_derived` instead: each of
    its tuples is a valid tuple, or a tuple of the full product, mapped into
    the new universe, so there is nothing left to check.
    """

    __slots__ = ("vocab", "size", "relations", "constant_interp", "_hash")

    def __init__(self, vocab: Vocabulary, size: int, relations=None, constant_interp=None):
        if size < 1:
            raise ValueError("structures must be nonempty")
        relations = dict(relations or {})
        constant_interp = dict(constant_interp or {})
        for name, tuples in relations.items():
            # vocab.arity raises on an unknown predicate
            relations[name] = _checked_relation(name, vocab.arity(name), size, tuples)
        for c in vocab.constants:
            if c not in constant_interp:
                raise ValueError(f"constant {c} is not interpreted")
            if not 0 <= constant_interp[c] < size:
                raise ValueError(f"constant {c} interpreted outside the universe")
        for c in constant_interp:
            if c not in vocab.constants:
                raise ValueError(f"interpretation given for unknown constant {c}")
        self._set(vocab, size, relations, constant_interp)

    @classmethod
    def _derived(cls, vocab: Vocabulary, size: int, relations: dict,
                 constant_interp: dict | None = None) -> "Structure":
        """A structure built from parts already validated, checking nothing.

        ``relations`` maps predicate names of ``vocab`` to frozensets of
        tuples of the right arity over ``0 .. size-1`` (a predicate left out
        is empty), and ``constant_interp`` interprets every constant inside
        the universe. Both dicts are taken over, not copied.
        """
        self = object.__new__(cls)
        self._set(vocab, size, relations, {} if constant_interp is None else constant_interp)
        return self

    def _set(self, vocab, size, relations, constant_interp):
        """The one place the attributes are assigned."""
        for name, _ in vocab.predicates:
            relations.setdefault(name, frozenset())
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "constant_interp", constant_interp)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("Structure is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Structure)
            and self.vocab == other.vocab
            and self.size == other.size
            and self.relations == other.relations
            and self.constant_interp == other.constant_interp
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((
                self.vocab,
                self.size,
                frozenset(self.relations.items()),
                frozenset(self.constant_interp.items()),
            )))
        return self._hash

    def __repr__(self):
        rels = ", ".join(f"{n}:{len(ts)}" for n, ts in sorted(self.relations.items()))
        return f"Structure(size={self.size}, {rels})"


def _checked_relation(name: str, arity: int, size: int, tuples) -> frozenset:
    """``tuples`` as a frozenset of tuples, once every tuple has ``arity``
    elements, each in ``0 .. size-1``. A frozenset is kept as it is.

    The checks are whole-relation passes: the set of tuple lengths, and the
    set of elements used (at most ``size`` of them, not a copy of the
    tuples). Only a relation that fails them is walked tuple by tuple, so
    that the error names the first bad tuple in input order.
    """
    if not tuples:
        return frozenset()
    if not isinstance(tuples, (frozenset, Collection)):
        tuples = list(tuples)  # a one-shot iterator: the slow path reads it again
    try:
        rel = tuples if isinstance(tuples, frozenset) else frozenset(map(tuple, tuples))
        if set(map(len, rel)) == {arity}:
            elements = set(itertools.chain.from_iterable(rel))
            if min(elements) >= 0 and max(elements) < size:
                return rel
    except TypeError:
        pass  # an element that is unhashable or not comparable: the loop reports it
    for t in tuples:
        if len(t) != arity:
            raise ValueError(f"tuple {t} has wrong arity for {name}/{arity}")
        if not all(0 <= e < size for e in t):
            raise ValueError(f"tuple {t} out of range for universe of size {size}")
    return frozenset(map(tuple, tuples))


class MarkedStructure(Record):
    """A structure with distinguished elements, ordered (constant view) or not
    (unary-predicate view)."""

    __slots__ = ("base", "marks", "ordered")

    def __init__(self, base: Structure, marks: tuple[int, ...], ordered: bool = True):
        for e in marks:
            if not 0 <= e < base.size:
                raise ValueError(f"mark {e} outside the universe")
        if not ordered and len(set(marks)) != len(marks):
            raise ValueError("unordered marks must be distinct")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "ordered", ordered)

    def expand(self) -> Structure:
        """Encode the marks into the vocabulary.

        Ordered marks become fresh constants ``c1 .. ck``; unordered marks
        become a fresh unary predicate.
        """
        A = self.base
        if self.ordered:
            names = []
            vocab = A.vocab
            for i in range(len(self.marks)):
                name = vocab.fresh_name(f"c{i + 1}")
                vocab = vocab.with_constants([name])
                names.append(name)
            interp = dict(A.constant_interp)
            interp.update(zip(names, self.marks))
            return Structure(vocab, A.size, A.relations, interp)
        pred = A.vocab.fresh_name("R")
        vocab = A.vocab.with_predicate(pred, 1)
        rels = dict(A.relations)
        rels[pred] = frozenset((e,) for e in self.marks)
        return Structure(vocab, A.size, rels, A.constant_interp)


def checked_marks(W, k: int | None, universe) -> set:
    """The marks ``W`` as a set, checked before any work is done on them: at
    most ``k`` marks (``None``: no bound), each an element of ``universe``
    (any container: a range of element ids, a tree's nodes, leaf pairs)."""
    W = set(W)
    if k is not None and len(W) > k:
        raise ValueError(f"|W| = {len(W)} exceeds k = {k}")
    outside = [w for w in W if w not in universe]
    if outside:
        raise ValueError(f"mark {min(outside)} outside the universe")
    return W


def induced_substructure(A: Structure, subset) -> tuple[Structure, dict[int, int]]:
    """Restrict ``A`` to ``subset``; returns the restriction and the old->new map."""
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("cannot induce on an empty subset")
    if subset[0] < 0 or subset[-1] >= A.size:
        raise ValueError("subset contains elements outside the universe")
    new_id: list[int | None] = [None] * A.size  # None: the element is dropped
    for new, old in enumerate(subset):
        new_id[old] = new
    for c, e in A.constant_interp.items():
        if new_id[e] is None:
            raise ValueError(f"subset drops the interpretation of constant {c}")
    relations = {}
    for name, arity in A.vocab.predicates:
        tuples = A.relations[name]
        if arity == 1:
            kept = [(x,) for (a,) in tuples if (x := new_id[a]) is not None]
        elif arity == 2:
            kept = [(x, y) for a, b in tuples
                    if (x := new_id[a]) is not None and (y := new_id[b]) is not None]
        else:
            kept = [u for u in (tuple([new_id[e] for e in t]) for t in tuples) if None not in u]
        relations[name] = frozenset(kept)
    consts = {c: new_id[e] for c, e in A.constant_interp.items()}
    renumber = dict(zip(subset, range(len(subset))))
    return Structure._derived(A.vocab, len(subset), relations, consts), renumber


def kept_id_sets(A: Structure, required=(), largest_first: bool = False):
    """Every nonempty set of elements of ``A`` that holds ``required`` and the
    constants, as a sorted tuple of ids: the one subset enumerator.

    Smallest first, or largest first when asked; within one size, in
    lexicographic order of the kept ids.
    """
    fixed = set(required) | set(A.constant_interp.values())
    free = [e for e in range(A.size) if e not in fixed]
    sizes = range(len(free) + 1)
    for extra in reversed(sizes) if largest_first else sizes:
        for combo in itertools.combinations(free, extra):
            kept = tuple(sorted(fixed.union(combo)))
            if kept:
                yield kept


def check_embedding_witness(A: Structure, B: Structure, mapping: dict[int, int]) -> bool:
    """True iff ``mapping`` embeds ``A`` into ``B`` as an induced substructure.

    An injective map is an embedding iff it maps each relation of ``A`` onto
    the tuples of ``B``'s relation that lie inside its image, so each
    relation is mapped once, tuple by tuple, and compared as a set.
    """
    if A.vocab != B.vocab:
        return False
    if sorted(mapping) != list(range(A.size)):
        return False
    image = set(mapping.values())
    if len(image) != A.size or not all(0 <= b < B.size for b in image):
        return False
    for c in A.vocab.constants:
        if mapping[A.constant_interp[c]] != B.constant_interp[c]:
            return False
    f = [mapping[a] for a in range(A.size)]
    for name, _ in A.vocab.predicates:
        mapped = {tuple([f[e] for e in t]) for t in A.relations[name]}
        inside = {t for t in B.relations[name] if image.issuperset(t)}
        if mapped != inside:
            return False
    return True


def _element_profile(A: Structure):
    """Per-element compatibility data used to order and prune the search."""
    profile = []
    for e in range(A.size):
        unary = []
        diag = []
        counts = []
        for name, arity in A.vocab.predicates:
            rel = A.relations[name]
            if arity == 1:
                unary.append((e,) in rel)
            diag.append((e,) * arity in rel)
            counts.append(sum(1 for t in rel if e in t))
        profile.append((tuple(unary), tuple(diag), tuple(counts)))
    return profile


def find_embedding(A: Structure, B: Structure) -> dict[int, int] | None:
    """Search for an isomorphism of ``A`` onto an induced substructure of ``B``.

    Backtracking over candidate targets: the elements that interpret a
    constant first, each with the constant's image in ``B`` as its one
    candidate, then the most-constrained source elements. Candidate order is
    deterministic. Returns the element map, or ``None`` after the search
    space is exhausted.
    """
    if A.vocab != B.vocab:
        raise ValueError("embedding requires identical vocabularies")
    if A.size > B.size:
        return None
    return _embedding(A, B, _element_profile(A), _element_profile(B))


def _embedding(A: Structure, B: Structure, prof_a, prof_b) -> dict[int, int] | None:
    """:func:`find_embedding`'s search, given both structures'
    :func:`_element_profile`; ``A`` and ``B`` share a vocabulary and ``A``
    is not the larger."""
    forced: dict[int, int] = {}  # element of A -> its one candidate in B
    for c in A.vocab.constants:
        b = B.constant_interp[c]
        if forced.setdefault(A.constant_interp[c], b) != b:
            return None  # one element of A, two images

    mapping: dict[int, int] = {}
    used: set[int] = set()
    binary = [(name, A.relations[name], B.relations[name])
              for name, arity in A.vocab.predicates if arity == 2]
    wide = [(name, arity, A.relations[name], B.relations[name])
            for name, arity in A.vocab.predicates if arity > 2]

    def consistent(a: int, b: int) -> bool:
        ua, da, ca = prof_a[a]
        ub, db, cb = prof_b[b]
        if ua != ub or da != db:
            return False
        if any(x > y for x, y in zip(ca, cb)):
            return False
        for _, rel_a, rel_b in binary:
            for x, y in mapping.items():
                if x == a:
                    continue
                if ((a, x) in rel_a) != ((b, y) in rel_b):
                    return False
                if ((x, a) in rel_a) != ((y, b) in rel_b):
                    return False
        if wide:
            domain = list(mapping) + [a]
            for _, arity, rel_a, rel_b in wide:
                for t in itertools.product(domain, repeat=arity):
                    if a not in t:
                        continue
                    img = tuple(b if e == a else mapping[e] for e in t)
                    if (t in rel_a) != (img in rel_b):
                        return False
        return True

    order = list(forced) + sorted(
        (e for e in range(A.size) if e not in forced),
        key=lambda e: (-sum(prof_a[e][2]), e),
    )

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for b in (forced[a],) if a in forced else range(B.size):
            if b in used:
                continue
            if not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if extend(i + 1):
                return True
            del mapping[a]
            used.remove(b)
        return False

    return dict(mapping) if extend(0) else None


def is_isomorphic(A: Structure, B: Structure) -> bool:
    """Same size plus an induced embedding; a bijective induced embedding is an
    isomorphism."""
    if A.vocab != B.vocab or A.size != B.size:
        return False
    return find_embedding(A, B) is not None


def _require_constant_free(*structures: Structure):
    for s in structures:
        if s.vocab.constants:
            raise ValueError("this operation is defined for constant-free vocabularies")


def _require_same_vocab(A: Structure, B: Structure):
    if A.vocab != B.vocab:
        raise ValueError("operands must share a vocabulary")


def disjoint_union(A: Structure, B: Structure) -> Structure:
    """Side-by-side copies; no tuple mixing elements of both blocks holds."""
    _require_same_vocab(A, B)
    _require_constant_free(A, B)
    relations = {
        name: A.relations[name].union(_shifted(B.relations[name], arity, A.size))
        for name, arity in A.vocab.predicates
    }
    return Structure._derived(A.vocab, A.size + B.size, relations)


def _shifted(tuples, arity: int, shift: int) -> list[tuple[int, ...]]:
    """``tuples`` with ``shift`` added to every element."""
    if arity == 1:
        return [(a + shift,) for (a,) in tuples]
    if arity == 2:
        return [(a + shift, b + shift) for a, b in tuples]
    return [tuple([e + shift for e in t]) for t in tuples]


def complement(A: Structure) -> Structure:
    """Flip membership of every full tuple over the universe, per predicate."""
    _require_constant_free(A)
    # filtered as they are generated: the full product is never held at once
    relations = {
        name: frozenset(itertools.filterfalse(
            A.relations[name].__contains__, itertools.product(range(A.size), repeat=arity)
        ))
        for name, arity in A.vocab.predicates
    }
    return Structure._derived(A.vocab, A.size, relations)


def cartesian_product(A: Structure, B: Structure) -> Structure:
    """Pairs; a tuple holds iff one coordinate is constant and the other holds."""
    _require_same_vocab(A, B)
    _require_constant_free(A, B)
    nb = B.size
    relations = {}
    for name, _ in A.vocab.predicates:
        tuples = {
            tuple(a * nb + b for b in tb)
            for a in range(A.size)
            for tb in B.relations[name]
        }
        tuples.update(
            tuple(a * nb + b for a in ta)
            for ta in A.relations[name]
            for b in range(nb)
        )
        relations[name] = frozenset(tuples)
    return Structure._derived(A.vocab, A.size * nb, relations)


def tensor_product(A: Structure, B: Structure) -> Structure:
    """Pairs; a tuple holds iff it holds coordinate-wise in both factors."""
    _require_same_vocab(A, B)
    _require_constant_free(A, B)
    nb = B.size
    relations = {}
    for name, arity in A.vocab.predicates:
        rel_a, rel_b = A.relations[name], B.relations[name]
        tuples = set()
        for ta in rel_a:
            for tb in rel_b:
                tuples.add(tuple(a * nb + b for a, b in zip(ta, tb)))
        relations[name] = frozenset(tuples)
    return Structure._derived(A.vocab, A.size * nb, relations)


def bowtie(A: Structure, B: Structure) -> Structure:
    """The union-complement dual: ``!((!A) | (!B))`` with ``|`` disjoint union."""
    return complement(disjoint_union(complement(A), complement(B)))


ORDER_PRED = "le"


def _rooted_tree(parent: dict[int, int | None]) -> tuple[int, dict, dict]:
    """The root, the sorted child tuple of every node and every node's depth
    in the tree a parent map describes, the root mapping to ``None``.

    Refuses, in this order, a map without exactly one root, a parent that
    is not a node, and a cycle: a node the root does not reach.
    """
    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        raise ValueError("a tree has exactly one root")
    children: dict[int, list[int]] = {v: [] for v in parent}
    for v in sorted(parent):  # so each child list comes out sorted
        p = parent[v]
        if p is not None:
            if p not in children:
                raise ValueError(f"parent of {v} is not a node")
            children[p].append(v)
    root = roots[0]
    depth = {root: 0}
    stack = [root]
    while stack:
        u = stack.pop()
        d = depth[u] + 1
        for c in children[u]:
            depth[c] = d
            stack.append(c)
    if len(depth) != len(parent):
        raise ValueError("parent map contains a cycle")
    return root, {v: tuple(cs) for v, cs in children.items()}, depth


def word_of_structures(parts: list[Structure]) -> Structure:
    """Concatenate the parts into one structure ordered by a block pre-order.

    Within a block the order holds both ways; across blocks it follows the
    sequence. Tuples of the original predicates never mix blocks.
    """
    if not parts:
        raise ValueError("a word needs at least one part")
    # chain shape: block i is the parent of block i+1
    shape = {i: (None if i == 0 else i - 1) for i in range(len(parts))}
    return tree_of_structures(shape, parts)


def tree_of_structures(shape: dict[int, int | None], parts: list[Structure]) -> Structure:
    """Arrange the parts along a rooted block tree.

    ``shape`` maps each block index to its parent block (one root maps to
    ``None``). The order predicate relates every element of a block to every
    element of the same block or of a descendant block.
    """
    if not parts:
        raise ValueError("a tree needs at least one part")
    if sorted(shape) != list(range(len(parts))):
        raise ValueError("shape must give a parent for every block index")
    vocab = parts[0].vocab
    for p in parts:
        _require_same_vocab(parts[0], p)
    _require_constant_free(*parts)
    if vocab.has_predicate(ORDER_PRED):
        raise ValueError(f"vocabulary already uses the order predicate {ORDER_PRED!r}")

    _, _, depth = _rooted_tree(shape)
    ancestors: dict[int, set[int]] = {}
    for j in sorted(shape, key=depth.__getitem__):  # each parent before its children
        p = shape[j]
        ancestors[j] = {j} if p is None else ancestors[p] | {j}

    offsets = block_offsets(parts)
    relations = {
        name: frozenset().union(
            *(_shifted(p.relations[name], arity, off) for p, off in zip(parts, offsets))
        )
        for name, arity in vocab.predicates
    }
    blocks = [range(off, off + p.size) for p, off in zip(parts, offsets)]
    # every block against itself and each descendant block; i == j puts the
    # whole block in both directions: a block pre-order
    relations[ORDER_PRED] = frozenset().union(
        *(itertools.product(blocks[i], blocks[j]) for j in shape for i in ancestors[j])
    )
    size = sum(p.size for p in parts)
    return Structure._derived(vocab.with_predicate(ORDER_PRED, 2), size, relations)


def block_offsets(parts: list[Structure]) -> list[int]:
    """Starting index of each block inside ``word_of_structures``/``tree_of_structures``."""
    offsets, total = [], 0
    for p in parts:
        offsets.append(total)
        total += p.size
    return offsets


# ---------------------------------------------------------------------------
# text format


def serialize_structure(name: str, A: Structure) -> str:
    lines = [f"structure {name}"]
    lines.append(
        "vocab: " + ", ".join(f"{n}/{a}" for n, a in A.vocab.predicates)
    )
    lines.append(f"universe: {A.size}")
    for pred, _ in A.vocab.predicates:
        tuples = " ".join(
            "(" + ",".join(map(str, t)) + ")" for t in sorted(A.relations[pred])
        )
        lines.append(f"{pred}: {tuples}".rstrip())
    for c in A.vocab.constants:
        lines.append(f"const {c} = {A.constant_interp[c]}")
    return "\n".join(lines) + "\n"


def serialize_structures(named: dict[str, Structure]) -> str:
    return "\n".join(serialize_structure(n, A) for n, A in named.items())


@contextmanager
def format_errors(where: str):
    """Re-raise any error but a :class:`StructureFormatError` as one, prefixed
    with ``where`` (``line N: '<raw>'``, ``structure A``, ``tree A``)."""
    try:
        yield
    except StructureFormatError:
        raise
    except Exception as exc:
        raise StructureFormatError(f"{where}: {exc}") from exc


def read_blocks(text: str, keyword: str) -> dict[str, list[tuple[int, str, str]]]:
    """Split ``text`` into its ``<keyword> NAME`` blocks, in order.

    Returns ``name -> [(line number, line, raw line)]`` for the lines below
    each header, with ``#`` comments and blank lines dropped. Every line
    belongs to the block above it, so a line before the first header is a
    format error, as are a header without a name and a repeated name.
    """
    blocks: dict[str, list[tuple[int, str, str]]] = {}
    body = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *name = line.split(None, 1)
        if head == keyword:
            if not name:
                raise StructureFormatError(f"line {lineno}: {keyword} line without a name")
            if name[0] in blocks:
                raise StructureFormatError(f"line {lineno}: duplicate {keyword} name {name[0]!r}")
            body = blocks[name[0]] = []
        elif body is None:
            raise StructureFormatError(
                f"line {lineno}: {raw.strip()!r} comes before the first {keyword} line"
            )
        else:
            body.append((lineno, line, raw))
    if not blocks:
        raise StructureFormatError(f"no {keyword}s in input")
    return blocks


def parse_structures(text: str) -> dict[str, Structure]:
    """Parse the block text format; returns structures keyed by name, in order.

    Within a block, the ``vocab:`` and ``universe:`` lines, each predicate's
    line and each constant's line may appear once, and the vocabulary may
    list a predicate once. A repeat, or a predicate line the vocabulary does
    not declare, is a format error naming the line and the symbol.
    """
    result: dict[str, Structure] = {}
    for name, lines in read_blocks(text, "structure").items():
        vocab: Vocabulary | None = None
        size = None
        relations: dict[str, set] = {}
        consts: dict[str, int] = {}
        given: dict[str, int] = {}  # what a line gave -> its line number
        for lineno, line, raw in lines:
            with format_errors(f"line {lineno}: {raw.strip()!r}"):
                if line.startswith("vocab:"):
                    _once(given, "'vocab:'", lineno)
                    preds = {}
                    for item in line[len("vocab:"):].split(","):
                        item = item.strip()
                        if not item:
                            continue
                        pred, arity = item.split("/")
                        pred = pred.strip()
                        if pred in preds:
                            raise StructureFormatError(f"line {lineno}: predicate {pred!r} "
                                                       "is listed twice in the vocabulary")
                        preds[pred] = int(arity)
                    vocab = Vocabulary.make(preds)
                elif line.startswith("universe:"):
                    _once(given, "'universe:'", lineno)
                    size = int(line[len("universe:"):].strip())
                elif line.startswith("const "):
                    lhs, rhs = line[len("const "):].split("=")
                    _once(given, f"constant {lhs.strip()!r}", lineno)
                    consts[lhs.strip()] = int(rhs)
                else:
                    pred, rest = line.split(":", 1)
                    pred = pred.strip()
                    _once(given, f"predicate {pred!r}", lineno)
                    tuples = set()
                    for chunk in rest.split():
                        if not (chunk.startswith("(") and chunk.endswith(")")):
                            raise ValueError(f"bad tuple {chunk!r}")
                        tuples.add(tuple(int(x) for x in chunk[1:-1].split(",") if x != ""))
                    relations[pred] = tuples
        if vocab is None or size is None:
            raise StructureFormatError(f"structure {name} is missing vocab or universe")
        for pred in relations:
            if not vocab.has_predicate(pred):
                raise StructureFormatError(
                    f"line {given[f'predicate {pred!r}']}: predicate {pred!r} "
                    f"is not in the vocabulary of structure {name}"
                )
        with format_errors(f"structure {name}"):
            vocab = vocab.with_constants(consts) if consts else vocab
            result[name] = Structure(vocab, size, relations, consts)
    return result


def _once(given: dict[str, int], what: str, lineno: int):
    """Record that line ``lineno`` gave ``what``; a second such line is an error."""
    if what in given:
        raise StructureFormatError(
            f"line {lineno}: {what} is given on two lines (first on line {given[what]})"
        )
    given[what] = lineno

"""Shrinking labeled words and trees to small equivalent sub-models.

A tree is a finite poset with one minimal element in which the predecessors
of any element form a chain; a word is the chain special case. Every reducer
returns an induced sub-poset of its input over the *original node ids*, so
marks stay valid across phases and containment is directly checkable; use
:meth:`SigmaTree.renumbered` for a dense copy.
"""

from __future__ import annotations

from .equiv import TypeScope, check_rank_type_cost, marked_equivalent, type_id
from .errors import StructureFormatError, VerificationFailed
from .structures import (
    ORDER_PRED, Structure, Vocabulary, _once, _rooted_tree, _shifted, checked_marks, format_errors,
    read_blocks,
)


def label_predicate(letter: str) -> str:
    return f"Q_{letter}"


class SigmaTree:
    """Finite rooted tree with letter labels; node ids are arbitrary ints."""

    __slots__ = ("nodes", "parent", "label", "alphabet", "root", "_children", "_depth")

    def __init__(self, parent: dict[int, int | None], label: dict[int, str], alphabet=None):
        nodes = tuple(sorted(parent))
        if not nodes:
            raise ValueError("trees are nonempty")
        if sorted(label) != list(nodes):
            raise ValueError("labels must cover exactly the nodes")
        root, children, depth = _rooted_tree(parent)
        if alphabet is None:
            alphabet = tuple(sorted(set(label.values())))
        else:
            alphabet = tuple(alphabet)
            if not set(label.values()) <= set(alphabet):
                raise ValueError("labels must come from the alphabet")
        self._set(nodes, dict(parent), dict(label), alphabet, root, children, depth)

    def _set(self, nodes, parent, label, alphabet, root, children, depth):
        """The one place the attributes are assigned."""
        self.nodes = nodes
        self.parent = parent
        self.label = label
        self.alphabet = alphabet
        self.root = root
        self._children = children
        self._depth = depth

    @property
    def size(self) -> int:
        return len(self.nodes)

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def depth(self, v: int) -> int:
        return self._depth[v]

    def height(self) -> int:
        return max(self._depth.values())

    def ancestors(self, v: int):
        """Strict ancestors, nearest first."""
        p = self.parent[v]
        while p is not None:
            yield p
            p = self.parent[p]

    def descendants(self, v: int) -> frozenset[int]:
        out = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for c in self._children[u]:
                out.add(c)
                stack.append(c)
        return frozenset(out)

    def path_down(self, a: int, b: int) -> list[int]:
        """The chain from ancestor ``a`` down to ``b``, inclusive."""
        chain = [b]
        u = b
        while u != a:
            u = self.parent[u]
            if u is None:
                raise ValueError(f"{a} is not an ancestor of {b}")
            chain.append(u)
        return chain[::-1]

    def induced(self, keep) -> "SigmaTree":
        """Sub-poset on ``keep``: each kept node hangs under its nearest kept
        ancestor. ``keep`` must contain a common ancestor of all its nodes.

        The nearest kept parents are read off this tree in one pass over
        ``keep``, in node order; the root, children and depths come from the
        constructor's reader of parent maps, without its label checks.
        """
        keep = set(keep)
        if not keep <= self._depth.keys():
            raise ValueError("keep set contains unknown nodes")
        if len(keep) == len(self.nodes):
            return self
        if not keep:
            raise ValueError("trees are nonempty")
        nodes = tuple(sorted(keep))
        up = self.parent
        parent: dict[int, int | None] = {}
        for v in nodes:
            p = up[v]
            while p is not None and p not in keep:
                p = up[p]
            parent[v] = p
        t = object.__new__(SigmaTree)
        t._set(nodes, parent, {v: self.label[v] for v in nodes}, self.alphabet,
               *_rooted_tree(parent))
        return t

    def renumbered(self) -> tuple["SigmaTree", dict[int, int]]:
        """Dense copy with nodes ``0 .. n-1``; also returns the old->new map."""
        renum = {old: new for new, old in enumerate(self.nodes)}
        parent = {
            renum[v]: (None if p is None else renum[p]) for v, p in self.parent.items()
        }
        label = {renum[v]: letter for v, letter in self.label.items()}
        return SigmaTree(parent, label, self.alphabet), renum

    def is_chain(self) -> bool:
        return all(len(cs) <= 1 for cs in self._children.values())

    def __eq__(self, other):
        return (
            isinstance(other, SigmaTree)
            and self.parent == other.parent
            and self.label == other.label
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        return hash(
            (tuple(sorted(self.parent.items())), tuple(sorted(self.label.items())))
        )

    def __repr__(self):
        return f"SigmaTree(size={self.size}, height={self.height()})"


def make_word(letters, alphabet=None) -> SigmaTree:
    """Chain tree from a letter sequence; positions are ``1 .. len(letters)``."""
    letters = list(letters)
    if not letters:
        raise ValueError("words are nonempty")
    parent = {i + 1: (None if i == 0 else i) for i in range(len(letters))}
    label = {i + 1: letters[i] for i in range(len(letters))}
    return SigmaTree(parent, label, alphabet)


def word_letters(w: SigmaTree) -> list[str]:
    if not w.is_chain():
        raise ValueError("not a word")
    order = sorted(w.nodes, key=w.depth)
    return [w.label[v] for v in order]


def _tree_vocabulary(alphabet) -> Vocabulary:
    """The vocabulary of :func:`to_structure` over ``alphabet``."""
    return Vocabulary.make({ORDER_PRED: 2, **{label_predicate(a): 1 for a in alphabet}})


def to_structure(t: SigmaTree) -> tuple[Structure, dict[int, int]]:
    """Relational encoding: reflexive ancestor order plus one unary predicate
    per letter. Returns the structure and the node->element map."""
    renum = {v: i for i, v in enumerate(t.nodes)}
    vocab = _tree_vocabulary(t.alphabet)
    le = []
    chain: list[int] = []  # elements from the root down to the current node
    stack = [t.root]
    while stack:  # depth first: a node's chain is its parent's chain plus itself
        v = stack.pop()
        del chain[t.depth(v):]
        chain.append(i := renum[v])
        le += [(u, i) for u in chain]
        stack += t.children(v)
    rels = {label_predicate(a): [] for a in t.alphabet}
    for v, i in renum.items():
        rels[label_predicate(t.label[v])].append((i,))
    rels[ORDER_PRED] = frozenset(le)
    return Structure(vocab, len(t.nodes), rels), renum


def from_structure(S: Structure) -> SigmaTree:
    """Decode :func:`to_structure` output; validates the poset-tree axioms."""
    if not S.vocab.has_predicate(ORDER_PRED):
        raise ValueError(f"expected an order predicate {ORDER_PRED!r}")
    le = S.relations[ORDER_PRED]
    letters = {}
    alphabet = []
    for name, arity in S.vocab.predicates:
        if name == ORDER_PRED:
            continue
        if arity != 1 or not name.startswith("Q_"):
            raise ValueError(f"unexpected predicate {name}")
        alphabet.append(name[2:])
        for (v,) in S.relations[name]:
            if v in letters:
                raise ValueError(f"element {v} carries two labels")
            letters[v] = name[2:]
    if sorted(letters) != list(range(S.size)):
        raise ValueError("labels must partition the universe")
    parent: dict[int, int | None] = {}
    for v in range(S.size):
        above = [u for u in range(S.size) if u != v and (u, v) in le]
        # the deepest predecessor; the re-encoding below rejects every order
        # that is not the ancestor order of the tree this builds
        parent[v] = max(above, key=lambda u: sum(1 for w in above if (w, u) in le), default=None)
    t = SigmaTree(parent, letters, tuple(sorted(alphabet)))
    check, _ = to_structure(t)
    if check.relations[ORDER_PRED] != frozenset(le):
        raise ValueError("order is not the ancestor order of a tree")
    return t


def join_at(s: SigmaTree, e: int, graft: "SigmaTree | list[SigmaTree]") -> SigmaTree:
    """Hang ``graft`` (a tree, or a forest joined in sequence) below node ``e``."""
    if e not in s.parent:
        raise ValueError(f"{e} is not a node of the host tree")
    grafts = graft if isinstance(graft, list) else [graft]
    parent = dict(s.parent)
    label = dict(s.label)
    alphabet = set(s.alphabet)
    offset = max(parent) + 1
    for t in grafts:
        renum = {old: offset + i for i, old in enumerate(t.nodes)}
        offset += len(t.nodes)
        for v in t.nodes:
            p = t.parent[v]
            parent[renum[v]] = e if p is None else renum[p]
            label[renum[v]] = t.label[v]
        alphabet |= set(t.alphabet)
    return SigmaTree(parent, label, tuple(sorted(alphabet)))


def _down_sets(tree: SigmaTree, within: set[int]) -> dict[int, frozenset[int]]:
    """For every node ``b`` of ``tree``, the nodes ``a`` of ``within`` with ``a <= b``."""
    out: dict[int, frozenset[int]] = {}
    for v in sorted(tree.nodes, key=tree.depth):
        p = tree.parent[v]
        above = frozenset() if p is None else out[p]
        out[v] = above | {v} if v in within else above
    return out


def is_subtree(t: SigmaTree, s: SigmaTree) -> bool:
    """Node subset with the induced order and labels: for every node ``b`` of
    ``t``, the nodes of ``t`` below-or-equal ``b`` are the same in both."""
    nodes = set(t.nodes)
    if not nodes <= set(s.nodes):
        return False
    if any(t.label[v] != s.label[v] for v in t.nodes):
        return False
    in_t, in_s = _down_sets(t, nodes), _down_sets(s, nodes)
    return all(in_t[b] == in_s[b] for b in nodes)


# ---------------------------------------------------------------------------
# realized-class bookkeeping


class TreeClasses:
    """Rank-``m`` classes of subtrees, composed bottom-up from a table.

    A node's *signature* is its label together with the multiset of its
    children's class ids, each multiplicity capped at ``m``. By
    Feferman-Vaught composition (Feferman & Vaught 1959; Makowsky, APAL
    2004) the signature fixes the rank-``m`` class of the node's subtree,
    and ``m`` disjoint copies of a tree are rank-``m`` equivalent to any
    larger number of copies, so the cap loses nothing (Libkin, *Elements of
    Finite Model Theory*, ch. 3). So each new signature needs the type of
    one small *representative* structure only, and that type only has to
    be told equal or not to the ones before it.

    The representatives are encoded trees, structures over the vocabulary of
    :func:`to_structure`. A new signature's representative is built directly
    from its children's: a new root that is ``<=`` every element and carries
    its letter's predicate, over shifted copies of ``min(count, m)`` of each
    child class's representative. No tree is built or encoded for it, and no
    real subtree is ever encoded. The table types every representative in
    one :class:`~fmtk.equiv.TypeScope` of its own, where equal type ids mean
    equal rank-``m`` keys at every ``m``, including ``m = 0``, and a class
    id is the type id of its representatives there; :meth:`of` expands a
    key from it.

    The table lives as long as the instance: one per shrink pipeline, over
    the alphabet of ``base``; any tree over that alphabet may be classified.
    :func:`shrink_tree` does not read the table for its final ``equivalent``
    verdict, which types the encoded input and output in a scope of its own,
    so the route that checks the reducers shares nothing with them.
    """

    def __init__(self, base: SigmaTree, m: int):
        self.m = m
        self.base = base
        self._vocab = _tree_vocabulary(base.alphabet)
        self._ids: dict[tuple, int] = {}  # signature -> class id
        self._scope = TypeScope()
        self._reps: dict[int, Structure] = {}  # class id -> its first representative

    def of(self, nodes: frozenset[int]) -> tuple:
        """Rank-``m`` key of the sub-poset of ``base`` on ``nodes``."""
        t = self.base.induced(nodes)
        return self._scope.key(self.classify(t)[t.root])

    def classify(self, t: SigmaTree, skip=frozenset()) -> dict[int, int]:
        """The class id of every node's subtree in ``t`` but those in ``skip``,
        a set closed upward, in one bottom-up pass."""
        ids: dict[int, int] = {}
        for v in sorted(t.nodes, key=t.depth, reverse=True):
            if v not in skip:
                ids[v] = self.compose(t.label[v], [ids[c] for c in t.children(v)])
        return ids

    def compose(self, letter: str, child_ids) -> int:
        """The class id of a ``letter`` root over children of the given classes."""
        counts: dict[int, int] = {}
        if self.m:
            for c in child_ids:
                counts[c] = min(counts.get(c, 0) + 1, self.m)
        return self._class_of((letter, tuple(sorted(counts.items()))))

    def _class_of(self, sig: tuple) -> int:
        """The class id of a signature; a new one's representative is built and typed."""
        cid = self._ids.get(sig)
        if cid is None:
            rep = self._representative(sig)
            cid = self._ids[sig] = type_id(rep, self.m, self._scope)
            self._reps.setdefault(cid, rep)
        return cid

    def _representative(self, sig: tuple) -> Structure:
        letter, counts = sig
        if letter not in self.base.alphabet:
            raise ValueError("labels must come from the alphabet")
        vocab = self._vocab
        rels: dict[str, list] = {name: [] for name, _ in vocab.predicates}
        rels[label_predicate(letter)].append((0,))
        size = 1  # the root is element 0; each copy is shifted past the last
        for c, n in counts:
            part = self._reps[c]
            for _ in range(n):
                for name, arity in vocab.predicates:
                    rels[name] += _shifted(part.relations[name], arity, size)
                size += part.size
        rels[ORDER_PRED] += [(0, v) for v in range(size)]
        # shifted copies of valid representatives: nothing to check
        return Structure._derived(vocab, size, {name: frozenset(ts) for name, ts in rels.items()})


def splice_repeats(root, children: dict, cls) -> tuple:
    """Splice until no root-to-leaf path repeats a class: the deepest node
    ``b`` (the smallest on ties) with a strict ancestor of its class takes
    the place of the shallowest such ancestor ``a``. ``children`` maps each
    node to a list of its children and is spliced in place. Returns the
    final root and the set of nodes reachable from it.

    ``cls`` is read once. When it is a congruence, as the classes of both
    height reducers are, no splice changes a surviving node's class: ``b``
    has ``a``'s class, so each ancestor of ``a`` keeps its parts' classes,
    and ``b``'s subtree is unchanged.
    """
    while True:
        best: tuple | None = None  # (-depth_b, b, depth_a, a, parent_a)
        shallowest: dict = {}  # class -> (depth, node, parent), on the current path
        entered: list = []  # (class, depth) of the path nodes that set an entry
        reached = set()
        stack = [(root, None, 0)]
        while stack:
            v, p, d = stack.pop()
            reached.add(v)
            while entered and entered[-1][1] >= d:  # leave the finished subtrees
                del shallowest[entered.pop()[0]]
            c = cls[v]
            top = shallowest.get(c)
            if top is None:
                shallowest[c] = (d, v, p)
                entered.append((c, d))
            elif best is None or (-d, v, *top) < best:
                best = (-d, v, *top)
            stack.extend((u, v, d + 1) for u in children[v])
        if best is None:
            return root, reached
        _, b, _, a, p = best
        if p is None:
            root = b
        else:
            kids = children[p]
            kids[kids.index(a)] = b


def trees_equivalent(t1: SigmaTree, t2: SigmaTree, m: int,
                     marks1: tuple[int, ...] = (), marks2: tuple[int, ...] = ()) -> bool:
    """Rank-``m`` equivalence of two labeled trees, optionally with marks."""
    alphabet = tuple(sorted(set(t1.alphabet) | set(t2.alphabet)))
    (Sa, ra), (Sb, rb) = (to_structure(SigmaTree(t.parent, t.label, alphabet)) for t in (t1, t2))
    return marked_equivalent(Sa, tuple(ra[v] for v in marks1), Sb, tuple(rb[v] for v in marks2), m)


# ---------------------------------------------------------------------------
# reducers


def reduce_degree(s: SigmaTree, W, classes: TreeClasses, k: int) -> SigmaTree:
    """Keep at most ``m + k`` children per realized subtree class under every
    node, ``m`` the rank of ``classes``; mark-covering children are always
    among the kept."""
    W = checked_marks(W, k, s.parent)
    cap = classes.m + k
    kept = set(s.nodes)
    # deepest first, so a child's kept subtree is final when its parent is visited
    ids: dict[int, int] = {}
    for a in sorted(s.nodes, key=lambda v: (-s.depth(v), v)):
        if a not in kept:
            continue
        groups: dict[int, list[int]] = {}
        for b in s.children(a):
            if b in kept:
                groups.setdefault(ids[b], []).append(b)
        for members in groups.values():
            if len(members) <= cap:
                continue
            below = {b: s.descendants(b) for b in members}
            members.sort(key=lambda b: (not (below[b] & W), len(below[b] & kept), b))
            for b in members[cap:]:
                if below[b] & W:
                    raise AssertionError("mark-covering child ranked past the cap")
                kept -= below[b]
        ids[a] = classes.compose(s.label[a], [ids[b] for b in s.children(a) if b in kept])
    return s.induced(kept)


def reduce_height_no_W(s: SigmaTree, classes: TreeClasses) -> SigmaTree:
    """Splice out ancestor/descendant pairs whose subtrees realize the same
    class, until no root-to-leaf path repeats a class."""
    return _reduce_hanging_heights(s, set(), classes)


def _reduce_hanging_heights(s: SigmaTree, W: set[int], classes: TreeClasses) -> SigmaTree:
    """:func:`reduce_height_no_W` in each maximal subtree holding no mark; they
    are disjoint, so one classification and one children map serve all."""
    holding = _holding(s, W)
    ids = classes.classify(s, holding)
    children = {v: list(s.children(v)) for v in s.nodes}
    hanging = (h for h in s.nodes if h not in holding and (h == s.root or s.parent[h] in holding))
    return s.induced(holding.union(*(splice_repeats(h, children, ids)[1] for h in hanging)))


def shrink_word(w: SigmaTree, m: int) -> SigmaTree:
    """Subword equivalent at rank ``m``: the chain case of :func:`shrink_tree`,
    whose postconditions it re-verifies."""
    if not w.is_chain():
        raise ValueError("expected a word (chain-shaped tree)")
    return shrink_tree(w, (), m, 0)[0]


def reduce_root_distance(s: SigmaTree, b: int, classes: TreeClasses) -> SigmaTree:
    """Pull ``b`` closer to the root while preserving the marked class of
    ``(tree, b)``: the path below the root is read as a word of hanging
    segments, and a stretch whose suffix class repeats is spliced out."""
    if b not in s.parent:
        raise ValueError(f"{b} is not a node")
    if b == s.root:
        return s
    path = s.path_down(s.root, b)
    ids = classes.classify(s, set(path))
    return s.induced(set(s.nodes) - _dropped_segments(s, path, None, ids, classes))


def _dropped_segments(s: SigmaTree, path: list[int], below, ids, classes: TreeClasses) -> set[int]:
    """The segments :func:`reduce_root_distance` drops from the chain ``path``
    (its first node stays), ``below``'s subtree cut off the last; ``ids``
    classifies the subtrees of ``s`` off the path and below its last node."""
    # word position i is path[i]: its segment, path[i] with every child
    # subtree but the next on the path; the last letter is flagged
    letters = [
        (classes.compose(s.label[u], [ids[c] for c in s.children(u) if c != nxt]), u == path[-1])
        for u, nxt in zip(path[1:], [*path[2:], below])
    ]
    names = {x: f"p{i}" for i, x in enumerate(sorted(set(letters)))}
    word = make_word([names[x] for x in letters], tuple(names.values()))
    # a splice drops letters, and the remaining positions keep their suffix classes
    children = {i: list(word.children(i)) for i in word.nodes}
    _, kept = splice_repeats(1, children, TreeClasses(word, classes.m).classify(word))
    dropped = [path[i] for i in set(word.nodes) - kept]  # never the last letter
    on_path = set(path)
    return set(dropped).union(*(s.descendants(c) for u in dropped
                                for c in s.children(u) if c not in on_path))


def _holding(t: SigmaTree, W: set[int]) -> set[int]:
    """The nodes of ``t`` whose subtree holds a node of ``W``."""
    return {u for w in W for u in (w, *t.ancestors(w))}


def _stretches(t: SigmaTree, W: set[int], holding: set[int]):
    """The mark-free stretches that could be shortened, in one depth-first
    pass over the nodes ``holding`` a mark: each maximal chain of at least
    three unmarked nodes that lie below a mark and have exactly one child
    holding a mark, with that child of its last node."""
    stack = [(t.root, False, [])]  # (node, below a mark, the chain above it)
    while stack:
        v, under, chain = stack.pop()
        kids = [c for c in t.children(v) if c in holding]
        if under and v not in W and len(kids) == 1:
            chain.append(v)
            stack.append((kids[0], True, chain))
            continue
        if len(chain) > 2:  # a shorter one has at most one letter
            yield chain, v
        stack += ((c, under or v in W, []) for c in kids)


def reduce_W_distances(s: SigmaTree, W, classes: TreeClasses) -> SigmaTree:
    """Shorten each mark-free stretch between order-consecutive marks as
    :func:`reduce_root_distance` shortens the path below a root. The
    stretches are disjoint, and a segment's class depends on its own nodes
    alone, so one classification of ``s`` gives every stretch its word."""
    W = checked_marks(W, None, s.parent)
    holding = _holding(s, W)
    stretches = list(_stretches(s, W, holding))
    # a letter reads only the classes of subtrees that hold no mark
    ids = classes.classify(s, holding) if stretches else {}
    removed = set().union(*(_dropped_segments(s, *st, ids, classes) for st in stretches))
    return s.induced(set(s.nodes) - removed)


class ShrinkReport:
    """Per-run log of a shrink pipeline with its verification verdicts.

    ``certificate`` is the union/complement expression of an algebraic
    shrink's output; other pipelines leave it empty.
    """

    def __init__(self, input_size: int, output_size: int, phases: list[tuple[str, int, int]],
                 verdicts: dict[str, bool], certificate: str = ""):
        self.input_size = input_size
        self.output_size = output_size
        self.phases = phases
        self.verdicts = verdicts
        self.certificate = certificate

    def ok(self) -> bool:
        return all(self.verdicts.values())

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationFailed`, carrying this report as
        ``.report``, unless every verdict holds."""
        if not self.ok():
            exc = VerificationFailed(f"shrink verification failed: {self.verdicts}")
            exc.report = self
            raise exc


def shrink_tree(s: SigmaTree, W, m: int, k: int) -> tuple[SigmaTree, ShrinkReport]:
    """Full pipeline: shorten mark distances, squash mark-free hanging
    subtrees, bound per-class degrees; every postcondition is re-verified.

    Raises :class:`VerificationFailed` (with the report attached) if any of
    containment / subtree / equivalence fails. The output contains ``W``.
    """
    W = checked_marks(W, k, s.parent)
    check_rank_type_cost(_tree_vocabulary(s.alphabet).arities, s.size, m)
    classes = TreeClasses(s, m)
    phases: list[tuple[str, int, int]] = []

    t1 = reduce_W_distances(s, W | {s.root}, classes)
    phases.append(("mark-distances", s.size, t1.size))

    # reduce_height_no_W is the no-mark case, called by name so it is traced
    t2 = _reduce_hanging_heights(t1, W, classes) if W else reduce_height_no_W(t1, classes)
    phases.append(("hanging-heights", t1.size, t2.size))

    t3 = reduce_degree(t2, W, classes, k)
    phases.append(("class-degrees", t2.size, t3.size))

    verdicts = {
        "contains_marks": W <= set(t3.nodes),
        "is_subtree": is_subtree(t3, s),
        # both encodings typed in a scope of their own, never the reducers' class table
        "equivalent": trees_equivalent(t3, s, m),
    }
    report = ShrinkReport(s.size, t3.size, phases, verdicts)
    report.raise_if_failed()
    return t3, report


# ---------------------------------------------------------------------------
# text format


def serialize_tree(name: str, t: SigmaTree, marks=()) -> str:
    lines = [f"tree {name}", "alphabet: " + " ".join(t.alphabet)]
    for v in t.nodes:
        p = t.parent[v]
        where = "root" if p is None else f"parent {p}"
        lines.append(f"node {v} label {t.label[v]} {where}")
    if marks:
        lines.append("marks: " + " ".join(str(v) for v in sorted(marks)))
    return "\n".join(lines) + "\n"


def parse_trees(text: str) -> dict[str, tuple[SigmaTree, tuple[int, ...]]]:
    """Parse the block tree format; returns ``name -> (tree, marks)``."""
    result: dict[str, tuple[SigmaTree, tuple[int, ...]]] = {}
    for name, lines in read_blocks(text, "tree").items():
        alphabet: tuple[str, ...] | None = None
        parent: dict[int, int | None] = {}
        label: dict[int, str] = {}
        marks: tuple[int, ...] = ()
        given: dict[str, int] = {}  # 'alphabet:' / 'marks:' -> its line number
        for lineno, line, raw in lines:
            with format_errors(f"line {lineno}: {raw.strip()!r}"):
                words = line.split()
                if words[0] in ("alphabet:", "marks:"):
                    _once(given, repr(words[0]), lineno)
                if words[0] == "alphabet:":
                    alphabet = tuple(words[1:])
                    if len(set(alphabet)) != len(alphabet):
                        raise ValueError(f"alphabet repeats a letter: {' '.join(alphabet)}")
                elif words[0] == "node":
                    v = int(words[1])
                    if v in parent:
                        raise ValueError(f"node {v} is given twice")
                    if words[2] != "label":
                        raise ValueError("expected 'label'")
                    if words[4] == "root":
                        parent[v] = None
                    elif words[4] == "parent":
                        parent[v] = int(words[5])
                    else:
                        raise ValueError("expected 'root' or 'parent N'")
                    label[v] = words[3]
                elif words[0] == "marks:":
                    marks = tuple(int(x) for x in words[1:])
                else:
                    raise ValueError("unrecognized line")
        with format_errors(f"tree {name}"):
            tree = SigmaTree(parent, label, alphabet)
        for v in marks:
            if v not in tree.parent:
                raise StructureFormatError(f"mark {v} is not a node of {name}")
        result[name] = (tree, marks)
    return result

"""Core finding over finite samples and the translation of core-certified
sentences into existential-then-universal prefix form.

A class of structures is represented by a :class:`ClassSample`: an explicit
finite list for iteration plus an optional membership callback standing in
for the full class when substructures are probed. Every claim these routines
make is sample-bounded and re-checked by evaluation.
"""

from __future__ import annotations

import itertools

from .errors import VerificationFailed, check_guard
from .folog import (
    And,
    Atom,
    Cst,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    PrefixSentence,
    Var,
    assemble_prefix,
    evaluate,
    prefix_vars,
    relativize,
    size_bound_sentence,
    to_formula,
    _implies,
)
from .structures import (
    Structure,
    Vocabulary,
    induced_substructure,
    kept_id_sets,
    _element_profile,
    _embedding,
)
from .wqo import graph_components, order_positions

CORE_GUARD = 12  # exhaustive subset enumeration bound
MINIMAL_MODEL_GUARD = 64
PREFIX_EVAL_GUARD = 10**6  # prefix assignments, summed over a sample


class ClassSample:
    """Finite stand-in for a class: listed structures plus a membership test."""

    def __init__(self, structures: list[Structure], membership: "callable | None" = None):
        self.structures = structures
        self.membership = membership

    def member(self, A: Structure) -> bool:
        return True if self.membership is None else bool(self.membership(A))


class CoreCertificate:
    """Cores found for one structure."""

    def __init__(self, structure: Structure, cores: list[tuple[int, ...]]):
        self.structure = structure
        self.cores = cores

    def has_core(self) -> bool:
        return bool(self.cores)


def _as_class_test(crit):
    if callable(crit):
        return crit
    return lambda B: evaluate(B, crit)


def find_cores(A: Structure, crit, k: int, sample: ClassSample) -> list[tuple[int, ...]]:
    """All mark sets of size at most ``k`` whose retention forces every
    class-member substructure of ``A`` into the target class, by size and then
    in lexicographic order.

    ``crit`` is a sentence or a callable deciding target-class membership;
    ``sample.membership`` decides which substructures count at all. A
    candidate is a core iff no bad kept set (one whose substructure is a class
    member outside the target) contains it. The kept sets are walked largest
    first; a set that contains no still-open candidate is skipped without
    building its substructure, since finding it bad would close nothing, and
    a bad set closes every candidate it contains. So the answer is exact, and
    ``sample.membership`` and ``crit`` see only the substructures of sets not
    skipped, in that order; the search returns ``[]`` once every candidate is
    closed. In the worst case (no bad set) every subset is still built, so it
    is guarded at ``|A| <= 12``.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    check_guard("|A| =", A.size, CORE_GUARD, "the core-search guard")
    if not sample.member(A):
        raise ValueError("the structure is not in the sample's class")
    in_target = _as_class_test(crit)
    still_open = [
        (sum(1 << e for e in combo), combo)
        for size in range(k + 1)
        for combo in itertools.combinations(range(A.size), size)
    ]
    for kept in kept_id_sets(A, largest_first=True):
        mask = sum(1 << e for e in kept)
        if not any(c & mask == c for c, _ in still_open):
            continue
        B = induced_substructure(A, kept)[0]
        if sample.member(B) and not in_target(B):
            still_open = [(c, combo) for c, combo in still_open if c & mask != c]
            if not still_open:
                return []
    return [combo for _, combo in still_open]


def psc_check(phi: Formula, k: int, sample: ClassSample) -> tuple[bool, list[CoreCertificate]]:
    """Does every model of ``phi`` in the sample carry a core of size at most
    ``k``? Returns the verdict and one certificate per model."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    certificates: list[CoreCertificate] = []
    for A in sample.structures:
        if not evaluate(A, phi):
            continue
        certificates.append(CoreCertificate(A, find_cores(A, phi, k, sample)))
    return all(c.has_core() for c in certificates), certificates


# ---------------------------------------------------------------------------
# translation


def translate_to_exists_forall(
    phi: Formula, k: int, p: int, constants: tuple[str, ...] = ()
) -> PrefixSentence:
    """Syntactic translation: relativize ``size-bound -> phi`` to the prefix
    variables and wrap it in ``k`` existentials and ``p`` universals.

    Semantic agreement is a separate, sample-bounded check. With a
    constant-free vocabulary the relativized size bound is a tautology (an
    induced substructure of ``k + p`` points never exceeds ``k + p``
    elements), so it folds away instead of being expanded.
    """
    if p < 1:
        raise ValueError("the universal block needs at least one variable")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    xs, ys = prefix_vars(k, p)
    allvars = xs + ys
    truth = Eq(Var(allvars[0]), Var(allvars[0]))
    if constants:
        bound = relativize(size_bound_sentence(k + p), allvars, constants)
    else:
        bound = truth
    return assemble_prefix(k, p, _implies(bound, relativize(phi, allvars, constants), truth))


class TranslationResult:
    def __init__(self, sentence: PrefixSentence, p: int, verified: bool, disagreements: list[int]):
        self.sentence = sentence
        self.p = p
        self.verified = verified
        self.disagreements = disagreements


def sample_agreement(phi: Formula, ps: PrefixSentence, sample: ClassSample) -> list[int]:
    """Indices of sample structures where the translation disagrees with ``phi``.

    The prefix of ``k + p`` variables ranges over |A|^(k+p) assignments on
    each structure; their sum over the sample is held to
    ``PREFIX_EVAL_GUARD`` before anything is evaluated.
    """
    width = len(ps.exist_vars) + len(ps.univ_vars)
    check_guard(
        "prefix assignments", sum(A.size**width for A in sample.structures),
        PREFIX_EVAL_GUARD, "the prefix-evaluation guard",
    )
    translated = to_formula(ps)
    return [
        i
        for i, A in enumerate(sample.structures)
        if evaluate(A, phi) != evaluate(A, translated)
    ]


def translate_auto(
    phi: Formula, k: int, sample: ClassSample, max_p: int = 16,
    constants: tuple[str, ...] = (),
) -> TranslationResult:
    """Try ``p = 1, 2, 4, ...`` up to ``max_p`` until the translation agrees
    with ``phi`` across the sample; reports failure past the cap. A try
    whose prefix is past ``PREFIX_EVAL_GUARD`` raises before it runs."""
    if max_p < 1:
        raise ValueError(f"max_p must be at least 1, got {max_p}")
    p = 1
    last = None
    while p <= max_p:
        ps = translate_to_exists_forall(phi, k, p, constants)
        bad = sample_agreement(phi, ps, sample)
        last = TranslationResult(ps, p, not bad, bad)
        if not bad:
            return last
        p *= 2
    return last


def core_formula(phi: Formula, k: int, p: int, constants: tuple[str, ...] = ()) -> Formula:
    """The mark-set definer: universally quantified relativized matrix with
    the ``k`` witness variables left free."""
    ps = translate_to_exists_forall(phi, k, p, constants)
    out: Formula = ps.matrix
    for y in reversed(ps.univ_vars):
        out = Forall(y, out)
    return out


# ---------------------------------------------------------------------------
# universal sentences from minimal models


def atomic_diagram_sentence(A: Structure) -> Formula:
    """Existential closure of every atomic and negated atomic fact of ``A``;
    a structure models it exactly when ``A`` embeds into it."""
    xs = [f"x{e + 1}" for e in range(A.size)]
    facts: list[Formula] = []
    for i in range(A.size):
        for j in range(i + 1, A.size):
            facts.append(Not(Eq(Var(xs[i]), Var(xs[j]))))
    for c in A.vocab.constants:
        facts.append(Eq(Cst(c), Var(xs[A.constant_interp[c]])))
    for name, arity in A.vocab.predicates:
        rel = A.relations[name]
        for t in itertools.product(range(A.size), repeat=arity):
            atom = Atom(name, tuple(Var(xs[e]) for e in t))
            facts.append(atom if t in rel else Not(atom))
    body: Formula = facts[0] if facts else Eq(Var(xs[0]), Var(xs[0]))
    for fact in facts[1:]:
        body = And(body, fact)
    out: Formula = body
    for x in reversed(xs):
        out = Exists(x, out)
    return out


def minimal_models(structures: list[Structure]) -> list[Structure]:
    """Embedding-minimal members, up to isomorphism: the first of each
    isomorphism class of structures into which no smaller one embeds, in
    input order.

    Visits the structures in stable order of size and keeps one only if no
    minimum kept so far embeds in it. This is exact by transitivity: if a
    smaller structure embeds in ``A``, so does a smallest one, and that one
    (or its first isomorphic copy) was kept before ``A`` is visited. An
    embedding between structures of one size is an isomorphism, so the same
    test drops the later isomorphic copies. A minimum, once found, is never
    removed, so ``MINIMAL_MODEL_GUARD`` refuses as soon as one too many is
    found. In the worst case (pairwise non-embeddable structures) every pair
    is still tried.
    """
    if len({A.vocab for A in structures}) > 1:
        raise ValueError("embedding requires identical vocabularies")
    minima: list[tuple[int, list]] = []  # (index, element profile)
    for i in sorted(range(len(structures)), key=lambda i: structures[i].size):
        A = structures[i]
        profile = _element_profile(A)  # once per structure, not once per try
        if not any(_embedding(structures[j], A, p, profile) is not None for j, p in minima):
            minima.append((i, profile))
            check_guard("minimal models", len(minima), MINIMAL_MODEL_GUARD,
                        "the minimal-model guard")
    return [structures[i] for i in sorted(i for i, _ in minima)]


def forall_star_from_minimal_models(class_membership, sample: ClassSample) -> Formula:
    """Universal-form sentence for a substructure-closed class: the negated
    disjunction of the atomic diagrams of the minimal models outside it.

    Verified against the membership callback on the whole sample.
    """
    outside = [A for A in sample.structures if not class_membership(A)]
    if not outside:
        out: Formula = Forall("y1", Eq(Var("y1"), Var("y1")))
        _verify_defines(out, class_membership, sample)
        return out
    minima = minimal_models(outside)
    disjunction: Formula = atomic_diagram_sentence(minima[0])
    for A in minima[1:]:
        disjunction = Or(disjunction, atomic_diagram_sentence(A))
    out = Not(disjunction)
    _verify_defines(out, class_membership, sample)
    return out


def _verify_defines(sentence: Formula, class_membership, sample: ClassSample):
    for i, A in enumerate(sample.structures):
        verdict = evaluate(A, sentence)
        member = bool(class_membership(A))
        if verdict != member:
            raise VerificationFailed(
                f"constructed sentence disagrees with the class on sample structure {i}"
                f" (size {A.size}): sentence {verdict}, class {member}"
            )


# ---------------------------------------------------------------------------
# sample builders and bundled class tests


def enumerate_structures(vocab: Vocabulary, max_size: int) -> list[Structure]:
    """Every labeled structure over ``vocab`` up to ``max_size`` elements."""
    if vocab.constants:
        raise ValueError("enumeration is for constant-free vocabularies")
    out = []
    for n in range(1, max_size + 1):
        spaces = []
        for name, arity in vocab.predicates:
            spaces.append(list(itertools.product(range(n), repeat=arity)))
        def rels_for(bits_per_pred):
            return {
                name: frozenset(
                    t for t, keep in zip(space, bits) if keep
                )
                for (name, _), space, bits in zip(vocab.predicates, spaces, bits_per_pred)
            }
        choice_sets = [
            list(itertools.product((False, True), repeat=len(space))) for space in spaces
        ]
        for bits_per_pred in itertools.product(*choice_sets):
            out.append(Structure(vocab, n, rels_for(bits_per_pred)))
    return out


def _component_kinds(A: Structure) -> list[str] | None:
    comps = graph_components(A)
    return None if comps is None else [kind for kind, _ in comps]


def is_cycle_graph(A: Structure) -> bool:
    return _component_kinds(A) == ["cycle"]


def is_path_graph(A: Structure) -> bool:
    return _component_kinds(A) == ["path"]


def is_path_union(A: Structure) -> bool:
    kinds = _component_kinds(A)
    return kinds is not None and set(kinds) == {"path"}


def is_linear_order(A: Structure) -> bool:
    try:
        order_positions(A)
        return True
    except (ValueError, KeyError):
        return False


def is_sigma_tree(A: Structure) -> bool:
    from .shrink import from_structure  # here, so that translating loads no shrinker

    try:
        from_structure(A)
        return True
    except (ValueError, KeyError):
        return False


def is_sigma_word(A: Structure) -> bool:
    from .shrink import from_structure

    try:
        return from_structure(A).is_chain()
    except (ValueError, KeyError):
        return False


def is_paths_cycle_family(A: Structure) -> bool:
    """Member of the paths-plus-one-cycle example family."""
    comps = graph_components(A)
    if comps is None:
        return False
    cycles = [len(c) for kind, c in comps if kind == "cycle"]
    lengths: dict[int, int] = {}
    for kind, c in comps:
        if kind == "other":
            return False
        if kind == "path":
            lengths[len(c) - 1] = lengths.get(len(c) - 1, 0) + 1
    counts = set(lengths.values())
    if len(cycles) > 1 or len(counts) != 1:
        return False
    n = counts.pop()
    return sorted(lengths) == list(range(3**n + 1)) and cycles in ([], [3**n])


CLASS_TESTS = {
    "all": lambda A: True,
    "cycles": is_cycle_graph,
    "paths": is_path_graph,
    "path-unions": is_path_union,
    "linorders": is_linear_order,
    "words": is_sigma_word,
    "trees": is_sigma_tree,
    "paths-cycle-family": is_paths_cycle_family,
}

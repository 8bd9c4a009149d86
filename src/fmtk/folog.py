"""First-order syntax over a relational vocabulary.

AST, parser and printer (round-trip stable), quantifier rank, Tarskian
evaluation, relativization to a variable tuple, and the prefix-sentence
helpers used by the translation pipeline.
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import itemgetter

from .errors import FormulaSyntaxError
from .records import Record
from .structures import Structure, Vocabulary


# ---------------------------------------------------------------------------
# terms and formulas


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Cst(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


Term = Var | Cst


class Atom(Record):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Term, ...]):
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)


class Eq(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Not(Record):
    __slots__ = ("sub",)

    def __init__(self, sub: "Formula"):
        object.__setattr__(self, "sub", sub)


class _Binary(Record):
    __slots__ = ()

    def __init__(self, lhs: "Formula", rhs: "Formula"):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class And(_Binary):
    __slots__ = ("lhs", "rhs")


class Or(_Binary):
    __slots__ = ("lhs", "rhs")


class Implies(_Binary):
    __slots__ = ("lhs", "rhs")


class _Quantifier(Record):
    __slots__ = ()

    def __init__(self, var: str, body: "Formula"):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


class Exists(_Quantifier):
    __slots__ = ("var", "body")


class Forall(_Quantifier):
    __slots__ = ("var", "body")


Formula = Atom | Eq | Not | And | Or | Implies | Exists | Forall


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset(t.name for t in f.args if isinstance(t, Var))
    if isinstance(f, Eq):
        return frozenset(t.name for t in (f.lhs, f.rhs) if isinstance(t, Var))
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def quantifier_rank(f: Formula) -> int:
    """Maximum quantifier nesting depth."""
    if isinstance(f, (Atom, Eq)):
        return 0
    if isinstance(f, Not):
        return quantifier_rank(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return max(quantifier_rank(f.lhs), quantifier_rank(f.rhs))
    if isinstance(f, (Exists, Forall)):
        return 1 + quantifier_rank(f.body)
    raise TypeError(f"not a formula: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    return quantifier_rank(f) == 0


def eliminate_implications(f: Formula) -> Formula:
    if isinstance(f, (Atom, Eq)):
        return f
    if isinstance(f, Not):
        return Not(eliminate_implications(f.sub))
    if isinstance(f, Implies):
        return Or(Not(eliminate_implications(f.lhs)), eliminate_implications(f.rhs))
    if isinstance(f, (And, Or)):
        return type(f)(eliminate_implications(f.lhs), eliminate_implications(f.rhs))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, eliminate_implications(f.body))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# evaluation
#
# A formula is compiled once per vocabulary into a tree of closures, each
# called as ``node(A, env)``. ``env`` is a list of variable slots: the free
# variables first, in sorted order, then one slot per binder occurrence whose
# variable is read, so an inner binder never overwrites an outer binding of
# the same name. Atoms are resolved against the vocabulary when compiled,
# and a negated atom or variable equality is one closure; a symbol the
# vocabulary lacks compiles to a node that raises only when evaluation
# reaches it, so short-circuiting decides whether the error shows, as it
# would for a walk of the syntax tree.
#
# A block of one quantifier whose body is a chain of the block's connective
# (``∧`` under ``∃``, ``∨`` under ``∀``) is staged by the miniscope rule
# ``∃x(φ ∧ ψ) ≡ φ ∧ ∃x ψ`` for x not free in φ: nested loops over the block
# variables, each part tested in the shallowest loop that binds every block
# variable it reads, and a part that reads none tested once before the loops
# (structures are nonempty, so this is sound). Parts keep their order within a
# loop. Only the block variables the body reads get a slot, each at the
# innermost binder of its name, and a loop; an unread one needs none, for the
# same reason. A block whose body holds a raising node anywhere runs as one
# product of its loops with every part tested innermost, since staging would
# change which error shows.

_COMPILED_LIMIT = 256
# (id(formula), vocabulary) -> (formula, free variables, slot count, root node).
# The entry holds the formula, so its id cannot be reused while cached.
_compiled: dict[tuple[int, Vocabulary], tuple] = {}


def evaluate(A: Structure, f: Formula, assignment: dict[str, int] | None = None) -> bool:
    """Tarskian truth of ``f`` in ``A`` under ``assignment``.

    The compiled form of ``f`` is cached per formula object and vocabulary,
    so evaluating one formula on many structures or assignments compiles it
    once. A quantifier block over a conjunction (``∃``) or a disjunction
    (``∀``) tests each part as soon as the block variables it reads are
    bound, so ``∃x ∃y (x ≠ y ∧ ...)`` rejects ``x = y`` before it picks a
    third element.
    """
    key = (id(f), A.vocab)
    entry = _compiled.get(key)
    if entry is None or entry[0] is not f:
        if len(_compiled) >= _COMPILED_LIMIT:
            _compiled.clear()
        entry = _compiled[key] = (f, *_compile(f, A.vocab))
    _, free, n_slots, node = entry
    env = [None] * n_slots
    if free:
        assignment = assignment or {}
        missing = [v for v in free if v not in assignment]
        if missing:
            raise ValueError(f"unassigned free variables: {missing}")
        env[: len(free)] = [assignment[v] for v in free]
    return node(A, env)


def _raiser(message: str):
    def node(A, env):
        raise ValueError(message)

    return node


def _chain(g: Formula, cls) -> list[Formula]:
    """The operands of the chain of ``cls`` at the top of ``g``, in order."""
    parts, stack = [], [g]
    while stack:
        h = stack.pop()
        if type(h) is cls:
            stack += (h.rhs, h.lhs)
        else:
            parts.append(h)
    return parts


def _join(cls, parts: list):
    """One node running the nodes ``parts`` in order, joined by ``cls``
    (``And`` or ``Or``)."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        a, b = parts
        if cls is And:
            return lambda A, env: a(A, env) and b(A, env)
        return lambda A, env: a(A, env) or b(A, env)
    if cls is And:
        def run(A, env):
            for p in parts:
                if not p(A, env):
                    return False
            return True
    else:
        def run(A, env):
            for p in parts:
                if p(A, env):
                    return True
            return False

    return run


def _loop(cls, start: int, stop: int, body):
    """One node running ``body`` with slots ``start .. stop-1`` over every
    tuple of elements, as ``cls`` (``Exists`` or ``Forall``) asks."""
    if stop - start == 1 and cls is Exists:
        def run(A, env):
            for env[start] in range(A.size):
                if body(A, env):
                    return True
            return False
    elif stop - start == 1:
        def run(A, env):
            for env[start] in range(A.size):
                if not body(A, env):
                    return False
            return True
    elif cls is Exists:
        def run(A, env):
            for env[start:stop] in itertools.product(range(A.size), repeat=stop - start):
                if body(A, env):
                    return True
            return False
    else:
        def run(A, env):
            for env[start:stop] in itertools.product(range(A.size), repeat=stop - start):
                if not body(A, env):
                    return False
            return True

    return run


def _compile(f: Formula, vocab: Vocabulary):
    """Free variables (sorted), slot count and root node of ``f`` over ``vocab``.

    Each compiler returns a node and the bit mask of the slots it reads that
    an enclosing binder or the assignment fills, so free variables are
    collected bottom-up in the one pass.
    """
    free = tuple(sorted(free_vars(f)))
    arities = dict(vocab.predicates)
    constants = frozenset(vocab.constants)
    n_slots = len(free)
    n_raisers = 0

    def fail(message: str):
        nonlocal n_raisers
        n_raisers += 1
        return _raiser(message), 0

    def term(t: Term, scope):
        if isinstance(t, Var):
            i = scope[t.name]
            return lambda A, env: env[i]
        name = t.name
        return lambda A, env: A.constant_interp[name]

    def atom(g: Atom, scope, holds=True):
        pred = g.pred
        if pred not in arities:
            return fail(f"unknown predicate {pred}")
        if len(g.args) != arities[pred]:
            return fail(f"arity mismatch for {pred}")
        slots, mask = [], 0
        for t in g.args:
            if isinstance(t, Var):
                slots.append(scope[t.name])
                mask |= 1 << slots[-1]
            elif t.name not in constants:
                return fail(f"unknown constant {t.name}")
        if len(slots) < len(g.args):
            terms = [term(t, scope) for t in g.args]
            test = lambda A, env: tuple([t(A, env) for t in terms]) in A.relations[pred]
            return (test if holds else lambda A, env: not test(A, env)), mask
        if len(slots) == 1:
            (i,) = slots
            if holds:
                return (lambda A, env: (env[i],) in A.relations[pred]), mask
            return (lambda A, env: (env[i],) not in A.relations[pred]), mask
        get = itemgetter(*slots)
        if holds:
            return (lambda A, env: get(env) in A.relations[pred]), mask
        return (lambda A, env: get(env) not in A.relations[pred]), mask

    def eq(g: Eq, scope, holds=True):
        slots, mask = [], 0
        for t in (g.lhs, g.rhs):
            if isinstance(t, Var):
                slots.append(scope[t.name])
                mask |= 1 << slots[-1]
            elif t.name not in constants:
                return fail(f"unknown constant {t.name}")
        if len(slots) == 2:
            i, j = slots
            if holds:
                return (lambda A, env: env[i] == env[j]), mask
            return (lambda A, env: env[i] != env[j]), mask
        lhs, rhs = term(g.lhs, scope), term(g.rhs, scope)
        test = lambda A, env: lhs(A, env) == rhs(A, env)
        return (test if holds else lambda A, env: not test(A, env)), mask

    def negation(g: Not, scope):
        if type(g.sub) in (Atom, Eq):
            return compilers[type(g.sub)](g.sub, scope, holds=False)
        sub, mask = node(g.sub, scope)
        return (lambda A, env: not sub(A, env)), mask

    def junction(g: And | Or, scope):
        # a chain of one connective becomes one node; operands keep their order
        parts, mask = [], 0
        for h in _chain(g, type(g)):
            p, m = node(h, scope)
            parts.append(p)
            mask |= m
        return _join(type(g), parts), mask

    def quantifier(g: Exists | Forall, scope):
        # a block of one quantifier gives consecutive slots to the variables
        # its body reads, each at the innermost binder of its name
        nonlocal n_slots
        cls = type(g)
        names = []
        while type(g) is cls:
            names.append(g.var)
            g = g.body
        read = free_vars(g)
        start = n_slots
        for i, v in enumerate(names):
            if v in read and v not in names[i + 1:]:
                scope = {**scope, v: n_slots}
                n_slots += 1
        width = n_slots - start
        block = ((1 << width) - 1) << start
        connective = And if cls is Exists else Or
        raised = n_raisers
        # levels[j]: the parts whose deepest block variable is the j-th (0: none)
        parts, levels, mask = [], [[] for _ in range(width + 1)], 0
        for h in _chain(g, connective):
            p, m = node(h, scope)
            parts.append(p)
            levels[((m & block) >> start).bit_length()].append(p)
            mask |= m
        if n_raisers > raised:  # every part innermost
            levels = [[] for _ in range(width)] + [parts]
        # the loops, innermost first: each binds the block variables after the
        # next shallower level that has parts, up to its own level, then runs
        # its own parts and the loop inside it
        inner, hi = [], None
        for j in range(width, -1, -1):
            if levels[j] or j == 0:
                if hi is not None:
                    body = _join(connective, levels[hi] + inner)
                    inner = [_loop(cls, start + j, start + hi, body)]
                hi = j
        return _join(connective, levels[0] + inner), mask & ~block

    compilers = {
        Atom: atom, Eq: eq, Not: negation, And: junction, Or: junction,
        Exists: quantifier, Forall: quantifier,
    }

    def node(g: Formula, scope):
        compiler = compilers.get(type(g))
        if compiler is None:
            raise TypeError(f"not a formula: {g!r}")
        return compiler(g, scope)

    root, _ = node(eliminate_implications(f), {v: i for i, v in enumerate(free)})
    del compilers  # the compilers refer to one another through it: unbound, they are freed now
    return free, n_slots, root


# ---------------------------------------------------------------------------
# simplifying constructors (used by relativize)


def _is_true(f: Formula) -> bool:
    return isinstance(f, Eq) and f.lhs == f.rhs


def _is_false(f: Formula) -> bool:
    return isinstance(f, Not) and _is_true(f.sub)


def _not(f: Formula) -> Formula:
    if _is_true(f):
        return Not(f)  # canonical falsum
    if isinstance(f, Not):
        return f.sub
    return Not(f)


def _fold(cls, parts: list[Formula], truth: Formula) -> Formula:
    """``parts`` joined left to right by ``cls``, ``And`` or ``Or``, with
    repeats and parts that cannot change the result dropped; a part that
    decides it makes the result ``truth`` or its negation."""
    decides, neutral = (_is_false, _is_true) if cls is And else (_is_true, _is_false)
    kept: list[Formula] = []
    seen = set()
    for p in parts:
        if decides(p):
            return _not(truth) if cls is And else truth
        if not (neutral(p) or p in seen):
            seen.add(p)
            kept.append(p)
    if not kept:
        return truth if cls is And else _not(truth)
    return functools.reduce(cls, kept)


def _implies(a: Formula, b: Formula, truth: Formula) -> Formula:
    if _is_true(a):
        return b
    if _is_false(a) or _is_true(b):
        return truth
    if _is_false(b):
        return _not(a)
    return Implies(a, b)


# ---------------------------------------------------------------------------
# relativization


def relativize(f: Formula, xs: tuple[str, ...], constants: tuple[str, ...] = ()) -> Formula:
    """Quantifier-free formula asserting ``f`` inside the substructure induced
    by the values of ``xs`` together with the constants.

    Universal quantifiers are rewritten through negated existentials, and each
    existential is expanded into a disjunction over ``xs`` and the constants;
    the result is folded (identical-term equalities, duplicate disjuncts).
    Constants occurring in ``f`` are always used as witnesses; pass
    ``constants`` to cover vocabulary constants that ``f`` does not mention.
    """
    if not xs:
        raise ValueError("relativization needs at least one variable")
    if not is_sentence(f):
        raise ValueError("relativization is defined for sentences")

    witnesses: list[Term] = []
    for x in xs:
        if Var(x) not in witnesses:
            witnesses.append(Var(x))
    all_constants = sorted(_constants_of(f) | set(constants))
    witnesses.extend(Cst(c) for c in all_constants)
    truth = Eq(Var(xs[0]), Var(xs[0]))

    def term(t: Term, env: dict[str, Term]) -> Term:
        return env[t.name] if isinstance(t, Var) else t

    def rel(g: Formula, env: dict[str, Term]) -> Formula:
        # env maps each bound variable to its witness; a witness is never
        # looked up again, so no binder can capture it
        if isinstance(g, Eq):
            lhs, rhs = term(g.lhs, env), term(g.rhs, env)
            return truth if lhs == rhs else Eq(lhs, rhs)
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(term(t, env) for t in g.args))
        if isinstance(g, Not):
            return _not(rel(g.sub, env))
        if isinstance(g, And):
            return _fold(And, [rel(g.lhs, env), rel(g.rhs, env)], truth)
        if isinstance(g, Or):
            return _fold(Or, [rel(g.lhs, env), rel(g.rhs, env)], truth)
        if isinstance(g, Implies):
            return _implies(rel(g.lhs, env), rel(g.rhs, env), truth)
        if isinstance(g, Exists):
            return _fold(Or, [rel(g.body, {**env, g.var: w}) for w in witnesses], truth)
        if isinstance(g, Forall):
            # de-Morgan-folded form of the negated-existential rewrite
            return _fold(And, [rel(g.body, {**env, g.var: w}) for w in witnesses], truth)
        raise TypeError(f"not a formula: {g!r}")

    out = rel(f, {})
    del rel  # it refers to itself: unbound here, it is freed now, not by the cyclic collector
    return out


def _constants_of(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {t.name for t in f.args if isinstance(t, Cst)}
    if isinstance(f, Eq):
        return {t.name for t in (f.lhs, f.rhs) if isinstance(t, Cst)}
    if isinstance(f, Not):
        return _constants_of(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return _constants_of(f.lhs) | _constants_of(f.rhs)
    if isinstance(f, (Exists, Forall)):
        return _constants_of(f.body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# size-bound sentence and prefix sentences


def size_bound_sentence(n: int) -> Formula:
    """Sentence true exactly in structures with at most ``n`` elements."""
    if n < 1:
        raise ValueError("size bound must be at least 1")
    xs = [f"x{i + 1}" for i in range(n)]
    body: Formula = Eq(Var("y"), Var(xs[0]))
    for x in xs[1:]:
        body = Or(body, Eq(Var("y"), Var(x)))
    out: Formula = Forall("y", body)
    for x in reversed(xs):
        out = Exists(x, out)
    return out


class PrefixSentence(Record):
    """A sentence shaped as a block of existentials, then universals, then a
    quantifier-free matrix."""

    __slots__ = ("exist_vars", "univ_vars", "matrix")

    def __init__(self, exist_vars: tuple[str, ...], univ_vars: tuple[str, ...], matrix: Formula):
        if not is_quantifier_free(matrix):
            raise ValueError("matrix must be quantifier-free")
        if set(exist_vars) & set(univ_vars):
            raise ValueError("existential and universal variables must be disjoint")
        allowed = set(exist_vars) | set(univ_vars)
        if not free_vars(matrix) <= allowed:
            raise ValueError("matrix has free variables outside the prefix")
        object.__setattr__(self, "exist_vars", exist_vars)
        object.__setattr__(self, "univ_vars", univ_vars)
        object.__setattr__(self, "matrix", matrix)


def prefix_vars(k: int, p: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The canonical prefix variables: ``x1..xk`` and ``y1..yp``."""
    return tuple(f"x{i + 1}" for i in range(k)), tuple(f"y{i + 1}" for i in range(p))


def assemble_prefix(k: int, p: int, matrix: Formula) -> PrefixSentence:
    """Wrap ``matrix`` in the canonical prefix :func:`prefix_vars`."""
    return PrefixSentence(*prefix_vars(k, p), matrix)


def to_formula(ps: PrefixSentence) -> Formula:
    out: Formula = ps.matrix
    for y in reversed(ps.univ_vars):
        out = Forall(y, out)
    for x in reversed(ps.exist_vars):
        out = Exists(x, out)
    return out


# ---------------------------------------------------------------------------
# parser


_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<arrow>->)|(?P<punct>[().,!&|=]))"
)
_KEYWORDS = {"exists", "forall"}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", where)
        if m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("arrow"):
            tokens.append(("->", "->", m.start("arrow")))
        else:
            p = m.group("punct")
            tokens.append((p, p, m.start("punct")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, vocab: Vocabulary, text: str):
        self.vocab = vocab
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        kind, value, _ = self.peek()
        if kind == "ident" and value in _KEYWORDS:
            return self.quantified()
        return self.implication()

    def quantified(self) -> Formula:
        _, word, _ = self.next()
        tok = self.expect("ident")
        var = tok[1]
        if var in _KEYWORDS:
            raise FormulaSyntaxError(f"{var!r} cannot be a variable name", tok[2])
        self.expect(".")
        body = self.formula()
        return Exists(var, body) if word == "exists" else Forall(var, body)

    def implication(self) -> Formula:
        lhs = self.disjunction()
        if self.peek()[0] == "->":
            self.next()
            return Implies(lhs, self.implication())
        return lhs

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek()[0] == "|":
            self.next()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "!":
            self.next()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        if kind != "ident":
            raise FormulaSyntaxError(f"expected a formula, found {value!r}", pos)
        if value in _KEYWORDS:
            raise FormulaSyntaxError("quantifier must be parenthesized here", pos)
        if self.peek()[0] == "(":
            self.next()
            args = [self.term()]
            while self.peek()[0] == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            if not self.vocab.has_predicate(value):
                raise FormulaSyntaxError(f"unknown predicate {value!r}", pos)
            if self.vocab.arity(value) != len(args):
                raise FormulaSyntaxError(
                    f"predicate {value!r} expects {self.vocab.arity(value)} arguments",
                    pos,
                )
            return Atom(value, tuple(args))
        lhs = self.as_term(value, pos)
        self.expect("=")
        return Eq(lhs, self.term())

    def term(self) -> Term:
        tok = self.expect("ident")
        return self.as_term(tok[1], tok[2])

    def as_term(self, name: str, pos: int) -> Term:
        if name in _KEYWORDS:
            raise FormulaSyntaxError(f"{name!r} cannot be a term", pos)
        if self.vocab.has_predicate(name):
            raise FormulaSyntaxError(f"predicate {name!r} used as a term", pos)
        if name in self.vocab.constants:
            return Cst(name)
        return Var(name)


def parse(vocab: Vocabulary, text: str) -> Formula:
    parser = _Parser(vocab, text)
    out = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input {value!r}", pos)
    return out


# ---------------------------------------------------------------------------
# printer

_LEVEL = {Implies: 1, Or: 2, And: 3, Not: 4}


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse`` of the output restores ``f``."""
    return _print(f, 0)


def _term_str(t: Term) -> str:
    return t.name


def _print(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(_term_str(t) for t in f.args)})"
    if isinstance(f, Eq):
        s = f"{_term_str(f.lhs)} = {_term_str(f.rhs)}"
        return f"({s})" if level > 3 else s
    if isinstance(f, Not):
        return "!" + _print(f.sub, 4)
    if isinstance(f, (Exists, Forall)):
        word = "exists" if isinstance(f, Exists) else "forall"
        s = f"{word} {f.var}. {_print(f.body, 0)}"
        return f"({s})" if level > 0 else s
    own = _LEVEL[type(f)]
    symbol = {Implies: "->", Or: "|", And: "&"}[type(f)]
    if isinstance(f, Implies):  # right-associative
        s = f"{_print(f.lhs, own + 1)} {symbol} {_print(f.rhs, own)}"
    else:  # left-associative
        s = f"{_print(f.lhs, own)} {symbol} {_print(f.rhs, own + 1)}"
    return f"({s})" if level > own else s

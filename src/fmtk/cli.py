"""Batch command-line front-end.

Every command reads text inputs, runs the corresponding library operation,
re-verifies its postconditions, and emits a deterministic report: a short
human-readable part, then a stable ``key: value`` block. Identical invocations
produce byte-identical reports. Exit codes: 0 success, 1 bad input, 2 guard
exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    FormulaSyntaxError,
    GuardExceeded,
    StructureFormatError,
    VerificationFailed,
    check_guard,
)

if __name__ != "__main__":
    # Imported as a module (the benchmark's set-up, tests), this module loads
    # every layer. Run as ``python -m fmtk.cli`` or by the ``fmtk`` console
    # script (``fmtk.console``), each command imports only the layers it runs.
    from . import algebra, equiv, folog, shrink, translate, wqo


class RunConfig:
    def __init__(self, command: str, m: int | None = None, k: int | None = None,
                 max_size: int = 64, out: str | None = None):
        self.command = command
        self.m = m
        self.k = k
        self.max_size = max_size
        self.out = out
        self.extras: dict[str, str] = {}

    def header_lines(self) -> list[str]:
        lines = [f"command: {self.command}"]
        for key in ("m", "k"):
            value = getattr(self, key)
            if value is not None:
                lines.append(f"{key}: {value}")
        lines.append(f"max-size: {self.max_size}")
        for key in sorted(self.extras):
            lines.append(f"{key}: {self.extras[key]}")
        return lines


class Report:
    def __init__(self, config: RunConfig):
        self.config = config
        self.human: list[str] = []
        self.keys: list[tuple[str, str]] = []

    def say(self, line: str):
        self.human.append(line)

    def put(self, key: str, value):
        self.keys.append((key, str(value)))

    def render(self) -> str:
        lines = ["fmtk report"]
        lines.extend(self.config.header_lines())
        lines.append("")
        lines.extend(self.human)
        lines.append("---")
        lines.extend(f"{k}: {v}" for k, v in self.keys)
        return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str, parse=None) -> dict:
    """Read a block file: structures by default, or trees with
    ``shrink.parse_trees``."""
    if parse is None:
        from .structures import parse_structures as parse
    with open(path) as fh:
        return parse(fh.read())


def _pick(named: dict, name: str | None, what: str, kind: str = "structure") -> tuple:
    if name is None:
        first = next(iter(named))
        return first, named[first]
    if name not in named:
        raise StructureFormatError(f"no {kind} named {name!r} in {what}")
    return name, named[name]


def _parse_marks(text: str | None) -> list[int]:
    if not text:
        return []
    return [int(x) for x in text.replace(",", " ").split()]


def _check_size(size: int, config: RunConfig, what: str = "structure"):
    check_guard(f"{what} of size", size, config.max_size, "--max-size")


def _hn_size(n: int) -> int:
    """Vertices of H_n, ``n`` copies of each path on 1 .. 3**n + 1 vertices.
    The H_n guard comes first, so a large ``n`` never reaches ``3**n``."""
    from . import wqo

    wqo.check_hn_guard(n)
    return n * (3**n + 1) * (3**n + 2) // 2


# class name -> its ``wqo`` generator and, for a class that ``translate``
# samples (named in the plural there), its ``translate`` membership test,
# both looked up when called; and the number of elements the generator
# builds from its parameters
_CLASSES = {
    "linorder": ("make_linear_order", "is_linear_order", lambda n: n),
    "path": ("make_path", "is_path_graph", lambda n: n + 1),
    "cycle": ("make_cycle", "is_cycle_graph", lambda n: n),
    "hn": ("make_Hn", None, _hn_size),
    "gn": ("make_Gn", None, lambda n: _hn_size(n) + 3**n),
    "grid": ("make_grid", None, lambda *dims: math.prod(dims)),
}
GEN_CLASSES = tuple(_CLASSES)
# sorted(translate.CLASS_TESTS), written out so that ``--help`` loads no layer
CORE_CLASSES = ("all", "cycles", "linorders", "path-unions", "paths", "paths-cycle-family",
                "trees", "words")


def _load_checked(path: str, config: RunConfig) -> dict[str, Structure]:
    named = _load(path)
    for A in named.values():
        _check_size(A.size, config)
    return named


def _sample_from_spec(spec: str, config: RunConfig) -> tuple[translate.ClassSample, str]:
    """``cycles:3:8``-style ranges over generators, or ``file:PATH``; every
    structure is held to ``--max-size`` before any evaluation."""
    from . import translate, wqo

    if spec.startswith("file:"):
        named = _load_checked(spec[len("file:"):], config)
        return translate.ClassSample(list(named.values())), spec
    parts = spec.split(":")
    if len(parts) != 3:
        raise StructureFormatError(
            "sample spec must be CLASS:LO:HI (cycles, paths, linorders) or file:PATH"
        )
    kind, lo, hi = parts[0], int(parts[1]), int(parts[2])
    entry = _CLASSES.get(kind[:-1]) if kind.endswith("s") else None
    if entry is None or entry[1] is None:
        raise StructureFormatError(f"unknown sample class {kind!r}")
    maker, member, size = entry
    if lo > hi:
        raise StructureFormatError(f"sample range {lo}..{hi} is empty")
    _check_size(size(hi), config)
    make, member = getattr(wqo, maker), getattr(translate, member)
    return translate.ClassSample([make(n) for n in range(lo, hi + 1)], membership=member), spec


# ---------------------------------------------------------------------------
# commands


def cmd_equiv(args, config: RunConfig) -> int:
    from . import equiv

    name_a, A = _pick(_load(args.file_a), args.name_a, args.file_a)
    name_b, B = _pick(_load(args.file_b), args.name_b, args.file_b)
    _check_size(A.size, config)
    _check_size(B.size, config)
    config.extras.update({"file-a": args.file_a, "file-b": args.file_b,
                          "name-a": name_a, "name-b": name_b})
    verdict = equiv.m_equivalent(A, B, config.m)
    report = Report(config)
    word = "equivalent" if verdict else "distinguishable"
    report.say(
        f"The structures {name_a} ({A.size} elements) and {name_b} ({B.size} elements)"
    )
    report.say(f"are {word} at quantifier rank {config.m}.")
    report.put("verdict", word)
    report.put("fingerprint-a", equiv.class_fingerprint(A, (), config.m))
    report.put("fingerprint-b", equiv.class_fingerprint(B, (), config.m))
    _emit(report.render(), config.out)
    return 0


def cmd_shrink(args, config: RunConfig) -> int:
    from . import shrink

    trees = _load(args.file, shrink.parse_trees)
    name, (tree, file_marks) = _pick(trees, args.name, args.file, "tree")
    marks = _parse_marks(args.marks) if args.marks else list(file_marks)
    _check_size(tree.size, config, "tree")
    config.extras.update({"file": args.file, "name": name,
                          "marks": " ".join(map(str, sorted(marks))) or "-"})
    out, rep = shrink.shrink_tree(tree, marks, config.m, config.k)
    report = Report(config)
    report.say(f"Shrunk tree {name} from {rep.input_size} to {rep.output_size} nodes.")
    _put_shrink(report, rep)
    report.say("All postconditions re-verified: "
               + ", ".join(sorted(k for k, v in rep.verdicts.items() if v)))
    report.put("tree", "")
    tree_text = shrink.serialize_tree(name + "_shrunk", out, sorted(set(marks)))
    _emit(report.render() + tree_text, config.out)
    return 0


def _put_shrink(report: Report, rep: shrink.ShrinkReport):
    """A shrink's phase lines, then its sizes and ``verified-*`` verdicts."""
    for phase, before, after in rep.phases:
        report.say(f"  {phase}: {before} -> {after}")
    report.put("input-size", rep.input_size)
    report.put("output-size", rep.output_size)
    for key in sorted(rep.verdicts):
        report.put(f"verified-{key.replace('_', '-')}", rep.verdicts[key])


def cmd_translate(args, config: RunConfig) -> int:
    from . import folog, translate

    sample, spec = _sample_from_spec(args.sample, config)
    vocab = sample.structures[0].vocab
    phi = folog.parse(vocab, args.formula)
    config.extras.update({"sample": spec, "formula": args.formula, "p": args.p})
    report = Report(config)
    if args.p == "auto":
        result = translate.translate_auto(phi, config.k, sample, max_p=args.max_p)
        ps, p_used, verified = result.sentence, result.p, result.verified
    else:
        ps = translate.translate_to_exists_forall(phi, config.k, int(args.p))
        p_used = int(args.p)
        verified = not translate.sample_agreement(phi, ps, sample)
    sentence = folog.print_formula(folog.to_formula(ps))
    report.say(f"Translated over sample {spec} with {config.k} existentials, {p_used} universals.")
    report.say(f"Sentence: {sentence}")
    report.say(
        "The translation agrees with the input on every sample structure."
        if verified
        else "DISAGREEMENT: the translation differs from the input on the sample."
    )
    report.put("p-used", p_used)
    report.put("sentence", sentence)
    report.put("sample-agreement", verified)
    _emit(report.render(), config.out)
    return 0 if verified else 3


def cmd_cores(args, config: RunConfig) -> int:
    from . import folog, translate

    named = _load_checked(args.file, config)
    member = translate.CLASS_TESTS[args.klass]
    sample = translate.ClassSample(list(named.values()), membership=member)
    vocab = sample.structures[0].vocab
    phi = folog.parse(vocab, args.formula)
    config.extras.update({"file": args.file, "formula": args.formula, "class": args.klass})
    ok, certs = translate.psc_check(phi, config.k, sample)
    report = Report(config)
    names = {id(A): n for n, A in named.items()}
    report.say(f"Checked {len(certs)} model(s) of the sentence for cores of size <= {config.k}.")
    for cert in certs:
        sets = " ".join("{" + ",".join(map(str, c)) + "}" for c in cert.cores) or "none"
        report.say(f"  {names[id(cert.structure)]}: cores {sets}")
        report.put(f"cores-{names[id(cert.structure)]}", sets)
    report.put("models-checked", len(certs))
    report.put("every-model-has-core", ok)
    _emit(report.render(), config.out)
    return 0


def cmd_wqo_scan(args, config: RunConfig) -> int:
    from . import wqo

    named = _load_checked(args.file, config)
    items = []
    for name, A in named.items():
        consts = sorted(A.vocab.constants)
        marks = tuple(A.constant_interp[c] for c in consts)
        if len(marks) != config.k:
            raise StructureFormatError(
                f"{name} carries {len(marks)} marks (constants); expected k = {config.k}"
            )
        items.append((_strip_constants(A), marks))
    config.extras.update({"file": args.file, "items": str(len(items))})
    pair = wqo.linear_order_embedding_pair(items, config.k)
    report = Report(config)
    if pair:
        report.say(f"Item {pair[0]} embeds into item {pair[1]} (marks onto marks).")
        report.put("pair", f"{pair[0]} {pair[1]}")
    else:
        report.say("No embedding pair: the sequence is an antichain.")
        report.put("pair", "none")
    _emit(report.render(), config.out)
    return 0


def _strip_constants(A: Structure) -> Structure:
    from .structures import Structure, Vocabulary

    vocab = Vocabulary(A.vocab.predicates, ())
    return Structure(vocab, A.size, A.relations)


def cmd_algebra_eval(args, config: RunConfig) -> int:
    from . import algebra
    from .structures import serialize_structure

    named = _load(args.structs)
    expr_text = _expression_text(args)
    tree = algebra.parse_expression(expr_text, named)
    _check_size(algebra.evaluated_size(tree), config)
    out = algebra.eval_expression_tree(tree)
    config.extras.update({"structs": args.structs, "expr": expr_text})
    report = Report(config)
    report.say(f"Evaluated the expression to a structure with {out.size} elements.")
    report.put("output-size", out.size)
    report.put("structure", "")
    _emit(report.render() + serialize_structure("result", out), config.out)
    return 0


def cmd_algebra_shrink(args, config: RunConfig) -> int:
    from . import algebra
    from .structures import serialize_structure

    named = _load(args.structs)
    expr_text = _expression_text(args)
    tree = algebra.parse_expression(expr_text, named)
    for leaf in tree.leaves():
        _check_size(leaf.base.size, config)
    marks = _parse_marks(args.marks)
    shrinker = (
        algebra.identity_leaf_shrinker
        if args.leaf_shrinker == "identity"
        else algebra.exhaustive_leaf_shrinker
    )
    config.extras.update({
        "structs": args.structs, "expr": expr_text,
        "marks": " ".join(map(str, sorted(marks))) or "-",
        "leaf-shrinker": args.leaf_shrinker,
    })
    out, rep = algebra.shrink_algebraic(tree, marks, config.m, config.k, shrinker)
    report = Report(config)
    report.say(f"Shrunk the evaluation from {rep.input_size} to {rep.output_size} elements.")
    _put_shrink(report, rep)
    report.say(f"Certificate expression: {rep.certificate}")
    report.put("certificate", rep.certificate)
    report.put("structure", "")
    _emit(report.render() + serialize_structure("result", out), config.out)
    return 0


def _expression_text(args) -> str:
    if (args.expr is None) == (args.expr_file is None):
        raise StructureFormatError("give exactly one of --expr and --expr-file")
    if args.expr is not None:
        return args.expr
    with open(args.expr_file) as fh:
        return fh.read().strip()


def cmd_gen(args, config: RunConfig) -> int:
    from . import wqo
    from .structures import MarkedStructure, serialize_structure

    marks = _parse_marks(args.marks)
    params = [int(d) for d in args.dims.split("x")] if args.klass == "grid" else [args.n]
    maker, _, size = _CLASSES[args.klass]
    _check_size(size(*params), config)
    A = getattr(wqo, maker)(*params)
    if marks:
        A = MarkedStructure(A, tuple(marks)).expand()
    _emit(serialize_structure(args.name or args.klass, A), config.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-size", type=int, default=64)
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    rank = argparse.ArgumentParser(add_help=False)
    rank.add_argument("--m", type=int, required=True, help="quantifier-rank bound")
    marks = argparse.ArgumentParser(add_help=False)
    marks.add_argument("--k", type=int, required=True, help="mark-set size bound")

    parser = argparse.ArgumentParser(prog="fmtk", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, about, *flags):
        p = sub.add_parser(name, parents=[common, *flags], help=about, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    p = command("equiv", cmd_equiv, "decide rank-m equivalence of two structures", rank)
    p.add_argument("--file-a", required=True)
    p.add_argument("--file-b", required=True)
    p.add_argument("--name-a", default=None)
    p.add_argument("--name-b", default=None)

    p = command("shrink", cmd_shrink, "shrink a labeled tree or word around marks", rank, marks)
    p.add_argument("--file", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--marks", default=None, help="override the marks from the file")

    p = command("translate", cmd_translate,
                "translate a sentence to prefix form over a sample", marks)
    p.add_argument("--formula", required=True)
    p.add_argument("--sample", required=True, help="CLASS:LO:HI or file:PATH")
    p.add_argument("--p", default="auto", help="universal-block size, or 'auto'")
    p.add_argument("--max-p", type=int, default=16)

    p = command("cores", cmd_cores, "find cores of the sentence's models in a file", marks)
    p.add_argument("--file", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--class", dest="klass", default="all", choices=CORE_CLASSES)

    p = command("wqo-scan", cmd_wqo_scan, "scan marked linear orders for an embedding pair", marks)
    p.add_argument("--file", required=True)

    p = command("algebra-eval", cmd_algebra_eval, "evaluate an operation expression")
    p.add_argument("--structs", required=True)
    p.add_argument("--expr", default=None)
    p.add_argument("--expr-file", default=None)

    p = command("algebra-shrink", cmd_algebra_shrink,
                "shrink a union/complement expression around marks", rank, marks)
    p.add_argument("--structs", required=True)
    p.add_argument("--expr", default=None)
    p.add_argument("--expr-file", default=None)
    p.add_argument("--marks", default=None)
    p.add_argument("--leaf-shrinker", default="exhaustive", choices=("exhaustive", "identity"))

    p = command("gen", cmd_gen, "generate an example structure")
    p.add_argument("--class", dest="klass", required=True, choices=GEN_CLASSES)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dims", default="3x4", help="grid dimensions, e.g. 3x4")
    p.add_argument("--marks", default=None)
    p.add_argument("--name", default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        m=getattr(args, "m", None),
        k=getattr(args, "k", None),
        max_size=args.max_size,
        out=args.out,
    )
    try:
        return args.fn(args, config)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (StructureFormatError, FormulaSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

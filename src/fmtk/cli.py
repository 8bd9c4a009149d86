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


class Report:
    def __init__(self, args, inputs: dict[str, object]):
        self.header = [f"command: {args.command}"]
        self.header += [f"{key}: {getattr(args, key)}" for key in ("m", "k") if hasattr(args, key)]
        self.header.append(f"max-size: {args.max_size}")
        self.header += [f"{key}: {inputs[key]}" for key in sorted(inputs)]
        self.human: list[str] = []
        self.keys: list[tuple[str, str]] = []

    def say(self, line: str):
        self.human.append(line)

    def put(self, key: str, value):
        self.keys.append((key, str(value)))

    def render(self) -> str:
        lines = ["fmtk report"]
        lines.extend(self.header)
        lines.append("")
        lines.extend(self.human)
        lines.append("---")
        lines.extend(f"{k}: {v}" for k, v in self.keys)
        return "\n".join(lines) + "\n"


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


def _check_size(size: int, args, what: str = "structure"):
    check_guard(f"{what} of size", size, args.max_size, "--max-size")


def _hn_size(n: int) -> int:
    """Vertices of H_n, ``n`` copies of each path on 1 .. 3**n + 1 vertices.
    The H_n guard comes first, so a large ``n`` never reaches ``3**n``."""
    from . import wqo

    wqo.check_hn_guard(n)
    return n * (3**n + 1) * (3**n + 2) // 2


# class name -> its ``wqo`` generator, looked up when called, and the number
# of elements it builds from its parameters; a class that ``translate.CLASS_TESTS``
# names in the plural can also be sampled
_CLASSES = {
    "linorder": ("make_linear_order", lambda n: n),
    "path": ("make_path", lambda n: n + 1),
    "cycle": ("make_cycle", lambda n: n),
    "hn": ("make_Hn", _hn_size),
    "gn": ("make_Gn", lambda n: _hn_size(n) + 3**n),
    "grid": ("make_grid", lambda *dims: math.prod(dims)),
}
GEN_CLASSES = tuple(_CLASSES)
# sorted(translate.CLASS_TESTS), written out so that ``--help`` loads no layer
CORE_CLASSES = ("all", "cycles", "linorders", "path-unions", "paths", "paths-cycle-family",
                "trees", "words")


def _load_checked(path: str, args) -> dict[str, Structure]:
    named = _load(path)
    for A in named.values():
        _check_size(A.size, args)
    return named


def _sample_from_spec(spec: str, args) -> tuple[translate.ClassSample, str]:
    """``cycles:3:8``-style ranges over generators, or ``file:PATH``; every
    structure is held to ``--max-size`` before any evaluation."""
    from . import translate, wqo

    if spec.startswith("file:"):
        named = _load_checked(spec[len("file:"):], args)
        return translate.ClassSample(list(named.values())), spec
    parts = spec.split(":")
    if len(parts) != 3:
        raise StructureFormatError(
            "sample spec must be CLASS:LO:HI (cycles, paths, linorders) or file:PATH"
        )
    kind, lo, hi = parts[0], int(parts[1]), int(parts[2])
    entry = _CLASSES.get(kind[:-1]) if kind.endswith("s") else None
    if entry is None or kind not in translate.CLASS_TESTS:
        raise StructureFormatError(f"unknown sample class {kind!r}")
    maker, size = entry
    if lo > hi:
        raise StructureFormatError(f"sample range {lo}..{hi} is empty")
    _check_size(size(hi), args)
    make = getattr(wqo, maker)
    return translate.ClassSample([make(n) for n in range(lo, hi + 1)],
                                 membership=translate.CLASS_TESTS[kind]), spec


# ---------------------------------------------------------------------------
# commands


def cmd_equiv(args) -> tuple[str, int]:
    from . import equiv

    name_a, A = _pick(_load(args.file_a), args.name_a, args.file_a)
    name_b, B = _pick(_load(args.file_b), args.name_b, args.file_b)
    _check_size(A.size, args)
    _check_size(B.size, args)
    report = Report(args, {"file-a": args.file_a, "file-b": args.file_b,
                           "name-a": name_a, "name-b": name_b})
    classes = equiv.realized_classes([(A, ()), (B, ())], args.m)
    word = "equivalent" if classes.class_count() == 1 else "distinguishable"
    report.say(
        f"The structures {name_a} ({A.size} elements) and {name_b} ({B.size} elements)"
    )
    report.say(f"are {word} at quantifier rank {args.m}.")
    report.put("verdict", word)
    report.put("fingerprint-a", classes.fingerprints[0])
    report.put("fingerprint-b", classes.fingerprints[-1])
    return report.render(), 0


def cmd_shrink(args) -> tuple[str, int]:
    from . import shrink

    trees = _load(args.file, shrink.parse_trees)
    name, (tree, file_marks) = _pick(trees, args.name, args.file, "tree")
    marks = _parse_marks(args.marks) if args.marks else list(file_marks)
    _check_size(tree.size, args, "tree")
    report = Report(args, {"file": args.file, "name": name,
                           "marks": " ".join(map(str, sorted(marks))) or "-"})
    out, rep = shrink.shrink_tree(tree, marks, args.m, args.k)
    report.say(f"Shrunk tree {name} from {rep.input_size} to {rep.output_size} nodes.")
    _put_shrink(report, rep)
    report.say("All postconditions re-verified: "
               + ", ".join(sorted(k for k, v in rep.verdicts.items() if v)))
    report.put("tree", "")
    tree_text = shrink.serialize_tree(name + "_shrunk", out, sorted(set(marks)))
    return report.render() + tree_text, 0


def _put_shrink(report: Report, rep: shrink.ShrinkReport):
    """A shrink's phase lines, then its sizes and ``verified-*`` verdicts."""
    for phase, before, after in rep.phases:
        report.say(f"  {phase}: {before} -> {after}")
    report.put("input-size", rep.input_size)
    report.put("output-size", rep.output_size)
    for key in sorted(rep.verdicts):
        report.put(f"verified-{key.replace('_', '-')}", rep.verdicts[key])


def cmd_translate(args) -> tuple[str, int]:
    from . import folog, translate

    sample, spec = _sample_from_spec(args.sample, args)
    vocab = sample.structures[0].vocab
    phi = folog.parse(vocab, args.formula)
    report = Report(args, {"sample": spec, "formula": args.formula, "p": args.p})
    constants = tuple(vocab.constants)
    if args.p == "auto":
        result = translate.translate_auto(phi, args.k, sample, max_p=args.max_p, constants=constants)
        ps, p_used, verified = result.sentence, result.p, result.verified
    else:
        ps = translate.translate_to_exists_forall(phi, args.k, int(args.p), constants)
        p_used = int(args.p)
        verified = not translate.sample_agreement(phi, ps, sample)
    sentence = folog.print_formula(folog.to_formula(ps))
    report.say(f"Translated over sample {spec} with {args.k} existentials, {p_used} universals.")
    report.say(f"Sentence: {sentence}")
    report.say(
        "The translation agrees with the input on every sample structure."
        if verified
        else "DISAGREEMENT: the translation differs from the input on the sample."
    )
    report.put("p-used", p_used)
    report.put("sentence", sentence)
    report.put("sample-agreement", verified)
    return report.render(), 0 if verified else 3


def cmd_cores(args) -> tuple[str, int]:
    from . import folog, translate

    named = _load_checked(args.file, args)
    member = translate.CLASS_TESTS[args.klass]
    sample = translate.ClassSample(list(named.values()), membership=member)
    vocab = sample.structures[0].vocab
    phi = folog.parse(vocab, args.formula)
    report = Report(args, {"file": args.file, "formula": args.formula, "class": args.klass})
    ok, certs = translate.psc_check(phi, args.k, sample)
    names = {id(A): n for n, A in named.items()}
    report.say(f"Checked {len(certs)} model(s) of the sentence for cores of size <= {args.k}.")
    for cert in certs:
        sets = " ".join("{" + ",".join(map(str, c)) + "}" for c in cert.cores) or "none"
        report.say(f"  {names[id(cert.structure)]}: cores {sets}")
        report.put(f"cores-{names[id(cert.structure)]}", sets)
    report.put("models-checked", len(certs))
    report.put("every-model-has-core", ok)
    return report.render(), 0


def cmd_wqo_scan(args) -> tuple[str, int]:
    from . import wqo

    named = _load_checked(args.file, args)
    items = []
    for name, A in named.items():
        consts = sorted(A.vocab.constants)
        marks = tuple(A.constant_interp[c] for c in consts)
        if len(marks) != args.k:
            raise StructureFormatError(
                f"{name} carries {len(marks)} marks (constants); expected k = {args.k}"
            )
        items.append((_strip_constants(A), marks))
    report = Report(args, {"file": args.file, "items": str(len(items))})
    pair = wqo.linear_order_embedding_pair(items, args.k)
    if pair:
        report.say(f"Item {pair[0]} embeds into item {pair[1]} (marks onto marks).")
        report.put("pair", f"{pair[0]} {pair[1]}")
    else:
        report.say("No embedding pair: the sequence is an antichain.")
        report.put("pair", "none")
    return report.render(), 0


def _strip_constants(A: Structure) -> Structure:
    from .structures import Structure, Vocabulary

    vocab = Vocabulary(A.vocab.predicates, ())
    return Structure(vocab, A.size, A.relations)


def cmd_algebra_eval(args) -> tuple[str, int]:
    from . import algebra
    from .structures import serialize_structure

    named = _load(args.structs)
    expr_text = _expression_text(args)
    tree = algebra.parse_expression(expr_text, named)
    _check_size(algebra.evaluated_size(tree), args)
    out = algebra.eval_expression_tree(tree)
    report = Report(args, {"structs": args.structs, "expr": expr_text})
    report.say(f"Evaluated the expression to a structure with {out.size} elements.")
    report.put("output-size", out.size)
    report.put("structure", "")
    return report.render() + serialize_structure("result", out), 0


def cmd_algebra_shrink(args) -> tuple[str, int]:
    from . import algebra
    from .structures import serialize_structure

    named = _load(args.structs)
    expr_text = _expression_text(args)
    tree = algebra.parse_expression(expr_text, named)
    for leaf in tree.leaves():
        _check_size(leaf.base.size, args)
    marks = _parse_marks(args.marks)
    report = Report(args, {"structs": args.structs, "expr": expr_text,
                           "marks": " ".join(map(str, sorted(marks))) or "-"})
    out, rep = algebra.shrink_algebraic(tree, marks, args.m, args.k)
    report.say(f"Shrunk the evaluation from {rep.input_size} to {rep.output_size} elements.")
    _put_shrink(report, rep)
    report.say(f"Certificate expression: {rep.certificate}")
    report.put("certificate", rep.certificate)
    report.put("structure", "")
    return report.render() + serialize_structure("result", out), 0


def _expression_text(args) -> str:
    if (args.expr is None) == (args.expr_file is None):
        raise StructureFormatError("give exactly one of --expr and --expr-file")
    if args.expr is not None:
        return args.expr
    with open(args.expr_file) as fh:
        return fh.read().strip()


def cmd_gen(args) -> tuple[str, int]:
    from . import wqo
    from .structures import MarkedStructure, serialize_structure

    marks = _parse_marks(args.marks)
    params = [int(d) for d in args.dims.split("x")] if args.klass == "grid" else [args.n]
    maker, size = _CLASSES[args.klass]
    _check_size(size(*params), args)
    A = getattr(wqo, maker)(*params)
    if marks:
        A = MarkedStructure(A, tuple(marks)).expand()
    return serialize_structure(args.name or args.klass, A), 0


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input (exit 1), not a guard (exit 2)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-size", type=int, default=64)
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    rank = argparse.ArgumentParser(add_help=False)
    rank.add_argument("--m", type=int, required=True, help="quantifier-rank bound")
    marks = argparse.ArgumentParser(add_help=False)
    marks.add_argument("--k", type=int, required=True, help="mark-set size bound")

    parser = _Parser(prog="fmtk", description=__doc__, allow_abbrev=False)
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

    p = command("gen", cmd_gen, "generate an example structure")
    p.add_argument("--class", dest="klass", required=True, choices=GEN_CLASSES)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dims", default="3x4", help="grid dimensions, e.g. 3x4")
    p.add_argument("--marks", default=None)
    p.add_argument("--name", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.fn(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
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

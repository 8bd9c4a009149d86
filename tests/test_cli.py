import subprocess
import sys

import pytest

from fmtk import algebra, cli, translate, wqo
from fmtk.cli import main
from fmtk.shrink import parse_trees, serialize_tree
from fmtk.structures import (
    MarkedStructure, parse_structures, serialize_structure, serialize_structures,
)
from fmtk.wqo import make_cycle, make_linear_order, make_path

from oracles import random_tree
import random


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def cycle_files(tmp_path):
    a = tmp_path / "c4.txt"
    b = tmp_path / "c5.txt"
    a.write_text(serialize_structure("c4", make_cycle(4)))
    b.write_text(serialize_structure("c5", make_cycle(5)))
    return str(a), str(b)


class TestEquivCommand:
    def test_equivalent_cycles(self, cycle_files, capsys):
        a, b = cycle_files
        code, out = run(["equiv", "--file-a", a, "--file-b", b, "--m", "2"], capsys)
        assert code == 0
        assert "verdict: equivalent" in out

    def test_distinguishable(self, tmp_path, capsys):
        a = tmp_path / "p1.txt"
        b = tmp_path / "p2.txt"
        a.write_text(serialize_structure("p1", make_path(1)))
        b.write_text(serialize_structure("p2", make_path(2)))
        code, out = run(["equiv", "--file-a", str(a), "--file-b", str(b), "--m", "2"], capsys)
        assert code == 0
        assert "verdict: distinguishable" in out

    def test_identical_files(self, cycle_files, capsys):
        a, _ = cycle_files
        code, out = run(["equiv", "--file-a", a, "--file-b", a, "--m", "3"], capsys)
        assert code == 0
        assert "verdict: equivalent" in out

    def test_reports_are_byte_identical(self, cycle_files, tmp_path, capsys):
        a, b = cycle_files
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        for out in (out1, out2):
            assert main(["equiv", "--file-a", a, "--file-b", b, "--m", "2",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_guard_exceeded_exit_code(self, cycle_files, capsys):
        a, b = cycle_files
        code = main(["equiv", "--file-a", a, "--file-b", b, "--m", "2",
                     "--max-size", "3"])
        capsys.readouterr()
        assert code == 2


class TestShrinkCommand:
    def test_shrinks_and_reverifies(self, tmp_path, capsys):
        t = random_tree(random.Random(7), 18, ("a", "b"))
        f = tmp_path / "t.txt"
        f.write_text(serialize_tree("t", t, (t.nodes[5],)))
        code, out = run(["shrink", "--file", str(f), "--m", "1", "--k", "1"], capsys)
        assert code == 0
        assert "verified-equivalent: True" in out
        assert "tree t_shrunk" in out

    def test_output_parses_back(self, tmp_path, capsys):
        t = random_tree(random.Random(8), 12, ("a",))
        f = tmp_path / "t.txt"
        f.write_text(serialize_tree("t", t))
        report = tmp_path / "report.txt"
        code = main(["shrink", "--file", str(f), "--m", "1", "--k", "0",
                     "--out", str(report)])
        assert code == 0
        lines = report.read_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("tree t_shrunk"))
        parsed, _ = parse_trees("\n".join(lines[start:]))["t_shrunk"]
        assert parsed.size >= 1

    def test_missing_m_rejected(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("tree t\nalphabet: a\nnode 0 label a root\n")
        with pytest.raises(SystemExit):
            main(["shrink", "--file", str(f), "--k", "0"])
        capsys.readouterr()

    @pytest.mark.parametrize("text, reason", [
        ("tree t\nalphabet: a b\nnode 1 label a root\nnode 2 label a parent 1\n"
         "node 2 label b parent 1\n", "node 2 is given twice"),
        ("tree t\nalphabet: a a\nnode 1 label a root\n", "alphabet repeats a letter"),
        ("alphabet: a\ntree t\nnode 0 label a root\n",
         "line 1: 'alphabet: a' comes before the first tree line"),
        ("tree T\nalphabet: a\nalphabet: b\nnode 0 label b root\n",
         "line 3: 'alphabet:' is given on two lines (first on line 2)"),
        ("tree T\nalphabet: a\nnode 0 label a root\nmarks: 0\nmarks:\n",
         "line 5: 'marks:' is given on two lines (first on line 4)"),
    ], ids=["node", "alphabet", "before-first-header", "alphabet-line", "marks-line"])
    def test_duplicate_lines_exit_1(self, tmp_path, capsys, text, reason):
        f = tmp_path / "t.txt"
        f.write_text(text)
        code = main(["shrink", "--file", str(f), "--m", "1", "--k", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert reason in captured.err and "Traceback" not in captured.err


class TestShrinkPicksByName:
    def test_named_tree(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("tree s\nalphabet: a\nnode 0 label a root\n"
                     "tree t\nalphabet: b\nnode 5 label b root\nnode 6 label b parent 5\n")
        code, out = run(["shrink", "--file", str(f), "--name", "t", "--m", "1", "--k", "0"],
                        capsys)
        assert code == 0
        assert "name: t" in out and "tree t_shrunk" in out

    def test_unknown_name_exits_1(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("tree s\nalphabet: a\nnode 0 label a root\n")
        code = main(["shrink", "--file", str(f), "--name", "u", "--m", "1", "--k", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"no tree named 'u' in {f}" in captured.err


class TestStructureFileErrors:
    @pytest.mark.parametrize("text, reason", [
        ("structure A\nvocab: E/2\nuniverse: 3\nE: (0,1)\nE: (1,2)\n",
         "line 5: predicate 'E' is given on two lines"),
        ("structure A\nvocab: E/2\nuniverse: 3\nuniverse: 3\n",
         "line 4: 'universe:' is given on two lines"),
        ("structure A\nvocab: E/2, E/1\nuniverse: 3\n",
         "line 2: predicate 'E' is listed twice in the vocabulary"),
        ("structure A\nvocab: E/2\nuniverse: 2\nF: (0,1)\n",
         "line 4: predicate 'F' is not in the vocabulary of structure A"),
        ("vocab: E/2\nuniverse: 2\nE: (0,1)\nstructure A\n",
         "line 1: 'vocab: E/2' comes before the first structure line"),
    ], ids=["predicate", "universe", "vocab-entry", "undeclared", "before-first-header"])
    def test_repeated_or_undeclared_symbols_exit_1(self, tmp_path, capsys, text, reason):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(text)
        b.write_text(serialize_structure("B", make_path(1)))
        code = main(["equiv", "--file-a", str(a), "--file-b", str(b), "--m", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert reason in captured.err and "Traceback" not in captured.err


class TestTranslateCommand:
    def test_cycles_fixed_p(self, capsys):
        code, out = run([
            "translate", "--formula", "forall x. !E(x,x)",
            "--sample", "cycles:3:8", "--k", "0", "--p", "4",
        ], capsys)
        assert code == 0
        assert "sample-agreement: True" in out

    def test_auto_p(self, capsys):
        code, out = run([
            "translate", "--formula", "forall x. forall y. (E(x,y) -> E(y,x))",
            "--sample", "cycles:3:6", "--k", "0", "--p", "auto",
        ], capsys)
        assert code == 0
        assert "p-used:" in out

    def test_disagreement_exit_code(self, capsys):
        # one universal variable cannot express "at least two elements"
        code, out = run([
            "translate", "--formula", "exists x. exists y. !(x = y)",
            "--sample", "linorders:1:4", "--k", "0", "--p", "1",
        ], capsys)
        assert code == 3
        assert "sample-agreement: False" in out

    def test_sample_from_file(self, tmp_path, capsys):
        f = tmp_path / "sample.txt"
        f.write_text(
            serialize_structure("c3", make_cycle(3))
            + serialize_structure("c4", make_cycle(4))
        )
        code, out = run([
            "translate", "--formula", "forall x. !E(x,x)",
            "--sample", f"file:{f}", "--k", "0", "--p", "2",
        ], capsys)
        assert code == 0
        assert "sample-agreement: True" in out


class TestCoresCommand:
    def test_witness_example(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text(
            "structure witness\nvocab: E/2\nuniverse: 2\nE: (0,0) (0,1) (1,1)\n"
        )
        code, out = run([
            "cores", "--file", str(f), "--formula", "exists x. forall y. E(x,y)",
            "--k", "1",
        ], capsys)
        assert code == 0
        assert "cores-witness:" in out
        assert "{0} {1}" in out

    @pytest.mark.parametrize("vocab, facts", [("E/1", "(0) (1) (2)"), ("E/3", "(0,1,2) (2,1,0)")])
    def test_non_graph_outside_cycles_exits_1(self, tmp_path, capsys, vocab, facts):
        f = tmp_path / "u.txt"
        f.write_text(f"structure u\nvocab: {vocab}\nuniverse: 3\nE: {facts}\n")
        code = main(["cores", "--file", str(f), "--formula", "forall x. x = x",
                     "--k", "1", "--class", "cycles"])
        captured = capsys.readouterr()
        assert code == 1
        assert "the structure is not in the sample's class" in captured.err


class TestWqoScanCommand:
    def test_pair_found(self, tmp_path, capsys):
        from fmtk.structures import MarkedStructure
        from fmtk.wqo import make_linear_order

        text = "".join(
            serialize_structure(
                f"o{i}", MarkedStructure(make_linear_order(n), (0, n - 1)).expand()
            )
            for i, n in enumerate((3, 5, 4))
        )
        f = tmp_path / "orders.txt"
        f.write_text(text)
        code, out = run(["wqo-scan", "--file", str(f), "--k", "2"], capsys)
        assert code == 0
        assert "pair: 1 2" in out


class TestAlgebraCommands:
    @pytest.fixture
    def structs_file(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text(
            "structure A\nvocab: E/2\nuniverse: 1\nE:\n"
            "structure B\nvocab: E/2\nuniverse: 2\nE: (0,1) (1,0)\n"
        )
        return str(f)

    def test_eval(self, structs_file, capsys):
        code, out = run([
            "algebra-eval", "--structs", structs_file, "--expr", "(bw A B)",
        ], capsys)
        assert code == 0
        assert "output-size: 3" in out
        assert "structure result" in out

    def test_shrink(self, structs_file, capsys):
        code, out = run([
            "algebra-shrink", "--structs", structs_file,
            "--expr", "(u (u A A) (u A A))", "--m", "1", "--k", "1", "--marks", "2",
        ], capsys)
        assert code == 0
        assert "verified-substructure: True" in out
        assert "certificate:" in out

    def test_bad_expression(self, structs_file, capsys):
        code = main(["algebra-eval", "--structs", structs_file, "--expr", "(u A"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("command", ["algebra-eval", "algebra-shrink"])
    @pytest.mark.parametrize("flags", ["neither", "both"])
    def test_exactly_one_expression_flag(self, structs_file, tmp_path, capsys, command, flags):
        expr_file = tmp_path / "e.txt"
        expr_file.write_text("(u A B)\n")
        given = [] if flags == "neither" else ["--expr", "(u A A)", "--expr-file", str(expr_file)]
        ranks = ["--m", "1", "--k", "0"] if command == "algebra-shrink" else []
        args = [command, "--structs", structs_file, *given, *ranks]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "exactly one of --expr and --expr-file" in captured.err
        proc = subprocess.run([sys.executable, "-m", "fmtk.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")

    def test_expression_file(self, structs_file, tmp_path, capsys):
        expr_file = tmp_path / "e.txt"
        expr_file.write_text("(bw A B)\n")
        code, out = run(["algebra-eval", "--structs", structs_file,
                         "--expr-file", str(expr_file)], capsys)
        assert code == 0
        assert "expr: (bw A B)" in out and "output-size: 3" in out

    def test_eval_guard_fires_before_the_product(self, structs_file, capsys, monkeypatch):
        def product_not_allowed(A, B):
            raise AssertionError("the product ran before the size guard")

        monkeypatch.setitem(algebra._EVAL, algebra.CARTESIAN, product_not_allowed)
        code = main(["algebra-eval", "--structs", structs_file, "--expr", "(x A B)",
                     "--max-size", "1"])
        assert code == 2
        assert "exceeds --max-size 1" in capsys.readouterr().err


class TestSizeGuards:
    @pytest.mark.parametrize("spec", ["cycles:3:65", "paths:0:64", "linorders:1:65"])
    def test_translate_range_refused_before_generation(self, spec, capsys, monkeypatch):
        def not_allowed(n):
            raise AssertionError("a sample structure was built before the size guard")

        for name in ("make_cycle", "make_path", "make_linear_order"):
            monkeypatch.setattr(wqo, name, not_allowed)
        code = main(["translate", "--formula", "forall x. x = x", "--sample", spec,
                     "--k", "0", "--p", "1"])
        assert code == 2
        assert "exceeds --max-size 64" in capsys.readouterr().err

    def test_translate_sample_file(self, cycle_files, capsys):
        _, c5 = cycle_files
        code = main(["translate", "--formula", "forall x. !E(x,x)",
                     "--sample", f"file:{c5}", "--k", "0", "--p", "1", "--max-size", "4"])
        assert code == 2
        assert "exceeds --max-size 4" in capsys.readouterr().err

    def test_cores(self, cycle_files, capsys):
        _, c5 = cycle_files
        code = main(["cores", "--file", c5, "--formula", "forall x. !E(x,x)",
                     "--k", "1", "--max-size", "4"])
        assert code == 2
        assert "exceeds --max-size 4" in capsys.readouterr().err

    def test_wqo_scan(self, tmp_path, capsys):
        from fmtk.structures import MarkedStructure
        from fmtk.wqo import make_linear_order

        f = tmp_path / "orders.txt"
        f.write_text("".join(
            serialize_structure(f"o{n}", MarkedStructure(make_linear_order(n), (0,)).expand())
            for n in (3, 5)
        ))
        code = main(["wqo-scan", "--file", str(f), "--k", "1", "--max-size", "4"])
        assert code == 2
        assert "exceeds --max-size 4" in capsys.readouterr().err

    def test_algebra_shrink_leaf_past_the_exhaustive_guard(self, tmp_path):
        # --max-size (64) is larger than the exhaustive shrinker's own guard;
        # the smaller one decides, so the 2^13-subset search never starts
        s = tmp_path / "s.txt"
        s.write_text(serialize_structure("A", make_cycle(algebra.EXHAUSTIVE_SHRINK_GUARD + 1)))
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", "algebra-shrink", "--structs", str(s),
             "--expr", "(u A A)", "--m", "1", "--k", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "exhaustive-shrink guard 12" in proc.stderr

    def test_algebra_shrink_leaf_past_max_size_refused_before_work(
        self, tmp_path, capsys, monkeypatch
    ):
        def not_allowed(t):
            raise AssertionError("the shrink started before the size guard")

        monkeypatch.setattr(algebra, "push_complement_to_leaves", not_allowed)
        s = tmp_path / "s.txt"
        s.write_text(serialize_structure("A", make_cycle(5)))
        code = main(["algebra-shrink", "--structs", str(s), "--expr", "(u A A)",
                     "--m", "1", "--k", "0", "--max-size", "4"])
        assert code == 2
        assert "exceeds --max-size 4" in capsys.readouterr().err


# every sum over paths:1:6 of |A|^(1 + p) past p = 4 is beyond the guard
PREFIX_FOUND = ["translate", "--formula", "forall x. exists y. E(x,y)",
                "--sample", "paths:1:6", "--k", "1"]


class TestPrefixEvaluationGuard:
    def test_fixed_p_refused_before_evaluation(self, capsys, monkeypatch):
        def not_allowed(*args):
            raise AssertionError("a formula was evaluated before the prefix guard")

        monkeypatch.setattr(translate, "evaluate", not_allowed)
        assert main([*PREFIX_FOUND, "--p", "16"]) == 2
        assert "exceeds the prefix-evaluation guard" in capsys.readouterr().err

    def test_auto_p_refused_as_a_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", *PREFIX_FOUND, "--p", "auto"],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "exceeds the prefix-evaluation guard" in proc.stderr


class TestEmptySample:
    def test_reversed_range_refused_before_generation(self, capsys, monkeypatch):
        def not_allowed(n):
            raise AssertionError("a sample structure was built for an empty range")

        monkeypatch.setattr(wqo, "make_cycle", not_allowed)
        code = main(["translate", "--formula", "forall x. x = x", "--sample", "cycles:5:3",
                     "--k", "0", "--p", "1"])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_reversed_range_as_a_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", "translate", "--formula", "forall x. x = x",
             "--sample", "cycles:5:3", "--k", "0", "--p", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


class TestGenCommand:
    def test_gen_cycle_parses_back(self, tmp_path):
        out = tmp_path / "c.txt"
        assert main(["gen", "--class", "cycle", "--n", "5", "--out", str(out)]) == 0
        parsed = parse_structures(out.read_text())
        assert parsed["cycle"].size == 5

    def test_gen_marks_become_constants(self, tmp_path):
        out = tmp_path / "o.txt"
        assert main(["gen", "--class", "linorder", "--n", "4", "--marks", "1 3",
                     "--out", str(out)]) == 0
        parsed = parse_structures(out.read_text())["linorder"]
        assert parsed.constant_interp == {"c1": 1, "c2": 3}

    def test_gen_grid(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "--class", "grid", "--dims", "2x3", "--out", str(out)]) == 0
        assert parse_structures(out.read_text())["grid"].size == 6

    def test_guard_exit(self, capsys):
        assert main(["gen", "--class", "hn", "--n", "4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("klass, params", [
        ("linorder", (4,)), ("path", (4,)), ("cycle", (5,)), ("grid", (2, 3, 2)),
        ("hn", (1,)), ("hn", (2,)), ("gn", (1,)), ("gn", (2,)),
    ])
    def test_size_rule_is_the_generated_size(self, klass, params):
        maker, _, size = cli._CLASSES[klass]
        assert size(*params) == getattr(wqo, maker)(*params).size

    def test_max_size_refused_before_building(self, capsys, monkeypatch):
        def fail(*dims):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(wqo, "make_grid", fail)
        assert main(["gen", "--class", "grid", "--dims", "40x40"]) == 2
        assert "structure of size 1600 exceeds --max-size 64" in capsys.readouterr().err

    def test_hn_2_needs_max_size_110(self, capsys):
        assert main(["gen", "--class", "hn", "--n", "2"]) == 2
        assert main(["gen", "--class", "hn", "--n", "2", "--max-size", "110"]) == 0
        assert "universe: 110" in capsys.readouterr().out


class TestConsoleEntry:
    def test_installed_script(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text(serialize_structure("c", make_cycle(4)))
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", "equiv", "--file-a", str(f),
             "--file-b", str(f), "--m", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "verdict: equivalent" in proc.stdout

    def test_bad_structure_file_exits_1_without_traceback(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("structure A\nvocab: E/2\nuniverse: 2\nF: (0,1)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", "equiv", "--file-a", str(f),
             "--file-b", str(f), "--m", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("command", ["equiv", "shrink", "algebra-shrink"])
    def test_negative_rank_exits_1_without_traceback(self, tmp_path, command):
        s = tmp_path / "s.txt"
        s.write_text(serialize_structure("A", make_cycle(3)))
        t = tmp_path / "t.txt"
        t.write_text("tree t\nalphabet: a\nnode 0 label a root\nnode 1 label a parent 0\n")
        args = {
            "equiv": ["--file-a", str(s), "--file-b", str(s)],
            "shrink": ["--file", str(t), "--k", "0"],
            "algebra-shrink": ["--structs", str(s), "--expr", "(u A A)", "--k", "0"],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", command, *args, "--m", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


# numbers out of range; each must be refused with nothing on stdout
_NUMERIC_EDGES = {
    "translate-k": ["translate", "--formula", "exists x. E(x,x)", "--sample", "cycles:3:5",
                    "--k", "-1"],
    "cores-k": ["cores", "--file", "{c4}", "--formula", "forall x. !E(x,x)", "--k", "-1"],
    # no structure of the file is a model, so no core search ever runs
    "cores-k-no-model": ["cores", "--file", "{loopfree}", "--formula", "exists x. E(x,x)",
                         "--k", "-1"],
    "shrink-k": ["shrink", "--file", "{tree}", "--m", "1", "--k", "-1"],
    "wqo-scan-k": ["wqo-scan", "--file", "{orders}", "--k", "-1"],
    "algebra-shrink-k": ["algebra-shrink", "--structs", "{c4}", "--expr", "(u A A)", "--m", "1",
                         "--k", "-1", "--marks", "0"],
    "max-p-0": ["translate", "--formula", "exists x. E(x,x)", "--sample", "cycles:3:5",
                "--k", "0", "--max-p", "0"],
    "max-p-neg": ["translate", "--formula", "exists x. E(x,x)", "--sample", "cycles:3:5",
                  "--k", "0", "--max-p", "-3"],
    "p-0": ["translate", "--formula", "exists x. E(x,x)", "--sample", "cycles:3:5",
            "--k", "0", "--p", "0"],
    "gen-max-size-0": ["gen", "--class", "cycle", "--max-size", "0"],
}


class TestNumericEdges:
    @pytest.fixture
    def files(self, tmp_path):
        from fmtk.structures import MarkedStructure
        from fmtk.wqo import make_linear_order

        paths = {name: tmp_path / f"{name}.txt" for name in ("c4", "loopfree", "tree", "orders")}
        # C4 has no loops, so it is a model of the cores formula
        paths["c4"].write_text(serialize_structure("A", make_cycle(4)))
        paths["loopfree"].write_text(serialize_structures({"C5": make_cycle(5),
                                                           "P3": make_path(3)}))
        paths["tree"].write_text("tree t\nalphabet: a\nnode 0 label a root\n"
                                 "node 1 label a parent 0\n")
        paths["orders"].write_text(serialize_structure(
            "o", MarkedStructure(make_linear_order(3), (0, 2)).expand()))
        return {name: str(p) for name, p in paths.items()}

    @pytest.mark.parametrize("case", sorted(_NUMERIC_EDGES))
    def test_refused_without_output(self, case, files, capsys):
        code = main([a.format(**files) for a in _NUMERIC_EDGES[case]])
        captured = capsys.readouterr()
        assert code in (1, 2)
        assert captured.out == ""
        assert captured.err.startswith(("error:", "guard exceeded:"))

    def test_max_p_0_as_a_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", *_NUMERIC_EDGES["max-p-0"]],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


class TestFlagsPerCommand:
    """``--m`` and ``--k`` exist, and are required, only where a command reads
    them; no flag may be abbreviated. Every such usage error exits 2."""

    @pytest.mark.parametrize("argv", [
        ["wqo-scan", "--file", "{orders}", "--k", "2", "--m", "-5"],
        ["equiv", "--file-a", "{c4}", "--file-b", "{c4}", "--m", "1", "--k", "-3"],
        ["algebra-eval", "--structs", "{c4}", "--expr", "(u A A)", "--m", "-1"],
        ["translate", "--formula", "forall x. !E(x,x)", "--sample", "cycles:3:4",
         "--k", "0", "--m", "1"],
        ["cores", "--file", "{c4}", "--formula", "forall x. !E(x,x)", "--k", "1", "--m", "1"],
        ["gen", "--class", "cycle", "--k", "1"],
        ["shrink", "--file", "{tree}", "--m", "1"],
        ["algebra-shrink", "--structs", "{c4}", "--expr", "(u A A)", "--k", "1"],
        # abbreviations of --max-size
        ["equiv", "--file-a", "{c4}", "--file-b", "{c4}", "--m", "1", "--max", "3"],
        ["wqo-scan", "--file", "{orders}", "--k", "2", "--m", "64"],
    ], ids=["wqo-scan-m", "equiv-k", "algebra-eval-m", "translate-m", "cores-m", "gen-k",
            "shrink-no-k", "algebra-shrink-no-m", "equiv-max", "wqo-scan-m-as-max-size"])
    def test_usage_error(self, argv, tmp_path, capsys):
        files = {"c4": tmp_path / "c4.txt", "tree": tmp_path / "t.txt",
                 "orders": tmp_path / "o.txt"}
        files["c4"].write_text(serialize_structure("A", make_cycle(4)))
        files["tree"].write_text("tree t\nalphabet: a\nnode 0 label a root\n")
        files["orders"].write_text(serialize_structure(
            "o", MarkedStructure(make_linear_order(3), (0, 2)).expand()))
        with pytest.raises(SystemExit) as info:
            main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert "error:" in captured.err


class TestRankTypeGuard:
    def test_c12_c13_at_rank_7_refused(self, tmp_path):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(serialize_structure("a", make_cycle(12)))
        fb.write_text(serialize_structure("b", make_cycle(13)))
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", "equiv", "--file-a", str(fa),
             "--file-b", str(fb), "--m", "7"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "guard exceeded: rank type of cost |A|^m = 12^7 exceeds the rank-type guard 2000000\n"
        )


    def test_one_element_ternary_at_rank_120_refused(self, tmp_path):
        # |A|^m is 1, so only the fact-width guard stops the O(m^3)-bit facts
        f = tmp_path / "t.txt"
        f.write_text("structure A\nvocab: T/3\nuniverse: 1\nT: (0,0,0)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fmtk.cli", "equiv", "--file-a", str(f),
             "--file-b", str(f), "--m", "120"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "guard exceeded: packed fact width 1735140 exceeds the fact-width guard 65536\n"
        )


class TestDeepNesting:
    @pytest.mark.parametrize("argv", [
        ["translate", "--formula", "!" * 3000 + "forall x. x = x", "--sample", "cycles:3:4",
         "--k", "0", "--p", "1"],
        ["algebra-eval", "--structs", "{one}", "--expr", "(! " * 2000 + "A" + ")" * 2000],
        # 1^1500 passes the rank-type guard
        ["equiv", "--file-a", "{one}", "--file-b", "{one}", "--m", "1500"],
    ], ids=["formula", "expression", "rank"])
    def test_exits_1(self, tmp_path, capsys, argv):
        one = tmp_path / "one.txt"
        one.write_text("structure A\nvocab: E/2\nuniverse: 1\n")
        code = main([a.replace("{one}", str(one)) for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: input nested too deeply\n"


class TestWideKeys:
    def test_rank_200_fingerprint(self, tmp_path, capsys):
        # at width 200 the equality mask of the key has 19,900 bits, more
        # decimal digits than ``repr`` writes by default
        one = tmp_path / "one.txt"
        one.write_text("structure A\nvocab: E/2\nuniverse: 1\n")
        code, out = run(["equiv", "--file-a", str(one), "--file-b", str(one), "--m", "200"], capsys)
        assert code == 0
        assert "verdict: equivalent" in out
        fingerprints = {line.split(": ")[1] for line in out.splitlines()
                        if line.startswith("fingerprint-")}
        assert len(fingerprints) == 1

"""Every command's full stdout and exit code, pinned byte for byte against
``tests/cli_output/<case>.txt``.

Each case runs in a fresh directory and names its input files relatively,
so the ``fmtk report`` header (which echoes the file names) is stable.
Refactors of the CLI must keep these copies unedited. To write a copy for a
new case, run it once and save its stdout under that name.
"""

from pathlib import Path

import pytest

from fmtk.cli import main

EXPECTED = Path(__file__).resolve().parent / "cli_output"

INPUTS = {
    "c4.txt": "structure c4\nvocab: E/2\nuniverse: 4\n"
              "E: (0,1) (0,3) (1,0) (1,2) (2,1) (2,3) (3,0) (3,2)\n",
    "c5.txt": "structure c5\nvocab: E/2\nuniverse: 5\n"
              "E: (0,1) (0,4) (1,0) (1,2) (2,1) (2,3) (3,2) (3,4) (4,0) (4,3)\n",
    "tree.txt": "tree t\nalphabet: a b\nnode 0 label b root\nnode 1 label b parent 0\n"
                "node 2 label a parent 0\nnode 3 label a parent 2\nnode 4 label a parent 2\n"
                "node 5 label a parent 4\nnode 6 label a parent 0\nnode 7 label b parent 3\n"
                "node 8 label a parent 1\nnode 9 label b parent 1\nnode 10 label a parent 0\n"
                "node 11 label a parent 3\nnode 12 label b parent 9\nnode 13 label a parent 0\n"
                "node 14 label a parent 0\nnode 15 label b parent 4\nnode 16 label a parent 4\n"
                "node 17 label a parent 9\nmarks: 5\n",
    "witness.txt": "structure witness\nvocab: E/2\nuniverse: 2\nE: (0,0) (0,1) (1,1)\n"
                   "structure loop\nvocab: E/2\nuniverse: 1\nE: (0,0)\n",
    "orders.txt": "".join(
        f"structure o{i}\nvocab: le/2\nuniverse: {n}\n"
        "le: " + " ".join(f"({a},{b})" for a in range(n) for b in range(a, n)) + "\n"
        f"const c1 = 0\nconst c2 = {n - 1}\n"
        for i, n in enumerate((3, 5, 4))
    ),
    "s.txt": "structure A\nvocab: E/2\nuniverse: 1\nE:\n"
             "structure B\nvocab: E/2\nuniverse: 2\nE: (0,1) (1,0)\n",
}

# case -> (argv, exit code)
CASES = {
    "gen": (["gen", "--class", "cycle", "--n", "5", "--marks", "0 2", "--name", "c"], 0),
    "equiv": (["equiv", "--file-a", "c4.txt", "--file-b", "c5.txt", "--m", "2"], 0),
    "shrink": (["shrink", "--file", "tree.txt", "--m", "1", "--k", "1"], 0),
    "translate": (["translate", "--formula", "forall x. !E(x,x)", "--sample", "cycles:3:6",
                   "--k", "0", "--p", "auto"], 0),
    # one universal variable cannot express "at least two elements"
    "translate-disagreement": (["translate", "--formula", "exists x. exists y. !(x = y)",
                                "--sample", "linorders:1:4", "--k", "0", "--p", "1"], 3),
    "cores": (["cores", "--file", "witness.txt", "--formula", "exists x. forall y. E(x,y)",
               "--k", "1"], 0),
    "wqo-scan": (["wqo-scan", "--file", "orders.txt", "--k", "2"], 0),
    "algebra-eval": (["algebra-eval", "--structs", "s.txt", "--expr", "(bw A B)"], 0),
    "algebra-shrink": (["algebra-shrink", "--structs", "s.txt", "--expr", "(u (u A A) (u A A))",
                        "--m", "1", "--k", "1", "--marks", "2", "--max-size", "10"], 0),
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_and_exit_code(case, inputs, capsys):
    argv, code = CASES[case]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == (EXPECTED / f"{case}.txt").read_text()
    assert captured.err == ""


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_file_holds_the_same_bytes(case, inputs, tmp_path, capsys):
    argv, code = CASES[case]
    assert main([*argv, "--out", "report.txt"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (tmp_path / "report.txt").read_text() == (EXPECTED / f"{case}.txt").read_text()

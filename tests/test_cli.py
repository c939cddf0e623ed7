"""The command-line contract: exit codes, --json mirroring the text, --workers inertness."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ccarb.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

DIRECTED = "3 2\ns a 1\ns b 2\na b 1\nb a 2\n"
WEIGHTED = "3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n"
UNDIRECTED = "3 2\nundirected\na b 1\nb c 2\na c 1\n"
WEIGHTED_UNDIRECTED = "3 2\nundirected\na b 1 1\nb c 2 2\na c 1 3\n"
ONE_COLOR = "3 1\ns a 1\ns b 1\na b 1\n"
UNWEIGHTED_UNREACHABLE = "3 2\ns a 1\nb a 1\n"
UNWEIGHTED_REACHABLE = "3 2\ns a 1\ns b 1\n"
# Line 3 would read as a comment, so the head of line 2 is refused.
HASH_LABEL = "3 1\ns #x 1\n#x y 1\n"
# Four colors, color 3 declared but unused: rooted at s, the counts hold
# cross terms in x1 and x2, and alpha keeps a 0 for color 3.
THREE_VARIABLES = "3 4\ns a 1\ns a 4\ns b 2\nb a 1\na b 2\na b 1\n"

# (argv after the graph path, graph text, exit code, text output).  On the
# directed graph rooted at s: {sa, sb} has alpha 1 and weight 3, {sa, ab}
# alpha 2 and weight 4, {ba, sb} alpha 0 and weight 3.
CASES = [
    (["count", "--root", "s", "--alpha", "2"], DIRECTED, 0, "1\n"),
    (["count", "--root", "s", "--alpha", "3"], DIRECTED, 0, "0\n"),
    (["count-all", "--root", "s"], DIRECTED, 0, "0\t1\n1\t1\n2\t1\n"),
    (["count-all", "--root", "s", "--poly"], DIRECTED, 0, "0\t1\n1\t1\n2\t1\n1 + 1 * x1^1 + 1 * x1^2\n"),
    (["count-all", "--root", "a"], "2 1\ns a 1\n", 0, ""),
    (["decide", "--root", "s", "--alpha", "1"], DIRECTED, 0, "yes\n"),
    (["decide", "--root", "s", "--alpha", "3"], DIRECTED, 1, "no\n"),
    (["find", "--root", "s", "--alpha", "1"], DIRECTED, 0, "s a 1\ns b 2\n"),
    (["find", "--root", "s", "--alpha", "3"], DIRECTED, 1, "none\n"),
    (["min-weight", "--root", "s", "--alpha", "2"], WEIGHTED, 0, "4\n"),
    (["min-weight", "--root", "s", "--alpha", "3"], WEIGHTED, 1, "infeasible\n"),
    (["find-min", "--root", "s", "--alpha", "0"], WEIGHTED, 0, "3\ns b 2 2\nb a 2 1\n"),
    (["find-min", "--root", "s", "--alpha", "3"], WEIGHTED, 1, "infeasible\n"),
    (["spanning-trees", "--alpha", "1"], UNDIRECTED, 0, "2\n"),
    (["spanning-trees", "--alpha", "0"], UNDIRECTED, 0, "0\n"),
    (["count", "--root", "s"], ONE_COLOR, 0, "2\n"),
    (
        ["count-all", "--root", "s", "--poly"],
        THREE_VARIABLES,
        0,
        "0,1,0\t2\n1,0,0\t1\n1,1,0\t3\n2,0,0\t1\n2 * x2^1 + 1 * x1^1 + 3 * x1^1 * x2^1 + 1 * x1^2\n",
    ),
]

# Inputs every subcommand must reject with exit code 2 and a message.
ERRORS = [
    (["count", "--root", "s", "--alpha", "1"], UNDIRECTED),
    (["count", "--root", "zz", "--alpha", "1"], DIRECTED),
    (["count-all", "--root", "zz"], DIRECTED),
    (["count-all", "--root", "a"], UNDIRECTED),
    (["decide", "--root", "s", "--alpha", "x"], DIRECTED),
    (["decide", "--root", "s"], DIRECTED),
    (["find", "--root", "s", "--alpha", "1,1"], DIRECTED),
    (["find", "--root", "s", "--alpha", "-1"], DIRECTED),
    (["min-weight", "--root", "s", "--alpha", "1"], DIRECTED),
    (["min-weight", "--root", "s", "--alpha", "1"], "3 2\ns a 1 1\na s 1 1\nb b 1 1\n"),
    (["find-min", "--root", "s", "--alpha", "1"], DIRECTED),
    (["find-min", "--root", "s", "--alpha", "1"], UNDIRECTED),
    (["spanning-trees", "--alpha", "1"], DIRECTED),
    (["spanning-trees", "--alpha", "1,2"], UNDIRECTED),
    (["count", "--root", "a", "--alpha", "1"], UNDIRECTED),
    (["decide", "--root", "s", "--alpha", ""], DIRECTED),
    (["count", "--root", "s", "--alpha", "1"], ONE_COLOR),
    (["min-weight", "--root", "s", "--alpha", "1"], UNWEIGHTED_UNREACHABLE),
    (["min-weight", "--root", "s", "--alpha", "1"], UNWEIGHTED_REACHABLE),
    (["find-min", "--root", "s", "--alpha", "1"], UNWEIGHTED_UNREACHABLE),
    (["find-min", "--root", "s", "--alpha", "1"], UNWEIGHTED_REACHABLE),
    (["min-weight", "--root", "a", "--alpha", "1"], WEIGHTED_UNDIRECTED),
    (["find-min", "--root", "a", "--alpha", "1"], WEIGHTED_UNDIRECTED),
    (["count", "--root", "s"], HASH_LABEL),
]

COMMANDS = ["count", "count-all", "decide", "find", "min-weight", "find-min", "spanning-trees"]


def run(tmp_path, capsys, argv, text):
    path = tmp_path / "graph.g"
    path.write_text(text, encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv):
    """`python -m ccarb argv` in a process of its own, importing this checkout's ccarb."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "ccarb", *argv], env=env, capture_output=True, text=True, timeout=60)


def edge_objects(lines):
    objects = []
    for line in lines:
        tail, head, color, *weight = line.split()
        obj = {"tail": tail, "head": head, "color": int(color)}
        if weight:
            obj["weight"] = int(weight[0])
        objects.append(obj)
    return objects


def payload_from_text(argv, text):
    """The --json object that the text output of `argv` stands for."""
    command, lines = argv[0], text.splitlines()
    if command in ("count", "spanning-trees"):
        return {"count": int(lines[0])}
    if command == "count-all":
        poly = "--poly" in argv
        rows = [line.split("\t") for line in (lines[:-1] if poly else lines)]
        payload = {"counts": [{"alpha": [int(a) for a in alpha.split(",")], "count": int(c)} for alpha, c in rows]}
        if poly:
            payload["polynomial"] = lines[-1]
        return payload
    if command == "decide":
        return {"decision": lines == ["yes"]}
    if command == "find":
        return {"arborescence": None if lines == ["none"] else edge_objects(lines)}
    if command == "min-weight":
        return {"min_weight": None if lines == ["infeasible"] else int(lines[0])}
    if lines == ["infeasible"]:
        return {"min_weight": None, "arborescence": None}
    return {"min_weight": int(lines[0]), "arborescence": edge_objects(lines[1:])}


def test_cases_cover_every_subcommand():
    assert {argv[0] for argv, *_ in CASES} == set(COMMANDS)
    assert {argv[0] for argv, _ in ERRORS} == set(COMMANDS)
    assert {argv[0] for argv, _, code, _ in CASES if code == 1} == {"decide", "find", "min-weight", "find-min"}


@pytest.mark.parametrize("argv, text, code, out", CASES)
def test_exit_code_and_output(tmp_path, capsys, argv, text, code, out):
    assert run(tmp_path, capsys, argv, text) == (code, out, "")


@pytest.mark.parametrize("argv, text", ERRORS)
def test_bad_input_exits_2_with_message(tmp_path, capsys, argv, text):
    code, out, err = run(tmp_path, capsys, argv, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["count-all", str(tmp_path / "absent.g"), "--root", "s"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


@pytest.mark.parametrize("argv, text, code, out", CASES)
def test_json_mirrors_text(tmp_path, capsys, argv, text, code, out):
    json_code, json_out, _ = run(tmp_path, capsys, argv + ["--json"], text)
    assert json_code == code
    assert json_out.endswith("\n") and json_out.count("\n") == 1
    assert json.loads(json_out) == payload_from_text(argv, out)


@pytest.mark.parametrize("argv, text, code, out", CASES)
def test_workers_do_not_change_output(tmp_path, capsys, argv, text, code, out):
    results = [run(tmp_path, capsys, argv + ["--workers", k], text) for k in ("1", "4")]
    assert results[0] == results[1] == (code, out, "")


def test_oracle_count_is_not_a_subcommand(tmp_path, capsys):
    path = tmp_path / "graph.g"
    path.write_text(DIRECTED, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle-count", str(path), "--root", "s", "--alpha", "1"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'oracle-count'" in capsys.readouterr().err


def test_help_lists_the_seven_subcommands(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out
    assert re.findall(r"^    (\S+)", out, re.MULTILINE) == COMMANDS


def test_a_byte_order_mark_changes_no_byte(tmp_path, capsys):
    # Some editors save UTF-8 with a byte-order mark; it is not part of the header.
    for argv, text, code, out in CASES:
        if text == DIRECTED:
            assert run(tmp_path, capsys, argv, "\ufeff" + DIRECTED) == (code, out, "")
            json_argv = argv + ["--json"]
            assert run(tmp_path, capsys, json_argv, "\ufeff" + DIRECTED) == run(tmp_path, capsys, json_argv, DIRECTED)


def loaded_by_importing_the_cli(modules: list[str]) -> str:
    """The list of those of `modules` that `import ccarb.cli` loads in a fresh interpreter, printed.

    -S keeps site's own imports out.
    """
    code = f"import sys, ccarb.cli; print([m for m in {modules!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_import_loads_no_heavy_standard_modules():
    # Every CLI call imports ccarb.cli first, so each of these would cost
    # every call its import time.
    assert loaded_by_importing_the_cli(["dataclasses", "inspect", "typing", "json"]) == "[]\n"


def test_import_loads_no_test_tooling():
    # The brute-force oracle is the tests' reference, not part of the CLI.
    assert loaded_by_importing_the_cli(["ccarb.oracle"]) == "[]\n"


@pytest.mark.parametrize("alpha, code", [("1", 0), ("3", 1), ("x", 2)])
def test_module_entry_point_exits_with_mains_status(tmp_path, alpha, code):
    path = tmp_path / "graph.g"
    path.write_text(DIRECTED, encoding="utf-8")
    result = run_module(["decide", str(path), "--root", "s", "--alpha", alpha])
    assert result.returncode == code
    assert result.stdout == {0: "yes\n", 1: "no\n", 2: ""}[code]
    assert result.stderr == ("error: invalid --alpha 'x'\n" if code == 2 else "")


# argparse's exact output at COLUMNS=80, for every --help and for the
# refusals that argparse makes itself, each of which prints the usage block
# of the parser that refuses it.  argparse words some of it differently in
# other Python versions (3.10 says "optional arguments:"); these are the
# bytes of Python 3.11.
HELP = {
    None: """\
usage: ccarb [-h]
             {count,count-all,decide,find,min-weight,find-min,spanning-trees}
             ...

Count, decide, find, and weight-minimize color-constrained arborescences.

positional arguments:
  {count,count-all,decide,find,min-weight,find-min,spanning-trees}
    count               print the arborescence count
    count-all           print counts for all constraints
    decide              print yes/no
    find                print one matching arborescence
    min-weight          print the minimum weight
    find-min            print a minimum-weight arborescence
    spanning-trees      print the spanning-tree count

options:
  -h, --help            show this help message and exit
""",
    "count": """\
usage: ccarb count [-h] --root ROOT [--alpha ALPHA] [--workers WORKERS]
                   [--json]
                   graph

positional arguments:
  graph              graph file

options:
  -h, --help         show this help message and exit
  --root ROOT        root vertex label
  --alpha ALPHA      comma-separated color constraint a1,...,a_{q-1} (omit
                     when q = 1)
  --workers WORKERS  accepted for compatibility; no effect
  --json             emit one JSON object
""",
    "count-all": """\
usage: ccarb count-all [-h] --root ROOT [--workers WORKERS] [--json] [--poly]
                       graph

positional arguments:
  graph              graph file

options:
  -h, --help         show this help message and exit
  --root ROOT        root vertex label
  --workers WORKERS  accepted for compatibility; no effect
  --json             emit one JSON object
  --poly             also print the counting polynomial
""",
    "decide": """\
usage: ccarb decide [-h] --root ROOT [--alpha ALPHA] [--workers WORKERS]
                    [--json]
                    graph

positional arguments:
  graph              graph file

options:
  -h, --help         show this help message and exit
  --root ROOT        root vertex label
  --alpha ALPHA      comma-separated color constraint a1,...,a_{q-1} (omit
                     when q = 1)
  --workers WORKERS  accepted for compatibility; no effect
  --json             emit one JSON object
""",
    "find": """\
usage: ccarb find [-h] --root ROOT [--alpha ALPHA] [--workers WORKERS]
                  [--json]
                  graph

positional arguments:
  graph              graph file

options:
  -h, --help         show this help message and exit
  --root ROOT        root vertex label
  --alpha ALPHA      comma-separated color constraint a1,...,a_{q-1} (omit
                     when q = 1)
  --workers WORKERS  accepted for compatibility; no effect
  --json             emit one JSON object
""",
    "min-weight": """\
usage: ccarb min-weight [-h] --root ROOT [--alpha ALPHA] [--workers WORKERS]
                        [--json]
                        graph

positional arguments:
  graph              graph file

options:
  -h, --help         show this help message and exit
  --root ROOT        root vertex label
  --alpha ALPHA      comma-separated color constraint a1,...,a_{q-1} (omit
                     when q = 1)
  --workers WORKERS  accepted for compatibility; no effect
  --json             emit one JSON object
""",
    "find-min": """\
usage: ccarb find-min [-h] --root ROOT [--alpha ALPHA] [--workers WORKERS]
                      [--json]
                      graph

positional arguments:
  graph              graph file

options:
  -h, --help         show this help message and exit
  --root ROOT        root vertex label
  --alpha ALPHA      comma-separated color constraint a1,...,a_{q-1} (omit
                     when q = 1)
  --workers WORKERS  accepted for compatibility; no effect
  --json             emit one JSON object
""",
    "spanning-trees": """\
usage: ccarb spanning-trees [-h] [--alpha ALPHA] [--workers WORKERS] [--json]
                            graph

positional arguments:
  graph              graph file

options:
  -h, --help         show this help message and exit
  --alpha ALPHA      comma-separated color constraint a1,...,a_{q-1} (omit
                     when q = 1)
  --workers WORKERS  accepted for compatibility; no effect
  --json             emit one JSON object
""",
}

# (argv, the subcommand whose usage block is printed or None, error line).
# A flag the chosen subcommand lacks is left over, so the top level refuses it.
REFUSALS = [
    (
        ["oracle-count", "graph.g"],
        None,
        "ccarb: error: argument command: invalid choice: 'oracle-count' "
        "(choose from 'count', 'count-all', 'decide', 'find', 'min-weight', 'find-min', 'spanning-trees')",
    ),
    (["count", "graph.g", "--alpha", "1"], "count", "ccarb count: error: the following arguments are required: --root"),
    (["count", "graph.g", "--root", "s", "--workers", "x"], "count", "ccarb count: error: argument --workers: invalid int value: 'x'"),
    (["count-all", "graph.g", "--root", "s", "--alpha", "1"], None, "ccarb: error: unrecognized arguments: --alpha 1"),
    (["spanning-trees", "graph.g", "--root", "s"], None, "ccarb: error: unrecognized arguments: --root s"),
    (["count", "--root", "s"], "count", "ccarb count: error: the following arguments are required: graph"),
]


def exit_and_output(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", HELP)
def test_help_bytes(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    assert exit_and_output(capsys, argv) == (0, HELP[command], "")


@pytest.mark.parametrize("argv, command, error", REFUSALS)
def test_argparse_refusal_bytes(monkeypatch, capsys, argv, command, error):
    # No refusal reads the graph, so its path need not exist.
    monkeypatch.setenv("COLUMNS", "80")
    usage = HELP[command].split("\n\n")[0] + "\n"
    assert exit_and_output(capsys, argv) == (2, "", usage + error + "\n")


def test_in_process_calls_share_no_state(tmp_path, capsys):
    # The parsers' arguments outlive a call; no call may leave a value, a
    # flag or a default behind for the next.  Each call in one process must
    # print what it prints in a process of its own.
    sequence = [
        (["count-all", "--root", "s", "--poly", "--json"], THREE_VARIABLES),
        (["count-all", "--root", "s"], THREE_VARIABLES),
        (["find", "--root", "s", "--alpha", "1", "--json"], DIRECTED),
        (["decide", "--root", "s"], ONE_COLOR),
    ]
    together = [run(tmp_path, capsys, argv, text) for argv, text in sequence]
    for (argv, text), result in zip(sequence, together):
        path = tmp_path / "graph.g"
        path.write_text(text, encoding="utf-8")
        alone = run_module([argv[0], str(path), *argv[1:]])
        assert (alone.returncode, alone.stdout, alone.stderr) == result


def first_cases():
    """The first CASES entry of each subcommand, in COMMANDS order."""
    first = {case[0][0]: case for case in reversed(CASES)}
    return [first[command] for command in COMMANDS]


def test_calls_add_no_argument(monkeypatch, tmp_path, capsys):
    # Every argument, -h and --poly included, is built once, at import; a
    # call only assembles its parsers from those parents.  Each add_argument
    # call would cost a HelpFormatter and a terminal-size lookup.
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def spy(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    for argv, text, code, out in first_cases():
        assert run(tmp_path, capsys, argv, text) == (code, out, "")
    assert added == []


def test_the_shared_help_prints_the_parser_it_is_invoked_on(monkeypatch, tmp_path, capsys):
    # One -h Action serves all eight parsers, and it outlives every call.
    monkeypatch.setenv("COLUMNS", "80")
    for argv, text, code, out in first_cases():
        assert run(tmp_path, capsys, argv, text) == (code, out, "")
    for command in HELP:
        for flag in ("--help", "-h"):
            argv = [flag] if command is None else [command, flag]
            assert exit_and_output(capsys, argv) == (0, HELP[command], "")

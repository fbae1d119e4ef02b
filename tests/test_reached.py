"""Every statement under src/transcend_ug is reached by a subcommand.

A fresh interpreter installs a line tracer, imports ``transcend_ug.cli``
(so import-time code counts too) and runs the fixed ``CORPUS`` of
``cli.run(argv)`` calls in a temporary directory. Each function body in
the package is then walked with ``ast``: every statement must have had a
line event on its own lines, all of them for a simple statement and only
the header for a compound one, so the gate does not depend on which line
of a multi-line statement an interpreter reports. What no call can reach
is listed in ``ALLOWED``, each entry with its reason; an entry that names
nothing, or a statement that is now reached, fails the gate too.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import transcend_ug

PACKAGE = Path(transcend_ug.__file__).resolve().parent
SUBCOMMANDS = ["play", "utility-curves", "acceptance-matrix", "tau-curves", "game-grid"]

# Files that the corpus reads, written into the directory it runs in.
FILES = {
    "run.cfg": b"[game]\ngrid_step = 0.05\nown_tau_zero = true\n\n[agent.recipient]\nfairness_mode = association\n",
    "latin1.cfg": b"[game]\ngrid_step = 0.05\xff\n",
    "broken.cfg": b"grid_step = 0.05\n",
    "section.cfg": b"[plotting]\ncolor = red\n",
    "key.cfg": b"[game]\nGRID_STEP = 0.05\n",
    "bool.cfg": b"[game]\nown_tau_zero = maybe\n",
}

AGENT_TAU = ["--allocator-mode", "agent_tau", "--recipient-mode", "agent_tau"]

# (argv, exit code) of each call.
CORPUS = [
    # every subcommand in both formats, written to a file, and its config printed
    *[([command, "--format", fmt], 0) for command in SUBCOMMANDS for fmt in ("csv", "json")],
    *[([command, "--output", "out.txt"], 0) for command in SUBCOMMANDS],
    *[([command, "--print-config"], 0) for command in SUBCOMMANDS],
    # play: an offer on and off the grid and one refused, every tie-break and fairness mode, the lens, own tau zero
    (["play", "--offer", "0.3"], 0),
    (["play", "--offer", "0.123"], 0),
    (["play", "--offer", "2"], 2),
    *[(["play", "--tie-break", rule, *AGENT_TAU], 0) for rule in ("lowest_own_share", "highest_own_share")],
    (["play", "--allocator-mode", "association", "--recipient-mode", "association", "--own-tau-zero"], 0),
    (["play", "--payoff-family", "linear", *AGENT_TAU], 0),
    (["play", "--config", "run.cfg"], 0),
    # each curve family of utility-curves
    (["utility-curves", "--curve-param", "gamma"], 0),
    (["utility-curves", "--curve-param", "tau", *AGENT_TAU], 0),
    (["utility-curves", "--curve-values", "0.5,1"], 0),
    # a config file that cannot be read, is not UTF-8, cannot be parsed, or holds an unknown section or key
    *[(["play", "--config", name], 2) for name in ("missing.cfg", "latin1.cfg", "broken.cfg", "section.cfg",
                                                   "key.cfg", "bool.cfg")],
    # a value that is not a number, a choice or finite, and each fault of a comma list
    (["play", "--grid-step", "x"], 2),
    (["play", "--tie-break", "nearest"], 2),
    (["play", "--accept-threshold", "nan"], 2),
    (["play", "--gamma", "0.2,,0.4"], 2),
    (["play", "--gamma", "0.2,x"], 2),
    (["play", "--gamma", "0.2,inf"], 2),
    (["play", "--gamma", ""], 2),
    # each range check of the domain constructors
    (["play", "--gamma", "1.5"], 2),
    (["play", "--allocator-gamma", "1.5"], 2),
    (["play", "--allocator-d", "-1"], 2),
    (["play", "--allocator-tau", "2"], 2),
    (["play", "--payoff-lambda", "0.5"], 2),
    (["play", "--payoff-lambda", "1e308"], 2),
    (["play", "--payoff-k", "-1"], 2),
    (["play", "--grid-step", "0.7"], 2),
    (["play", "--tolerance", "0"], 2),
    # each refusal of game.axis_points
    (["tau-curves", "--d-max", "0"], 2),
    (["tau-curves", "--d-step", "-1"], 2),
    (["tau-curves", "--d-step", "1e-9"], 2),
    (["tau-curves", "--d-step", "0.7"], 2),
    (["tau-curves", "--d-max", "1e-10"], 2),
    # sweep settings that only resolve can refuse, a table over the row limit, and an argument error
    (["game-grid", "--axis2", "allocator.gamma"], 2),
    (["game-grid", "--axis1", "allocator.tau"], 2),
    (["utility-curves", "--grid-step", "1e-5"], 2),
    (["play", "--bogus"], 2),
]

# (module, function qualname, start of a statement's first line or None, reason). An entry with a line
# start covers that statement, what it holds, and the statements after it in its block (an except clause
# counts as a statement of its try's clauses); without one it covers the function and the functions in it.
ALLOWED = [
    ("sweep", "_fan_out", "except BaseException:",
     "cleanup after an interrupt or a failed fork: kills and reaps the children still running"),
    ("sweep", "_fan_out", "_run_child(work, chunk, write)", "runs only in a forked child, as _run_child does"),
    ("sweep", "_run_child", None, "runs only in a forked child, which the tracer does not report from"),
    ("sweep", "_child_result", "error = None", "the error tail: a child that raised or died"),
    ("sweep", "_usable_cpus", "except AttributeError:", "a platform without CPU affinity"),
    ("sweep", "with_param", 'raise ConfigError(f"unknown player parameter',
     "resolve passes only gamma, d and tau; the public function stays total"),
    ("cli", "run", "except Exception as exc:", "a runtime failure such as an unwritable output path exits 1"),
    ("cli", "main", None, "the console script's entry point; the corpus calls run in process"),
    ("cli", "_write_output", "except BaseException:", "removes the temporary file when writing it fails"),
    ("cli", "_texts", "json_name = ",
     "JSON names of NaN and Infinity: every emitted cell is finite, and test_render_gives_the_reference_bytes "
     "pins the bytes the branch writes"),
    ("game", "GameConfig.__init__", "raise ConfigError(f\"accept_threshold must be finite",
     "resolve refuses a non-finite game.accept_threshold first"),
    ("game", "axis_points", "raise ConfigError(f\"axis bounds and step must be finite",
     "resolve refuses non-finite sweep bounds and steps first"),
    ("identity", "effective_tau", "return 0.0",
     "compile_player never asks a baseline player its threshold; the public function stays total"),
    ("payoff", "ValueObject", None,
     "the value semantics of the public classes (equality and repr), which hypothesis prints examples with"),
]

_TRACE = """
import io, json, sys

package, corpus = sys.argv[1], json.loads(sys.argv[2])
reached = set()


def line(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return line


sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(package) else None)
from transcend_ug import cli, sweep

usable = sweep._usable_cpus
sweep._usable_cpus = lambda: max(2, usable())  # fork a game-grid child on a host of one CPU too
codes = []
for argv in corpus:
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    codes.append(cli.run(argv))
sys.settrace(None)
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def _reached(tmp_path: Path) -> dict[str, set[int]]:
    """The lines of each package file that the corpus reached, by module name, after checking its exit codes."""
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    argv = [sys.executable, "-S", "-c", _TRACE, str(PACKAGE) + os.sep, json.dumps([argv for argv, _ in CORPUS])]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    wrong = [(argv, code, rc) for (argv, code), rc in zip(CORPUS, result["codes"]) if rc != code]
    assert not wrong, f"calls that exited otherwise than expected (argv, expected, got): {wrong}"
    lines: dict[str, set[int]] = {}
    for filename, lineno in result["reached"]:
        lines.setdefault(Path(filename).stem, set()).add(lineno)
    return lines


def _functions(tree: ast.Module):
    """(qualname, node) of every function, methods and nested functions included."""
    todo = [(tree, "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    yield prefix + child.name, child
                todo.append((child, prefix + child.name + "."))
            else:
                todo.append((child, prefix))


def _blocks(node: ast.AST) -> list[list]:
    """The blocks directly under a statement or except clause: its body, except clauses, else and finally."""
    blocks = (getattr(node, field, None) for field in ("body", "handlers", "orelse", "finalbody"))
    return [block for block in blocks if isinstance(block, list) and block]


def _walk(nodes):
    """The statements among nodes and everything they hold, but not inside a function or class they hold."""
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.stmt):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(n for block in _blocks(node) for n in block)


def _body(function) -> list:
    """A function's body without its docstring, which is no statement that runs."""
    body = function.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
        return body[1:]
    return body


def _own_lines(stmt: ast.stmt) -> range:
    """The lines on which a line event is the statement's own: all of a simple one's, a compound one's header."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    inner = [n.lineno for block in _blocks(stmt) for n in block]
    last = max(stmt.lineno, min(inner) - 1) if inner else stmt.end_lineno
    return range(first, last + 1)


def _covered(function, start: str, source: list[str]):
    """The statements that an entry with this line start covers: the one node it names and the rest of its block."""
    holders = [node for stmt in _walk(_body(function)) for node in [stmt, *getattr(stmt, "handlers", [])]]
    blocks = [_body(function)] + [block for node in holders for block in _blocks(node)]
    named = [(block, i) for block in blocks for i, node in enumerate(block)
             if source[node.lineno - 1].strip().startswith(start)]
    assert len(named) == 1, f"{start!r} names {len(named)} statements, not 1"
    block, i = named[0]
    return list(_walk(block[i:]))


def test_every_statement_is_reached_by_a_subcommand(tmp_path):
    reached = _reached(tmp_path)
    unreached, allowed_reached = [], []
    entries_matched = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module, source = path.stem, path.read_text(encoding="utf-8").splitlines()
        for qualname, function in _functions(ast.parse("\n".join(source))):
            statements = list(_walk(_body(function)))
            allowed = set()
            for entry in ALLOWED:
                entry_module, name, start, _ = entry
                if entry_module != module or not (qualname == name or qualname.startswith(name + ".")):
                    continue
                if start is None:
                    allowed.update(map(id, statements))
                    entries_matched.add(entry)
                elif qualname == name:
                    allowed.update(map(id, _covered(function, start, source)))
                    entries_matched.add(entry)
            for stmt in statements:
                hit = not reached.get(module, set()).isdisjoint(_own_lines(stmt))
                where = f"{module}.{qualname} line {stmt.lineno}: {source[stmt.lineno - 1].strip()}"
                if id(stmt) in allowed and hit:
                    allowed_reached.append(where)
                elif id(stmt) not in allowed and not hit:
                    unreached.append(where)
    assert not unreached, "statements that no call in the corpus reached:\n" + "\n".join(unreached)
    assert not allowed_reached, "allowed statements that the corpus now reaches:\n" + "\n".join(allowed_reached)
    assert entries_matched == set(ALLOWED), f"entries that name nothing: {set(ALLOWED) - entries_matched}"

"""Command-line interface: exit codes, artifacts, determinism."""

import argparse
import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import write_table
from orliczpde import (
    anisotropic,
    catalog,
    cli,
    grid,
    radial,
    rearrangement,
    young,
)
from orliczpde.cli import main
from orliczpde.young import PowerLogYoung

SPLIT_PHI = json.dumps({"n": 2, "form": "split",
                        "terms": [{"kind": "power", "p": 2},
                                  {"kind": "power", "p": 4}]})


def run(args, tmp_path, sub="run"):
    out = tmp_path / sub
    code = main(list(args) + ["--out", str(out), "--quiet"])
    return code, out


def test_unknown_command_is_operational(tmp_path):
    assert main(["definitely-not-a-command"]) == 1


def _assert_missing_n_is_named(args, tmp_path):
    # the handler fails as bad input, and error.json names the flag
    code, out = run(args, tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] != "KeyError"
    assert "--n" in err["message"]


def test_missing_required_argument_is_operational(tmp_path):
    _assert_missing_n_is_named(["embedding", "--phi-circ", "power:p=1.5"],
                               tmp_path)


@pytest.mark.parametrize("args", [
    ["symmetrize-solve", "--phi", "power:p=2", "--f", "const:1"],
    ["admissibility", "--phi-circ", "power:p=1.5", "--f", "const:1"],
], ids=lambda args: args[0])
def test_missing_n_is_named(args, tmp_path):
    _assert_missing_n_is_named(args, tmp_path)


def test_n_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2}))
    code, out = run(["symmetrize-solve", "--phi", "power:p=2",
                     "--f", "const:1", "--config", str(cfg)], tmp_path)
    assert code == 0
    report = json.loads((out / "symmetrize_solve_report.json").read_text())
    assert report["n"] == 2


def test_conjugate_success(tmp_path):
    code, out = run(["conjugate", "--A", "power:p=3"], tmp_path)
    assert code == 0
    report = json.loads((out / "conjugate_report.json").read_text())
    assert report["passes"]
    assert report["young_inequality_violations"] == 0
    raw = (out / "conjugate_table.csv").read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    # conj of t^3 at s=1 is 2/(3 sqrt 3)
    data = np.loadtxt(out / "conjugate_table.csv", delimiter=",", skiprows=1)
    idx = int(np.argmin(np.abs(data[:, 0] - 1.0)))
    expected = 2.0 / (3.0 * 3.0**0.5) * data[idx, 0] ** 1.5
    assert data[idx, 2] == pytest.approx(expected, rel=1e-9)


def test_conjugate_report_names_a_raised_shift(tmp_path):
    code, out = run(["conjugate", "--A", "power_log:p=1.2,alpha=-2"],
                    tmp_path)
    assert code == 0
    report = json.loads((out / "conjugate_report.json").read_text())
    assert report["function"] == "power_log(p=1.2,alpha=-2,shift=2783.52)"


def test_conjugate_convex_table_satisfies_young(tmp_path):
    # the 1024-row table of t^2 log(e + t)^1.04 is convex: its tabulated
    # conjugate must reach sup_t (st - A(t)), so Young's inequality holds
    csv = tmp_path / "tab.csv"
    write_table(csv, PowerLogYoung(2.0, 1.04), 1e-3, 1e5, 1024)
    code, out = run(["conjugate", "--A", str(csv)], tmp_path)
    report = json.loads((out / "conjugate_report.json").read_text())
    assert report["young_inequality_violations"] == 0
    assert code == 0


def test_conjugate_nonconvex_table_fails_involution(tmp_path):
    # log-log slope 2, then 1.2 on [1, 100], then 2 again: A' drops at
    # t = 1, so the table is not convex and conjugating twice cannot
    # return it (A(t)/t still increases, so only that drop shows it)
    log_t = np.linspace(math.log(1e-2), math.log(1e4), 256)
    log_100 = math.log(100.0)
    log_v = np.where(log_t < 0.0, 2.0 * log_t,
                     np.where(log_t < log_100, 1.2 * log_t,
                              1.2 * log_100 + 2.0 * (log_t - log_100)))
    csv = tmp_path / "tab.csv"
    csv.write_text("t,A(t)\n" + "".join(
        f"{t!r},{v!r}\n" for t, v in zip(np.exp(log_t).tolist(),
                                          np.exp(log_v).tolist())))
    code, out = run(["conjugate", "--A", str(csv)], tmp_path)
    assert code == 2
    report = json.loads((out / "conjugate_report.json").read_text())
    assert report["involution_rel_error"] > 1e-3


@pytest.mark.parametrize("spec", [
    "exp_power:beta=1.5", "power_log:p=1,alpha=1",
], ids=["exp_power", "power_log_p1"])
def test_conjugate_exp_power_stays_in_trusted_range(spec, tmp_path):
    # exp(t^1.5) - 1 clamps its exponent at 700 (t = 78.8), and the
    # conjugate of t log(e + t) grows like e^s, so its maximizer at s
    # leaves the trusted range t <= 1e8 from s = A'(1e8) = 19.4 on; the
    # default table ends at both points, so the conjugate stays finite
    # and the checks pass
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(["conjugate", "--A", spec], tmp_path)
    assert code == 0
    report = json.loads((out / "conjugate_report.json").read_text())
    assert report["involution_rel_error"] <= 1e-6
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_PACKAGE_MODULES = sorted(Path(cli.__file__).parent.glob("*.py"))


def _package_reads(path):
    """The package modules that ``path`` imports by name, and the reads
    it must not make: private names of other package modules, and scipy
    (anywhere in the file, function bodies included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            private += [alias.name for alias in node.names
                        if alias.name.partition(".")[0] == "scipy"]
        if isinstance(node, ast.ImportFrom) and not node.level and (
                node.module.partition(".")[0] == "scipy"):
            private.append(node.module)
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("orliczpde")):
            names = [alias.asname or alias.name for alias in node.names]
            if node.module in (None, "orliczpde"):
                modules.update(names)
            else:
                private += [n for n in names if n.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            private.append(f"{node.value.id}.{node.attr}")
    return modules, private


def _unread_parameters(path):
    """``name(parameter)`` for each parameter of a function or lambda in
    ``path`` that its body never reads; abstract methods, whose body only
    raises NotImplementedError, and self/cls are skipped."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        code = [s for s in body if not (isinstance(s, ast.Expr) and
                                        isinstance(s.value, ast.Constant))]
        if len(code) == 1 and isinstance(code[0], ast.Raise) and (
                "NotImplementedError" in ast.unparse(code[0])):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        reads = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{getattr(node, 'name', '<lambda>')}({a.arg})"
                   for a in params
                   if a.arg not in reads and a.arg not in ("self", "cls")]
    return unread


def test_unread_parameters_flags_dead_arguments(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('def f(a, b=1, *, c=2):\n'
                   '    """doc"""\n'
                   '    return a + c\n'
                   'class A:\n'
                   '    def value(self, t):\n'
                   '        raise NotImplementedError\n'
                   'g = lambda x, y: x\n')
    assert _unread_parameters(src) == ["f(b)", "<lambda>(y)"]


@pytest.mark.parametrize("path", _PACKAGE_MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    # a parameter that no body reads is an option that changes nothing;
    # the one exception, phi_circ(seed=), stays accepted and unused
    # because perfbench/workloads.py passes it
    unread = [p for p in _unread_parameters(path) if p != "phi_circ(seed)"]
    assert unread == []


def _defaulted(fn, bound):
    """``(parameter, position)`` for each defaulted parameter of the
    function definition ``fn``, the position counted after the ``bound``
    leading parameters (self or cls) and None for a keyword-only one."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    return [(a.arg, i - bound) for i, a in enumerate(pos) if i >= first] + [
        (a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None]


def _sets(call, param, position):
    """Whether ``call`` passes ``param`` by keyword, by position or
    through a ``*`` or ``**`` spread."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def _option_census(package, callers):
    """``(options, unset)``: ``module.function(parameter)`` for each
    defaulted parameter of a public module-level function, a public
    method or an ``__init__`` of a public class in the ``package``
    paths, and those of them that no call in the ``callers`` paths sets.
    A call of a function, method or class of that name sets the
    parameter when :func:`_sets` says so."""
    options = []  # (label, callee, parameter, position)
    for path in package:
        for defn in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or (
                    defn.name.startswith("_")):
                continue
            # (qualified name, callee, definition, bound leading params)
            fns = [(defn.name, defn.name, defn, 0)]
            if isinstance(defn, ast.ClassDef):
                fns = [(f"{defn.name}.{fn.name}",
                        defn.name if fn.name == "__init__" else fn.name, fn,
                        0 if "staticmethod" in map(ast.unparse,
                                                   fn.decorator_list) else 1)
                       for fn in defn.body if isinstance(fn, ast.FunctionDef)
                       and (fn.name == "__init__"
                            or not fn.name.startswith("_"))]
            options += [(f"{path.stem}.{name}({p})", callee, p, i)
                        for name, callee, fn, bound in fns
                        for p, i in _defaulted(fn, bound)]
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [label for label, callee, p, i in options
             if not any(_sets(call, p, i) for call in calls.get(callee, ()))]
    return [label for label, *_ in options], unset


def test_option_census_flags_defaults_that_no_call_sets(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text('def by_position(a, b=1):\n'
                   '    return a + b\n'
                   'def by_keyword(c=2):\n'
                   '    return c\n'
                   'def by_star(d=3):\n'
                   '    return d\n'
                   'def by_spread(*, e=4):\n'
                   '    return e\n'
                   'def unset(x=0):\n'
                   '    return x\n'
                   'def _private(y=1):\n'
                   '    return y\n'
                   'class A:\n'
                   '    def __init__(self, k=0):\n'
                   '        self.k = k\n'
                   '    def m(self, s=1, t=2):\n'
                   '        return s + t\n'
                   '    @staticmethod\n'
                   '    def z(w=1):\n'
                   '        return w\n')
    user.write_text('by_position(0, 5)\n'
                    'by_keyword(c=6)\n'
                    'by_star(*args)\n'
                    'by_spread(**options)\n'
                    'unset()\n_private()\n'
                    'A(3).m(1)\n'         # k by the class, s after self
                    'A.z(2)\n')           # a static method binds no self
    options, unset = _option_census([lib], [user])
    assert options == ["lib.by_position(b)", "lib.by_keyword(c)",
                       "lib.by_star(d)", "lib.by_spread(e)", "lib.unset(x)",
                       "lib.A.__init__(k)", "lib.A.m(s)", "lib.A.m(t)",
                       "lib.A.z(w)"]
    assert unset == ["lib.unset(x)", "lib.A.m(t)"]


# the one option that no program call sets and that stays
_KEPT_OPTIONS = {
    # perfbench/tracing.py::_solve_hook reads its default through
    # inspect.signature
    "grid.solve(max_iter)",
}


@pytest.mark.parametrize("path", _PACKAGE_MODULES, ids=lambda p: p.stem)
def test_every_option_has_a_setter(path):
    # an option that no command, library call or benchmark operation
    # sets changes no result: it is the constant that every call uses
    # (unit tests do not count as callers)
    root = Path(cli.__file__).parents[2]
    callers = [*sorted((root / "src").rglob("*.py")),
               *sorted((root / "perfbench").glob("*.py"))]
    _options, unset = _option_census([path], callers)
    assert sorted(set(unset) - _KEPT_OPTIONS) == []


def _config_reads(source):
    """The string keys that ``source`` (a path or a syntax tree) reads
    from ``cfg``: ``cfg[key]``, ``cfg.get(key, ...)`` and
    ``helper(cfg, key, ...)``; a key held in a variable is not seen."""
    def is_cfg(node):
        return isinstance(node, ast.Name) and node.id == "cfg"

    if not isinstance(source, ast.AST):
        source = ast.parse(source.read_text(encoding="utf-8"))
    keys = set()
    for node in ast.walk(source):
        key = None
        if isinstance(node, ast.Subscript) and is_cfg(node.value):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args:
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and is_cfg(node.func.value)):
                key = node.args[0]
            elif len(node.args) > 1 and is_cfg(node.args[0]):
                key = node.args[1]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def _dict_keys(path):
    """The string keys of the dict literals in ``path``."""
    return {key.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Dict) for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)}


def test_config_reads_and_setters(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('def f(cfg, p):\n'
                   '    return cfg["x"], cfg.get("y", 1), g(cfg, "z"),'
                   ' {"w": 1}, other.get("v")\n')
    assert _config_reads(src) == {"x", "y", "z"}
    assert _dict_keys(src) == {"w"}


def test_every_config_key_has_a_setter():
    # a config key that no flag, CLI or acceptance test or benchmark
    # operation sets is an option that nothing exercises: the command
    # calls the library with that value instead
    root = Path(cli.__file__).parents[2]
    flags = {key for keys in cli.CONFIG_KEYS.values()
             for key, (kind, _default, _help) in keys.items()
             if kind is not None}
    setters = flags.union(*map(_dict_keys, [
        root / "tests" / "test_cli.py", root / "tests" / "test_acceptance.py",
        *sorted((root / "perfbench").glob("*.py"))]))
    assert sorted(_config_reads(Path(cli.__file__)) - setters) == []


def test_config_key_table_is_what_each_command_reads():
    # a handler reads its keys itself or through the cli helpers it calls
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        keys = _config_reads(funcs[name])
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in funcs and node.func.id not in seen):
                keys |= reads(node.func.id, seen)
        return keys

    assert cli.CONFIG_KEYS.keys() == cli.HANDLERS.keys()
    for command, handler in cli.HANDLERS.items():
        assert reads(handler.__name__, set()) == set(
            cli.CONFIG_KEYS[command]), command


@pytest.mark.parametrize("args, doc, unread", [
    (["phicirc", "--phi", SPLIT_PHI], {"n_level": 16, "t_hi": 1e3},
     "n_level"),
    (["grid-solve", "--N", "17"], {"p": 3, "tol": 1e-3}, "tol"),
    (["verify-example", "aniso_trud", "--p", "2"], {"seed": 3}, "seed"),
], ids=["phicirc", "grid-solve", "verify-example"])
def test_unread_config_key_exits_before_work(tmp_path, args, doc, unread):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out = run([*args, "--config", str(config)], tmp_path)
    assert code == 1
    assert [path.name for path in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "ConfigError" and repr(unread) in err["message"]


# keyword arguments, not dict literals: test_every_config_key_has_a_setter
# counts the keys of dict literals in this file as setters
@pytest.mark.parametrize("args, resolved", [
    (["grid-solve"], dict(N=None, p=2.0, f="const:1", b=1.0)),
    (["approx-seq"], dict(N=None, p=2.0, f="point:mass=1", b=1.0,
                          k_ladder=(2, 8, 32, 128, 1024))),
    (["phicirc", "--phi", SPLIT_PHI],
     dict(phi=SPLIT_PHI, t_lo=1e-3, t_hi=1e6, n_levels=256)),
], ids=["grid-solve", "approx-seq", "phicirc"])
def test_merge_config_fills_in_the_defaults(args, resolved):
    namespace = cli.build_parser().parse_args(args)
    assert cli._merge_config(namespace) == resolved
    # the parser of the one command reads the same namespace
    assert cli.build_parser(args[0]).parse_args(args) == namespace


@pytest.mark.parametrize("argv, added", [
    (["conjugate", "--A", "power:p=2", "--quiet"], 1),
    (["--help"], 9),
    (["definitely-not-a-command"], 9),
], ids=["command", "help", "unknown"])
def test_main_builds_only_the_parser_it_runs(argv, added, monkeypatch,
                                             tmp_path, capsys):
    # a named command gets its subparser alone; --help and an unknown
    # command need all nine
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    main([*argv, "--out", str(tmp_path)])
    assert len(names) == added


@pytest.mark.parametrize("argv, message", [
    (["definitely-not-a-command"], "argument command: invalid choice"),
    (["conjugate", "--A", "power:p=2", "--bogus"],
     "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["--out", "x", "conjugate"], "argument command: invalid choice"),
], ids=["unknown_command", "unknown_flag", "no_command", "option_first"])
def test_usage_error_exits_1_without_an_error_record(argv, message, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"orliczpde: error: {message}" in err
    if "invalid choice" in message:
        assert all(repr(command) in err for command in cli.CONFIG_KEYS)
    assert list(tmp_path.iterdir()) == []


def test_merge_config_reads_null_as_unset(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(N=17, p=None, b=None)))
    cfg = cli._merge_config(cli.build_parser().parse_args(
        ["grid-solve", "--config", str(config), "--p", "3"]))
    assert cfg == dict(N=17, p=3.0, f="const:1", b=1.0)


def _reference_parser():
    """The command line as written out flag by flag before the flags
    came from ``cli.CONFIG_KEYS``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON parameter document")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--quiet", action="store_true")
    parser = argparse.ArgumentParser(
        prog="orliczpde",
        description="Anisotropic Orlicz-space Dirichlet problem toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("conjugate", parents=[common])
    p.add_argument("--A", dest="A", help="scalar function spec")
    p = sub.add_parser("phicirc", parents=[common])
    p.add_argument("--phi", help="JSON document or path describing Phi")
    p = sub.add_parser("embedding", parents=[common])
    p.add_argument("--phi-circ", dest="phi_circ")
    p.add_argument("--n", type=int)
    p = sub.add_parser("symmetrize-solve", parents=[common])
    p.add_argument("--phi", help="Phi: scalar spec, CSV or JSON path")
    p.add_argument("--n", type=int)
    p.add_argument("--f", help="const:<c>, pow:a=<a>[,c=<c>] or CSV path")
    p.add_argument("--omega", help="domain measure (number or 'pi')")
    for command in ("grid-solve", "approx-seq", "regularity-report"):
        p = sub.add_parser(command, parents=[common])
        p.add_argument("--N", type=int)
        p.add_argument("--p", type=float)
        p.add_argument("--f")
    p = sub.add_parser("verify-example", parents=[common])
    p.add_argument("id", choices=catalog.EXAMPLE_IDS)
    for flag in ("--p", "--q", "--alpha", "--beta", "--n"):
        p.add_argument(flag)
    p = sub.add_parser("admissibility", parents=[common])
    p.add_argument("--f")
    p.add_argument("--phi-circ", dest="phi_circ")
    p.add_argument("--n", type=int)
    p.add_argument("--omega")
    return parser


@pytest.mark.parametrize("command", [None, *cli.CONFIG_KEYS])
def test_help_text_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit):
        _reference_parser().parse_args(argv)
    expected = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def _readme_config_table():
    """``{command: {key: (flag cell, default cell)}}`` from the README's
    config-key table; a row with an empty command cell continues the
    command above it."""
    root = Path(cli.__file__).parents[2]
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | key | flag | default |")
    table, command = {}, None
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        command = cells[0].strip("`") or command
        table.setdefault(command, {})[cells[1].strip("`")] = tuple(cells[2:])
    return table


def test_readme_config_table_is_config_keys():
    def default(cell):
        if cell == "required":
            return cli.REQUIRED
        text = cell.split("`")[1]  # the first code span
        try:
            return json.loads(text)
        except ValueError:
            return text

    readme = _readme_config_table()
    assert list(readme) == list(cli.CONFIG_KEYS)
    for command, keys in cli.CONFIG_KEYS.items():
        assert list(readme[command]) == list(keys), command
        for key, (kind, value, _help) in keys.items():
            flag, cell = readme[command][key]
            assert flag == ("config only" if kind is None else "positional"
                            if key == "id" else
                            f"`--{key.replace('_', '-')}`"), (command, key)
            if isinstance(value, tuple):
                value = list(value)
            assert default(cell) == value, (command, key)


def _tracer_hooks(path):
    """The strings that ``path`` compares ``qualname`` with, and
    ``(function, key)`` for each ``signature(function).parameters[key]``
    it reads, the function as its source text."""
    names, params = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                and node.left.id == "qualname"):
            names.update(c.value for c in node.comparators
                         if isinstance(c, ast.Constant))
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "parameters"
              and isinstance(node.value.value, ast.Call)
              and ast.unparse(node.value.value.func).endswith("signature")
              and isinstance(node.slice, ast.Constant)):
            params.add((ast.unparse(node.value.value.args[0]),
                        node.slice.value))
    return names, params


def _resolve(dotted, module):
    """The object that the dotted name reaches from ``module``, or None."""
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_benchmark_hooks_name_live_code():
    # the benchmark's tracer counts grid work on callables it finds by
    # qualname and reads grid.solve's max_iter by parameter name: a
    # rename in the package would zero a counter without a word or make
    # a traced run raise
    root = Path(cli.__file__).parents[2]
    names, params = _tracer_hooks(root / "perfbench" / "tracing.py")
    assert names and params
    modules = [importlib.import_module(f"orliczpde.{path.stem}")
               for path in _PACKAGE_MODULES if path.stem != "__init__"]
    assert sorted(name for name in names if not any(
        callable(_resolve(name, mod)) for mod in modules)) == []
    package = importlib.import_module("orliczpde")
    for function, key in params:
        fn = _resolve(function, package)
        assert callable(fn), function
        assert key in inspect.signature(fn).parameters, (function, key)


def _identifiers(path):
    """Every name, attribute and string constant that ``path`` spells
    out."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _package_refs(tree, modules):
    """``(module, name)`` for each name of a package module that
    ``tree`` imports from it (``from .module import name`` or
    ``from orliczpde.module import name``) or reads as ``module.name``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            mod = node.module.removeprefix("orliczpde.")
            if mod in modules and (node.level or node.module != mod):
                refs.update((mod, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            refs.add((node.value.id, node.attr))
    return refs


def _attribute_reads(tree):
    """Every attribute name that ``tree`` reads as ``obj.name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _uncalled_public_names():
    """``module.name`` for each public module-level function or class of
    the package that nothing reaches, and ``module.Class.name`` for each
    public method or property of a public class that nothing reaches.

    A module-level name is reached when another module of the package
    imports it or reads it as ``module.name`` (``__init__`` re-exports
    do not count), when its own module uses it outside its own body,
    when the benchmark sources spell it as a name or a string, or when
    the acceptance tests or their shared helpers import it or read it as
    ``module.name``.  A method is reached when any module of the
    package, a benchmark source, the acceptance tests or their shared
    helpers read an attribute of that name."""
    root = Path(cli.__file__).parents[2]
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in _PACKAGE_MODULES if p.stem != "__init__"}
    bench_paths = sorted((root / "perfbench").glob("*.py"))
    bench = set().union(*map(_identifiers, bench_paths))
    acceptance = [ast.parse(path.read_text(encoding="utf-8"))
                  for path in (root / "tests" / "test_acceptance.py",
                               root / "tests" / "conftest.py")]
    refs = set().union(*(_package_refs(tree, trees) for tree in acceptance))
    attrs = set().union(*map(_attribute_reads, [
        *trees.values(), *acceptance,
        *(ast.parse(p.read_text(encoding="utf-8")) for p in bench_paths)]))
    users = {mod: _package_refs(tree, trees) for mod, tree in trees.items()}
    uncalled = []
    for mod, tree in trees.items():
        for defn in tree.body:
            if (isinstance(defn, ast.ClassDef)
                    and not defn.name.startswith("_")):
                uncalled += [f"{mod}.{defn.name}.{fn.name}"
                             for fn in defn.body
                             if isinstance(fn, ast.FunctionDef)
                             and not fn.name.startswith("_")
                             and fn.name not in attrs]
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or (
                    defn.name.startswith("_")):
                continue
            name = defn.name
            in_module = any(
                isinstance(node, ast.Name) and node.id == name
                for stmt in tree.body if stmt is not defn
                for node in ast.walk(stmt))
            elsewhere = any((mod, name) in used
                            for user, used in users.items() if user != mod)
            if not (in_module or elsewhere or name in bench
                    or (mod, name) in refs):
                uncalled.append(f"{mod}.{name}")
    return uncalled


def test_every_public_name_has_a_caller():
    # a public function, class or method that only its own unit tests
    # reach serves no command, no benchmark operation and no acceptance
    # check
    assert _uncalled_public_names() == []


def test_every_csv_writer_ends_lines_with_crlf(tmp_path):
    # RFC 4180: every CSV artifact ends its lines with CRLF
    writers = {
        "young": PowerLogYoung(2.0, 1.0).to_csv,
        "grid": grid.GridField.zeros(5).to_csv,
        "radial": radial.RadialSolution(
            np.array([0.0, 1.0]), np.array([1.0, 0.0]),
            np.array([0.0, 1.0]), {}).to_csv,
    }
    for name, write in writers.items():
        write(tmp_path / f"{name}.csv")
        raw = (tmp_path / f"{name}.csv").read_bytes()
        assert raw.count(b"\n") == raw.count(b"\r\n") > 1, name


def test_package_reads_flags_scipy(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n"
                   "import scipy\n"
                   "from scipy import fft\n"
                   "def f():\n"
                   "    from scipy.special import gamma\n"
                   "    import scipy.stats as st\n")
    assert _package_reads(src)[1] == ["scipy", "scipy", "scipy.special",
                                      "scipy.stats"]


def test_cli_imports_no_scipy():
    # start-up cost: the command line runs on numpy alone
    code = ("import sys\n"
            "from orliczpde import cli\n"
            "cli.build_parser()\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_reads_no_private_names():
    # the CLI is a thin adapter over the public API of the package
    modules, private = _package_reads(Path(cli.__file__))
    assert modules >= {"anisotropic", "catalog", "young"}
    assert private == []


@pytest.mark.parametrize(
    "path", [p for p in _PACKAGE_MODULES if p.stem != "cli"],
    ids=lambda p: p.stem)
def test_module_reads_no_private_names(path):
    # what one module needs from another is part of that module's API
    assert _package_reads(path)[1] == []


@pytest.mark.parametrize("path", _PACKAGE_MODULES, ids=lambda p: p.stem)
def test_module_uses_no_numpy_polynomial(path):
    # one Gauss-Legendre source, anisotropic.gauss_legendre, serves every
    # quadrature of the package
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        uses += [name for name in names if "polynomial" in name.split(".")]
    assert uses == []


def test_symmetrize_solve_center_oracle(tmp_path):
    code, out = run(["symmetrize-solve", "--phi", "power:p=2", "--n", "2",
                     "--f", "const:1", "--omega", "pi"], tmp_path)
    assert code == 0
    report = json.loads((out / "symmetrize_solve_report.json").read_text())
    assert report["center_value"] == pytest.approx(0.25, rel=1e-8)
    assert report["boundedness_criterion"] == pytest.approx(0.25, rel=1e-6)
    assert b"\r\n" in (out / "radial_solution.csv").read_bytes()


def _write_step_datum(path, a):
    """The step realization of f*(s) = s^-a on (0, pi]: 512 rows
    (s_{j-1}, v_j), log-spaced down to 1e-10 pi, and a trailing
    (s_m, v_m) sentinel."""
    s = np.concatenate([[0.0], np.geomspace(1e-10 * math.pi, math.pi, 512)])
    v = np.concatenate([[s[1]], s[1:-1]]) ** -a
    np.savetxt(path, np.column_stack([s, np.append(v, v[-1])]),
               delimiter=",", header="s,value", comments="")
    return path


def test_symmetrize_solve_reads_a_csv_datum(tmp_path):
    # the radial solution is the extremal of the sharp bound, so its
    # centre is the bound
    datum = _write_step_datum(tmp_path / "datum.csv", 0.6)
    code, out = run(["symmetrize-solve", "--phi", "power:p=2", "--n", "2",
                     "--f", str(datum), "--omega", "pi"], tmp_path)
    assert code == 0
    report = json.loads((out / "symmetrize_solve_report.json").read_text())
    assert report["center_value"] == pytest.approx(
        report["boundedness_criterion"], rel=1e-6)


# B on the 512-step datum at p = 2 by the two quadratures this one
# replaced (24-point Gauss on 64 geometric panels and a 12-decade head)
_OLD_BOUND = {0.2: 0.3120961841020185, 0.6: 0.7964074965004525}


@pytest.mark.parametrize("datum", ["const:1", 0.2, 0.6])
def test_symmetrize_solve_reports_one_centre_and_its_convergence(
        datum, tmp_path):
    # one quadrature gives the centre and the bound, met to its
    # tolerance on the panel ends that the table holds
    f = datum if isinstance(datum, str) else str(
        _write_step_datum(tmp_path / "datum.csv", datum))
    code, out = run(["symmetrize-solve", "--phi", "power:p=2", "--n", "2",
                     "--f", f, "--omega", "pi"], tmp_path)
    assert code == 0
    report = json.loads((out / "symmetrize_solve_report.json").read_text())
    assert report["center_value"] == report["boundedness_criterion"]
    conv = report["convergence"]
    assert conv["tolerance_met"] is True
    assert 0.0 <= conv["error_estimate"] <= 1e-12 * report["center_value"]
    rows = (out / "radial_solution.csv").read_text().splitlines()
    assert len(rows) - 1 == conv["panels"] + 2 < 600
    if datum in _OLD_BOUND:
        assert report["center_value"] == pytest.approx(_OLD_BOUND[datum],
                                                       rel=1e-7)


def test_phicirc_reads_phi_from_a_json_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(SPLIT_PHI)
    code_file, out_file = run(["phicirc", "--phi", str(path)], tmp_path,
                              sub="file")
    code, out = run(["phicirc", "--phi", SPLIT_PHI], tmp_path)
    assert code_file == code == 0
    for name in ("phi_circ.csv", "phicirc_report.json"):
        assert (out_file / name).read_bytes() == (out / name).read_bytes()


def test_phicirc_deterministic(tmp_path):
    args = ["phicirc", "--phi", SPLIT_PHI, "--seed", "7"]
    code1, out1 = run(args, tmp_path, sub="a")
    code2, out2 = run(args, tmp_path, sub="b")
    assert code1 == code2 == 0
    assert (out1 / "phi_circ.csv").read_bytes() == (
        out2 / "phi_circ.csv").read_bytes()
    rep = json.loads((out1 / "phicirc_report.json").read_text())
    assert rep["tail_fit"]["power"] == pytest.approx(8.0 / 3.0, rel=0.02)


def test_phicirc_states_the_tail_of_a_steep_split(tmp_path):
    # the (4, 6) split's measures are Dirichlet's closed form, so its tail
    # t^{2 / (1/4 + 1/6)} is stated, not fitted over decades of levels
    phi = json.dumps({"n": 2, "form": "split",
                      "terms": [{"kind": "power", "p": 4},
                                {"kind": "power", "p": 6}]})
    code, out = run(["phicirc", "--phi", phi], tmp_path)
    assert code == 0
    tail = json.loads((out / "phicirc_report.json").read_text())["tail_fit"]
    assert tail["power"] == pytest.approx(4.8, rel=1e-14)
    assert tail["log"] == 0.0 and tail["fit_spread"] is None


def test_phicirc_reports_sphere_rule_convergence(tmp_path):
    # three pairwise independent rows: the star path, whose sphere rule
    # ends above rel_tol on the high levels, where the sublevel sets of
    # |y|^1.5 + |x - 2y|^6 stretch far along x = 2y; the split form is
    # exact quadrature and has no unconverged level
    kinked = json.dumps({"n": 2, "form": "linear_combination", "terms": [
        {"coeffs": [1, 0], "kind": "power", "p": 2},
        {"coeffs": [0, 1], "kind": "power", "p": 1.5},
        {"coeffs": [1, -2], "kind": "power", "p": 6}]})
    config = tmp_path / "kinked.json"
    config.write_text(json.dumps({"t_lo": 1, "t_hi": 1e20, "n_levels": 128}))
    code, out = run(["phicirc", "--config", str(config), "--phi", kinked],
                    tmp_path, sub="kinked")
    assert code == 0
    conv = json.loads((out / "phicirc_report.json").read_text())["convergence"]
    assert conv["levels"] == 128 and conv["rel_tol"] == 1e-7
    assert 0 < conv["unconverged"] < 128
    assert conv["worst_rel_change"] > conv["rel_tol"]
    code, out = run(["phicirc", "--phi", SPLIT_PHI], tmp_path, sub="split")
    assert code == 0
    conv = json.loads((out / "phicirc_report.json").read_text())["convergence"]
    assert conv == {"levels": 256, "unconverged": 0,
                    "worst_rel_change": None, "rel_tol": 1e-7}


def test_embedding_report_and_table(tmp_path):
    code, out = run(["embedding", "--phi-circ", "power:p=1.5", "--n", "2"],
                    tmp_path)
    assert code == 0
    rep = json.loads((out / "embedding_report.json").read_text())
    assert rep["dichotomy"] == "divergent"
    raw = (out / "embedding_table.csv").read_bytes()
    assert raw.startswith(b"t,H,phi_n,hat_phi_circ,vartheta_n,varrho_n\r\n")
    # Phi_circ = t^{3/2} in the plane: H(t) = (Int_0^t tau^{-1/2})^{1/2}
    # = sqrt(2) t^{1/4}, so Phi_n(s) = (s^4 / 4)^{3/2} = s^6 / 8
    tab = np.loadtxt(out / "embedding_table.csv", delimiter=",",
                     skiprows=1)
    t, H, phi_n = tab[:, 0], tab[:, 1], tab[:, 2]
    np.testing.assert_allclose(phi_n, t**6 / 8.0, rtol=1e-4)
    np.testing.assert_allclose(H, math.sqrt(2.0) * t**0.25, rtol=1e-4)


def test_embedding_splices_a_critical_profile(tmp_path):
    # p = n: the kernel of H is 1/t at 0, so Phi_circ = t^2 is spliced
    # linear below the knot, and hat_phi_circ, whose integrals read the
    # spliced A', is finite and nondecreasing over the whole table
    code, out = run(["embedding", "--phi-circ", "power:p=2", "--n", "2"],
                    tmp_path)
    assert code == 0
    rep = json.loads((out / "embedding_report.json").read_text())
    assert rep["modification"]["applied"]
    tab = np.loadtxt(out / "embedding_table.csv", delimiter=",",
                     skiprows=1)
    hat = tab[:, 3]
    assert hat.size == 512 and np.all(np.isfinite(hat))
    assert np.all(np.diff(hat) >= 0.0)


def test_embedding_convergent_branch(tmp_path):
    code, out = run(["embedding", "--phi-circ", "power:p=3", "--n", "2"],
                    tmp_path)
    assert code == 0
    rep = json.loads((out / "embedding_report.json").read_text())
    assert rep["dichotomy"] == "convergent"
    assert "conclusion" in rep


def test_embedding_exponential_is_convergent(tmp_path):
    # the textbook convergent case: e^t - 1 states an exponential tail,
    # so its trusted range (t <= 500) needs no fit
    code, out = run(["embedding", "--phi-circ", "exp_minus_one", "--n", "2"],
                    tmp_path)
    assert code == 0
    rep = json.loads((out / "embedding_report.json").read_text())
    assert rep["dichotomy"] == "convergent"


def test_grid_solve_passes(tmp_path):
    code, out = run(["grid-solve", "--N", "33", "--p", "2",
                     "--f", "const:1"], tmp_path)
    assert code == 0
    rep = json.loads((out / "grid_solve_report.json").read_text())
    assert rep["energy_monotone"]
    assert rep["truncation_energy"]["passes"]
    assert rep["pcg_breakdowns"] == 0 and rep["descent_fallbacks"] == 0
    assert 0.0 <= rep["dual_residual"] <= rep["residual"]
    assert rep["stop"] == "residual" and rep["gap_check"]["passes"]
    assert rep["gap_check"]["duality_gap"] <= rep["gap_check"]["gap_bound"]
    assert b"\r\n" in (out / "u.csv").read_bytes()


def test_grid_solve_is_one_public_solve(monkeypatch, tmp_path):
    # a tracer wraps grid.solve in every orliczpde namespace that holds
    # it and counts one solve per call; the coarse levels of the nested
    # iteration must not go through the public name
    calls = []
    original = grid.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "orliczpde" or name.startswith("orliczpde."):
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, key, counted)
    assert grid.solve is counted
    code, out = run(["grid-solve", "--N", "65", "--p", "3"], tmp_path)
    assert code == 0
    assert len(calls) == 1
    rep = json.loads((out / "grid_solve_report.json").read_text())
    assert [level["N"] for level in rep["levels"]] == [33]
    level = rep["levels"][0]
    assert level["converged"] and level["stop"] == "gap"
    assert level["duality_gap"] <= level["gap_bound"]


@pytest.mark.parametrize("point", [
    "mass=1,x=0",     # a boundary node, where u is held at 0
    "mass=1,x=-0.1",  # a negative index, which would wrap to x = 0.9375
    "mass=1,x=1.2",   # past the last node
    "m=1",            # an unknown key
])
def test_grid_solve_refuses_bad_point_data(point, tmp_path):
    code, out = run(["grid-solve", "--N", "33", "--p", "2",
                     "--f", f"point:{point}"], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"
    assert not (out / "grid_solve_report.json").exists()


def test_grid_solve_failure_writes_its_solve_record(tmp_path):
    # N = 65, p = 1.2 stalls (ROADMAP item 3): error.json carries the
    # failed solve's counts, residual and coarse levels, not only the
    # message
    code, out = run(["grid-solve", "--N", "65", "--p", "1.2"], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "SolveError"
    info = err["info"]
    assert info["newton_steps"] == 15 and not info["converged"]
    assert info["pcg_iterations"] >= info["newton_steps"]
    assert len(info["energies"]) == info["newton_steps"] + 1
    assert f"residual {info['residual']:g}" in err["message"]
    assert [(level["N"], level["converged"]) for level in info["levels"]] \
        == [(33, False)]
    # the duality gap of each level says how far from the minimizer it
    # stopped: 4.1e-9 of |J| at N = 65, above J's rounding level
    assert info["stop"] == "residual"
    assert info["duality_gap"] > info["gap_bound"] > 0.0
    assert all(level["duality_gap"] > level["gap_bound"]
               for level in info["levels"])
    assert "duality gap" in err["message"]
    assert not (out / "grid_solve_report.json").exists()


@pytest.mark.parametrize("args", [
    ["grid-solve", "--N", "2"],
    ["grid-solve", "--N", "1"],
    ["grid-solve", "--N", "0"],
    ["regularity-report", "--N", "2"],
], ids=lambda args: f"{args[0]}-N{args[-1]}")
def test_grid_without_interior_node_is_refused(args, tmp_path):
    # N < 3 leaves no unknown: the field refuses it by name instead of a
    # "converged" empty solve or a bare arithmetic error
    code, out = run(args, tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"
    assert f"{args[-1]} x {args[-1]}" in err["message"]


@pytest.mark.parametrize("command", ["grid-solve", "regularity-report"])
def test_grid_size_comes_from_the_datum(command, tmp_path):
    # a CSV datum has its own size: an explicit --N must match it, and
    # without one the report states the CSV's; N = -1 is refused by
    # name before any array is made
    csv = tmp_path / "f33.csv"
    np.savetxt(csv, np.ones((33, 33)), delimiter=",")
    for sub, args, size in (("mismatch", ["--N", "129", "--f", str(csv)],
                             "33 x 33"),
                            ("negative", ["--N", "-1"], "-1 x -1")):
        code, out = run([command, *args], tmp_path, sub=sub)
        assert code == 1
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "YoungFunctionError"
        assert size in err["message"]
    assert "N = 129" in json.loads(
        (tmp_path / "mismatch" / "error.json").read_text())["error"]["message"]
    code, out = run([command, "--f", str(csv)], tmp_path, sub="csv")
    assert code == 0
    report = {"grid-solve": "grid_solve_report.json",
              "regularity-report": "regularity_report.json"}[command]
    assert json.loads((out / report).read_text())["N"] == 33
    if command == "grid-solve":
        assert np.loadtxt(out / "u.csv", delimiter=",").shape == (33, 33)


@pytest.mark.parametrize("ladder", [
    {"t_lo": 0}, {"t_lo": -1}, {"t_lo": 10, "t_hi": 1},
    {"t_hi": math.inf}, {"n_levels": 0}, {"n_levels": 1},
    {"n_levels": 2}], ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
def test_phicirc_refuses_a_bad_level_ladder(ladder, tmp_path, capsys):
    # a ladder that the geometric levels cannot be built from is bad
    # input, named up front, with nothing from numpy on stderr
    config = tmp_path / "ladder.json"
    config.write_text(json.dumps(ladder))
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["phicirc", "--phi", SPLIT_PHI, "--config", str(config),
                     "--out", str(out)])
    assert code == 1
    assert caught == []
    assert "Warning" not in capsys.readouterr().err
    err = json.loads((out / "error.json").read_text())["error"]
    name, val = next(iter(ladder.items()))
    if val == math.inf:
        # JSON writes inf as Infinity, which the --config document is
        # refused for as it is read; phi_circ refuses it by name too
        assert err["type"] == "ConfigError"
        assert f"{config} holds Infinity" in err["message"]
        with pytest.raises(young.YoungFunctionError, match="t_hi; got inf"):
            anisotropic.phi_circ(anisotropic.from_json(json.loads(SPLIT_PHI)),
                                 t_hi=val)
        return
    assert err["type"] == "YoungFunctionError"
    val = int(val) if name == "n_levels" else float(val)
    assert name in err["message"] and repr(val) in err["message"]


def test_regularity_report_bounded_regime(tmp_path):
    # p > n = 2: the tail integral of Phi_circ converges and u is
    # bounded; the report says so instead of asking for the conjugate
    code, out = run(["regularity-report", "--N", "33", "--p", "3"], tmp_path)
    assert code == 0
    rep = json.loads((out / "regularity_report.json").read_text())
    assert rep["dichotomy"] == "convergent"
    assert 0.0 < rep["u_max"] < math.inf
    assert rep["level_set_u"] is None and rep["level_set_grad"] is None


def test_regularity_report_reads_a_split_p(tmp_path):
    reports = {}
    for label, extra in (("radial", {"p": 2}),
                         ("mixed", {"p": [1.5, 2]}),
                         ("bounded", {"p": [2, 4]}),
                         ("steep", {"p": [3, 4]})):
        config = tmp_path / f"{label}.json"
        config.write_text(json.dumps(extra))
        code, out = run(["regularity-report", "--N", "33", "--config",
                         str(config)], tmp_path, sub=label)
        assert code == 0
        reports[label] = json.loads(
            (out / "regularity_report.json").read_text())
    # Phi_circ of (2, 4) grows like t^{8/3}, faster than t^n: u is bounded
    assert reports["bounded"]["dichotomy"] == "convergent"
    assert reports["bounded"]["p"] == [2.0, 4.0]
    assert reports["radial"]["p"] == 2.0
    assert "p_split" not in reports["radial"]
    # (3, 4) grows like t^{24/7}; its closed-form sublevel measures state
    # that tail, so the default levels classify it
    assert reports["steep"]["dichotomy"] == "convergent"
    assert reports["mixed"]["dichotomy"] == "divergent"
    assert reports["mixed"]["kappa2"] != pytest.approx(
        reports["radial"]["kappa2"], rel=0.05)


def _assert_solve_record(record):
    # a grid solve's record as a report holds it: the gap, its bound and
    # the dual residual in numbers, on the finest level and on each
    # coarse one (which has no dual residual), and no energy trace
    assert "energies" not in record and record["converged"]
    for level in [record, *record["levels"]]:
        assert all(math.isfinite(level[key]) for key in (
            "duality_gap", "gap_bound", "residual"))
    assert math.isfinite(record["dual_residual"])


def test_reports_carry_their_solve_records(tmp_path):
    for label, args in (("divergent", ["--N", "65", "--p", "2"]),
                        ("convergent", ["--N", "33", "--p", "3"])):
        code, out = run(["regularity-report", *args], tmp_path, sub=label)
        assert code == 0
        rep = json.loads((out / "regularity_report.json").read_text())
        assert rep["dichotomy"] == label
        _assert_solve_record(rep)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 65, "p": 2.0, "f": "const:5",
                               "k_ladder": [2, 8, 32]}))
    code, out = run(["approx-seq", "--config", str(cfg)], tmp_path,
                    sub="approx")
    assert code == 0
    rows = json.loads((out / "approx_seq_report.json").read_text())["steps"]
    assert [row["k"] for row in rows] == [2.0, 8.0, 32.0]
    for row in rows:
        _assert_solve_record(row)
    # the first rung starts from its coarse level, the others from the
    # rung before
    assert [len(row["levels"]) for row in rows] == [1, 0, 0]


def test_regularity_report_measures_cells_as_grid_solve_does(tmp_path):
    # both commands give a cell the max of |u| at its four corners, so
    # the first level set of regularity-report is the count that
    # grid-solve's field gives for the same problem: 0.9746 at N = 65,
    # p = 2, t = 0.05 max u, where each cell's lower-left node gives
    # 0.9436
    args = ["--N", "65", "--p", "2"]
    assert run(["grid-solve", *args], tmp_path, sub="solve")[0] == 0
    code, out = run(["regularity-report", *args], tmp_path, sub="report")
    assert code == 0
    row = json.loads((out / "regularity_report.json").read_text())[
        "level_set_u"][0]
    u = np.abs(np.loadtxt(tmp_path / "solve" / "u.csv", delimiter=","))
    corners = np.maximum(np.maximum(u[:-1, :-1], u[1:, :-1]),
                         np.maximum(u[:-1, 1:], u[1:, 1:]))
    assert row["t"] == pytest.approx(0.05 * np.max(u), rel=1e-12)
    assert row["measured"] == np.sum(corners >= row["t"]) / 64**2
    assert row["measured"] == pytest.approx(0.9746, abs=5e-5)


def test_regularity_report_inverts_phi_n_once_per_ladder(tmp_path,
                                                        monkeypatch):
    # kappa2, c1 and the gradient bound rows each invert Phi_n on a whole
    # ladder: three calls of 12 levels, and none of one level (the
    # Marcinkiewicz targets make one more, on their own grid)
    calls = []
    inverse = young.SampledYoungFunction.inverse

    def counted(self, y):
        if self.name == "phi_n":
            calls.append(np.shape(y))
        return inverse(self, y)

    monkeypatch.setattr(young.SampledYoungFunction, "inverse", counted)
    code, out = run(["regularity-report", "--N", "33", "--p", "2"], tmp_path)
    assert code == 0
    assert calls.count((12,)) == 3 and () not in calls


@pytest.mark.parametrize("datum", ["const:1", "point:mass=1", "csv"])
def test_grid_datum_has_a_zero_boundary(datum, tmp_path):
    # the solve reads f on the interior nodes only, so ||f||_1 counts no
    # boundary node: (63/64)^2 for const:1 at N = 65, not (65/64)^2
    if datum == "csv":
        datum = str(tmp_path / "ones.csv")
        np.savetxt(datum, np.ones((65, 65)), delimiter=",")
    f = rearrangement.Datum(datum).field(65)
    edges = (f.values[0], f.values[-1], f.values[:, 0], f.values[:, -1])
    assert not np.any(np.concatenate(edges))
    l1 = 1.0 if datum.startswith("point:") else (63 / 64) ** 2
    assert f.l1() == pytest.approx(l1, rel=1e-14)


def test_coarse_grid_datum_has_a_zero_boundary(tmp_path):
    # the N = 33 start of an N = 65 solve restricts f to the interior
    # too: its tolerance 1e-9 (1 + ||f||_1) counts (31/32)^2 of const:1,
    # not the 0.969 that the full weighting puts on the coarse nodes
    code, out = run(["grid-solve", "--N", "65", "--p", "3"], tmp_path)
    assert code == 0
    level = json.loads((out / "grid_solve_report.json").read_text())[
        "levels"][0]
    assert level["N"] == 33
    assert level["tol"] == pytest.approx(1e-9 * (1.0 + (31 / 32) ** 2),
                                         rel=1e-14)


def test_admissibility(tmp_path):
    code, out = run(["admissibility", "--phi-circ", "power:p=1.5",
                     "--n", "2", "--f", "const:1"], tmp_path)
    assert code == 0
    rep = json.loads((out / "admissibility_report.json").read_text())
    assert rep["verdict"] == "admissible"


@pytest.mark.parametrize("a, verdict", [
    ("0.5", "admissible"),
    ("0.9", "inadmissible at lam=100"),
])
def test_admissibility_of_a_power_profile(a, verdict, tmp_path):
    # f* = s^-a on the pi-disk, Phi_circ = t^1.5 in the plane: conj is
    # ~ s^3 and f** ~ s^-a, so the modular integrand ~ s^{3/2 - 3a} is
    # integrable at 0 exactly when a < 5/6
    code, out = run(["admissibility", "--phi-circ", "power:p=1.5",
                     "--n", "2", "--omega", "pi", "--f", f"pow:a={a}"],
                    tmp_path)
    assert code == 0
    rep = json.loads((out / "admissibility_report.json").read_text())
    assert rep["verdict"] == verdict


@pytest.mark.parametrize("spec", [
    "pow:a=1",        # s^-1 is not integrable
    "pow:a=0.5,b=2",  # an unknown key
])
def test_admissibility_refuses_bad_power_profile(spec, tmp_path):
    code, out = run(["admissibility", "--phi-circ", "power:p=1.5",
                     "--n", "2", "--f", spec], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"


def _write_steps(path, s, v):
    """A rearranged-datum CSV: rows (s_{j-1}, v_j) and a trailing
    (s_m, v_m) sentinel."""
    np.savetxt(path, np.column_stack([s, np.append(v, v[-1])]),
               delimiter=",", header="s,value", comments="")
    return str(path)


def test_csv_datum_is_zero_up_to_omega(tmp_path):
    # a CSV on (0, 1] with --omega 2 is the same datum as its steps with
    # an explicit zero step to 2: both modulars integrate up to 2
    short = _write_steps(tmp_path / "short.csv", [0.0, 0.25, 0.5, 1.0],
                         [4.0, 2.0, 1.0])
    full = _write_steps(tmp_path / "full.csv", [0.0, 0.25, 0.5, 1.0, 2.0],
                        [4.0, 2.0, 1.0, 0.0])
    ladders = []
    for sub, path in (("short", short), ("full", full)):
        code, out = run([*ADMISSIBILITY, path, "--omega", "2"], tmp_path,
                        sub=sub)
        assert code == 0
        rep = json.loads((out / "admissibility_report.json").read_text())
        ladders.append(rep["ladder"])
    assert len(ladders[0]) == 8 and ladders[0] == ladders[1]


def test_csv_datum_beyond_omega_is_refused(tmp_path):
    path = _write_steps(tmp_path / "wide.csv", [0.0, 1.0, 2.0], [2.0, 1.0])
    code, out = run([*ADMISSIBILITY, path, "--omega", "1"], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"
    assert "s = 2.0" in err["message"] and "measure 1.0" in err["message"]


ADMISSIBILITY = ("admissibility", "--phi-circ", "power:p=1.5", "--n", "2",
                 "--f")
GRID_SOLVE = ("grid-solve", "--N", "33", "--p", "2", "--f")


@pytest.mark.parametrize("command, spec, item", [
    (ADMISSIBILITY, "pow:a", "a"),
    (ADMISSIBILITY, "pow:", ""),
    (GRID_SOLVE, "point:mass", "mass"),
    (("conjugate", "--A"), "power:p", "p"),
    (("conjugate", "--A"), "power:q=3", "q=3"),
    (("conjugate", "--A"), "exp_minus_one:beta=2", "beta=2"),
    (("conjugate", "--A"), "power:p=abc", "p=abc"),
    (("phicirc", "--phi"), {"kind": "power", "alpha": 1}, "alpha"),
    (("phicirc", "--phi"), {"p": 2}, "kind"),
    (ADMISSIBILITY, "const:", ""),
    (GRID_SOLVE, "const:x", "x"),
    (GRID_SOLVE, "const:1,2", "1"),
], ids=["pow_no_value", "pow_empty", "point_no_value", "power_no_value",
        "power_unknown_key", "exp_minus_one_unknown_key",
        "power_not_a_number", "term_unknown_key", "term_without_kind",
        "const_empty", "const_not_a_number", "const_two_values"])
def test_keyword_item_without_value_is_named(command, spec, item, tmp_path):
    # a bad item of a datum, a scalar spec or a JSON term (the term of a
    # radial Phi here, named as the mapping it was read as) is bad input
    arg = spec if isinstance(spec, str) else json.dumps(
        {"n": 2, "form": "radial", "term": spec})
    code, out = run([*command, arg], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"
    assert repr(spec) in err["message"] and repr(item) in err["message"]


@pytest.mark.parametrize("args, named", [
    ([*ADMISSIBILITY, "const:1", "--omega", "nan"], "--omega"),
    ([*ADMISSIBILITY, "const:1", "--omega", "inf"], "--omega"),
    ([*ADMISSIBILITY, "const:1", "--omega", "-1"], "--omega"),
    ([*ADMISSIBILITY, "const:nan"], "item 'nan'"),
    ([*ADMISSIBILITY, "const:inf"], "item 'inf'"),
    ([*ADMISSIBILITY, "pow:a=0.5,c=inf"], "item 'c=inf'"),
    ([*ADMISSIBILITY, "STEPS"], "STEPS"),
    (["symmetrize-solve", "--phi", "power:p=2", "--n", "2", "--f", "STEPS"],
     "STEPS"),
    (["conjugate", "--A", "power:p=nan"], "item 'p=nan'"),
    (["conjugate", "--A", "TABLE"], "TABLE"),
    ([*GRID_SOLVE, "const:nan"], "item 'nan'"),
    ([*GRID_SOLVE, "point:mass=nan"], "item 'mass=nan'"),
    ([*GRID_SOLVE, "GRID"], "GRID"),
    (["phicirc", "--phi", '{"n": 2, "form": "radial", '
      '"term": {"kind": "power", "p": NaN}}'], "--phi holds NaN"),
], ids=["omega_nan", "omega_inf", "omega_negative", "const_nan",
        "const_inf", "pow_c_inf", "steps_csv", "steps_csv_radial",
        "power_p_nan", "table_csv", "grid_const_nan", "point_mass_nan",
        "grid_csv", "term_p_nan"])
def test_non_finite_input_is_named(args, named, tmp_path):
    # a NaN or inf where a number enters is bad input, refused there by
    # name: not a verdict on it, an unrelated error or a dropped row
    t = np.geomspace(1e-2, 1e2, 64)
    table = np.column_stack([t, t**2])
    table[20, 1] = math.nan
    field = np.ones((33, 33))
    field[5, 7] = math.nan
    paths = {
        "STEPS": _write_steps(tmp_path / "steps.csv", [0.0, 0.5, 1.0],
                              [math.nan, 1.0]),
        "TABLE": str(tmp_path / "table.csv"), "GRID": str(tmp_path / "f.csv")}
    np.savetxt(paths["TABLE"], table, delimiter=",", header="t,A(t)",
               comments="")
    np.savetxt(paths["GRID"], field, delimiter=",")
    code, out = run([paths.get(arg, arg) for arg in args], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] in ("ConfigError", "YoungFunctionError")
    assert paths.get(named, named) in err["message"]


def test_table_csv_with_a_negative_value_is_named(tmp_path):
    # a negative A went through log as NaN and was dropped: exit 0, a
    # passing report and numpy's "invalid value encountered in log"
    t = np.geomspace(1e-2, 1e2, 64)
    table = np.column_stack([t, t**2])
    table[20, 1] = -1.0
    path = str(tmp_path / "table.csv")
    np.savetxt(path, table, delimiter=",", header="t,A(t)", comments="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(["conjugate", "--A", path], tmp_path)
    assert code == 1 and not caught
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"
    assert path in err["message"] and "knot 20" in err["message"]


@pytest.mark.parametrize("phi_circ, datum, rows", [
    # divergent at every lam: the report stops at the first
    ("power:p=1.5", "pow:a=0.9", 1),
    # conj(t log(e + t)) grows like e^s, and its maximizer passes 1e250
    # above s = 577: the lam below the first infinite modular, which the
    # one integral of the ladder reaches too, cannot be evaluated
    ("power_log:p=1,alpha=1", "pow:a=0.6", 4),
    ("power_log:p=1,alpha=1", "pow:a=0.9", None),
], ids=["power", "exp_conjugate", "exp_conjugate_raises"])
def test_admissibility_reports_down_to_the_first_infinite_modular(
        phi_circ, datum, rows, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(["admissibility", "--phi-circ", phi_circ, "--n", "2",
                         "--f", datum, "--omega", "pi"], tmp_path)
    assert not caught
    if rows is None:
        assert code == 1
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "InverseRangeError"
        return
    assert code == 0
    rep = json.loads((out / "admissibility_report.json").read_text())
    ladder = rep["ladder"]
    assert len(ladder) == rows
    assert [row["finite"] for row in ladder] == [True] * (rows - 1) + [False]
    assert ladder[-1]["modular"] is None
    lam = np.geomspace(1e2, 1e-2, 8)[rows - 1]
    assert rep["verdict"] == f"inadmissible at lam={lam:g}"


def test_a_run_clears_a_stale_error_record(tmp_path):
    # error.json is written on exit 1 only: a run that succeeds where an
    # earlier one failed leaves no error record beside its report
    assert run(["conjugate", "--A", "power:p=1"], tmp_path)[0] == 1
    code, out = run(["conjugate", "--A", "power:p=2"], tmp_path)
    assert code == 0
    assert not (out / "error.json").exists()


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


# each writes a number that is infinite by the mathematics: null in
# the report, beside the verdict that says why
@pytest.mark.parametrize("args, report, verdict, nulls", [
    (["conjugate", "--A", "exp_power:beta=1.5"], "conjugate_report.json",
     ("delta2", "verdict", "fails"),
     [("delta2", "witness", "sigma"), ("nabla2", "witness", "sigma")]),
    (["embedding", "--phi-circ", "exp_minus_one", "--n", "2"],
     "embedding_report.json", ("dichotomy", "convergent"),
     [("diagnostics", "sigma"), ("diagnostics", "integrand_exponent")]),
    ([*ADMISSIBILITY, "pow:a=0.9", "--omega", "pi"],
     "admissibility_report.json",
     ("ladder", 0, "finite", False), [("ladder", 0, "modular")]),
    (["symmetrize-solve", "--phi", "power:p=1.5", "--n", "2", "--f",
      "pow:a=0.9", "--omega", "pi"], "symmetrize_solve_report.json",
     ("bounded", False), [("center_value",), ("boundedness_criterion",)]),
], ids=["conjugate", "embedding", "admissibility", "symmetrize-solve"])
def test_an_infinite_number_is_null_beside_its_verdict(
        args, report, verdict, nulls, tmp_path, capsys):
    def at(doc, path):
        for key in path:
            doc = doc[key]
        return doc

    out = tmp_path / "run"
    assert main([*args, "--out", str(out)]) == 0
    echoed = _strict_json(capsys.readouterr().out)
    rep = _strict_json((out / report).read_text())
    assert echoed == rep
    assert at(rep, verdict[:-1]) == verdict[-1]
    assert [at(rep, path) for path in nulls] == [None] * len(nulls)


def test_every_report_is_strict_json(tmp_path):
    runs = [
        ["conjugate", "--A", "power:p=2"],
        ["conjugate", "--A", "power:p=1"],  # exit 1: error.json
        ["phicirc", "--phi", SPLIT_PHI],
        ["embedding", "--phi-circ", "power:p=1.5", "--n", "2"],
        ["symmetrize-solve", "--phi", "power:p=2", "--n", "2"],
        ["grid-solve", "--N", "17"],
        ["approx-seq", "--N", "17"],
        ["regularity-report", "--N", "17"],
        ["verify-example", "plap", "--p", "1.5", "--n", "2"],
        [*ADMISSIBILITY, "const:1"],
        ["conjugate", "--A", "exp_power:beta=1.5"],
        ["embedding", "--phi-circ", "exp_minus_one", "--n", "2"],
        [*ADMISSIBILITY, "pow:a=0.9", "--omega", "pi"],
        ["symmetrize-solve", "--phi", "power:p=1.5", "--n", "2", "--f",
         "pow:a=0.9", "--omega", "pi"],
    ]
    for i, args in enumerate(runs):
        run(args, tmp_path, sub=f"run{i}")
    reports = sorted(tmp_path.glob("run*/*.json"))
    assert {path.name for path in reports} == {
        "conjugate_report.json", "phicirc_report.json",
        "embedding_report.json", "symmetrize_solve_report.json",
        "grid_solve_report.json", "approx_seq_report.json",
        "regularity_report.json", "verify_example_report.json",
        "admissibility_report.json", "error.json"}
    for path in reports:
        _strict_json(path.read_text())


def test_config_that_is_not_an_object_is_named(tmp_path):
    for i, text in enumerate(["5", "null", '["A"]', '{"A":\n']):
        config = tmp_path / f"config{i}.json"
        config.write_text(text)
        code, out = run(["conjugate", "--config", str(config)], tmp_path,
                        sub=f"run{i}")
        assert code == 1, text
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "ConfigError", text
        assert f"--config {config}" in err["message"], text
    assert "line 2 column 1" in err["message"]


@pytest.mark.parametrize("n_nodes, code", [(17.9, 1), (17, 0), (17.0, 0)])
def test_grid_solve_refuses_a_non_integral_n(n_nodes, code, tmp_path):
    # N = 17.9 ran as 17 and reported "N": 17
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": n_nodes, "f": "const:1"}))
    got, out = run(["grid-solve", "--config", str(config)], tmp_path)
    assert got == code
    if code:
        err = json.loads((out / "error.json").read_text())["error"]
        assert "N = 17.9" in err["message"]
    else:
        report = json.loads((out / "grid_solve_report.json").read_text())
        assert report["N"] == 17


# the keys whose flag takes an integer, and the config-only key whose
# default is one (n_levels = 16.5 ran as 16)
_INT_KEYS = [(command, key) for command, keys in cli.CONFIG_KEYS.items()
             for key, (kind, _default, _text) in keys.items()
             if kind is int] + [("phicirc", "n_levels")]


@pytest.mark.parametrize("value, taken", [
    (17, 17), (17.0, 17), (17.9, None), ("17", None), (True, None)])
@pytest.mark.parametrize("command, key", _INT_KEYS,
                         ids=[f"{cmd}-{key}" for cmd, key in _INT_KEYS])
def test_an_integer_key_takes_only_an_integral_number(command, key, value,
                                                      taken, tmp_path):
    # n = 2.7 from --config ran as n = 2, and "2.5" failed as an unnamed
    # ValueError: the document's value is an integral JSON number
    doc = {name: "x" for name, (_kind, default, _text)
           in cli.CONFIG_KEYS[command].items() if default is cli.REQUIRED}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, key: value}))
    namespace = cli.build_parser(command).parse_args(
        [command, "--config", str(config)])
    if taken is None:
        with pytest.raises(cli.ConfigError) as err:
            cli._merge_config(namespace)
        assert str(err.value) == f"{key} = {value!r} is not an integer"
    else:
        got = cli._merge_config(namespace)[key]
        assert got == taken and type(got) is int


@pytest.mark.parametrize("command, key, value, kind", [
    ("approx-seq", "k_ladder", "248", "an array of numbers"),
    ("approx-seq", "b", True, "a number"),
    ("phicirc", "t_lo", "0.001", "a number"),
], ids=["k_ladder", "b", "t_lo"])
def test_a_config_only_key_takes_only_its_json_type(command, key, value, kind,
                                                    tmp_path, monkeypatch):
    # "248" ran the rungs 2, 4 and 8 and true b = 1: a config-only key
    # takes its default's JSON type, an array of numbers for k_ladder,
    # before anything is solved
    solves = []
    monkeypatch.setattr(grid, "solve", lambda *a, **k: solves.append(a))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    args = [command, "--config", str(config)]
    code, out = run(args + (["--phi", SPLIT_PHI] if command == "phicirc"
                            else ["--N", "17"]), tmp_path)
    assert code == 1 and solves == []
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == f"{key} = {value!r} is not {kind}"


@pytest.mark.parametrize("ladder", [[-1, 2], [0, 2], [2, 8, -8]])
def test_approx_seq_refuses_a_rung_that_is_not_positive(ladder, tmp_path):
    # clamp(f, +-k) with k < 0 is the constant k: the ladder [-1, 2] on
    # const:5 solved its first rung with f = -1 and exited 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_ladder": ladder, "N": 17,
                                  "f": "const:5"}))
    code, out = run(["approx-seq", "--config", str(config)], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    bad = next(k for k in ladder if k <= 0)
    assert f"rung k = {float(bad)!r}" in err["message"]
    assert not (out / "approx_seq_report.json").exists()


@pytest.mark.parametrize("command, doc, named", [
    ("grid-solve", {"f": 5}, "spec 5 "),
    ("symmetrize-solve", {"f": [1]}, "spec [1] "),
    ("symmetrize-solve", {"omega": [1]}, "--omega"),
    ("admissibility", {"f": "const:1", "omega": True}, "--omega"),
])
def test_a_spec_or_measure_of_the_wrong_json_type_is_named(command, doc,
                                                           named, tmp_path):
    # {"f": 5} was a TypeError from the spec parser, and {"omega": [1]}
    # one from the measure, naming neither
    flags = {"grid-solve": ["--N", "17"],
             "symmetrize-solve": ["--phi", "power:p=2", "--n", "2"],
             "admissibility": ["--phi-circ", "power:p=1.5", "--n", "2"]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out = run([command, "--config", str(config), *flags[command]],
                    tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] != "TypeError" and named in err["message"]


@pytest.mark.parametrize("n", [1, 0, -2])
@pytest.mark.parametrize("args", [
    ["embedding", "--phi-circ", "power:p=1.5"],
    ["admissibility", "--phi-circ", "power:p=1.5", "--f", "const:1"],
    ["symmetrize-solve", "--phi", "power:p=2"],
], ids=lambda args: args[0])
def test_a_dimension_below_2_is_named(args, n, tmp_path):
    # n = 1 and 0 ended in a ZeroDivisionError, embedding's n = -2 in a
    # verdict on the outer integral, and symmetrize-solve --n 1 exited 0
    code, out = run([*args, f"--n={n}"], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err == {"type": "ConfigError",
                   "message": f"--n must be a dimension >= 2, not {n}"}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_with_a_non_finite_number_is_named(token, tmp_path,
                                                  monkeypatch):
    # json.load reads these tokens, the last as inf; the document is
    # refused where it enters, naming the file and the token, before
    # any solve runs
    solves = []
    monkeypatch.setattr(grid, "solve", lambda *a, **k: solves.append(a))
    config = tmp_path / "config.json"
    config.write_text('{"N": 17, "f": "const:5", "k_ladder": [2, %s, 8]}'
                      % token)
    code, out = run(["approx-seq", "--config", str(config)], tmp_path)
    assert code == 1 and solves == []
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "ConfigError"
    assert str(config) in err["message"] and token in err["message"]
    assert not (out / "approx_seq_report.json").exists()


def test_a_long_report_echoes_whole(tmp_path, capsys):
    # the echo on standard output is the whole report, strict JSON
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 17, "f": "const:5", "k_ladder": (
        np.geomspace(0.5, 512.0, 16).tolist())}))
    out = tmp_path / "run"
    assert main(["approx-seq", "--config", str(config), "--out",
                 str(out)]) == 0
    echo = capsys.readouterr().out
    assert len(echo) > 4000
    assert _strict_json(echo) == _strict_json(
        (out / "approx_seq_report.json").read_text())


@pytest.mark.parametrize("args, spec", [
    (["admissibility", "--phi-circ", "power:p=1.5", "--n", "2"],
     "point:mass=1"),
    (["symmetrize-solve", "--phi", "power:p=2", "--n", "2"], "point:mass=1"),
    (["grid-solve", "--N", "17"], "pow:a=0.5"),
    (["approx-seq", "--N", "17"], "pow:a=0.5"),
    (["regularity-report", "--N", "17"], "pow:a=0.5"),
], ids=lambda x: x[0] if isinstance(x, list) else x)
def test_datum_without_the_commands_side_is_named(args, spec, tmp_path):
    # a point mass has no rearrangement here and pow: no grid form: the
    # spec is named with the forms that the command's side takes
    code, out = run([*args, "--f", spec], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"
    assert repr(spec) in err["message"] and ".csv path" in err["message"]


def test_cli_uses_only_the_public_api():
    # the CLI is a thin adapter: it reads no private name of the package
    # modules that it imports
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {"anisotropic", "catalog", "grid", "radial", "rearrangement",
               "young"}
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_cli_reads_phi_through_one_reader():
    # one Phi grammar: the scalar spec parser, the JSON Phi builder and
    # the CSV table are named in cli.py only inside cli._phi, so no
    # command reads a Phi its own way
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = {"parse_scalar_function", "from_json", "from_csv"}
    uses = sorted(
        (getattr(top, "name", None), name) for top in tree.body
        for node in ast.walk(top)
        for name in [getattr(node, "attr", None) or getattr(node, "id", None)
                     or getattr(node, "name", None)]
        if name in names)
    assert uses == [("_phi", name) for name in sorted(names)]


_RADIAL_JSON = {"n": 2, "form": "radial", "term": {"kind": "power"}}


@pytest.mark.parametrize("args, p", [
    (["embedding", "--n", "2"], 1.5),
    (["admissibility", "--n", "2", "--f", "const:1", "--omega", "pi"], 1.5),
    (["symmetrize-solve", "--n", "2", "--f", "const:1", "--omega", "pi"],
     2.0),
], ids=lambda x: x[0] if isinstance(x, list) else str(x))
def test_a_scalar_spec_and_its_radial_json_write_the_same_bytes(args, p,
                                                               tmp_path):
    # the scalar is its own Phi_circ and Phi_diamond, as the radial Phi's
    # generator is
    flag = "--phi" if args[0] == "symmetrize-solve" else "--phi-circ"
    doc = {**_RADIAL_JSON, "term": {"kind": "power", "p": p}}
    outs = []
    for label, phi in (("spec", f"power:p={p}"), ("json", json.dumps(doc))):
        code, out = run([*args, flag, phi], tmp_path, sub=label)
        assert code == 0
        outs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outs[0] == outs[1] and len(outs[0]) >= 1


def test_symmetrize_solve_takes_phi_diamond_of_a_phi(tmp_path):
    # Psi_diamond^{-1} of the split t^2/2 + t^4/4: its centre on f = 1
    # in the unit-measure disk
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"n": 2, "form": "split", "terms": [
        {"kind": "power", "p": 2, "coeff": 0.5},
        {"kind": "power", "p": 4, "coeff": 0.25}]}))
    code, out = run(["symmetrize-solve", "--phi", str(split), "--n", "2",
                     "--f", "const:1", "--omega", "1"], tmp_path)
    assert code == 0
    rep = json.loads((out / "symmetrize_solve_report.json").read_text())
    assert rep["center_value"] == pytest.approx(0.3129759639, abs=1e-9)
    assert rep["convergence"]["tolerance_met"]


def test_embedding_takes_phi_circ_of_a_phi(tmp_path):
    # the split (2, 4) states its tail 8/3, so none is fitted; the
    # power-log split reads the tail that its phicirc table reads
    code, out = run(["embedding", "--phi-circ", SPLIT_PHI, "--n", "2"],
                    tmp_path, sub="split")
    assert code == 0
    rep = json.loads((out / "embedding_report.json").read_text())
    assert rep["dichotomy"] == "convergent"
    assert rep["diagnostics"]["fit_spread"] is None
    log_split = json.dumps({"n": 2, "form": "split", "terms": [
        {"kind": "power_log", "p": 2, "alpha": alpha} for alpha in (1, 3)]})
    code, table = run(["phicirc", "--phi", log_split], tmp_path, sub="table")
    assert code == 0
    sigmas = []
    for label, phi in (("phi", log_split),
                       ("csv", str(table / "phi_circ.csv"))):
        code, out = run(["embedding", "--phi-circ", phi, "--n", "2"],
                        tmp_path, sub=label)
        assert code == 0
        rep = json.loads((out / "embedding_report.json").read_text())
        assert rep["dichotomy"] == "convergent"
        sigmas.append(rep["diagnostics"]["sigma"])
    assert sigmas == pytest.approx([2.0416, 2.0416], abs=1e-4)


@pytest.mark.parametrize("args, message", [
    (["conjugate", "--A", json.dumps({**_RADIAL_JSON, "n": 3})],
     "--A is a Phi on R^3, not a scalar function"),
    (["phicirc", "--phi", "power:p=2"],
     "--phi is the scalar power(p=2), not a Phi on R^n"),
    (["embedding", "--phi-circ", json.dumps({**_RADIAL_JSON, "n": 3}),
      "--n", "2"], "--phi-circ is a Phi on R^3, but --n is 2"),
    (["symmetrize-solve", "--phi", json.dumps(_RADIAL_JSON), "--n", "3"],
     "--phi is a Phi on R^2, but --n is 3"),
], ids=["conjugate", "phicirc", "embedding", "symmetrize-solve"])
def test_a_phi_of_the_wrong_kind_is_named(args, message, tmp_path):
    code, out = run(args, tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err == {"type": "ConfigError", "message": message}


@pytest.mark.parametrize("value", ["3", True, [2], [], [2, 3, 4], [2, "4"]],
                         ids=repr)
def test_a_grid_p_is_a_number_or_two(value, tmp_path, monkeypatch):
    # "3" ran as p = 3, true read "power exponent must exceed 1" and a
    # split of one exponent "dimension must be >= 2", naming neither
    # the key nor the value
    solves = []
    monkeypatch.setattr(grid, "solve", lambda *a, **k: solves.append(a))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"p": value}))
    code, out = run(["grid-solve", "--N", "17", "--config", str(config)],
                    tmp_path)
    assert code == 1 and solves == []
    err = json.loads((out / "error.json").read_text())["error"]
    assert err == {"type": "ConfigError", "message": f"p = {value!r} is not "
                   f"a number or a pair of numbers"}


@pytest.mark.parametrize("command", ["grid-solve", "approx-seq",
                                     "regularity-report"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1", "[2, 1]"])
def test_a_grid_p_is_finite_and_above_1(command, value, tmp_path,
                                        monkeypatch):
    # --p nan and inf read an unnamed InverseRangeError, and --p=-inf
    # "power exponent must exceed 1", naming neither the key nor the value
    solves = []
    monkeypatch.setattr(grid, "solve", lambda *a, **k: solves.append(a))
    if value.startswith("["):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p": json.loads(value)}))
        args = ["--config", str(config)]
    else:
        args = [f"--p={value}"]
    code, out = run([command, "--N", "17", *args], tmp_path)
    assert code == 1 and solves == []
    err = json.loads((out / "error.json").read_text())["error"]
    p = json.loads(value) if value.startswith("[") else float(value)
    assert err == {"type": "ConfigError", "message": f"p = {p!r}: an "
                   f"exponent must be finite and above 1"}


def test_approx_seq_refuses_an_empty_ladder(tmp_path):
    # an empty ladder passed its verdict on no rung and exited 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_ladder": [], "N": 17}))
    code, out = run(["approx-seq", "--config", str(config)], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert "k_ladder" in err["message"]
    assert not (out / "approx_seq.csv").exists()


def test_verify_example_cli(tmp_path):
    code, out = run(["verify-example", "plap", "--p", "1.5", "--n", "2"],
                    tmp_path)
    assert code == 0
    rep = json.loads((out / "verify_example_report.json").read_text())
    assert rep["passes"]


_EXAMPLE_PARAMETERS = {
    "plap": dict(p="1.5", n="2"),
    "iso_zyg": dict(p="1.5", alpha="1", n="2"),
    "aniso_plap": dict(p="2,4"),
    "aniso_zyg": dict(p="2,4", alpha="1,1"),
    "aniso_trud": dict(p="2", q="3", alpha="1"),
    "aniso_new": dict(p="2", beta="2"),
}


@pytest.mark.parametrize("family, key", [
    pytest.param(family, key, id=f"{family}-{key}")
    for family, params in _EXAMPLE_PARAMETERS.items() for key in params])
def test_verify_example_names_a_missing_parameter(family, key, tmp_path):
    # bad input, named by family, parameter and flag, not a bare KeyError
    args = [f"--{name}={value}" for name, value
            in _EXAMPLE_PARAMETERS[family].items() if name != key]
    code, out = run(["verify-example", family, *args], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "YoungFunctionError"
    assert err["message"] == f"{family} needs {key} (--{key})"


@pytest.mark.parametrize("args, doc, shown", [
    (["--p", "2", "--n", "2.5"], None, "'2.5'"),
    ([], dict(n=3.5, p="2"), "3.5"),
], ids=["flag", "config"])
def test_verify_example_refuses_a_non_integral_n(args, doc, shown, tmp_path):
    # --n 2.5 failed as an unnamed ValueError, and 3.5 from --config ran
    # as n = 3
    if doc is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        args = [*args, "--config", str(config)]
    code, out = run(["verify-example", "plap", *args], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err == {"type": "YoungFunctionError",
                   "message": f"plap needs an integer n (--n), not {shown}"}


@pytest.mark.parametrize("family, args", [
    ("aniso_trud", ["--p", "2", "--q", "3", "--alpha", "1"]),
    ("aniso_new", ["--p", "2", "--beta", "1.5"]),
])
def test_verify_example_refuses_a_planar_family_off_the_plane(family, args,
                                                              tmp_path):
    # aniso_trud with --n 3 exited 0 and verified the n = 2 record
    code, out = run(["verify-example", family, *args, "--n", "3"], tmp_path)
    assert code == 1
    err = json.loads((out / "error.json").read_text())["error"]
    assert err == {"type": "YoungFunctionError", "message":
                   f"{family} is planar: it takes n = 2 (--n), not n = 3"}
    assert run(["verify-example", family, *args, "--n", "2"],
               tmp_path)[0] == 0


def test_approx_seq_verdict_failure_is_exit_2(tmp_path):
    # ladder whose last truncation level bites after two no-op levels:
    # deviation measures increase, the settling check must fail
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 17, "p": 2.0, "f": "const:5",
                               "k_ladder": [100, 99, 1]}))
    out = tmp_path / "vf"
    code = main(["approx-seq", "--config", str(cfg), "--out", str(out),
                 "--quiet"])
    assert code == 2
    rep = json.loads((out / "approx_seq_report.json").read_text())
    assert not rep["deviation_measures_decreasing"]


def test_approx_seq_settles(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 17, "p": 2.0, "f": "const:5",
                               "k_ladder": [1, 2, 8, 32]}))
    out = tmp_path / "ok"
    code = main(["approx-seq", "--config", str(cfg), "--out", str(out),
                 "--quiet"])
    assert code == 0
    raw = (out / "approx_seq.csv").read_bytes()
    assert raw.startswith(b"k,sup_deviation,deviation_measure,"
                          b"grad_deviation_measure\r\n")


def test_approx_seq_one_rung_writes_the_header_only(tmp_path):
    # the first rung has no predecessor to deviate from, so a one-rung
    # ladder gives a table with no data rows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 17, "p": 2.0, "f": "const:5",
                               "k_ladder": [8]}))
    code, out = run(["approx-seq", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert (out / "approx_seq.csv").read_bytes() == (
        b"k,sup_deviation,deviation_measure,grad_deviation_measure\r\n")


def test_approx_seq_honours_coefficient_b(tmp_path):
    # for p = 2 the solution of -div(b grad u) = f is u / b, so b = 2
    # halves every sup deviation along the ladder
    devs = {}
    for b in (1.0, 2.0):
        cfg = tmp_path / f"b{b:g}.json"
        cfg.write_text(json.dumps({"N": 17, "p": 2.0, "f": "const:5",
                                   "k_ladder": [1, 2, 8, 32], "b": b}))
        out = tmp_path / f"b{b:g}"
        assert main(["approx-seq", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        rep = json.loads((out / "approx_seq_report.json").read_text())
        devs[b] = [r["sup_deviation"] for r in rep["steps"][1:]]
    assert devs[2.0] == pytest.approx([d / 2.0 for d in devs[1.0]],
                                      rel=1e-6)


def test_entry_point_runs_a_command(tmp_path):
    # argv=None reads the command line; --out defaults to the directory
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "orliczpde.cli", "conjugate", "--A",
         "power:p=2", "--quiet"], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "conjugate_report.json").is_file()


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "orliczpde.cli", "definitely-not"],
        capture_output=True)
    assert proc.returncode == 1

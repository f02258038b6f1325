"""Every name the package defines is read somewhere outside the tests.

The scan reads src/kleinmackey, scripts/ and perfbench/ with ast and counts
only loads, never definitions, imports or stores:

- a module-level function, class or constant of module M is used where it
  is read by name in M, read by name in a file that imports it from M, or
  read as an attribute of M (``hk.poincare``);
- a public method, or a field of a dataclass, is used wherever an
  attribute of its name is read.

Reads inside the definition itself do not count, and the package
``__init__`` is not scanned, so an export is not a caller.  A name that
nothing reads is deleted, or listed in ALLOWED with the reason it stays.

A second gate counts calls, not reads: it runs CLI traffic under cProfile
and fails on a package function never entered that ALLOWED or
NEVER_ENTERED does not cover.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kleinmackey"
CALLERS = (ROOT / "scripts", ROOT / "perfbench")

ALLOWED = {
    "slices.slice_predicates":
        "the slice certificate (ROADMAP item 1) checks it on the EM cells",
    "slices.slice_C2_f": "the slice certificate (ROADMAP item 1) certifies its cells",
    "slices.tower_slice_parts": "acceptance criterion 5 reads the towers through it",
}


def _package_modules():
    return sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _import_module(node, modules):
    """The package module an ImportFrom reads names from, or None."""
    if node.level == 1 and node.module in modules:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("kleinmackey."):
        name = node.module.split(".", 1)[1]
        return name if name in modules else None
    return None


def _is_package(node):
    return (node.level == 1 and node.module is None) or \
        (node.level == 0 and node.module == "kleinmackey")


class _Scan(ast.NodeVisitor):
    """Collects a file's definitions and its loads, each with the keys of
    the definitions that enclose it."""

    def __init__(self, module, modules):
        self.module = module              # package module name, or None
        self.modules = modules
        self.module_alias = {}            # local name -> package module
        self.imported = {}                # local name -> (module, name)
        self.defined = set()              # module-level keys (module, name)
        self.members = set()              # (module, class, method or field)
        self.loads = []                   # (key, enclosing keys)
        self.attr_loads = []              # (attribute name, enclosing keys)
        self.stack = []

    def scan(self, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _import_module(node, self.modules)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source:
                        self.imported[local] = (source, alias.name)
                    elif _is_package(node) and alias.name in self.modules:
                        self.module_alias[local] = alias.name
        if self.module:
            for node in tree.body:
                for name in _module_level_names(node):
                    self.defined.add((self.module, name))
                if isinstance(node, ast.ClassDef):
                    dataclass = any(_is_dataclass(d) for d in node.decorator_list)
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) \
                                and not item.name.startswith("_"):
                            self.members.add((self.module, node.name, item.name))
                        elif dataclass and isinstance(item, ast.AnnAssign) \
                                and isinstance(item.target, ast.Name):
                            self.members.add((self.module, node.name, item.target.id))
        self.visit(tree)

    def _key_of(self, node):
        if len(self.stack) == 1 and self.stack[0][0] == "class" and self.module:
            return (self.module, self.stack[0][1], node.name)
        if not self.stack and self.module:
            return (self.module, node.name)
        return None

    def _enter(self, node, kind):
        key = self._key_of(node)
        self.stack.append((kind, node.name, key))
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        self._enter(node, "def")

    def visit_ClassDef(self, node):
        self._enter(node, "class")

    def _enclosing(self):
        return {key for _, _, key in self.stack if key}

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            if node.id in self.imported:
                self.loads.append((self.imported[node.id], self._enclosing()))
            elif self.module:
                self.loads.append(((self.module, node.id), self._enclosing()))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            enclosing = self._enclosing()
            self.attr_loads.append((node.attr, enclosing))
            if isinstance(node.value, ast.Name) and node.value.id in self.module_alias:
                key = (self.module_alias[node.value.id], node.attr)
                self.loads.append((key, enclosing))
        self.generic_visit(node)


def _is_dataclass(decorator):
    """Whether a class decorator is dataclass or a call of it."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _module_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    names = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                names.append(sub.id)
    return names


def unreferenced_names():
    """Dotted names of the package's definitions that nothing reads."""
    modules = _package_modules()
    scans = []
    for name in modules:
        scans.append((name, PACKAGE / f"{name}.py"))
    for folder in CALLERS:
        scans.extend((None, path) for path in sorted(folder.glob("*.py")))
    defined, members, loads, attr_loads = set(), set(), [], []
    for module, path in scans:
        scan = _Scan(module, modules)
        scan.scan(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        defined |= scan.defined
        members |= scan.members
        loads += scan.loads
        attr_loads += scan.attr_loads
    used = {key for key, enclosing in loads if key not in enclosing}
    out = {".".join(key) for key in defined - used}
    for key in members:
        if not any(attr == key[2] and key not in enclosing
                   for attr, enclosing in attr_loads):
            out.add(".".join(key))
    return out


def test_every_definition_has_a_caller_or_a_reason():
    unused = unreferenced_names()
    assert sorted(unused - set(ALLOWED)) == []
    # an entry whose name gained a caller or was deleted goes too
    assert sorted(set(ALLOWED) - unused) == []
    assert len(ALLOWED) <= 3 and all(reason for reason in ALLOWED.values())


# the closed engine: closed forms, slice tables and charts
CLOSED_ENGINE = ("hk", "slices", "sschart")


def _imported_modules(module, modules):
    """Package modules a module imports; "__init__" for the package itself,
    which re-exports the oracle."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _import_module(node, modules)
            if source:
                found.add(source)
            elif _is_package(node):
                found.update(a.name if a.name in modules else "__init__"
                             for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "kleinmackey":
                    found.add(rest if rest in modules else "__init__")
    return found


def test_closed_engine_imports_nothing_from_the_oracle():
    # neither directly nor through another package module, so the closed
    # engine cannot run bredon and the two engines stay independent
    modules = _package_modules() + ["__init__"]
    for start in CLOSED_ENGINE:
        seen, todo = set(), [start]
        while todo:
            module = todo.pop()
            if module not in seen:
                seen.add(module)
                todo.extend(_imported_modules(module, modules))
        assert "bredon" not in seen, f"{start} reaches bredon through {sorted(seen)}"


REP_TYPES = {"RepK", "RepC2"}


def _rep_type_switches(module):
    """Lines of a module that call isinstance with a representation type."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) \
                else [node.args[1]]
            names = {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None)
                     for k in kinds}
            if names & REP_TYPES:
                lines.append(node.lineno)
    return lines


def test_code_reads_the_group_instead_of_switching_on_the_type():
    # a representation names its group in v.group; outside reps, code reads
    # that instead of testing for RepK or RepC2
    switches = {module: _rep_type_switches(module)
                for module in _package_modules() + ["__init__"] if module != "reps"}
    assert {m: lines for m, lines in switches.items() if lines} == {}


def _self_referring_closures(module):
    """Nested functions of a module that read their own name.  Such a
    function reaches itself through its closure, so each call of the
    function around it leaves a cycle for the cyclic collector."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for outer in functions:
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, ast.FunctionDef) \
                    and any(isinstance(node, ast.Name) and node.id == inner.name
                            and isinstance(node.ctx, ast.Load)
                            for node in ast.walk(inner)):
                found.add(f"{module}.{outer.name}.{inner.name}")
    return found


def test_no_function_reaches_itself_through_a_closure():
    # a recursive search is a module-level function or a loop, so its
    # frames and tables go when the call returns
    found = set().union(*(_self_referring_closures(module)
                          for module in _package_modules() + ["__init__"]))
    assert sorted(found) == []


def test_benchmark_selfcheck_passes():
    # perfbench/tracing.py patches package names and the workloads call
    # them; the benchmark's own tests catch a rename before a benchmark run
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]


# methods that change a dict, list or set in place
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
            "remove", "setdefault", "sort", "update", "difference_update",
            "intersection_update", "symmetric_difference_update"}


def _own_nodes(fn):
    """The nodes of a function outside the functions nested in it, and
    those nested functions."""
    nodes, nested, todo = [], [], list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef):
            nested.append(node)
        else:
            nodes.append(node)
            todo.extend(ast.iter_child_nodes(node))
    return nodes, nested


def _changed_name(node):
    """The name whose value node changes in place: an item assigned or
    deleted, or a mutating method called on it."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        base = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATORS:
        base = node.func.value
    else:
        return None
    return base.id if isinstance(base, ast.Name) else None


def _mutated_module_names(tree):
    """"function: name" for each module-level name that a function changes
    in place or rebinds through a global statement.  A name the function,
    or a function around it, binds itself is its own and not counted."""
    module_names = {name for node in tree.body for name in _module_level_names(node)}
    found = set()
    todo = [(fn, set()) for node in tree.body
            for fn in (node.body if isinstance(node, ast.ClassDef) else [node])
            if isinstance(fn, ast.FunctionDef)]
    while todo:
        fn, outer = todo.pop()
        nodes, nested = _own_nodes(fn)
        declared = {name for node in nodes if isinstance(node, ast.Global)
                    for name in node.names}
        own = (outer | {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
               | {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}) - declared
        changed = {_changed_name(node) for node in nodes} - own
        found.update(f"{fn.name}: {name}" for name in (changed | declared) & module_names)
        todo.extend((inner, own) for inner in nested)
    return found


def test_every_cache_is_an_lru_cache():
    # perfbench/tracing.clear_caches empties the package's lru_caches, so a
    # table kept in a module-level dict, list or set would make a traced run
    # start warm; module-level containers are only read
    found = {f"{module}.{hit}" for module in _package_modules() + ["__init__"]
             for hit in _mutated_module_names(
                 ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))}
    assert sorted(found) == []
    planted = ast.parse(
        "_MEMO, _SEEN, _LAST = {}, [], None\n"
        "def memo(k):\n    _MEMO[k] = k\n"
        "def grow(k):\n    def inner():\n        _SEEN.append(k)\n    inner()\n"
        "def rebind(k):\n    global _LAST\n    _LAST = k\n"
        "def own(_MEMO, k):\n    _SEEN = []\n    _SEEN.append(k)\n    _MEMO[k] = k\n")
    assert _mutated_module_names(planted) == {"memo: _MEMO", "inner: _SEEN", "rebind: _LAST"}


# Package functions that the traffic below never enters, each with its
# reason.  A function nested in an ALLOWED name is covered by that entry.
NEVER_ENTERED = {
    "bredon.MackeyComplex.cell_count": "perfbench/ counts a query's cells with it",
    "bredon.MackeyComplex.flat_entries": "scripts/oracle_digest.py hashes the entries through it",
    "reps._Rep.__add__": "the Euler-class maps (ROADMAP item 8) build V + chi",
    "reps._Rep.__sub__": "the spectrum certificate (ROADMAP item 9) reads V - W",
}

# CLI traffic: the README console blocks, the criterion-10 invocations, the
# input paths (--file, a failing axioms check, C2, the closed engine, the
# solver, a usage error) and every suite but the full axioms sweep, at box 1
# where a suite takes a box.  "{functor}" and "{broken}" name JSON files the
# test writes.
TRAFFIC = [
    ["poincare", "--rep", "0,1,1,1"],
    ["poincare", "--rep", "0,3,-2,-2", "--level", "all"],
    ["poincare", "--rep", "2,-2,1,-3", "--format", "json"],
    ["homotopy", "--rep", "1,1,1,1", "--coeff", "F"],
    ["homotopy", "--rep=-1,-1,-1,-1", "--coeff", "F", "--format", "json"],
    ["homotopy", "--rep", "1,-2", "--coeff", "f", "--level", "e"],
    ["homotopy", "--rep", "1,1,1,1", "--engine", "closed"],
    ["slice", "--group", "K", "--n", "8", "--i", "12"],
    ["slice", "--group", "C2", "--n", "5", "--i", "6", "--format", "json"],
    ["slice", "--n", "8"],
    ["tower", "--n", "5"],
    ["tower", "--n", "9", "--format", "json"],
    ["tower", "--n", "9", "--format", "svg"],
    ["chart", "--n", "5", "--format", "text"],
    ["chart", "--n", "10", "--format", "svg"],
    ["chart", "--n", "7", "--format", "json"],
    ["chart", "--n", "10", "--solve", "--cap", "3"],
    ["mackey", "--name", "mg", "--show"],
    ["mackey", "--name", "0"],
    ["mackey", "--file", "{functor}", "--json"],
    ["verify", "--suite", "axioms", "--file", "{broken}"],
    ["verify", "--suite", "convergence"],
    ["verify", "--suite", "duality", "--box", "1"],
    ["verify", "--suite", "euler"],
    ["verify", "--suite", "figure1"],
    ["verify", "--suite", "hk-oracle", "--box", "1"],
    ["verify", "--suite", "slice-homotopy"],
    ["verify", "--suite", "slices-restriction"],
    ["verify", "--suite", "twistings"],
]

# Runs the traffic under cProfile, started before the package is imported
# so that tables built at import time count, and prints the entered
# functions as [file, first line, name].
_PROFILED_TRAFFIC = """
import cProfile, contextlib, io, json, os, sys
profile = cProfile.Profile()
profile.enable()
from kleinmackey import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv, out=io.StringIO()))
profile.disable()
profile.create_stats()
print(json.dumps({"codes": codes, "entered": [
    [os.path.realpath(f), line, name] for f, line, name in profile.stats]}))
"""


def _package_functions():
    """{(file, first line, name): "module.qualname"} for every function the
    package's source defines, nested ones and methods included."""
    found = {}
    for module in _package_modules() + ["__init__"]:
        path = os.path.realpath(PACKAGE / f"{module}.py")
        todo = [compile(Path(path).read_text(encoding="utf-8"), path, "exec")]
        while todo:
            code = todo.pop()
            consts = [c for c in code.co_consts if isinstance(c, types.CodeType)]
            todo.extend(consts)
            found.update(((path, c.co_firstlineno, c.co_name), f"{module}.{c.co_qualname}")
                         for c in consts if not c.co_name.startswith("<"))
    return found


def never_entered(tmp_path):
    """Dotted names of the package functions the traffic never enters."""
    from kleinmackey.mackey import catalog

    doc = catalog("F").to_json_dict()
    (tmp_path / "functor.json").write_text(json.dumps(doc))
    doc["tr"]["R>K"] = [[1]]
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    files = {"{functor}": str(tmp_path / "functor.json"),
             "{broken}": str(tmp_path / "broken.json")}
    traffic = [[files.get(arg, arg) for arg in argv] for argv in TRAFFIC]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PROFILED_TRAFFIC, json.dumps(traffic)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout)
    # every invocation succeeds but the broken functor's, which fails its
    # check, and the slice without --i, a usage error
    assert result["codes"] == [1 if "{broken}" in argv else 2 if argv == ["slice", "--n", "8"]
                               else 0 for argv in TRAFFIC]
    entered = {tuple(key) for key in result["entered"]}
    return {name for key, name in _package_functions().items() if key not in entered}


def test_every_function_is_entered_or_has_a_reason(tmp_path):
    # the name scan above counts any read of a method's name as a caller;
    # this counts calls, so an unread function with a common name shows too
    never = never_entered(tmp_path)
    covered = {name for name in never
               if any(name == key or name.startswith(key + ".")
                      for key in [*ALLOWED, *NEVER_ENTERED])}
    assert sorted(never - covered) == []
    # an entry whose function gained a caller or was deleted goes too
    assert sorted(set(NEVER_ENTERED) - never) == []
    assert all(NEVER_ENTERED.values())

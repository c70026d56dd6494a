"""Source checks that keep invariants enforceable under `python -O`."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nscurves
from nscurves.errors import InternalInvariantError

SRC = Path(nscurves.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; invariants raise
    # InternalInvariantError instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """Nodes of a function's body, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def test_no_local_is_stored_and_never_read():
    # a single-name assignment whose value the function never reads is dead
    # code, and may do work for nothing; tuple targets and `_` are exempt,
    # and a read in a nested function counts
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            own = list(_own_nodes(fn))
            read.update(name for n in own
                        if isinstance(n, (ast.Global, ast.Nonlocal))
                        for name in n.names)
            for n in own:
                if isinstance(n, ast.Assign):
                    targets = n.targets
                elif isinstance(n, ast.AnnAssign) and n.value is not None:
                    targets = [n.target]
                else:
                    continue
                found.extend(
                    "%s:%d %s in %s" % (path.name, t.lineno, t.id, fn.name)
                    for t in targets if isinstance(t, ast.Name)
                    and t.id != "_" and t.id not in read)
    assert found == []


# the names under which an `except` clause catches InternalInvariantError
_CATCHES_INTERNAL = {c.__name__ for c in InternalInvariantError.__mro__}


def _caught_names(handler):
    if handler.type is None:
        return {"BaseException"}
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return {t.attr if isinstance(t, ast.Attribute) else t.id for t in types}


def _reraises(handler):
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and (
        last.exc is None
        or isinstance(last.exc, ast.Name) and last.exc.id == handler.name)


def test_no_handler_swallows_internal_invariant_errors():
    # an InternalInvariantError is a bug, never a result: the first clause
    # of a `try` that can catch it must re-raise it, and only `cli.main`
    # turns it into its exit code 3
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _own_nodes(fn):
                if not isinstance(node, ast.Try):
                    continue
                for h in node.handlers:
                    names = _caught_names(h)
                    if not names & _CATCHES_INTERNAL:
                        continue
                    if not _reraises(h) and (path.name, fn.name, names) != (
                            "cli.py", "main", {"InternalInvariantError"}):
                        found.append("%s:%d in %s" % (path.name, h.lineno,
                                                      fn.name))
                    break   # the later clauses never see it
    assert found == []


def test_drawing_layers_use_no_fractions():
    # chord geometry is integer boundary ranks; rationals stay out of it
    for name in ("drawing.py", "arrangement.py"):
        tree = ast.parse((SRC / name).read_text(), name)
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "fractions"
                 or isinstance(node, ast.Import)
                 and any(a.name == "fractions" for a in node.names)]
        assert found == [], name


def test_only_the_drawing_layer_reads_crossing_places():
    # a crossing's place on a strand, (chord index, rank on that chord), is
    # a format of the drawing layer; the modules above it read crossing
    # order as ranks in a strand's events
    found = ["%s:%d %s" % (path.name, node.lineno, node.attr)
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("drawing.py", "arrangement.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute)
             and node.attr in ("param_of", "par_a", "par_b")]
    assert found == []


_STRAND_LISTS = {"pts", "tris"}
_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort",
             "reverse", "__setitem__", "__delitem__", "__iadd__", "__imul__"}


def _is_strand_list(node):
    return isinstance(node, ast.Attribute) and node.attr in _STRAND_LISTS


def _targets(node):
    """The store and delete targets of a statement, tuples unpacked."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif isinstance(node, ast.Delete):
        stack = list(node.targets)
    else:
        return
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            yield t


def _strand_list_edits(tree):
    """Lines that edit an attribute named `pts` or `tris` in place."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and _is_strand_list(node.func.value)):
            yield node.lineno
        for t in _targets(node):
            if (isinstance(t, ast.Subscript) and _is_strand_list(t.value)
                    or isinstance(node, ast.AugAssign)
                    and _is_strand_list(t)):
                yield node.lineno


def test_no_code_edits_strand_point_lists_in_place():
    # a drawing's kept pair geometry stays valid while its two strands'
    # `pts` and `tris` are the very same lists, so every edit must
    # replace them: no mutating call, item or slice store, `del` or
    # augmented assignment on an attribute named `pts` or `tris`
    found = ["%s:%d" % (path.name, line)
             for path in sorted(SRC.glob("*.py"))
             for line in _strand_list_edits(ast.parse(path.read_text(),
                                                      str(path)))]
    assert found == []


def test_the_strand_list_lint_sees_every_in_place_edit():
    edits = ["st.pts.append(p)", "self.tris.sort()", "st.pts[0] = p",
             "st.tris[1:3] = []", "del st.pts[k]", "st.pts += [p]",
             "a, st.tris[0] = 1, 2", "st.pts[k] += 1"]
    fine = ["st.pts = st.pts + [p]", "pts.append(p)", "x = st.tris[0]",
            "st.pts, st.tris = new_pts, new_tris"]
    assert all(list(_strand_list_edits(ast.parse(src))) for src in edits)
    assert not any(list(_strand_list_edits(ast.parse(src))) for src in fine)


def _names_used(tree):
    """Counts of the names a tree loads, reads as attributes or imports."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def test_every_private_definition_is_used():
    # a private function, method or class that nothing in the package
    # refers to, apart from its own body, is dead code
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used.update(_names_used(tree))
    found = [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and used[node.name] <= _names_used(node)[node.name]
    ]
    assert found == []


def _loads(tree):
    """Counts of the names a tree loads."""
    return Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                   and isinstance(n.ctx, ast.Load))


def test_every_public_definition_is_used():
    # a public module-level function or class must be read somewhere: in
    # its own module outside its body, or through an attribute read or a
    # `from` import in the package, the tests or the scripts (which covers
    # the re-exports of `__init__.py`); a bare name in another module is
    # some other binding, such as a local variable, and does not count
    root = SRC.parent.parent
    files = [path for where in (SRC, root / "tests", root / "scripts")
             for path in sorted(where.glob("*.py"))]
    imported = Counter()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                imported[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                imported.update(a.name for a in node.names)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loads = _loads(tree)
        found.extend(
            "%s:%d %s" % (path.name, node.lineno, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")
            and not imported[node.name]
            and loads[node.name] <= _loads(node)[node.name])
    assert found == []


def test_package_imports_only_the_standard_library():
    # nscurves installs with no dependencies
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found.extend("%s:%d %s" % (path.name, node.lineno, m)
                         for m in modules
                         if m.split(".")[0] not in sys.stdlib_module_names
                         and m.split(".")[0] != "nscurves")
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    # `__init__.py` re-exports the public names; every other module reads
    # each name it imports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and not isinstance(n.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found.extend("%s:%d %s" % (path.name, node.lineno, name)
                         for name in names if name not in read)
    assert found == []


_TURNBACK_ROUTE = ("find_turnback", "remove_turnback", "reduce_turnbacks")


def _turnback_route_uses(tree):
    """Lines that name a turnback method outside the three methods."""
    inside = {id(n) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and fn.name in _TURNBACK_ROUTE for n in ast.walk(fn)}
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in _TURNBACK_ROUTE and id(node) not in inside:
            yield node.lineno


def test_no_package_code_calls_the_turnback_route():
    # removing turnbacks one at a time rescans the strand for each, so it
    # is quadratic; curves take the cyclic free reduction of their darts
    # instead, and the three methods stay as the oracle of the tests and
    # a name the benchmark tracer wraps, called by no other package code
    found = ["%s:%d" % (path.name, line)
             for path in sorted(SRC.glob("*.py"))
             for line in _turnback_route_uses(ast.parse(path.read_text(),
                                                        str(path)))]
    assert found == []
    uses = ["d.reduce_turnbacks(0)", "idx = d.find_turnback(sid)",
            "f = Drawing.remove_turnback"]
    assert all(list(_turnback_route_uses(ast.parse(src))) for src in uses)
    assert not list(_turnback_route_uses(ast.parse(
        "def reduce_turnbacks(self, sid):\n"
        "    self.remove_turnback(sid, self.find_turnback(sid))\n")))


_STACKED_ROUTE = ("draw_pair", "PairConfiguration")


def _stacked_calls(tree, function):
    """Lines where `function` calls a stacked-configuration constructor."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == function:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = (f.attr if isinstance(f, ast.Attribute)
                            else f.id if isinstance(f, ast.Name) else None)
                    if name in _STACKED_ROUTE:
                        yield node.lineno


def test_balls_build_no_stacked_configuration():
    # the ball reads only which curves a pair's bicorns are, so it draws
    # each pair merged; a stacked configuration would read both curves'
    # drawings, replaying a twist result's laps, and remove bigons
    found = list(_stacked_calls(
        ast.parse((SRC / "verify.py").read_text(), "verify.py"),
        "build_ball"))
    assert found == []
    calls = ["def build_ball():\n    cfg = PC.draw_pair(v, c)\n",
             "def build_ball():\n    def proposals(v):\n"
             "        return PairConfiguration(v, c)\n"]
    assert all(list(_stacked_calls(ast.parse(src), "build_ball"))
               for src in calls)
    assert not list(_stacked_calls(ast.parse(
        "def build_ball():\n    cfg = PC.draw_merged_pair(v, c)\n"
        "def other():\n    cfg = PC.draw_pair(v, c)\n"), "build_ball"))


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps package functions and methods by name, so
    # deleting or renaming one of them must fail here, not in a traced run
    root = SRC.parent.parent
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracing; tracing.install(tracing.Recorder())"],
        cwd=root / "perfbench", env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_EMPTY_DICT_CALLS = {"dict", "OrderedDict", "defaultdict"}


def _module_dicts(tree):
    """Names that a module binds at its top level to a new empty dict."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if (isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _EMPTY_DICT_CALLS):
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_module_memo_is_emptied_between_tests():
    # a module-level dict that code fills is a memo; the autouse fixture
    # `empty_drawing_memos` must give each test a new one, or hits left by
    # one test hide drawing work from the next
    from conftest import empty_drawing_memos
    memos = [(importlib.import_module("nscurves." + path.stem), name)
             for path in sorted(SRC.glob("*.py"))
             for name in _module_dicts(ast.parse(path.read_text(),
                                                 str(path)))]
    assert {name for _, name in memos} >= {
        "_LAP_CACHE", "_PAIR_DRAWING_CACHE", "_SPLICE_CACHE", "_TWIST_CACHE",
        "_WALK_CACHE", "_WITNESS_CACHE"}
    with pytest.MonkeyPatch.context() as patch:
        held = [getattr(module, name) for module, name in memos]
        empty_drawing_memos.__wrapped__(patch)
        kept = ["%s.%s" % (module.__name__, name)
                for (module, name), old in zip(memos, held)
                if getattr(module, name) is old
                or getattr(module, name) != {}]
    assert kept == []


def test_the_memo_lint_sees_every_module_dict():
    found = list(_module_dicts(ast.parse(
        "_A = {}\n_B: dict = {}\n_C = dict()\n_D = defaultdict(list)\n"
        "TABLE = {'a': 1}\nN = 3\ndef f():\n    local = {}\n")))
    assert found == ["_A", "_B", "_C", "_D"]

"""Source hygiene: each kgfeat module imports only the sibling modules its
layer allows, every name a module imports is used in it, no module imports
another's private name, every module-level private name is read somewhere
in the package, every public name is read in the package outside its own
body or by the acceptance suite, every local a function assigns is read in
it, every dataclass field is read somewhere in the package, JSON shapes are
tested only by `data.check`, no module calls `csv.writer`, only `data` calls
`csv.reader`, only `data._numeric_columns` calls numpy's text readers,
only `cli.main` reads `EXIT_USER`, every text file is opened with an
explicit encoding, a feature's concepts come from its verdict alone, and
no module tests an operator by its name."""
import ast
import glob
import os

from kgfeat.transform import catalog

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "kgfeat")


# The architecture: the sibling modules each kgfeat module may import. Data
# loading (with the JSON shape check every reader uses) and the DQN agent
# stand alone; transforms and learners build on the data; the KG reasons over
# transform expressions; the engine ties them together and the CLI drives it.
LAYERS = {
    "__init__": set(),
    "data": set(),
    "agent": set(),
    "transform": {"data"},
    "kg": {"data", "transform"},
    "learn": {"data"},
    "engine": {"agent", "data", "kg", "learn", "transform"},
    "cli": {"agent", "data", "engine", "kg", "learn", "transform"},
}


def sibling_imports(source):
    """The kgfeat modules a module imports, relatively or by package name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "kgfeat":
                parts = parts[1:]
            elif node.level == 0:
                continue
            found |= {parts[0]} if parts[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("kgfeat.")}
    return found


def test_sibling_imports_are_found():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from . import learn, transform as t\nfrom .data import Kind\n"
              "from kgfeat.kg import judge\nimport kgfeat.agent\nfrom os import path\n")
    assert sibling_imports(source) == {"learn", "transform", "data", "kg", "agent"}


def test_each_module_imports_only_the_layers_it_may():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert {os.path.basename(p)[:-3] for p in paths} == set(LAYERS)
    for path in paths:
        name = os.path.basename(path)[:-3]
        with open(path) as fh:
            extra = sibling_imports(fh.read()) - LAYERS[name]
        assert not extra, f"{name} imports {sorted(extra)}"


def unused_imports(source):
    """Names bound by the module's imports that no expression reads;
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nnp.log(loads(''))\n"
    assert unused_imports(source) == ["dumps", "os"]


def test_no_module_imports_an_unused_name():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            unused = unused_imports(fh.read())
        assert not unused, f"{os.path.basename(path)} never uses {unused}"


def private_imports(source):
    """`module.name` for each private name a `from ... import` takes."""
    return ["." * node.level + ".".join(filter(None, [node.module, a.name]))
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name.startswith("_")]


def test_private_imports_are_found():
    source = ("from __future__ import annotations\nfrom .data import Kind, _LEVEL\n"
              "from . import _grow\nfrom os import path as _path\nimport _thread\n")
    assert private_imports(source) == [".data._LEVEL", "._grow"]


def test_no_module_imports_a_private_name():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            taken = private_imports(fh.read())
        assert not taken, f"{os.path.basename(path)} imports {taken}"


def private_definitions(source):
    """Module-level names starting with one underscore that the module binds
    by assignment, `def` or `class`."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def reads(source):
    """Names the source reads, as bare names or as module attributes."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unread_private_names(sources):
    defined = set().union(*(private_definitions(s) for s in sources))
    read = set().union(*(reads(s) for s in sources))
    return sorted(defined - read)


def test_unread_private_names_are_found():
    a = "_T = {1: 2}\n_U, _V = 1, 2\ndef _f():\n    return _U\nclass _C:\n    pass\n"
    b = "from . import a\nx = a._f() + _V\n__all__ = []\n"
    assert unread_private_names([a, b]) == ["_C", "_T"]


def test_every_private_name_is_read():
    sources = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            sources.append(fh.read())
    assert unread_private_names(sources) == []


def public_definitions(tree):
    """(name, node, is_member) for each public top-level function and class,
    and for each public method and property of a top-level class, named
    `Class.name`; dunder names start with `_`, so they are exempt."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for stmt in tree.body:
        if isinstance(stmt, (*defs, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt, False
        if isinstance(stmt, ast.ClassDef):
            yield from ((f"{stmt.name}.{m.name}", m, True) for m in stmt.body
                        if isinstance(m, defs) and not m.name.startswith("_"))


def unread_public_names(sources, acceptance=()):
    """Each public name the sources define that no source and no acceptance
    source reads outside the definition's own body: a top-level name as a bare
    name or an attribute, a method or property as an attribute."""
    trees = [ast.parse(s) for s in sources]
    names, attrs = {}, {}  # name -> the nodes that read it
    for tree in trees + [ast.parse(s) for s in acceptance]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                attrs.setdefault(n.attr, []).append(n)
    unread = []
    for tree in trees:
        for qualified, node, is_member in public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            readers = attrs.get(node.name, []) + ([] if is_member else names.get(node.name, []))
            if all(id(n) in inside for n in readers):
                unread.append(qualified)
    return sorted(unread)


def test_unread_public_names_are_found():
    a = ("def render(e):\n    return render(e.args)\n"
         "def used():\n    pass\n"
         "def api():\n    pass\n"
         "class Unit:\n    @classmethod\n    def of(cls):\n        return cls()\n"
         "    @property\n    def flag(self):\n        return self.dims\n"
         "    def walk(self):\n        return self.walk()\n"
         "    def __mul__(self, other):\n        return Unit()\n"
         "class _Plan:\n    def stream(self):\n        return used()\n"
         "class Loose:\n    pass\n")
    b = "from . import a\nx = a.Unit().flag\ny = _Plan\n"
    acceptance = "from kgfeat.a import api\napi()\n"
    unread = ["Loose", "Unit.of", "Unit.walk", "_Plan.stream", "render"]
    assert unread_public_names([a, b], [acceptance]) == unread
    assert unread_public_names([a, b]) == sorted(unread + ["api"])


def test_every_public_name_is_read():
    # a name the program never reads is code nobody runs; the acceptance
    # suite's reads are the paper's acceptance API (metric_f1,
    # search_space_size, kgfeat.resource_path)
    sources = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    acceptance = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_acceptance.py")
    with open(acceptance, encoding="utf-8") as fh:
        assert unread_public_names(sources, [fh.read()]) == []


def unread_locals(source):
    """`function.name` for each name a function assigns but never reads,
    counting reads in its nested functions; names starting with `_` and names
    declared `global` or `nonlocal` are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
        stored = {n.id for n in names if isinstance(n.ctx, ast.Store)}
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        shared = {g for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                  for g in n.names}
        found += [f"{fn.name}.{name}" for name in sorted(stored - read - shared)
                  if not name.startswith("_")]
    return found


def test_unread_locals_are_found():
    source = ("def f(a):\n    b, _c = a\n    d = 1\n    for e in b:\n        d += 1\n"
              "    def g():\n        return d\n    return g\n"
              "def h():\n    global G\n    G = 1\n    x = 2\n    x += 1\n")
    assert unread_locals(source) == ["f.e", "h.x"]


def test_no_function_assigns_an_unread_local():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            unread = unread_locals(fh.read())
        assert not unread, f"{os.path.basename(path)} never reads {unread}"


def _called_name(node):
    """The name of a Name node, or the attribute of an Attribute node."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def dataclass_fields(source):
    """(class, field) for each field a `@dataclass` class declares."""
    return [(node.name, stmt.target.id) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(_called_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                    for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def unread_fields(sources):
    """`Class.field` for each dataclass field no source reads as an attribute;
    every field of a class passed to `fields(...)` counts as read, since such
    a class is serialized field by field."""
    read, serialized = set(), set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif (isinstance(n, ast.Call) and _called_name(n.func) == "fields"
                  and n.args and isinstance(n.args[0], ast.Name)):
                serialized.add(n.args[0].id)
    return sorted(f"{cls}.{name}" for source in sources
                  for cls, name in dataclass_fields(source)
                  if name not in read and cls not in serialized)


def test_unread_fields_are_found():
    a = ("from dataclasses import dataclass, fields\n"
         "@dataclass\nclass A:\n    x: int\n    y: int = 0\n    z: int = 0\n"
         "@dataclass(frozen=True)\nclass B:\n    w: int\n"
         "class C:\n    v: int\n"
         "KEYS = [f.name for f in fields(B)]\n")
    b = "def f(a):\n    a.z = 1\n    return a.x\n"
    assert unread_fields([a, b]) == ["A.y", "A.z"]


def test_every_dataclass_field_is_read():
    sources = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            sources.append(fh.read())
    assert unread_fields(sources) == []


def unread_parameters(source):
    """`function.name` for each parameter a function never reads, counting
    reads in its nested functions; names starting with `_` are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [f"{name}.{p}" for p in params if p not in read and not p.startswith("_")]
    return found


def test_unread_parameters_are_found():
    source = ("def f(a, b, *c, d=1, **e):\n    return a + d\n"
              "def g(x, _y):\n    def h():\n        return x\n    return h\n"
              "k = lambda u, v: u\n")
    assert unread_parameters(source) == ["f.b", "f.c", "f.e", "<lambda>.v"]


def test_every_parameter_is_read():
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            unread = unread_parameters(fh.read())
        assert not unread, f"{os.path.basename(path)} never reads {unread}"


def json_type_tests(source):
    """The top-level definition (or `<module>`) around each isinstance test
    against dict or list, alone or in a tuple of classes."""
    found = []
    for stmt in ast.parse(source).body:
        for n in ast.walk(stmt):
            if (isinstance(n, ast.Call) and _called_name(n.func) == "isinstance"
                    and len(n.args) == 2):
                classes = n.args[1].elts if isinstance(n.args[1], ast.Tuple) else [n.args[1]]
                if any(_called_name(c) in ("dict", "list") for c in classes):
                    found.append(getattr(stmt, "name", "<module>"))
    return found


def test_json_type_tests_are_found():
    source = ("def f(x):\n    return isinstance(x, dict)\n"
              "class C:\n    def g(self, y):\n        return isinstance(y, (int, list))\n"
              "def h(z):\n    return isinstance(z, (int, str)) or isinstance(z, Dict)\n"
              "ok = isinstance(1, builtins.list)\n")
    assert json_type_tests(source) == ["f", "C", "<module>"]


def test_json_shapes_are_tested_only_by_data_check():
    # each reader declares its document's shape and calls data.check, so no
    # module tests a value against dict or list on its own
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found = json_type_tests(fh.read())
        if os.path.basename(path) == "data.py":
            found = [name for name in found if name != "check"]
        assert not found, f"{os.path.basename(path)} tests JSON types in {found}"


def module_calls(source, module, name):
    """The top-level definition (or `<module>`) around each call of
    `<module>.<name>`, through the name the source imports the module as,
    or of a `<name>` imported from the module."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == module}
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == module
                for a in n.names if a.name == name}
    found = []
    for stmt in tree.body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Call) and (
                    (isinstance(n.func, ast.Attribute) and n.func.attr == name
                     and _called_name(n.func.value) in aliases)
                    or (isinstance(n.func, ast.Name) and n.func.id in imported)):
                found.append(getattr(stmt, "name", "<module>"))
    return found


def test_csv_writer_calls_are_found():
    source = ("import csv\nfrom csv import writer as w\n"
              "def f(fh):\n    csv.writer(fh).writerow([1])\n"
              "def g(fh):\n    return w(fh)\n"
              "def h(fh):\n    return csv.reader(fh), fh.writer\n"
              "W = csv.writer\n")
    assert module_calls(source, "csv", "writer") == ["f", "g"]


def test_every_csv_file_is_written_by_one_writer():
    # cli's _csv_field/_csv_line write features.csv and the report files
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found = module_calls(fh.read(), "csv", "writer")
        assert not found, f"{os.path.basename(path)} calls csv.writer in {found}"


def test_csv_reader_calls_are_found():
    source = ("import csv\nfrom csv import reader\n"
              "def f(fh):\n    return list(csv.reader(fh))\n"
              "def g(fh):\n    return csv.writer(fh), fh.reader()\n"
              "R = [reader(fh) for fh in ()]\n")
    assert module_calls(source, "csv", "reader") == ["f", "<module>"]


def test_only_data_reads_csv_files():
    # data._records maps a malformed record to a DataError naming its line
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found = module_calls(fh.read(), "csv", "reader")
        if os.path.basename(path) == "data.py":
            assert found == ["_records"]
        else:
            assert not found, f"{os.path.basename(path)} calls csv.reader in {found}"


def test_numpy_text_reader_calls_are_found():
    source = ("import numpy as np\nfrom numpy import genfromtxt as gen\n"
              "def f(fh):\n    return np.loadtxt(fh)\n"
              "def g(fh):\n    return gen(fh), np.savetxt(fh, [])\n"
              "def h(fh):\n    return fh.loadtxt(), numpy.loadtxt(fh)\n"
              "class C:\n    def m(self, fh):\n        return np.genfromtxt(fh)\n")
    assert module_calls(source, "numpy", "loadtxt") == ["f"]
    assert module_calls(source, "numpy", "genfromtxt") == ["g", "C"]


def test_only_data_numeric_columns_calls_numpy_text_readers():
    # data._numeric_columns reads with numpy only the tables it has checked
    # csv.reader and float() read the same way
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            source = fh.read()
        found = [where for name in ("loadtxt", "genfromtxt")
                 for where in module_calls(source, "numpy", name)]
        if os.path.basename(path) == "data.py":
            assert found == ["_numeric_columns"]
        else:
            assert not found, f"{os.path.basename(path)} calls numpy's text readers in {found}"


def reads_outside(source, name, function):
    """The line of each read of `name`, as a bare name or an attribute,
    outside the top-level function `function`."""
    tree = ast.parse(source)
    inside = {id(n) for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name == function
              for n in ast.walk(stmt)}
    return [n.lineno for n in ast.walk(tree) if id(n) not in inside and (
        (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Attribute) and n.attr == name))]


def test_reads_outside_a_function_are_found():
    source = ("X = 1\ndef main():\n    return X\n"
              "def f():\n    return X\n"
              "def g(m):\n    return m.X\n"
              "class C:\n    def main(self):\n        return X\n")
    assert reads_outside(source, "X", "main") == [5, 7, 10]


def test_only_cli_main_reads_exit_user():
    # every command raises a user error, and main alone prints it and exits 1
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found = reads_outside(fh.read(), "EXIT_USER",
                                  "main" if os.path.basename(path) == "cli.py" else None)
        assert not found, f"{os.path.basename(path)} reads EXIT_USER at lines {found}"


def opens_without_encoding(source):
    """The line of each `open(...)` call in text mode that names no encoding."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Call) and _called_name(n.func) == "open":
            mode = n.args[1] if len(n.args) > 1 else next(
                (k.value for k in n.keywords if k.arg == "mode"), None)
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if not binary and not any(k.arg == "encoding" for k in n.keywords):
                found.append(n.lineno)
    return sorted(found)


def test_opens_without_encoding_are_found():
    source = ("with open(p) as fh:\n    pass\n"
              "a = open(p, 'rb')\nb = open(p, mode='wb')\nc = open(p, 'w', newline='')\n"
              "d = open(p, encoding='utf-8')\ne = io.open(p, 'r')\n")
    assert opens_without_encoding(source) == [1, 5, 7]


def test_every_text_file_is_opened_with_an_encoding():
    # the locale's encoding is not UTF-8 everywhere; CI also runs the CLI
    # with EncodingWarning as an error
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found = opens_without_encoding(fh.read())
        assert not found, f"{os.path.basename(path)} opens text files without an encoding " \
                          f"at lines {found}"


def identifiers(source):
    """Each name a module reads, assigns or imports, and each attribute it reads."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.asname or n.name)
    return found


def definitions(source):
    """The functions and classes a module defines, at any depth, and the
    names it assigns at module level."""
    tree = ast.parse(source)
    found = {n.name for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


def test_identifiers_and_definitions_are_found():
    source = ("from .kg import judge as j\nX: int = 1\nY = kg.ancestors(c)\n"
              "def f(v):\n    leaves = v.column_concepts\n    class C:\n        pass\n")
    assert identifiers(source) == {"j", "X", "int", "Y", "kg", "ancestors", "c", "leaves",
                                   "v", "column_concepts"}
    assert definitions(source) == {"X", "Y", "f", "C"}


def test_concepts_come_from_the_verdict_alone():
    # `kg.judge` walks an expression once and returns its concepts with the
    # verdict; the engine walked it again, reading the KG's tables behind them
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        name = os.path.basename(path)
        assert not definitions(source) & {"phi_feature", "leaves"}, name
        if name == "engine.py":
            assert not identifiers(source) & {"column_concepts", "ancestors", "concept_index"}


def operator_name_tests(source, names):
    """The line of each comparison of a `.name` or `.op` attribute with a
    string literal in `names`, alone or in a tuple, list or set."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Compare):
            continue
        sides = [n.left, *n.comparators]
        literals = {c.value for side in sides
                    for c in (side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set))
                              else [side])
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
        if literals & names and any(isinstance(side, ast.Attribute)
                                    and side.attr in ("name", "op") for side in sides):
            found.append(n.lineno)
    return found


def test_operator_name_tests_are_found():
    source = ("a = op.name == 'one_hot'\nb = 'add' != expr.op\nc = e.op in ('and', 'x')\n"
              "d = f.name != 'traces'\ne = op.name == name\ng = op.kind == 'add'\n"
              "h = op.per_level\ni = f.name not in ('learner', 'agent')\n")
    assert operator_name_tests(source, {"one_hot", "add", "and"}) == [1, 2, 3]


def test_no_module_tests_an_operator_by_its_name():
    # what sets an operator apart (its pairing, its per-level nodes, its KG
    # class) is a field of its catalog row, so a new operator is one row
    names = {op.name for op in catalog()}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found = operator_name_tests(fh.read(), names)
        assert not found, f"{os.path.basename(path)} tests an operator's name at lines {found}"

"""Source hygiene: every name a kgfeat module imports is used in it."""
import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "kgfeat")


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

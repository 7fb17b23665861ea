"""Static checks on the package sources."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import hublab

SRC = Path(hublab.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
TESTS_AND_SCRIPTS = sorted(p for d in ("tests", "scripts") for p in ROOT.joinpath(d).glob("*.py"))
# The files whose calls count as callers of the package: the package itself,
# the scripts and the benchmark, not the tests.
CALLERS = MODULES + sorted(
    p for d in ("scripts", "perfbench") for p in ROOT.joinpath(d).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_catches_one():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TESTS_AND_SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports_in_tests_and_scripts(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def hubs_reads(source: str) -> list[int]:
    """Lines that read an attribute named `hubs`, the tuple view of a
    labeling."""
    tree = ast.parse(source)
    attrs = (n for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    return sorted(n.lineno for n in attrs if n.attr == "hubs")


def test_hubs_read_check_catches_one():
    assert hubs_reads("rows = hl.hubs[0]\nids = hl.hub\n") == [1]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "hub_labeling.py"], ids=lambda p: p.name
)
def test_labels_read_through_arrays(path):
    # One label representation: consumers read the arrays or entries(v).
    assert hubs_reads(path.read_text(encoding="utf-8")) == []


def matrix_calls(source: str) -> list[int]:
    """Lines that call a method named `matrix`, the whole vertex matrix of a
    DenseDistanceMatrix."""
    tree = ast.parse(source)
    calls = (n.func for n in ast.walk(tree) if isinstance(n, ast.Call))
    return sorted(f.lineno for f in calls if isinstance(f, ast.Attribute) and f.attr == "matrix")


def test_matrix_call_check_catches_one():
    assert matrix_calls("d = dm.matrix()[0]\nq = dm.q\nf = dm.matrix\nmatrix()\n") == [1]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graph_core.py"], ids=lambda p: p.name
)
def test_distances_read_through_rows(path):
    # One distance representation: consumers read rows and at, which gather
    # only what they need through the zero-weight quotient's labels.
    assert matrix_calls(path.read_text(encoding="utf-8")) == []


def row_block_reads(source: str) -> list[int]:
    """Lines that call a method named `q_rows` on a slice(...), a block of
    distance rows read past DenseDistanceMatrix.blocks."""
    tree = ast.parse(source)
    calls = (n for n in ast.walk(tree) if isinstance(n, ast.Call))
    return sorted(
        c.lineno
        for c in calls
        if isinstance(c.func, ast.Attribute)
        and c.func.attr == "q_rows"
        and any(isinstance(a, ast.Call) and ast.unparse(a.func) == "slice" for a in c.args)
    )


def test_row_block_read_check_catches_one():
    source = "d = dm.q_rows(slice(lo, hi))\nr = dm.q_rows(v)\nq_rows(slice(0, 1))\ns = slice(2)\n"
    assert row_block_reads(source) == [1]


@pytest.mark.parametrize(
    "path", [p for p in CALLERS if p.name != "graph_core.py"], ids=lambda p: p.name
)
def test_row_blocks_come_from_the_driver(path):
    # One block driver: every pass over distance rows iterates dm.blocks(),
    # which alone sets the block size.
    assert row_block_reads(path.read_text(encoding="utf-8")) == []


def module_level_scipy_imports(source: str) -> list[int]:
    """Lines that import scipy, or a module of it, outside every function
    body: imports that run when the module is imported."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            else:
                names = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            if any(name.partition(".")[0] == "scipy" for name in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_module_level_scipy_import_check_catches_one():
    source = (
        "import numpy, scipy.sparse\n"
        "from scipy import stats\n"
        "class C:\n"
        "    from scipy.sparse import csr_matrix\n"
        "def f():\n"
        "    from scipy.sparse.csgraph import dijkstra\n"
        "    import scipy\n"
        "import scipyx\n"
        "from . import scipy_names\n"
    )
    assert module_level_scipy_imports(source) == [1, 2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_functions(path):
    # Unit-weight builds, verification, closure and label IO never need
    # scipy, so importing the package must not load it.
    assert module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


def unset_options(defs: dict[str, str], callers: list[str]) -> list[str]:
    """Keyword-only parameters with a default, defined in the sources defs
    (label -> text), that no call in the caller sources passes by keyword,
    as "label: function(parameter)". A call counts for every function of
    the called name."""
    passed = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                passed.update((name, k.arg) for k in node.keywords)
    unset = []
    for label, source in defs.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None and (node.name, arg.arg) not in passed:
                        unset.append(f"{label}: {node.name}({arg.arg})")
    return sorted(unset)


def test_unset_option_check_catches_one():
    defs = {"m.py": "def f(x, *, a=1, b=2, c):\n    pass\n"}
    callers = ["f(0, a=3, c=4)\n", "obj.g(b=1)\n", "obj.f(1, c=2)\n"]
    assert unset_options(defs, callers) == ["m.py: f(b)"]


def test_every_option_has_a_caller():
    # An option that only tests set doubles the configurations to cover for
    # nothing; such a value belongs in a module constant that tests patch.
    defs = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unset_options(defs, callers) == []


def mentions(tree: ast.AST) -> Counter:
    """How often each name occurs in a tree as a name, an attribute or an
    import."""
    kinds = (ast.Name, ast.Attribute, ast.alias)
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree)
        if isinstance(n, kinds)
    )


def uncalled_names(defs: dict[str, str], callers: list[str]) -> list[str]:
    """Public top-level functions and classes defined in the sources defs
    (label -> text) that no caller source mentions outside their own
    definition, as "label: name"."""
    named = sum((mentions(ast.parse(source)) for source in callers), Counter())
    uncalled = []
    for label, source in defs.items():
        for node in ast.parse(source).body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, kinds) and not node.name.startswith("_"):
                if named[node.name] == mentions(node)[node.name]:
                    uncalled.append(f"{label}: {node.name}")
    return sorted(uncalled)


def test_uncalled_name_check_catches_one():
    source = "def f():\n    return f()\n\ndef g(): pass\n\nclass C: pass\n\ndef _h(): pass\n"
    callers = [source, "from m import C\nx = m.g\n"]
    assert uncalled_names({"m.py": source}, callers) == ["m.py: f"]


def test_every_public_name_has_a_caller():
    # A public function that only tests call belongs in tests/conftest.py.
    defs = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert uncalled_names(defs, callers) == []


def constructor_bypasses(source: str) -> list[int]:
    """Lines that could make a labeling without HubLabeling.__init__: a
    mention of __new__, or of object.__setattr__, which fills the slots of an
    instance __new__ made."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and (node.attr == "__new__" or ast.unparse(node) == "object.__setattr__")
    )


def test_constructor_bypass_check_catches_one():
    source = (
        "class HubLabeling:\n"
        "    @classmethod\n"
        "    def from_blocks(cls):\n"
        "        return cls([], [], [])\n"
        "a = HubLabeling([1], [0], [0])\n"
        "b = HubLabeling.__new__(HubLabeling)\n"
        "object.__setattr__(b, 'n', 1)\n"
        "a.__setattr__('n', 1)\n"
    )
    assert constructor_bypasses(source) == [6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_labelings_are_built_through_the_constructor(path):
    # HubLabeling.__init__ is the one way to make a labeling.
    assert constructor_bypasses(path.read_text(encoding="utf-8")) == []

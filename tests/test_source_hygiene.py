"""What a move of helpers between modules leaves behind, read with ``ast``.

For each ``src/weilcalc`` module other than ``__init__``: every name it
imports is used in it, every private module-level function it defines is
referenced somewhere in ``src`` outside its own definition, and every
public module-level function and class is referenced outside its own
definition from ``src``, ``tests`` or ``perfbench``. A re-export in
``__init__`` is not a use; a string equal to the name is, because the
benchmark's tracer names its targets by string. The packed monomial layout
(``_BITS``, ``_MASK``, ``_pack``, ``_unpack``) is read only in ``polyring``:
no other module of ``src`` or ``perfbench`` imports or reaches for it;
tests may, to decode keys. Likewise the End(V) index layout
E^b_c <-> (b - 1) m + c is encoded and decoded only in ``algebroid``, by
``end_index`` and ``end_entry``, and the retired second spelling of
End(V)-valued forms names nothing in ``src``, ``tests`` or ``perfbench``.
No module of ``src`` memoizes through a
``functools.lru_cache`` or ``functools.cache`` decorator or rebinds a
module global with a ``global`` statement, and no method of a ``src`` class
other than ``__init__`` assigns to an attribute or an item of its instance:
an object's derived tables (``delta_tables``, ``ARep.endo``,
``IdealBundle.fibre``, ...) are built by its constructor. The one lazy memo
is ``AlgebroidPresentation.frame_memo``, whose entries depend on the
(p, q, rep) that a solve asks for.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weilcalc"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")
USERS = [ast.parse(path.read_text(), filename=str(path))
         for folder in ("tests", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]


def _references(node, skip=None, strings=False):
    """The identifiers that node reads: names, attribute names and the
    names imported from other modules, with ``strings`` also every string
    constant; nothing inside ``skip``."""
    out, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported(tree)) - used) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_function_is_referenced(module):
    private = [node for node in TREES[module].body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.startswith("__")]
    elsewhere = set().union(*(_references(tree) for name, tree in TREES.items()
                              if name != module))
    orphans = [fn.name for fn in private if fn.name not in elsewhere
               and fn.name not in _references(TREES[module], skip=fn)]
    assert orphans == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_is_referenced(module):
    public = [node for node in TREES[module].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    elsewhere = set().union(*(_references(tree, strings=True) for name, tree in TREES.items()
                              if name not in (module, "__init__.py")),
                            *(_references(tree, strings=True) for tree in USERS))
    orphans = [node.name for node in public if node.name not in elsewhere
               and node.name not in _references(TREES[module], skip=node, strings=True)]
    assert orphans == []


_LAYOUT = {"_BITS", "_MASK", "_pack", "_unpack"}


def _layout_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.name in _LAYOUT)
        elif isinstance(node, ast.Attribute) and node.attr in _LAYOUT:
            yield node.attr


def test_only_polyring_reads_the_packed_layout():
    # other modules get monomial keys and their width from
    # polyring.key_layout and only add them
    trees = {f"src/weilcalc/{name}": tree for name, tree in TREES.items() if name != "polyring.py"}
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        trees[str(path.relative_to(ROOT))] = ast.parse(path.read_text(), filename=str(path))
    assert sorted((where, name) for where, tree in trees.items()
                  for name in _layout_reads(tree)) == []


def _is_minus_one(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def _is_scaled_minus_one(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_is_minus_one(node.left) or _is_minus_one(node.right)))


def _end_layout_arithmetic(tree):
    """The spots that encode (b - 1) * m + c or decode divmod(f - 1, m),
    (f - 1) // m or (f - 1) % m: the arithmetic of the End(V) index layout."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and (
                isinstance(node.op, ast.Add)
                and (_is_scaled_minus_one(node.left) or _is_scaled_minus_one(node.right))
                or isinstance(node.op, (ast.FloorDiv, ast.Mod)) and _is_minus_one(node.left)):
            yield f"{ast.unparse(node)} (line {node.lineno})"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod" \
                and node.args and _is_minus_one(node.args[0]):
            yield f"{ast.unparse(node)} (line {node.lineno})"


def test_only_algebroid_does_end_layout_arithmetic():
    # everyone else goes through algebroid.end_index and end_entry
    assert sorted((name, spot) for name, tree in TREES.items() if name != "algebroid.py"
                  for spot in _end_layout_arithmetic(tree)) == []
    owners = [node.name for node in TREES["algebroid.py"].body
              if isinstance(node, ast.FunctionDef) and any(_end_layout_arithmetic(node))]
    assert owners == ["end_index", "end_entry"]


def test_end_layout_finder_sees_each_spelling():
    source = """
f = (b - 1) * m + c
f = c + m * (b - 1)
b, c = divmod(f - 1, m)
b = (f - 1) // m
c = (f - 1) % m
keep = (a - 1, p.diff(a - 1), 2 * (a + 1), divmod(v, f), range(_BITS * (nvars - 1), -1))
"""
    assert [spot.rsplit(" (line", 1)[0] for spot in _end_layout_arithmetic(ast.parse(source))] == [
        "(b - 1) * m + c", "c + m * (b - 1)", "divmod(f - 1, m)", "(f - 1) // m",
        "(f - 1) % m"]


# the retired spelling of End(V)-valued forms, assembled so that a text
# search of the tree finds it nowhere, this test included
_RETIRED = {"End" + "Form", "to" + "_flat", "from" + "_flat"}


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name for alias in node.names)


def test_no_second_spelling_of_end_valued_forms_is_left():
    found = {name for tree in [*TREES.values(), *USERS] for name in _identifiers(tree)}
    assert sorted(found & _RETIRED) == []


_CACHES = {"lru_cache", "cache"}


def _module_memos(tree):
    """The functools cache decorators and ``global`` statements of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield f"global {', '.join(node.names)} (line {node.lineno})"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if name in _CACHES:
                    yield f"@{name} on {node.name} (line {node.lineno})"


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_level_memo(module):
    assert list(_module_memos(TREES[module])) == []


def test_module_memo_finder_sees_each_spelling():
    source = """
import functools
from functools import cache, lru_cache

@functools.lru_cache(maxsize=None)
def a(): pass

@lru_cache
def b(): pass

@functools.cache
def c(): pass

@cache
def d(): pass

def e():
    global COUNT
"""
    assert [found.split(" (")[0] for found in _module_memos(ast.parse(source))] == [
        "@lru_cache on a", "@lru_cache on b", "@cache on c", "@cache on d", "global COUNT"]


# the one memo filled after construction: the solver's frame columns
# depend on the (p, q, rep) that a solve asks for
_LAZY = {("AlgebroidPresentation", "frame_memo")}


def _root(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return getattr(node, "id", None)


def _state_writes(tree):
    """The assignments to an attribute or an item of the instance (or the
    class) in a method other than ``__init__``, as "Class.method: target"."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name == "__init__" or (cls.name, fn.name) in _LAZY:
                continue
            params = fn.args.posonlyargs + fn.args.args
            for node in ast.walk(fn):
                if isinstance(node, (ast.Attribute, ast.Subscript)) \
                        and isinstance(node.ctx, (ast.Store, ast.Del)) \
                        and params and _root(node) == params[0].arg:
                    yield f"{cls.name}.{fn.name}: {ast.unparse(node)} (line {node.lineno})"


@pytest.mark.parametrize("module", sorted(TREES))
def test_objects_are_complete_when_built(module):
    assert list(_state_writes(TREES[module])) == []


def test_state_write_finder_sees_each_spelling():
    source = """
class A:
    def __init__(self):
        self.x = {}

    def a(self):
        self.x = 2

    def b(self, i):
        self._memo[i] = 2

    def c(self):
        self.n += 1

    def d(self):
        self.p, q = 1, 2

    def e(this):
        this.table.rows[0] = 1

    @classmethod
    def f(cls):
        cls.count = 0

    def g(self):
        del self.x[1]

    def keep(self, other):
        other.x = self.y
        x = self.z[1]
        out = self.copy()
        out.rows[x] = 1

    @staticmethod
    def h():
        pass


class AlgebroidPresentation:
    def frame_memo(self, key):
        self._frame_memo[key] = 2
"""
    assert [found.split(" (")[0] for found in _state_writes(ast.parse(source))] == [
        "A.a: self.x", "A.b: self._memo[i]", "A.c: self.n", "A.d: self.p",
        "A.e: this.table.rows[0]", "A.f: cls.count", "A.g: self.x[1]"]

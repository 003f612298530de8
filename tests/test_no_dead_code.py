"""Guard against library code that nothing in the package reaches.

Every module-level function, class and UPPER_CASE constant of src/modvar,
private ones included, every public method and property of a module-level
class, and every public field such a class sets as ``self.NAME = ...`` or
declares as an annotated class attribute (a dataclass field) must be read
somewhere in the package outside its own definition, or be listed below
with the reason it stays.  Only loads count.  A member counts as read only through an
attribute (``obj.NAME``), so a local variable of the same name does not
hide it; attribute chains rooted at a module imported from outside the
package (``np.add.at``) name nothing of the package.

Every defaulted parameter of a public function or method (``__init__`` as
the class) must likewise be passed by some package call, by keyword or by
position, or be listed below; a call is matched by the callee's name, and
one with ``*args`` or ``**kwargs`` counts as passing everything.  Plain ast
scans, so they cost milliseconds.
"""

import ast
import pathlib
import time
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "modvar"

_ANGLE = ("harness runs the default angles; tests build orbits at dyadic "
          "angles and from raw 120-bit integers for the exact orbit oracles")

# name (Class.member for methods and fields; name(param), Class(param) or
# Class.method(param) for a parameter) -> why it stays although no package
# code names or passes it
ALLOWED = {
    "default_config": "perfbench/run.py builds its configs with it",
    "obs_const": "tests of ww_scan's orbit averages use the constant "
                 "observable",
    "jump_count": "the public jump count; jump_variation_check runs its "
                  "core _jumps (the variation DP on links 1 or -inf) on the "
                  "gap matrix it shares with the r-variation, and the "
                  "DFS-oracle tests check that core through jump_count",
    "main(argv)": "tests and perfbench/run.py call cli.main with an "
                  "argument list; the console script passes none",
    "build_chaining_cover(resolution)": "tests build covers at coarse "
                                        "resolutions so the loop oracle, "
                                        "the two-point case and the "
                                        "4096-long memory case stay small",
    "torus_dist(y)": "tests measure distances between two phases",
    "obs_const(c)": "tests use constant observables other than 1",
    "CircleRotation(alpha)": _ANGLE,
    "CircleRotation(scaled)": _ANGLE,
    "SkewProduct(alpha)": _ANGLE,
    "SkewProduct(scaled)": _ANGLE,
}


def _foreign_roots(tree):
    """Names that absolute imports bind, such as np for numpy."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.update(a.asname or a.name for a in node.names)
    return roots


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _names(tree, foreign=frozenset()):
    """The identifiers that expressions under tree read, as a pair of
    counters: bare names, and attributes (except those of chains rooted at
    a name in foreign)."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and _root(node) not in foreign):
            attrs[node.attr] += 1
    return names, attrs


def _reads(counts, name, member):
    """Reads of name in a _names pair: attribute reads only for a member,
    bare names too for a module-level definition."""
    names, attrs = counts
    return attrs[name] + (0 if member else names[name])


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(key, name, member, node) of each top-level function, class and
    UPPER_CASE constant, public or private, and of each public method,
    property, self.NAME field or annotated class field of a top-level
    class; members are keyed Class.member."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False, node
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    yield t.id, t.id, False, node
        if isinstance(node, ast.ClassDef):
            fields = {}
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield node.name + "." + item.name, item.name, True, item
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and _public(item.target.id)):
                    fields.setdefault(item.target.id, item)
                for sub in ast.walk(item):
                    if isinstance(sub, ast.Assign):
                        for t in sub.targets:
                            if (isinstance(t, ast.Attribute)
                                    and _root(t) == "self"
                                    and isinstance(t.value, ast.Name)
                                    and _public(t.attr)):
                                fields.setdefault(t.attr, sub)
            for name, sub in fields.items():
                yield node.name + "." + name, name, True, sub


def _unreached(sources=None):
    """Definitions whose name is read nowhere outside themselves.

    sources: (file name, text) pairs, the package files by default.  A name
    is matched, not a binding, so a method counts as reached when anything
    in the package reads an attribute of that name.
    """
    if sources is None:
        sources = [(p.name, p.read_text())
                   for p in sorted(PACKAGE.glob("*.py"))]
    defined = []   # (key, name, member, where, reads of name inside itself)
    names, attrs = Counter(), Counter()
    for fname, text in sources:
        tree = ast.parse(text, filename=fname)
        foreign = _foreign_roots(tree)
        file_names, file_attrs = _names(tree, foreign)
        names += file_names
        attrs += file_attrs
        for key, name, member, node in _definitions(tree):
            defined.append((key, name, member,
                            "%s:%d" % (fname, node.lineno),
                            _reads(_names(node, foreign), name, member)))
    inside = Counter()
    for _key, name, member, _where, uses in defined:
        inside[name, member] += uses
    return {key: where for key, name, member, where, _uses in defined
            if _reads((names, attrs), name, member) == inside[name, member]}


def _callee(node):
    """The name a call is matched by: f(...) and obj.f(...) give f."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _constructor(cls, classes):
    """The __init__ of a class: its own, or else the one it inherits from a
    private base among classes (the top-level classes of its module)."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return item
    for base in cls.bases:
        if (isinstance(base, ast.Name) and not _public(base.id)
                and base.id in classes):
            found = _constructor(classes[base.id], classes)
            if found is not None:
                return found
    return None


def _defaulted(tree):
    """(key, callee name, parameter, position or None, where) of each
    defaulted parameter of a public top-level function or public method or
    constructor of a top-level class (an __init__ inherited from a private
    base counts as the public class's own); position counts the arguments a
    call writes (no self), None for a keyword-only parameter."""
    def params(fn, key, callee, skip):
        args = fn.args
        pos = (args.posonlyargs + args.args)[skip:]
        first = len(pos) - len(args.defaults)
        for k, a in enumerate(pos[first:], start=first):
            yield key + "(%s)" % a.arg, callee, a.arg, k, fn.lineno
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield key + "(%s)" % a.arg, callee, a.arg, None, fn.lineno

    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            yield from params(node, node.name, node.name, 0)
        if isinstance(node, ast.ClassDef) and _public(node.name):
            init = _constructor(node, classes)
            if init is not None:
                yield from params(init, node.name, node.name, 1)
            for item in node.body:
                if not (isinstance(item, ast.FunctionDef)
                        and _public(item.name)):
                    continue
                static = any(isinstance(d, ast.Name)
                             and d.id == "staticmethod"
                             for d in item.decorator_list)
                yield from params(item, node.name + "." + item.name,
                                  item.name, 0 if static else 1)


def _unpassed(sources=None):
    """Defaulted public parameters that no package call passes."""
    if sources is None:
        sources = [(p.name, p.read_text())
                   for p in sorted(PACKAGE.glob("*.py"))]
    trees = [(fname, ast.parse(text, filename=fname))
             for fname, text in sources]
    passed = set()      # (callee, keyword) and (callee, position) pairs
    for _fname, tree in trees:
        for node in ast.walk(tree):
            name = _callee(node) if isinstance(node, ast.Call) else None
            if name is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed.add((name, "*"))
            passed.update((name, k) for k in range(len(node.args)))
            passed.update((name, k.arg) for k in node.keywords)
    return {key: "%s:%d" % (fname, line)
            for fname, tree in trees
            for key, callee, param, pos, line in _defaulted(tree)
            if not {(callee, "*"), (callee, param), (callee, pos)} & passed}


def test_every_defaulted_parameter_is_passed():
    t0 = time.perf_counter()
    unpassed = _unpassed()
    assert time.perf_counter() - t0 < 1.0
    unexplained = sorted("%s (%s)" % (key, where)
                         for key, where in unpassed.items()
                         if key not in ALLOWED)
    assert unexplained == []


def test_every_public_definition_is_reached():
    t0 = time.perf_counter()
    dead = _unreached()
    assert time.perf_counter() - t0 < 1.0
    unexplained = sorted("%s (%s)" % (name, where)
                         for name, where in dead.items()
                         if name not in ALLOWED)
    assert unexplained == []


def test_allowlist_names_only_unreached_definitions():
    # an entry whose object is gone or now reached must leave the list
    assert set(ALLOWED) <= set(_unreached()) | set(_unpassed())


# one planted dead definition per kind the guard must see
_PLANTED = {
    # np.add.at reads numpy's at, not the method
    "Signal.at": "import numpy as np\n\n\nclass Signal:\n"
                 "    def at(self, n):\n        return n\n\n\n"
                 "np.add.at(np.zeros(2), [0], 1.0)\nSignal()\n",
    # a constant that is only assigned
    "TWO_PI": "TWO_PI = 6.28\nSCALE = 2\nprint(SCALE)\n",
    # a field that is only stored; h is read
    "Bump.grid": "class Bump:\n    def __init__(self, h):\n"
                 "        self.h = h\n        self.grid = [h]\n\n\n"
                 "print(Bump(1).h)\n",
    # a field whose name is read only as a local variable
    "Kernel.scale": "class Kernel:\n    def __init__(self, scale):\n"
                    "        self.scale = scale\n\n\n"
                    "def widths(scale):\n    return [scale]\n\n\n"
                    "print(widths(2), Kernel(1))\n",
    # a dataclass field that is only set; levels is read
    "Cover.diameter": "from dataclasses import dataclass\n\n\n"
                      "@dataclass\nclass Cover:\n    levels: dict\n"
                      "    diameter: float\n\n\n"
                      "print(Cover({}, 0.0).levels)\n",
    # a private helper that nothing reads; _cached and _LIMIT are read
    "_helper": "_LIMIT = 4\n\n\ndef _helper(x):\n    return x\n\n\n"
               "def _cached(x):\n    return min(x, _LIMIT)\n\n\n"
               "print(_cached(9))\n",
    # a private constant that is only assigned
    "_SCALE": "_SCALE = 2\n_BASE = 3\nprint(_BASE)\n",
    # a defaulted parameter no call passes; tau is passed by keyword,
    # start by position
    "count(allowed)": "def count(seq, tau=1.0, start=0, allowed=None):\n"
                      "    return seq\n\n\n"
                      "print(count([1], tau=2.0), count([1], 1.0, 0))\n",
    # a defaulted parameter of a constructor inherited from a private base;
    # alpha is passed through the public class
    "Rotation(scaled)": "class _Angled:\n"
                        "    def __init__(self, alpha=None, scaled=None):\n"
                        "        self.alpha = alpha\n"
                        "        self.scaled = scaled\n\n\n"
                        "class Rotation(_Angled):\n    pass\n\n\n"
                        "print(Rotation(alpha=0.5).alpha, Rotation().scaled)\n",
}


@pytest.mark.parametrize("key", sorted(_PLANTED))
def test_guard_sees_planted_dead_code(key):
    planted = [("planted.py", _PLANTED[key])]
    assert set(_unreached(planted)) | set(_unpassed(planted)) == {key}

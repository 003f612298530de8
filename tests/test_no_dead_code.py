"""Guard against library code that nothing in the package reaches.

Every public module-level function and class of src/modvar, and every
public method and property of a module-level class, must be named somewhere
in the package outside its own definition, or be listed below with the
reason it stays.  A plain ast scan, so it costs milliseconds.
"""

import ast
import pathlib
import time
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "modvar"

# name (Class.method for methods) -> why it stays although no package code
# names it
ALLOWED = {
    "default_config": "perfbench/run.py builds its configs with it",
    "obs_const": "tests of orbit_average and ww_scan use the constant "
                 "observable",
    "jump_count": "the public jump count; jump_variation_check runs its "
                  "core _chain_dp on the gap matrix it shares with the "
                  "variation DP, and the DFS-oracle tests check that core "
                  "through jump_count",
    # Unit-tested references for objects of the paper that no experiment
    # runs yet; each goes, with its tests, when a later change drops it.
    "rough_average": "the plain Wiener-Wintner average (1/N) sum "
                     "e(P(n)) f(T^n omega); the resonance tests check "
                     "orbit_array and phase_range through it",
    "sample_transfer": "the transferred signal n -> f(T^n omega) that "
                       "carries integer-line bounds to a system",
    "maximal_hl_profile": "the centered Hardy-Littlewood maximal average "
                          "(maximal_hl) over a set of points",
    # Methods that only tests call.
    "ZShift.orbit_point": "the scalar orbit, the reference that the "
                          "orbit_array tests compare against",
    "CircleRotation.orbit_point": "the scalar orbit, the reference that the "
                                  "orbit_array tests compare against",
    "SkewProduct.orbit_point": "the scalar orbit, the reference that the "
                               "orbit_array tests compare against",
    "FreqPoint.arc_coprime": "gcd(A, Q) = 1, the condition that defines an "
                             "arc; tests check arc_pairs against it",
    "FreqPoint.joint_coprime": "gcd(A, B, Q) = 1, the reduced-frequency "
                               "condition of the Weyl-sum bounds, checked "
                               "by tests",
    "VecSequence.dist": "the l2 distance of two sequence elements; the "
                        "cover tests check net separation with it",
    "Signal.delta": "the unit point mass that the DFT and averaging tests "
                    "start from",
    "Poly.to_json": "the JSON form of a polynomial; its round-trip test "
                    "pairs it with from_json",
    "Poly.from_json": "reads Poly.to_json back; its round-trip test is the "
                      "only caller",
    "ChainingCover.to_json": "the JSON form of a cover's levels; its "
                             "round-trip test is the only caller",
}


def _names(tree):
    """Every identifier that an expression under tree refers to."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _definitions(tree):
    """(key, name, node) of each public top-level function and class, and
    of each public method or property of a top-level class; methods are
    keyed Class.method."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield node.name + "." + item.name, item.name, item


def _unreached():
    """Public definitions whose name appears nowhere outside themselves.

    A name is matched, not a binding, so a method counts as reached when
    anything in the package names an attribute of that name.
    """
    defined = []          # (key, name, where, uses of name inside itself)
    named = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named += _names(tree)
        for key, name, node in _definitions(tree):
            defined.append((key, name, "%s:%d" % (path.name, node.lineno),
                            _names(node)[name]))
    inside = Counter()
    for _key, name, _where, uses in defined:
        inside[name] += uses
    return {key: where for key, name, where, _uses in defined
            if named[name] == inside[name]}


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
    assert set(ALLOWED) <= set(_unreached())

"""Guard against library code that nothing in the package reaches.

Every public module-level function and class of src/modvar must be named
somewhere in the package outside its own definition, or be listed below
with the reason it stays.  A plain ast scan, so it costs milliseconds.
"""

import ast
import pathlib
import time
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "modvar"

# name -> why it stays although no package code names it
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


def _unreached():
    """Public top-level definitions named nowhere outside themselves."""
    defined = {}          # name -> (where, names inside its own definition)
    named = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named += _names(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = ("%s:%d" % (path.name, node.lineno),
                                      _names(node)[node.name])
    return {name: where for name, (where, inside) in defined.items()
            if named[name] == inside}


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

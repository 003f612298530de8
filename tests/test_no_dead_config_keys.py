"""Guard against config keys that no experiment reads.

Every key of harness.SCHEMAS[kind] must be read as a string literal, either
through ``cfg.get("key")`` in the runner harness._RUNNERS[kind] (nested
functions included) or through ``p["key"]`` in harness._check_cross.  A key
that nothing reads would be accepted and then ignored, so a config could set
it and change nothing.  A plain ast scan, so it costs milliseconds.
"""

import ast
import inspect
import time

from modvar import harness


def _literal_reads(func, obj, how):
    """The string literals that func reads as obj.get("key") (how="get")
    or obj["key"] (how="subscript")."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if how == "get" and isinstance(node, ast.Call):
            f, args = node.func, node.args
            if (isinstance(f, ast.Attribute) and f.attr == "get"
                    and isinstance(f.value, ast.Name) and f.value.id == obj
                    and args and isinstance(args[0], ast.Constant)):
                found.add(args[0].value)
        elif how == "subscript" and isinstance(node, ast.Subscript):
            if (isinstance(node.value, ast.Name) and node.value.id == obj
                    and isinstance(node.slice, ast.Constant)):
                found.add(node.slice.value)
    return found


def test_every_config_key_is_read():
    start = time.perf_counter()
    cross = _literal_reads(harness._check_cross, "p", "subscript")
    dead = {kind: sorted(set(schema) - cross - _literal_reads(
                harness._RUNNERS[kind], "cfg", "get"))
            for kind, schema in harness.SCHEMAS.items()}
    assert all(not keys for keys in dead.values()), dead
    assert set(harness._RUNNERS) == set(harness.SCHEMAS)
    assert time.perf_counter() - start < 1.0


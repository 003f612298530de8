"""Guard against BLAS reductions in the package.

OpenBLAS splits a long dot product across its threads, so a value summed
by BLAS may change in the last bits with the BLAS thread count, and an
output file with it.  np.linalg.norm without ``axis=`` hands its input to
BLAS dot, and so do np.dot, np.vdot, np.matmul, the ``.dot`` method and the
``@`` operator.  The scan fails on each of them in src/modvar: a whole-array
norm is signalkit.l2, and np.linalg.norm with an axis reduces in numpy.
A second scan refuses np.linalg.norm with an axis too: numpy contracts its
conj(x) * x with FMA from its X86_V3 dispatch up, so its bits depend on
the host.
Plain ast scans, so they cost milliseconds.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "modvar"

_BLAS_CALLS = {"dot", "vdot", "matmul"}


def _called(func):
    """The last name of a call's target: norm for np.linalg.norm."""
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _blas_reductions(source):
    """(line, what) of every BLAS reduction the source makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = _called(node.func)
            # norm(x, ord, axis): a third positional argument is the axis
            axis = (len(node.args) >= 3
                    or any(k.arg == "axis" for k in node.keywords))
            if name in _BLAS_CALLS or name == "norm" and not axis:
                found.append((node.lineno, name))
    return found


def _norm_calls(source):
    """The lines of every norm call the source makes, axis or not."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called(node.func) == "norm"]


def test_package_calls_no_norm():
    found = {path.name: _norm_calls(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}, (
        "np.linalg.norm sums conj(x) * x, which numpy contracts with FMA "
        "from its X86_V3 dispatch up, so its bits depend on the host: take "
        "l2 gaps from variation._gaps and whole-array norms from signalkit.l2")


def test_norm_guard_sees_norm_with_an_axis():
    assert _norm_calls("np.linalg.norm(x, axis=-1)\n"
                       "from numpy.linalg import norm\n"
                       "norm(x, None, 1)\nl2(x)\n") == [1, 3]


def test_package_makes_no_blas_reduction():
    found = {path.name: _blas_reductions(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


@pytest.mark.parametrize("source", [
    "np.linalg.norm(x)",
    "np.linalg.norm(x, 2)",
    "float(np.linalg.norm(x - y)) / 2",
    "np.dot(a, b)",
    "np.vdot(a, b)",
    "np.matmul(a, b)",
    "a.dot(b)",
    "a @ b",
    "a @= b",
])
def test_guard_sees_planted_blas_reduction(source):
    assert _blas_reductions(source)


def test_guard_passes_numpy_reductions():
    assert _blas_reductions("np.linalg.norm(x, axis=-1)\n"
                            "np.linalg.norm(x, None, 1)\n"
                            "l2(x)\nnp.sum(x * x)\n") == []

"""No BLAS dot products in the solver and model modules.

A threaded OpenBLAS ``ddot`` on a 30k-element vector stalls for ~8 ms
per call in some processes (about 5 us in others), so long reductions
go through :func:`repro.mdp.kernels.dot` (see ``docs/performance.md``,
"BLAS-free reductions").  This test parses ``repro.mdp`` and
``repro.core`` and fails on ``np.dot``, ``np.vdot``, ``np.inner`` or a
``.dot(`` method call outside the allowlist below.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
BANNED_FUNCTIONS = {"dot", "vdot", "inner"}

#: ``(file, call target)`` pairs allowed to call ``.dot``: sparse
#: products, which never reach BLAS.
ALLOWED = {
    ("mdp/kernels.py", "self.stack.dot"),
    ("mdp/kernels.py", "kernel.stack[rows].dot"),
}


def blas_dot_calls():
    found = []
    for subpackage in ("mdp", "core"):
        for path in sorted((PACKAGE / subpackage).glob("*.py")):
            name = f"{subpackage}/{path.name}"
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                func = node.func
                numpy_call = (isinstance(func.value, ast.Name)
                              and func.value.id in ("np", "numpy")
                              and func.attr in BANNED_FUNCTIONS)
                if numpy_call or func.attr == "dot":
                    found.append((name, ast.unparse(func), node.lineno))
    return found


def test_no_blas_dot_outside_allowlist():
    offending = [f"{name}:{line}: {target}("
                 for name, target, line in blas_dot_calls()
                 if (name, target) not in ALLOWED]
    assert not offending, (
        "BLAS dot calls (use repro.mdp.kernels.dot): "
        + ", ".join(offending))


"""Source-layout rules: every transform in the package goes through one kernel."""

import ast
from pathlib import Path

import wienerlab

SRC = Path(wienerlab.__file__).parent
KERNEL = ("wiener.py", "QuotientKernel")


def _fft_uses(tree: ast.AST) -> list[int]:
    """Line numbers of every `<name>.fft` attribute and every import of numpy.fft."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module == "numpy.fft" or any(a.name == "fft" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.fft") for a in node.names):
                lines.append(node.lineno)
    return lines


def test_fft_only_inside_the_quotient_kernel():
    outside = []
    inside = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        span = None
        if path.name == KERNEL[0]:
            cls = next(
                n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == KERNEL[1]
            )
            span = (cls.lineno, cls.end_lineno)
        for line in _fft_uses(tree):
            if span and span[0] <= line <= span[1]:
                inside += 1
            else:
                outside.append(f"{path.name}:{line}")
    assert not outside, f"np.fft used outside {KERNEL[1]}: {outside}"
    assert inside > 0  # the rule is vacuous if the kernel stops using np.fft

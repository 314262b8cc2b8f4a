"""Source-layout rules: every transform in the package goes through one kernel,
and each numerical or validation rule below is written in one place."""

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


def _sites(matches) -> list[str]:
    """file:line of every node of the package's source for which `matches` holds."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if matches(node)
    ]


def _is_two(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def test_all_zero_filter_error_is_raised_at_one_site():
    def raises_it(node):
        call = node.exc if isinstance(node, ast.Raise) else None
        return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "UndefinedQuotientError"

    sites = _sites(raises_it)
    assert len(sites) == 1, sites


def test_full_lag_doubling_is_written_only_in_spectral():
    # `2 * n for n in extents`: a comprehension doubling its own variable
    def doubles(node):
        if not isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            return False
        elt, target = node.elt, node.generators[0].target
        return (
            isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Mult) and _is_two(elt.left)
            and isinstance(elt.right, ast.Name) and isinstance(target, ast.Name)
            and elt.right.id == target.id
        )

    sites = _sites(doubles)
    assert sites and all(site.startswith("spectral.py:") for site in sites), sites


def test_signal_pair_comparison_lives_only_in_spectral():
    def compares_channels(node):
        sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        return len(sides) == 2 and all(
            isinstance(side, ast.Attribute) and side.attr == "channels" for side in sides
        )

    sites = _sites(compares_channels)
    assert sites and all(site.startswith("spectral.py:") for site in sites), sites


def test_one_central_difference_loop():
    # (f(x + h) - f(x - h)) / (2 * h)
    def central_quotient(node):
        return (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
            and _is_two(node.right.left)
        )

    sites = _sites(central_quotient)
    assert len(sites) == 1, sites


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in its ``__all__``."""
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if "__all__" in targets:
            return set(ast.literal_eval(node.value))
    return set()


def test_every_module_function_is_used_or_exported():
    # a helper that only tests reach is a second path the program never takes
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = [
        (name, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    unused = [
        f"{name}:{fn.lineno} {fn.name}"
        for name, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and fn.name not in _exported(tree)
        and not any(
            ref == fn.name and not (where == name and fn.lineno <= line <= fn.end_lineno)
            for where, line, ref in references
        )
    ]
    assert not unused, unused

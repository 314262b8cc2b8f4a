"""Source-layout rules: every transform in the package goes through one kernel,
each numerical or validation rule below is written in one place, and the
verification harnesses in tests/oracles.py stay apart from the package."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import wienerlab

SRC = Path(wienerlab.__file__).parent
KERNEL = ("wiener.py", "QuotientKernel")
ORACLES = Path(__file__).with_name("oracles.py")


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


# np.fft call sites in the kernel's module; fewer is progress, so lower this
# when a site goes, and never raise it
FFT_CALL_SITES = 3


def test_fft_call_sites_do_not_grow():
    sites = _fft_uses(ast.parse((SRC / KERNEL[0]).read_text()))
    assert len(sites) <= FFT_CALL_SITES, sites


def test_one_forward_and_one_inverse_transform():
    # the kernel's one forward transform and one inverse (irfftn's complex
    # steps and its real one): a second, hand-rolled inverse has no site left
    called = collections.Counter(
        node.func.attr
        for node in ast.walk(ast.parse((SRC / KERNEL[0]).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "fft"
    )
    assert called == {"rfftn": 1, "ifft": 1, "irfftn": 1}, called


def _sites(matches, paths=None) -> list[str]:
    """file:line of every node of the package's source (or of `paths`) for
    which `matches` holds."""
    return [
        f"{path.name}:{node.lineno}"
        for path in (paths or sorted(SRC.glob("*.py")))
        for node in ast.walk(ast.parse(path.read_text()))
        if matches(node)
    ]


def _is_two(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def test_np_roll_is_called_only_in_lag_filter_from_raw():
    # windows are built in raw layout where their extents are known, so the
    # one layout conversion is centering a raw filter at the public boundary
    def rolls(node):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return getattr(func, "attr", None) == "roll" or getattr(func, "id", None) == "roll"

    sites = _sites(rolls)
    tree = ast.parse((SRC / "spectral.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LagFilter")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "from_raw")
    assert len(sites) == 1, sites
    path, line = sites[0].split(":")
    assert path == "spectral.py" and fn.lineno <= int(line) <= fn.end_lineno, sites


def test_ti_tile_budget_is_read_in_one_function():
    # every TI pass sizes its tiles or chunks through that one function
    readers = [
        f"{path.name}:{fn.lineno} {fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.Lambda))
        and any(
            isinstance(node, ast.Name) and node.id == "TI_CHUNK_ELEMENTS"
            and isinstance(node.ctx, ast.Load)
            for node in ast.walk(fn)
        )
    ]
    assert len(readers) == 1, readers


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
    # (f(x + h) - f(x - h)) / (2 * h): once, in the test-side harness, and
    # never in the package
    def central_quotient(node):
        return (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
            and _is_two(node.right.left)
        )

    in_package = _sites(central_quotient)
    assert not in_package, in_package
    sites = _sites(central_quotient, [ORACLES])
    assert len(sites) == 1, sites


def test_oracles_stay_independent_of_the_fast_path():
    # the dense oracle takes no FFT and nothing from the kernel's module, and
    # the package never reaches back into the harnesses
    tree = ast.parse(ORACLES.read_text())
    assert not _fft_uses(tree)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    assert not [m for m in imported if m.startswith("wienerlab.wiener")], imported
    mentions = [path.name for path in sorted(SRC.glob("*.py")) if "oracles" in path.read_text()]
    assert not mentions, mentions


def test_every_module_function_is_used_or_exported():
    # a helper that only tests reach is a second path the program never takes:
    # a function needs a reader in the package outside its own body, or a
    # place in the package's public list; a module's own __all__ is no excuse
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
        and fn.name not in wienerlab.__all__
        and not any(
            ref == fn.name and not (where == name and fn.lineno <= line <= fn.end_lineno)
            for where, line, ref in references
        )
    ]
    assert not unused, unused


def test_readme_library_section_names_the_public_list():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in wienerlab.__all__ if f"`{name}`" not in section]
    assert not missing, missing


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute read or written under `node`, imports included."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(a.name for a in sub.names)
    return found


def test_negative_seed_rule_is_written_once_and_every_seeded_entry_point_calls_it():
    def compares_seed_to_zero(node):
        return (
            isinstance(node, ast.Compare) and "seed" in _names(node.left)
            and any(isinstance(c, ast.Constant) and c.value == 0 for c in node.comparators)
        )

    sites = _sites(compares_seed_to_zero)
    assert len(sites) == 1 and sites[0].startswith("errors.py:"), sites

    # a function that turns a `seed` parameter into a NumPy generator checks it first
    unchecked, checked = [], []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            seeds_rng = any(
                isinstance(call, ast.Call)
                and getattr(call.func, "attr", None) in ("default_rng", "SeedSequence")
                and any(isinstance(arg, ast.Name) and arg.id in params for arg in call.args)
                for call in ast.walk(fn)
            )
            if seeds_rng:
                (checked if "check_seed" in _names(fn) else unchecked).append(f"{path.name} {fn.name}")
    assert not unchecked, unchecked
    assert len(checked) >= 5, checked  # datasets (2), knn, diffusion, trainer
    assert "check_seed" in _names(ast.parse((SRC / "config.py").read_text()))


def test_allocator_settings_live_in_one_cli_helper_reached_only_from_main():
    allocator = {"ctypes", "mallopt"}

    def mentions(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any(a.name in allocator for a in node.names)
        return getattr(node, "id", None) in allocator or getattr(node, "attr", None) in allocator

    sites = _sites(mentions)
    assert sites and all(site.startswith("cli.py:") for site in sites), sites
    tree = ast.parse((SRC / "cli.py").read_text())
    top = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
    users = [n for n in top if allocator & _names(n)]
    assert len(users) == 1 and isinstance(users[0], ast.FunctionDef), users
    helper = users[0].name
    callers = [
        n.name if isinstance(n, ast.FunctionDef) else f"line {n.lineno}"
        for n in top
        if helper in _names(n) and n is not users[0]
    ]
    assert callers == ["main"], callers


def test_run_skeleton_lives_in_one_cli_function():
    # only `_run` makes the run directory, echoes the config and writes the
    # report JSON, and it prints the summary line: no subcommand prints
    functions = [n for n in ast.parse((SRC / "cli.py").read_text()).body
                 if isinstance(n, ast.FunctionDef)]
    for name in ("_run_dir", "to_ini", "_write_json"):
        users = [fn.name for fn in functions if name in _names(fn)]
        assert users == ["_run"], (name, users)
    commands = [fn for fn in functions if fn.name.startswith("_cmd_")]
    assert len(commands) == 6, [fn.name for fn in commands]
    printing = [fn.name for fn in commands if "print" in _names(fn)]
    assert not printing, printing


def test_importing_the_package_leaves_the_allocator_alone():
    # a spy on every C library the process loads records any mallopt lookup;
    # calling the CLI's helper afterwards shows that the spy would see one
    code = """
import ctypes, os
calls = []
real = ctypes.CDLL
class Spy:
    def __init__(self, *args, **kwargs):
        self._lib = real(*args, **kwargs)
    def __getattr__(self, name):
        if name == "mallopt":
            calls.append(name)
        return getattr(self._lib, name)
ctypes.CDLL = Spy
import wienerlab, wienerlab.cli
print(len(calls))
try:
    glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
except (AttributeError, ValueError, OSError):
    glibc = False
wienerlab.cli._keep_heap()
print(len(calls), int(glibc))
"""
    env = {
        k: v for k, v in os.environ.items()
        if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "0"  # import: no lookup
    assert out[1] == out[2]  # the helper: one lookup on glibc, none elsewhere

"""Source-layout rules: every transform in the package goes through one kernel,
each numerical or validation rule below is written in one place, and the
verification harnesses in tests/oracles.py stay apart from the package."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wienerlab

SRC = Path(wienerlab.__file__).parent
KERNEL = ("wiener.py", "QuotientKernel")
ORACLES = Path(__file__).with_name("oracles.py")


def _fft_uses(tree: ast.AST) -> list[int]:
    """Line numbers of every `<name>.fft` attribute and every import of numpy.fft;
    `np.fft.fft` is one use, the function `fft` of `np.fft`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            if not (isinstance(node.value, ast.Attribute) and node.value.attr == "fft"):
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
# when a site goes. Raised from 3 to 4 once, when the forward transform was
# split into rfftn's own 1-D stages so that no padded axis goes through
# NumPy's per-line zero padding; never raise it again
FFT_CALL_SITES = 4


def test_fft_call_sites_do_not_grow():
    sites = _fft_uses(ast.parse((SRC / KERNEL[0]).read_text()))
    assert len(sites) <= FFT_CALL_SITES, sites


def test_one_forward_and_one_inverse_transform():
    # the kernel's one forward transform (rfftn's real step, then its complex
    # ones) and one inverse (irfftn's complex steps, then its real one), each
    # run as NumPy's 1-D calls, which skip the n-D wrappers' argument
    # handling: a second, hand-rolled transform has no site left
    called = collections.Counter(
        node.func.attr
        for node in ast.walk(ast.parse((SRC / KERNEL[0]).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "fft"
    )
    assert called == {"rfft": 1, "fft": 1, "ifft": 1, "irfft": 1}, called


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


def test_np_roll_is_called_only_in_spectral_centered():
    # windows are built in raw layout where their extents are known, so the
    # one layout conversion is centering a raw filter at the public boundary
    def rolls(node):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return getattr(func, "attr", None) == "roll" or getattr(func, "id", None) == "roll"

    sites = _sites(rolls)
    tree = ast.parse((SRC / "spectral.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "centered")
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


def test_padded_grid_is_derived_only_in_spectral_and_wiener():
    # `n // 2 + 1` (a half-spectrum extent) and `2 ** rank` (a full-lag
    # doubling of every extent) re-derive the kernel's grid; elsewhere it is
    # read from the kernel (`padded`, `half`, the bytes of K and L)
    def derives_grid(node):
        if not isinstance(node, ast.BinOp):
            return False
        half = (
            isinstance(node.op, ast.Add) and isinstance(node.right, ast.Constant)
            and node.right.value == 1 and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.FloorDiv) and _is_two(node.left.right)
        )
        doubling = (
            isinstance(node.op, ast.Pow) and _is_two(node.left)
            and not isinstance(node.right, ast.Constant)
        )
        return half or doubling

    sites = _sites(derives_grid)
    homes = ("spectral.py", "wiener.py")
    assert sites and all(site.split(":")[0] in homes for site in sites), sites


def test_signal_pair_comparison_lives_only_in_spectral():
    # a ShapeError raised when two arrays' shapes differ
    def compares_shapes(node):
        if not isinstance(node, ast.If) or "ShapeError" not in _names(node):
            return False
        return any(
            isinstance(cmp, ast.Compare) and len(cmp.comparators) == 1 and all(
                isinstance(side, ast.Attribute) and side.attr == "shape"
                for side in (cmp.left, cmp.comparators[0])
            )
            for cmp in ast.walk(node.test)
        )

    sites = _sites(compares_shapes)
    assert sites and all(site.startswith("spectral.py:") for site in sites), sites


def test_every_pairwise_function_checks_its_pair_through_as_pair():
    # a public function of two signals (two or more parameters, in wiener's or
    # metrics' __all__, the first not a QuotientKernel) calls spectral.as_pair
    # itself, or another such function that does: input checking stays in
    # one place
    calls, pairwise = {}, []
    for module in ("wiener", "metrics"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        public = next(
            ast.literal_eval(n.value) for n in tree.body
            if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "__all__"
        )
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                calls[fn.name] = {
                    getattr(c.func, "id", None) for c in ast.walk(fn) if isinstance(c, ast.Call)
                }
                first = fn.args.args[0].annotation if fn.args.args else None
                on_kernel = getattr(first, "id", None) == KERNEL[1]  # a step on a built kernel
                if fn.name in public and len(fn.args.args) >= 2 and not on_kernel:
                    pairwise.append(fn.name)
    assert len(pairwise) == 8, pairwise  # 3 in wiener, 5 in metrics

    def checks(name, seen=()):
        return "as_pair" in calls[name] or any(
            checks(other, seen + (name,))
            for other in calls[name] & set(pairwise) - set(seen) - {name}
        )

    unchecked = [name for name in pairwise if not checks(name)]
    assert not unchecked, unchecked


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
        and not (fn.name.startswith("__") and fn.name.endswith("__"))  # module hooks
        and not any(
            ref == fn.name and not (where == name and fn.lineno <= line <= fn.end_lineno)
            for where, line, ref in references
        )
    ]
    assert not unused, unused


def test_every_class_member_is_used():
    # as for module functions: a method or property needs an attribute
    # reference in the package outside its own body; dunders are hooks
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = [
        (name, node.lineno, node.attr)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unused = [
        f"{name}:{fn.lineno} {cls.name}.{fn.name}"
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and not any(
            ref == fn.name and not (where == name and fn.lineno <= line <= fn.end_lineno)
            for where, line, ref in references
        )
    ]
    assert not unused, unused


def test_nothing_is_imported_for_type_checking_only():
    # a module that needs another's names at run time imports them; a name
    # needed only in annotations means two modules split one object
    def mentions(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any(a.name == "TYPE_CHECKING" for a in node.names)
        return "TYPE_CHECKING" in (getattr(node, "id", None), getattr(node, "attr", None))

    sites = _sites(mentions)
    assert not sites, sites


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


def test_lambda_rule_is_written_once_and_every_quotient_kernel_applies_it_first():
    def bounds_lambda(node):  # a comparison of `lam` with 0 or with infinity
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        return any("lam" in _names(o) for o in operands) and any(
            (isinstance(o, ast.Constant) and o.value == 0) or "inf" in _names(o) for o in operands
        )

    sites = _sites(bounds_lambda)
    assert len(sites) == 1 and sites[0].startswith("wiener.py:"), sites
    rule = next(
        fn for fn in ast.parse((SRC / "wiener.py").read_text()).body
        if isinstance(fn, ast.FunctionDef) and fn.lineno <= int(sites[0].split(":")[1]) <= fn.end_lineno
    )
    assert rule.name == "check_lambda"

    # the kernel's first statement applies it, so no lambda reaches the quotient unchecked
    kernel = next(
        n for n in ast.parse((SRC / KERNEL[0]).read_text()).body
        if isinstance(n, ast.ClassDef) and n.name == KERNEL[1]
    )
    init = next(n for n in kernel.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    first = init.body[0]
    assert isinstance(first, ast.Expr) and isinstance(first.value, ast.Call), ast.dump(first)
    assert getattr(first.value.func, "id", None) == "check_lambda"
    assert [ast.unparse(a) for a in first.value.args] == ["lam"]

    # a class with a `lam` field (a `lam` key, or a `lam` parameter of its
    # constructor) checks it as it is built: the constructor (the class's
    # __init__ or a base's in its module) or a method that it calls on self
    # applies the rule, or builds the quotient kernel that applies it
    fields = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {c.name: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}

        def method(cls, name):  # the FunctionDef that `cls.name` resolves to in this module
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and f.name == name:
                    return f
            for b in cls.bases:
                if getattr(b, "id", None) in classes and (found := method(classes[b.id], name)):
                    return found
            return None

        for cls in classes.values():
            keys = {getattr(f.target, "id", None) for f in cls.body if isinstance(f, ast.AnnAssign)}
            init = method(cls, "__init__")
            built = []
            if init:
                keys |= {a.arg for a in init.args.args}
                on_self = [
                    c.func.attr for c in ast.walk(init) if isinstance(c, ast.Call)
                    and getattr(getattr(c.func, "value", None), "id", None) == "self"
                ]
                built = [init, *filter(None, (method(cls, name) for name in on_self))]
            if "lam" in keys:
                run = set().union(*map(_names, built))
                fields.append((f"{path.name} {cls.name}", bool({"check_lambda", "QuotientKernel"} & run)))
    assert {name for name, _ in fields} >= {
        "config.py WienerSection", "diffusion.py EnergyModel"
    }, fields
    assert all(checked for _, checked in fields), fields


def test_the_optimizer_settings_have_one_record():
    # the [train] section is what the trainer reads: no second class declares
    # these keys, as annotated class attributes or constructor parameters
    keys = {"batch_size", "learning_rate", "beta1", "beta2", "eps"}
    declaring = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            declared = set()
            for f in cls.body:
                if isinstance(f, ast.AnnAssign):
                    declared.add(getattr(f.target, "id", None))
                elif isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    declared |= {a.arg for a in f.args.args + f.args.kwonlyargs}
            if declared & keys:
                declaring.append((f"{path.name} {cls.name}", keys <= declared))
    assert declaring == [("config.py TrainSection", True)], declaring


def test_config_imports_nothing_from_the_trainer():
    # the trainer reads the section; the section needs nothing of the trainer
    imported = []
    for node in ast.walk(ast.parse((SRC / "config.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert not [name for name in imported if "trainer" in name.split(".")], imported


def test_no_class_is_generated_at_import():
    # dataclass processing and namedtuple code generation run on every import:
    # each class is a plain class statement
    generators = {"dataclasses", "dataclass", "namedtuple", "NamedTuple"}

    def generates(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {getattr(node, "module", None) or ""} | {a.name for a in node.names}
            return bool({name.split(".")[0] for name in names} & generators)
        return bool({getattr(node, "id", None), getattr(node, "attr", None)} & generators)

    assert not _sites(generates), _sites(generates)


def test_nothing_tunes_the_c_allocator():
    # buffers are reused by the loops that need them, not by a process-wide
    # allocator setting, so the library and the CLI run alike
    allocator = {"ctypes", "mallopt"}

    def mentions(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {getattr(node, "module", None) or ""} | {a.name for a in node.names}
            return any(name.split(".")[0] in allocator for name in names)
        return getattr(node, "id", None) in allocator or getattr(node, "attr", None) in allocator

    assert not _sites(mentions), _sites(mentions)


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


def test_package_init_imports_none_of_its_modules():
    # each public name is imported on first access, so the package loads no NumPy
    tree = ast.parse((SRC / "__init__.py").read_text())
    relative = [n.lineno for n in tree.body if isinstance(n, ast.ImportFrom) and n.level]
    assert not relative, relative


def _fresh_python(code: str, **env_vars: str) -> list[str]:
    """stdout lines of `code` in a new interpreter whose environment holds no
    thread variable but `env_vars`."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(env_vars, PYTHONPATH=os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


THREAD_ENV = """
import os, sys
def threads():
    return sorted(f"{k}={v}" for k, v in os.environ.items() if k.endswith("_NUM_THREADS"))
"""


def test_importing_the_package_loads_no_numpy_and_sets_no_thread_variable():
    out = _fresh_python(THREAD_ENV + "import wienerlab\nprint('numpy' in sys.modules, threads())")
    assert out == ["False []"]


def test_importing_the_cli_caps_blas_at_one_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    code = THREAD_ENV + "import wienerlab.cli\nprint(len(os.listdir('/proc/self/task')), threads())"
    capped = ["MKL_NUM_THREADS=1", "OMP_NUM_THREADS=1", "OPENBLAS_NUM_THREADS=1"]
    assert _fresh_python(code) == [f"1 {capped}"]


@pytest.mark.parametrize(
    "key, value",
    [("OPENBLAS_NUM_THREADS", "2"), ("OMP_NUM_THREADS", "3"), ("GOTO_NUM_THREADS", "2")],
)
def test_a_thread_variable_the_user_set_leaves_the_environment_alone(key, value):
    out = _fresh_python(THREAD_ENV + "import wienerlab.cli\nprint(threads())", **{key: value})
    assert out == [str([f"{key}={value}"])]


def test_importing_numpy_first_leaves_the_environment_alone():
    out = _fresh_python(THREAD_ENV + "import numpy, wienerlab.cli\nprint(threads())")
    assert out == ["[]"]


def test_importing_the_cli_loads_neither_gzip_nor_dataclasses():
    # gzip is imported by the one branch that reads a .gz file; a module that
    # NumPy loads itself would be no cost of the package
    code = """
import sys
import numpy
before = set(sys.modules)
import wienerlab.cli
print(sorted({"gzip", "dataclasses"} & (set(sys.modules) - before)))
"""
    assert _fresh_python(code) == ["[]"]


def test_every_public_name_resolves_lazily():
    code = """
import importlib, wienerlab
print(len(wienerlab.__all__), set(wienerlab.__all__) <= set(dir(wienerlab)))
names = [n for n in wienerlab.__all__ if n != "__version__"]
star = {}
exec("from wienerlab import *", star)
homes = {n: getattr(importlib.import_module(f"wienerlab.{wienerlab._HOMES[n]}"), n) for n in names}
print(all(getattr(wienerlab, n) is homes[n] is star[n] for n in names), star["__version__"])
try:
    wienerlab.nope
except AttributeError as exc:
    print(exc)
"""
    assert _fresh_python(code) == [
        "17 True", f"True {wienerlab.__version__}", "module 'wienerlab' has no attribute 'nope'"
    ]

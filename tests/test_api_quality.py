"""API quality gates: documentation and export hygiene for every package,
and a guard that every module is reached from a system entry point."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.bench.experiments import ALL_EXPERIMENTS

PACKAGES = [
    "repro",
    "repro.service",
    "repro.obs",
    "repro.resilience",
    "repro.circuit",
    "repro.dd",
    "repro.ell",
    "repro.fusion",
    "repro.gpu",
    "repro.sim",
    "repro.bench",
    "repro.verify",
    "repro.testing",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.walk_packages(package.__path__, package_name + "."):
            yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    undocumented = [m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()]
    assert not undocumented, undocumented


def test_every_public_symbol_in_all_exists():
    broken = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            if not hasattr(package, name):
                broken.append(f"{package_name}.{name}")
    assert not broken, broken


def test_public_functions_and_classes_are_documented():
    undocumented = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (inspect.getdoc(obj) or "").strip():
                    undocumented.append(f"{package_name}.{name}")
    assert not undocumented, undocumented


def test_all_lists_are_sorted_for_readability():
    unsorted = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        exported = list(getattr(package, "__all__", []))
        if exported != sorted(exported, key=str.lower):
            unsorted.append(package_name)
    assert not unsorted, unsorted


#: the re-exported user-facing API: every class/function here must carry a
#: one-paragraph docstring *with a usage example* (a ``::`` literal block
#: or a doctest) — enforced so the docs suite can point at `help()` safely
EXAMPLE_REQUIRED_PACKAGES = ["repro", "repro.service"]


def test_reexported_api_docstrings_include_examples():
    missing = []
    for package_name in EXAMPLE_REQUIRED_PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            doc = inspect.getdoc(obj) or ""
            if not doc.strip():
                missing.append(f"{package_name}.{name} (no docstring)")
            elif ">>>" not in doc and "::" not in doc:
                missing.append(f"{package_name}.{name} (no example)")
    assert not missing, missing


def test_package_version():
    assert repro.__version__


SRC = Path(repro.__file__).resolve().parent

#: modules no system path calls that stay on purpose: the dense reference
#: every simulator test compares against, and the mutation operators and
#: fuzzer that the cross-path differential oracle grows from
UNREACHED_BY_DESIGN = {
    "repro.sim.statevector",
    "repro.testing.fuzzer",
    "repro.testing.mutations",
}


def _source_modules() -> dict[str, Path]:
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def test_every_module_is_reached_from_a_system_entry_point():
    """Walk static imports (function-level ones too) from the CLI, the
    bench CLI and every paper experiment.  A name imported through a
    package ``__init__`` counts for the module that defines it; the
    ``__init__`` re-exports themselves call nothing."""
    modules = _source_modules()
    packages = {m for m, path in modules.items() if path.name == "__init__.py"}

    def imports(module):
        """(imported module, imported names) for every import statement."""
        package = module if module in packages else module.rpartition(".")[0]
        for node in ast.walk(ast.parse(modules[module].read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, ()
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.rsplit(".", node.level - 1)[0]
                    base = f"{anchor}.{base}" if base else anchor
                yield base, tuple(alias.name for alias in node.names)

    def defining_module(module, name):
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if module in packages:
            for base, names in imports(module):
                if name in names:
                    return defining_module(base, name)
        return module

    roots = ["repro.__main__", "repro.bench.__main__"]
    roots += [experiment.__name__ for experiment in ALL_EXPERIMENTS.values()]
    reached, todo = set(), roots
    while todo:
        module = todo.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        if module in packages:
            continue
        for base, names in imports(module):
            todo += [defining_module(base, n) for n in names] if names else [base]
    unreached = set(modules) - packages - reached
    assert unreached == UNREACHED_BY_DESIGN, sorted(
        unreached ^ UNREACHED_BY_DESIGN
    )

"""Package-wide checks: exported names and their callers, worker counts,
pool sizing, no asserts, no imports inside functions."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil

import pytest

import sumfree
from sumfree import applications, search_oracle, special_sets
from sumfree._parallel import _pool_size, shard_ranges
from sumfree.applications import ProcessConfig, simulate_random_sumfree
from sumfree.errors import ParameterError
from sumfree.search_oracle import (
    characterization_probe,
    exhaustive_scsf,
    verify_st_equivalence,
)
from sumfree.special_sets import enumerate_special

MODULES = [
    module
    for module in [sumfree] + [
        importlib.import_module(f"sumfree.{info.name}")
        for info in pkgutil.iter_modules(sumfree.__path__)
        if info.name != "__main__"
    ]
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a name left in __all__ after its definition is deleted breaks
    # `from sumfree... import *` and anything that walks __all__
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


def test_pool_size_is_capped_by_cpus_and_shards():
    # computed only: a pool of this size is never started
    cpus = _pool_size(10**9, 10**9)
    assert 1 <= cpus <= (os.cpu_count() or 1)
    assert _pool_size(10**9, 3) == min(3, cpus)
    assert _pool_size(1, 10**9) == 1
    assert _pool_size(0, 5) == 0


@pytest.mark.parametrize("total", [1, 2, 63, 64, 65, 200, 4**12, 10**9 + 7])
def test_shard_ranges_cut_the_input_into_at_most_64_blocks(total):
    blocks = shard_ranges(total)
    assert 1 <= len(blocks) <= 64
    assert blocks[0].start == 0 and blocks[-1].stop == total
    assert all(len(block) > 0 for block in blocks)
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


# each sharded entry point, with the modules whose run_sharded it calls
SHARDED_CALLS = {
    "enumerate_special": ((special_sets,), lambda w: enumerate_special(8, workers=w)),
    "exhaustive_scsf": ((search_oracle,), lambda w: exhaustive_scsf(30, workers=w)),
    # t = 4: the special windows, then the S_T over the window orbits
    "verify_st_equivalence": (
        (search_oracle, special_sets),
        lambda w: verify_st_equivalence(61, 18, workers=w),
    ),
    "simulate_random_sumfree": (
        (applications,),
        lambda w: simulate_random_sumfree(
            ProcessConfig(horizon=20, trials=200, seed=1), workers=w
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SHARDED_CALLS))
def test_shards_depend_on_the_input_not_the_worker_count(monkeypatch, name):
    # the recorder runs every shard in-process, so no worker process starts
    modules, call = SHARDED_CALLS[name]
    recorded = []

    def recorder(fn, shards, workers):
        recorded.append(list(shards))
        return [fn(*args) for args in shards]

    for module in modules:
        monkeypatch.setattr(module, "run_sharded", recorder)
    reports = [call(workers) for workers in (1, 2, 10**9)]
    # one shard list per search, for each of the three calls
    searches = len(modules)
    assert len(recorded) == 3 * searches
    per_call = [recorded[i:i + searches] for i in range(0, len(recorded), searches)]
    assert per_call[0] == per_call[1] == per_call[2]
    assert all(1 < len(shards) <= 64 for shards in recorded)
    assert reports[0] == reports[1] == reports[2]


# one small valid call per public function that takes `workers`
WORKER_CALLS = {
    "enumerate_special": lambda w: enumerate_special(3, workers=w),
    "exhaustive_scsf": lambda w: exhaustive_scsf(16, workers=w),
    "characterization_probe": lambda w: characterization_probe(11, 3, workers=w),
    "verify_st_equivalence": lambda w: verify_st_equivalence(61, 18, workers=w),
    "simulate_random_sumfree": lambda w: simulate_random_sumfree(
        ProcessConfig(horizon=10, trials=2, seed=1), workers=w
    ),
}


def test_worker_calls_cover_every_public_function_with_workers():
    takes_workers = {
        name
        for module in MODULES
        for name in module.__all__
        if callable(obj := getattr(module, name))
        and not inspect.isclass(obj)
        and "workers" in inspect.signature(obj).parameters
    }
    assert takes_workers == set(WORKER_CALLS)


@pytest.mark.parametrize("workers", [0, -5])
@pytest.mark.parametrize("name", sorted(WORKER_CALLS))
def test_worker_count_below_one_is_refused(name, workers):
    # refused before any work or pool starts; exhaustive_scsf runs
    # in-process for workers <= 1, so the check cannot live in the pool alone
    with pytest.raises(ParameterError, match="workers must be >= 1"):
        WORKER_CALLS[name](workers)


SOURCES = sorted(pathlib.Path(sumfree.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_package_source(path):
    # `python -O` strips assert statements; invariants the code relies on
    # must raise a SumfreeError instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def _imports_inside_functions(tree):
    """Line numbers of import statements anywhere under a def in tree."""
    return sorted(
        {
            node.lineno
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_import_scan_finds_a_nested_import():
    tree = ast.parse("import os\ndef f():\n    def g():\n        from x import y\n")
    assert _imports_inside_functions(tree) == [4]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # every dependency between modules shows at the top of the file, so a
    # lazy import cannot hide an import cycle between the layers
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _imports_inside_functions(tree)
    assert not lines, f"{path.name} imports inside functions at lines {lines}"


LAYERS = [
    "zn_core",
    "st_family",
    "special_sets",
    "interval_ap_family",
    "search_oracle",
    "applications",
    "cli",
]

# library entry points a user calls directly; the package itself reaches
# the same predicates through classify and st_family._is_special_mask,
# and the family through lower_bound_family
ENTRY_POINTS = {
    "is_symmetric",
    "is_sum_free",
    "is_complete",
    "st_sum_free_condition",
    "st_completeness_condition",
    "is_t_special",
    "iter_lower_bound_family",
}


def _names_read(node, enclosing=frozenset()):
    """Names and attributes read under node, outside a def of that name."""
    used = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            used |= _names_read(child, enclosing | {child.name})
            continue
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        used |= _names_read(child, enclosing)
    return used - enclosing


def _package_references():
    """Every name read in src/sumfree outside __init__.py.

    __all__ entries are strings and imports are aliases, so neither counts;
    a function or method naming itself (recursion) does not count either.
    """
    used = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            used |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    return used


def _public_methods(cls):
    """Public methods and properties of cls; dunders and fields are exempt."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (
            inspect.isfunction(value)
            or isinstance(value, (property, classmethod, staticmethod))
        )
    ]


def test_every_public_function_has_a_caller():
    # a public function or method only its own tests call is dead API:
    # delete it, or move it to tests/oracles.py if the tests still need it
    used = _package_references()
    dead = []
    for layer in LAYERS:
        module = importlib.import_module(f"sumfree.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                if name not in ENTRY_POINTS and name not in used:
                    dead.append(f"{layer}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                dead += [
                    f"{layer}.{name}.{method}"
                    for method in _public_methods(obj)
                    if method not in used
                ]
    assert not dead, f"public functions with no caller in the package: {dead}"

"""Package-wide checks: exported names and their callers, worker counts,
pool sizing and the one pool per call with more than one process, shut
down before the call returns, no asserts, the layer order of the imports
and what each import loads, no imports inside functions but the listed
deferred ones, and grammar no newer than the oldest supported Python."""

import ast
import importlib
import inspect
import multiprocessing
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from concurrent import futures

import pytest

import sumfree
from sumfree import _parallel
from sumfree._parallel import _pool_size, run_sharded, shard_ranges
from sumfree.applications import ProcessConfig, simulate_random_sumfree
from sumfree.errors import ParameterError
from sumfree.search_oracle import (
    characterization_probe,
    exhaustive_scsf,
    verify_st_equivalence,
)

MODULES = [
    module
    for module in (
        importlib.import_module(f"sumfree.{info.name}")
        for info in pkgutil.iter_modules(sumfree.__path__)
        if info.name != "__main__"
    )
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


def test_pool_size_falls_back_to_the_cpu_count(monkeypatch):
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(4, 10) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _pool_size(4, 10) == 3


@pytest.fixture
def pool_starts(monkeypatch):
    """The sizes of the pools started during a test, in order."""
    started = []

    class CountingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            started.append(max_workers)

    # run_sharded reads the pool class from concurrent.futures at each call
    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    return started


def test_sharded_calls_share_one_pool(monkeypatch, pool_starts):
    # all the shards of one entry-point call share one pool, which the
    # call stops before it returns; a pool of 3 on any machine
    monkeypatch.setattr(_parallel, "_pool_size", lambda workers, shards: workers)
    first = exhaustive_scsf(30, workers=3)
    assert not multiprocessing.active_children()
    second = exhaustive_scsf(30, workers=3)
    assert not multiprocessing.active_children()
    assert first == second == exhaustive_scsf(30)
    assert pool_starts == [3, 3]


def test_pool_is_replaced_when_its_size_changes(monkeypatch, pool_starts):
    # each call starts a pool of its own size, so a new size gets a new
    # pool; sizes past the CPU count, so that 2 and 3 differ on any machine
    monkeypatch.setattr(_parallel, "_pool_size", lambda workers, shards: workers)
    shards = [(2, k) for k in range(8)]
    expected = [pow(*args) for args in shards]
    sizes = [2, 2, 3, 3, 2]
    for calls, workers in enumerate(sizes, 1):
        assert run_sharded(pow, shards, workers) == expected
        assert pool_starts == sizes[:calls]
        # no worker outlives the call that started it
        assert not multiprocessing.active_children()


def _pow_after_one_lost_worker(marker, base, exp):
    """pow(base, exp), but the first shard to create marker kills its worker."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return pow(base, exp)
    os._exit(1)


def test_a_worker_lost_mid_call_is_retried_on_a_fresh_pool(
    monkeypatch, pool_starts, tmp_path
):
    monkeypatch.setattr(_parallel, "_pool_size", lambda workers, shards: workers)
    marker = str(tmp_path / "lost")
    shards = [(marker, 3, k) for k in range(8)]
    assert run_sharded(_pow_after_one_lost_worker, shards, 2) == [
        pow(3, k) for k in range(8)
    ]
    assert pool_starts == [2, 2]
    assert not multiprocessing.active_children()


def test_a_shard_that_raises_stops_its_pool(monkeypatch, pool_starts):
    monkeypatch.setattr(_parallel, "_pool_size", lambda workers, shards: workers)
    # pow(0, -1) raises in its worker; the call re-raises it in the caller
    shards = [(2, k) for k in range(4)] + [(0, -1)] + [(2, k) for k in range(60)]
    with pytest.raises(ZeroDivisionError):
        run_sharded(pow, shards, 2)
    assert not multiprocessing.active_children()
    shards = [(3, k) for k in range(8)]
    assert run_sharded(pow, shards, 2) == [pow(*args) for args in shards]
    assert pool_starts == [2, 2]


@pytest.mark.parametrize(
    "total", [1, 2, 63, 64, 65, 200, 4097, 64 * 4096 + 1, 4**12, 10**9 + 7]
)
def test_shard_ranges_cut_the_input_into_at_most_64_blocks(total):
    blocks = shard_ranges(total)
    assert 1 <= len(blocks) <= 64
    assert blocks[0].start == 0 and blocks[-1].stop == total
    assert all(len(block) > 0 for block in blocks)
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    # whole 64-trial words, and full 4096-trial blocks before the last
    assert all(block.start % 64 == 0 for block in blocks)
    assert all(len(block) >= 4096 for block in blocks[:-1])


# each sharded entry point; every one makes exactly one sharded search
SHARDED_CALLS = {
    "exhaustive_scsf": lambda w: exhaustive_scsf(30, workers=w),
    # t = 4: the special windows in-process, then the S_T over the window orbits
    "verify_st_equivalence": lambda w: verify_st_equivalence(61, 18, workers=w),
    # t = 2: the catalog, then the special windows in-process
    "characterization_probe": lambda w: characterization_probe(29, 8, workers=w),
    "simulate_random_sumfree": lambda w: simulate_random_sumfree(
        ProcessConfig(horizon=20, trials=5000, seed=1), workers=w
    ),
}


@pytest.mark.parametrize("name", sorted(SHARDED_CALLS))
def test_shards_depend_on_the_input_not_the_worker_count(monkeypatch, name):
    # the recorder runs every shard in-process, so no worker process starts;
    # it replaces run_sharded in every module that imports it, so a second
    # sharded search in one call, and so a second pool, is counted too
    recorded = []

    def recorder(fn, shards, workers):
        recorded.append(list(shards))
        return [fn(*args) for args in shards]

    for module in MODULES:
        if hasattr(module, "run_sharded"):
            monkeypatch.setattr(module, "run_sharded", recorder)
    reports = [SHARDED_CALLS[name](workers) for workers in (1, 2, 10**9)]
    assert len(recorded) == 3
    assert recorded[0] == recorded[1] == recorded[2]
    assert all(1 < len(shards) <= 64 for shards in recorded)
    assert reports[0] == reports[1] == reports[2]


# one small valid call per public function that takes `workers`
WORKER_CALLS = {
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
    """(line, module) of the imports anywhere under a def in tree; a
    relative module keeps its leading dots."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                found |= {(node.lineno, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                found.add((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


def test_import_scan_finds_a_nested_import():
    tree = ast.parse(
        "import os\ndef f():\n    def g():\n        from x import y\n"
        "    from .a import b\n    import numpy as np\n"
    )
    assert _imports_inside_functions(tree) == [(4, "x"), (5, ".a"), (6, "numpy")]


# the only imports inside functions, per file: numpy loads on first use,
# concurrent.futures with the first pool, and only the cli handlers that
# need applications load it. Deferring an import cannot hide a cycle
# between the layers, because test_imports_follow_the_layer_order scans
# function bodies too.
DEFERRED_IMPORTS = {
    "_bits.py": {"numpy"},
    "_parallel.py": {"concurrent"},
    "cli.py": {".applications"},
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # any other dependency shows at the top of the file, and a listed
    # import that is no longer deferred leaves the list
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _imports_inside_functions(tree)
    listed = DEFERRED_IMPORTS.get(path.name, set())
    assert {module for _, module in found} == listed, (
        f"{path.name} imports inside functions {found}; DEFERRED_IMPORTS lists {listed}"
    )


# the package's modules, lowest layer first; each imports only modules
# listed before it, so no import cycle can form between the layers. The
# root __init__ imports nothing: test_import_loads_only_the_layers_below
# checks it in a fresh interpreter.
LAYER_ORDER = [
    "errors",
    "_bits",
    "_primes",
    "_parallel",
    "zn_core",
    "st_family",
    "special_sets",
    "interval_ap_family",
    "search_oracle",
    "applications",
    "cli",
    "__main__",
]


def _upward_imports(name, tree):
    """The package modules that tree, the source of module name, imports
    from its own place in LAYER_ORDER or above."""
    below = LAYER_ORDER[: LAYER_ORDER.index(name)]
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.append(node.module.partition(".")[0])
            else:
                imported += [alias.name for alias in node.names]
    return sorted(module for module in imported if module not in below)


def test_layer_scan_finds_an_upward_import():
    tree = ast.parse(
        "import os\nfrom .errors import A\nfrom . import cli\n"
        "if x:\n    from .zn_core import B\nfrom ._primes import C\n"
    )
    assert _upward_imports("_primes", tree) == ["_primes", "cli", "zn_core"]
    # a deferred import counts as well
    tree = ast.parse("from .errors import A\ndef f():\n    from .cli import x\n")
    assert _upward_imports("zn_core", tree) == ["cli"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_imports_follow_the_layer_order(path):
    assert path.stem in LAYER_ORDER, f"{path.name} has no place in LAYER_ORDER"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    upward = _upward_imports(path.stem, tree)
    assert not upward, f"{path.name} imports from layers not below it: {upward}"


SRC = str(pathlib.Path(sumfree.__file__).parents[1])


def _modules_after(statement):
    """The names in sys.modules after a fresh interpreter runs statement."""
    script = f"import sys\n{statement}\nprint(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(proc.stdout.split())


# the package modules that importing each module loads: the root
# re-exports nothing, so a layer brings in only itself and what it imports;
# cli imports applications only in the handlers that use it
LOADS = {
    "sumfree": {"sumfree"},
    "sumfree.zn_core": {"sumfree", "sumfree.zn_core", "sumfree._bits", "sumfree.errors"},
    "sumfree.cli": {"sumfree"}
    | {f"sumfree.{name}" for name in LAYER_ORDER if name not in ("applications", "__main__")},
}


@pytest.mark.parametrize("module", sorted(LOADS))
def test_import_loads_only_the_layers_below(module):
    loaded = _modules_after(f"import {module}")
    loads = LOADS[module]
    assert {name for name in loaded if name.partition(".")[0] == "sumfree"} == loads
    # numpy loads on first use, and the pool machinery with the first pool
    assert not loaded & {
        "numpy",
        "numpy.random",
        "logging",
        "concurrent.futures",
        "concurrent.futures.process",
    }


def test_simulation_loads_numpy_but_not_numpy_random():
    # the coin streams come from the package's own Philox kernel, so a
    # simulation needs numpy's arrays but not its generators
    loaded = _modules_after(
        "from sumfree.applications import ProcessConfig, simulate_random_sumfree\n"
        "simulate_random_sumfree(ProcessConfig(200, 70, 1))"
    )
    assert "numpy" in loaded
    assert "numpy.random" not in loaded


def _calls_itself(func):
    """Whether func calls its own name, as f(...), self.f(...) or cls.f(...);
    super().f(...) calls another class's f."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            if callee.value.id in ("self", "cls") and callee.attr == func.name:
                return True
        elif isinstance(callee, ast.Name) and callee.id == func.name:
            return True
    return False


def _self_calls(tree):
    """Names of the functions and methods in tree that call themselves."""
    return sorted(
        {
            func.name
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _calls_itself(func)
        }
    )


def test_self_call_scan_finds_recursion():
    tree = ast.parse(
        "def f(k):\n    return f(k - 1)\n"
        "class C:\n    def g(self):\n        return self.g()\n"
        "    def __init__(self):\n        super().__init__()\n"
        "def h():\n    return f(0)\n"
    )
    assert _self_calls(tree) == ["f", "g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # the searches keep their own stack, so their depth is bounded by the
    # budgets alone and never by the interpreter's recursion limit
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = _self_calls(tree)
    assert not names, f"{path.name} has functions that call themselves: {names}"


def _byte_conversions(tree):
    """Line numbers of the calls to a to_bytes or from_bytes method in tree."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("to_bytes", "from_bytes")
    )


def test_byte_scan_finds_conversions():
    tree = ast.parse("a = x.to_bytes(2, 'little')\nb = f(a)\nc = int.from_bytes(a, 'big')\n")
    assert _byte_conversions(tree) == [1, 3]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "_bits.py"], ids=lambda p: p.name
)
def test_only_bits_turns_masks_into_bytes(path):
    # _bits lists, packs and mirrors masks; a byte walk anywhere else would
    # be a second implementation of one of its jobs
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _byte_conversions(tree)
    assert not lines, f"{path.name} converts ints and bytes at lines {lines}"


# library entry points a user calls directly; the package itself reaches
# completeness through classify, the window conditions through
# st_family._is_special_mask, the family through lower_bound_family, and
# dilation through the orbit helper of search_oracle
ENTRY_POINTS = {
    "dilate",
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
    """Every name read in src/sumfree.

    __all__ entries are strings and imports are aliases, so neither counts;
    a function or method naming itself (recursion) does not count either.
    """
    used = set()
    for path in SOURCES:
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
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                if name not in ENTRY_POINTS and name not in used:
                    dead.append(f"{module.__name__}.{name}")
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                dead += [
                    f"{module.__name__}.{name}.{method}"
                    for method in _public_methods(obj)
                    if method not in used
                ]
    assert not dead, f"public functions with no caller in the package: {dead}"


# the oldest Python that pyproject.toml declares; CI runs the suite on it
MINIMUM_PYTHON = (3, 10)
ROOT = pathlib.Path(__file__).resolve().parents[1]
PYTHON_SOURCES = sorted(
    path
    for directory in ("src/sumfree", "tests", "perfbench", "bench")
    for path in (ROOT / directory).rglob("*.py")
)


def test_pyproject_declares_the_minimum_python():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert found, "pyproject.toml has no requires-python >= X.Y"
    assert tuple(map(int, found.groups())) == MINIMUM_PYTHON


@pytest.mark.parametrize(
    "path", PYTHON_SOURCES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_source_parses_on_the_minimum_python(path):
    # a grammar feature newer than the minimum, such as `except*` on 3.10,
    # is a syntax error there
    ast.parse(
        path.read_text(encoding="utf-8"),
        filename=str(path),
        feature_version=MINIMUM_PYTHON,
    )

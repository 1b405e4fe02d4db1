"""Package-wide checks: exported names and worker-pool sizing."""

import importlib
import os
import pkgutil

import pytest

import sumfree
from sumfree._parallel import _pool_size

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

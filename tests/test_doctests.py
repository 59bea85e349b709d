import doctest
import importlib
import pkgutil

import clusterext


def test_module_doctests_pass():
    failed = attempted = 0
    names = [f"clusterext.{info.name}" for info in pkgutil.iter_modules(clusterext.__path__)]
    for name in ["clusterext", *names]:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 7  # the examples in clusterext.patterns

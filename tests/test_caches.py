"""Every lru_cache in the package is bounded and hands out immutable values."""

import importlib
import pkgutil

import numpy as np
import pytest

import bggx
from bggx.complexes import _contraction_coo
from bggx.schur import class_product, grassmannian


def _cached_functions():
    for info in pkgutil.iter_modules(bggx.__path__):
        module = importlib.import_module(f"bggx.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_every_lru_cache_is_bounded():
    found = dict(_cached_functions())
    # the Pieri step, grouped Giambelli terms, class products, in-box
    # partitions, Sym^r tables and contractions at least
    for name in ("bggx.schur._strips", "bggx.schur._giambelli_words",
                 "bggx.schur._product", "bggx.schur._in_box",
                 "bggx.series._sym_power_table", "bggx.complexes._contraction_coo"):
        assert name in found, name
    for name, fn in found.items():
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, name


def test_contraction_arrays_are_read_only():
    for array in _contraction_coo(3, 2, 1):
        assert array.dtype == np.int64
        with pytest.raises(ValueError):
            array[0] = 7


def test_cached_products_survive_a_caller_mutating_the_result():
    ctx = grassmannian(3, 6)
    expect = {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1}
    first = class_product((2, 1), (2, 1), ctx)
    assert first.terms == expect
    first.terms.clear()
    assert class_product((2, 1), (2, 1), ctx).terms == expect

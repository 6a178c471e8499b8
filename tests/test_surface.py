"""Guards on the package surface that other tooling relies on.

The benchmark's tracer (adiabench/tracing.py) replaces module attributes by
name, so a renamed or removed attribute would only show up as a failed
traced run; every ``__all__`` entry must name something real; every memo
in the package must be an ``lru_cache`` with a finite bound; and every error
class must be raised somewhere in the package.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import adiawell
from adiawell import errors

_TRACING = Path(__file__).resolve().parents[1] / "adiabench" / "tracing.py"


def _modules():
    return [
        importlib.import_module(f"adiawell.{info.name}")
        for info in pkgutil.iter_modules(adiawell.__path__)
        if info.name != "__main__"
    ]


def _memos(module):
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__
    ]


def test_traced_attributes_exist():
    spec = importlib.util.spec_from_file_location("adiabench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracing.TRACED
        if not hasattr(importlib.import_module(f"adiawell.{mod}"), attr)
    ]
    assert missing == []


def test_every_exported_name_exists():
    missing = [
        f"{module.__name__}.{name}"
        for module in [adiawell, *_modules()]
        for name in getattr(module, "__all__", [])
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_memo_is_bounded():
    memos = [(m.__name__, name, obj) for m in _modules() for name, obj in _memos(m)]
    assert memos
    unbounded = [
        f"{mod}.{name}"
        for mod, name, obj in memos
        if obj.cache_parameters()["maxsize"] is None
    ]
    assert unbounded == []
    dict_caches = [
        f"{m.__name__}.{name}" for m in _modules() for name in vars(m)
        if name.endswith("_CACHE")
    ]
    assert dict_caches == []


def test_every_error_class_is_raised():
    sources = "\n".join(
        path.read_text()
        for path in Path(adiawell.__file__).parent.glob("*.py")
        if path.name != "errors.py"
    )
    classes = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.AdiawellError)
        and obj is not errors.AdiawellError
    ]
    assert classes
    unraised = [name for name in classes if f"raise {name}(" not in sources]
    assert unraised == []

"""The package namespace: each public name binds on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polydegen

_LOADED = "[m.partition('.')[2] for m in sorted(sys.modules) if m.startswith('polydegen.')]"


def test_import_loads_no_submodule_and_kernel_backend_only_its_own():
    src = str(Path(polydegen.__file__).resolve().parents[1])
    code = (
        f"import sys, polydegen; print({_LOADED}); "
        f"polydegen.kernel_backend(); print({_LOADED})"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "['_kernel', 'errors']"]


def test_each_public_name_is_its_defining_modules_object():
    for name in polydegen.__all__:
        value = getattr(polydegen, name)
        assert value.__module__.startswith("polydegen."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_dir_lists_every_public_name():
    assert set(polydegen.__all__) <= set(dir(polydegen))
    assert "__version__" in dir(polydegen)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        polydegen.no_such_name
    assert not hasattr(polydegen, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polydegen import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(polydegen.__all__)
    assert namespace["MultiPoly"] is polydegen.MultiPoly

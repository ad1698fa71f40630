"""The lazy top-level package keeps the eager one's contract.

``repro/__init__.py`` resolves its public names on first access
(PEP 562) so that importing the package loads no submodule; everything
a caller could observe of the old eager imports must still hold.
"""

import importlib
import pathlib
import re

import pytest

import repro

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_its_defining_modules_object():
    assert set(repro._HOME) == set(repro.__all__)
    assert len(set(repro.__all__)) == len(repro.__all__)
    for name in repro.__all__:
        home = importlib.import_module(f"repro.{repro._HOME[name]}")
        value = getattr(repro, name)
        assert value is getattr(home, name), name
        # classes and functions know where they were defined: the table
        # must name that module, not one that merely re-exports it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_dir_lists_the_public_api_resolved_or_not():
    assert set(repro.__all__) <= set(dir(repro))
    assert "__version__" in dir(repro)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name), name


def test_resolved_name_is_cached_in_the_module_dict(monkeypatch):
    resolve = repro.__getattr__
    calls = []

    def counting(name):
        calls.append(name)
        return resolve(name)

    monkeypatch.delitem(vars(repro), "Summary", raising=False)
    monkeypatch.setitem(vars(repro), "__getattr__", counting)
    first = repro.Summary
    assert vars(repro)["Summary"] is first
    assert repro.Summary is first
    assert calls == ["Summary"]


def test_unknown_attribute_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match=r"module 'repro' has no attribute 'no_such_name'"):
        repro.no_such_name
    with pytest.raises(ImportError):
        exec("from repro import no_such_name", {})


def test_version_needs_no_submodule(run_child):
    report = run_child(
        "import json, sys, repro\n"
        "print(json.dumps({'version': repro.__version__,"
        " 'submodules': [m for m in sys.modules if m.startswith('repro.')]}))"
    )
    assert report["version"] == repro.__version__
    assert report["submodules"] == []


def test_readme_quickstart_import_runs_verbatim():
    quickstart = README.read_text().split("## Quickstart", 1)[1]
    statement = re.search(r"^from repro import \(.*?^\)$", quickstart, re.M | re.S)
    assert statement is not None, "README quickstart no longer opens with `from repro import (`"
    namespace: dict = {}
    exec(statement.group(0), namespace)
    assert namespace["simulate"] is repro.simulate

"""The compiled kernel outlives the process that built it.

``ckernel.load()`` keeps the shared object in the user's cache directory
(``$XDG_CACHE_HOME/repro/ckernel-<identity>-<content>.so``), so only the first
process on a host runs the compiler.  Every test here points
``XDG_CACHE_HOME`` at its own directory and looks at it from fresh
interpreters: what gets written, what a process without a compiler can
still load, what happens to a file that is not the kernel, and which
directories are not trusted with code to execute.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ckernel

CC = ckernel._find_cc()
pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler on PATH")

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Load the kernel, say whether that worked and what it cost in imports.
_LOAD = """
import json, sys
# Count only what appeared since start-up: a `.pth` file or
# `sitecustomize` can preload stdlib modules before any repro code runs.
_at_start = set(sys.modules)
from repro.core import ckernel
sys.stdout.write(json.dumps({
    "available": ckernel.available(),
    "compile_imports": [
        m for m in ("subprocess", "tempfile", "shutil")
        if m in sys.modules and m not in _at_start
    ],
}) + "\\n")
"""

#: The same under another flag set (what the sanitizer lane does).
_LOAD_OTHER_FLAGS = _LOAD.replace(
    "from repro.core import ckernel",
    'from repro.core import ckernel\nckernel._CFLAGS += ["-DREPRO_TEST_FLAG"]',
)

#: The same when the finished build cannot be moved into place.
_LOAD_UNPUBLISHABLE = _LOAD.replace(
    "from repro.core import ckernel",
    """from repro.core import ckernel
def full(*args):
    raise OSError(28, "No space left on device")
ckernel.os.replace = full""",
)

#: The same when there is neither ``XDG_CACHE_HOME`` nor a home to expand.
_LOAD_HOMELESS = _LOAD.replace(
    "from repro.core import ckernel",
    "from repro.core import ckernel\nckernel.os.path.expanduser = lambda path: path",
)


def entries(root):
    """The files of the kernel cache under *root*, by name."""
    directory = root / "repro"
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


@pytest.fixture
def load(run_child, tmp_path):
    """``load(root=..., compiler=True, code=_LOAD)``: the report of a
    fresh interpreter that loads the kernel with *root* as its
    ``XDG_CACHE_HOME``, optionally with no compiler on its ``PATH``."""
    nowhere = tmp_path / "empty-path"
    nowhere.mkdir()

    def run(root, compiler=True, code=_LOAD):
        env = {"XDG_CACHE_HOME": str(root)}
        if not compiler:
            env["PATH"] = str(nowhere)
        return run_child(code, env=env)

    return run


def test_second_process_loads_the_cached_kernel_without_a_compiler(load, tmp_path):
    root = tmp_path / "xdg"
    assert load(root, compiler=False)["available"] is False  # hiding cc works
    assert entries(root) == []

    first = load(root)
    assert first["available"] is True
    assert "subprocess" in first["compile_imports"]
    (name,) = entries(root)
    assert name.startswith("ckernel-") and name.endswith(".so")
    assert (root / "repro").stat().st_mode & 0o777 == 0o700

    second = load(root, compiler=False)
    assert second["available"] is True
    assert second["compile_imports"] == []
    assert entries(root) == [name]


def _another_library(directory, kernel_name):
    """A real shared object without the kernel's entry points, cached
    the way the kernel's would be: named after its own bytes."""
    source = directory / "other.c"
    source.write_text("int not_the_kernel(void) { return 0; }\n")
    built = directory / "other.so"
    subprocess.run([CC, "-shared", "-fPIC", "-o", str(built), str(source)], check=True)
    source.unlink()
    identity = kernel_name.rsplit("-", 1)[0]
    content = hashlib.sha256(built.read_bytes()).hexdigest()[:16]
    return built.rename(directory / f"{identity}-{content}.so")


@pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong-symbols"])
def test_a_cached_file_that_is_not_the_kernel_is_rebuilt(load, tmp_path, damage):
    """Truncated (which ``dlopen`` would not survive) or overwritten: the
    bytes no longer hash to the name.  A well-formed entry that exports
    something else: the entry points are missing.  Either way the file
    goes, and the next process with a compiler puts the kernel back."""
    root = tmp_path / "xdg"
    load(root)
    (name,) = entries(root)
    cached = root / "repro" / name
    kernel = cached.read_bytes()
    if damage == "truncated":
        cached.write_bytes(kernel[:4096])
    elif damage == "garbage":
        cached.write_bytes(b"not a shared object\n")
    else:
        cached.unlink()
        _another_library(root / "repro", name)

    # without a compiler it cannot be replaced: dropped, not loaded
    assert load(root, compiler=False)["available"] is False
    assert entries(root) == []

    assert load(root)["available"] is True
    assert entries(root) == [name]
    assert cached.read_bytes() == kernel
    assert load(root, compiler=False)["available"] is True


@pytest.mark.parametrize("flaw", ["not-a-directory", "world-writable", "foreign-owned"])
def test_an_untrusted_cache_directory_is_neither_read_nor_written(load, tmp_path, flaw):
    trusted = tmp_path / "trusted"
    load(trusted)
    (name,) = entries(trusted)

    root = tmp_path / "xdg"
    root.mkdir()
    if flaw == "not-a-directory":
        (root / "repro").write_text("in the way\n")
    else:
        (root / "repro").mkdir()
        # a planted file under the kernel's own name must not be loaded
        (root / "repro" / name).write_bytes(b"planted\n")
        if flaw == "world-writable":
            (root / "repro").chmod(0o777)
        elif os.getuid() == 0:
            os.chown(root / "repro", 65534, 65534)
        else:
            pytest.skip("giving a directory away needs root")

    before = sorted(p.relative_to(root) for p in root.rglob("*"))
    report = load(root)
    assert report["available"] is True  # built for that process alone
    assert "subprocess" in report["compile_imports"]
    assert sorted(p.relative_to(root) for p in root.rglob("*")) == before
    if flaw != "not-a-directory":
        assert (root / "repro" / name).read_bytes() == b"planted\n"
    # and without a compiler there is nothing to fall back on
    assert load(root, compiler=False)["available"] is False


def test_a_build_that_cannot_be_published_is_still_the_kernel(load, tmp_path):
    root = tmp_path / "xdg"
    report = load(root, code=_LOAD_UNPUBLISHABLE)
    assert report["available"] is True
    assert entries(root) == []  # nothing cached, no private file left
    assert load(root, compiler=False)["available"] is False


def test_no_home_means_no_cache_directory(run_child, tmp_path, monkeypatch):
    """An unexpanded ``~`` is a relative path: the kernel is built for
    the process, not cached under the current directory."""
    monkeypatch.chdir(tmp_path)
    report = run_child(_LOAD_HOMELESS, env={"XDG_CACHE_HOME": ""})
    assert report["available"] is True
    assert list(tmp_path.iterdir()) == []


def test_processes_racing_a_cold_cache_leave_one_valid_file(load, tmp_path):
    root = tmp_path / "xdg"
    env = {**os.environ, "XDG_CACHE_HOME": str(root), "PYTHONPATH": str(SRC_DIR)}
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD], env=env, stdout=subprocess.PIPE, text=True
        )
        for __ in range(3)
    ]
    outputs = [racer.communicate(timeout=300)[0] for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0, 0]
    assert all('"available": true' in out for out in outputs)
    (name,) = entries(root)  # one published kernel, no private file left
    assert name.endswith(".so")
    assert load(root, compiler=False)["available"] is True


def test_other_compiler_flags_get_their_own_entry(load, tmp_path):
    root = tmp_path / "xdg"
    load(root)
    (plain,) = entries(root)
    assert load(root, code=_LOAD_OTHER_FLAGS)["available"] is True
    assert len(entries(root)) == 2 and plain in entries(root)
    # each process finds its own: neither needs the compiler again
    assert load(root, compiler=False)["available"] is True
    assert load(root, compiler=False, code=_LOAD_OTHER_FLAGS)["available"] is True
    assert len(entries(root)) == 2

"""The compiled kernels' loader: where it builds, what it refuses, and how
it recovers (:mod:`repro.native`).

Every test points ``$XDG_CACHE_HOME`` at an empty directory and forgets
the process's resolved library, so the loader starts from nothing; the
library the rest of the suite uses comes back afterwards.
"""

from __future__ import annotations

import glob
import os
import stat
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

from repro import embed_graph, native
from repro.graph import rmat
from repro.walks import WalkConfig, make_kernel
from repro.walks.vectorized import WalkBuffers

SRC = os.path.dirname(os.path.dirname(native.__file__))
#: What the benchmark ledger counts as a leaked segment or spill directory.
LEAK_PATTERNS = ("/dev/shm/repro-*",
                 os.path.join(tempfile.gettempdir(), "repro-spill-*"))


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An empty cache root and no library resolved yet; returns the
    cache directory the loader will use."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_library", native._UNSET)
    return tmp_path / "repro"


def probe():
    """One compiled walk of up to five tokens per node of a small R-MAT
    graph."""
    graph = rmat(5, edge_factor=4, seed=1)
    kernel = make_kernel(WalkConfig(kernel="huge"), graph)
    sources = np.arange(graph.num_nodes, dtype=np.int64)
    args = np.arange(sources.size, dtype=np.uint64) * np.uint64(104729)
    out = WalkBuffers.allocate(sources.size, 5)
    native.huge_walks(graph.indptr, graph.indices, None,
                      kernel.tables["arc_accept"], sources, args, 5, out)
    return [buffer.tolist() for buffer in out]


@pytest.fixture(scope="module")
def expected(compiled_library):
    return probe()


class TestCacheDirectory:
    def test_created_private(self, fresh, expected):
        assert native.load() is not None
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o700
        assert probe() == expected
        [library] = os.listdir(fresh)
        assert library == os.path.basename(native.library_path(str(fresh)))

    def test_one_library_keyed_on_every_source(self, fresh, expected,
                                               tmp_path, monkeypatch):
        """The walks, the planner's compiled half, the step lanes and the
        partition kernels are one library; editing any source is a new
        cache key."""
        library = native.load()
        assert library.huge_walks and library.dsgl_plan
        assert library.cn_counts and library.mpgp_stream
        assert all(getattr(library, name) for name in native._LANES)
        keys = {native.library_path(str(fresh))}
        sources = native._SOURCES
        for i, source in enumerate(sources):
            edited = tmp_path / f"edited-{i}.c"
            with open(source, "rb") as handle:
                edited.write_bytes(handle.read() + b"\n")
            monkeypatch.setattr(native, "_SOURCES", tuple(
                str(edited) if j == i else other
                for j, other in enumerate(sources)))
            keys.add(native.library_path(str(fresh)))
        assert len(keys) == len(native._SOURCES) + 1

    @pytest.mark.parametrize("mode", (0o770, 0o707, 0o720))
    def test_writable_by_others_is_refused(self, fresh, mode):
        fresh.mkdir(mode=0o700)
        os.chmod(fresh, mode)
        assert native.cache_dir() is None
        with pytest.warns(RuntimeWarning, match="not private"):
            assert native.load() is None
        assert os.listdir(fresh) == []
        graph = rmat(5, edge_factor=4, seed=1)
        assert not make_kernel(WalkConfig(kernel="huge"),
                               graph).resolves_walks

    def test_owned_by_another_user_is_refused(self, fresh, monkeypatch):
        fresh.mkdir(mode=0o700)
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        assert native.cache_dir() is None
        with pytest.warns(RuntimeWarning, match="not private"):
            assert native.load() is None


class TestBuild:
    @pytest.mark.parametrize("damage", ("truncated", "garbage", "unsealed"))
    def test_damaged_library_is_rebuilt(self, fresh, expected, damage):
        assert native.load() is not None
        path = native.library_path(str(fresh))
        with open(path, "rb") as handle:
            data = handle.read()
        # Installed as a new file: this process still maps the old one.
        with open(path + ".damaged", "wb") as handle:
            handle.write({"truncated": data[:len(data) // 2],
                          "garbage": os.urandom(len(data)),
                          "unsealed": data[:-32]}[damage])
        os.replace(path + ".damaged", path)
        native._library = native._UNSET
        # Mapping a truncated library would be a SIGBUS, not an error:
        # the seal is checked before the dynamic loader sees the file.
        assert native.load() is not None
        with open(path, "rb") as handle:
            assert handle.read() == data
        assert probe() == expected

    def test_cache_hit_runs_no_compiler(self, fresh, monkeypatch, expected):
        assert native.load() is not None
        native._library = native._UNSET

        def no_compiler(*args, **kwargs):
            raise AssertionError("a cache hit must not compile")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert native.load() is not None
        assert probe() == expected

    @pytest.mark.parametrize("compiler", ("false", "no-such-compiler-here"))
    def test_failed_build_leaves_the_lanes(self, fresh, monkeypatch,
                                           compiler):
        monkeypatch.setenv("CC", compiler)
        with pytest.warns(RuntimeWarning, match=f"CC='{compiler}'"):
            assert native.load() is None
        assert os.listdir(fresh) == []      # no half-written build left
        graph = rmat(5, edge_factor=4, seed=1)
        assert not make_kernel(WalkConfig(kernel="huge"),
                               graph).resolves_walks

    def test_a_failed_load_warns_once(self, fresh, monkeypatch):
        """The fallback is slower, so it is not silent: one warning per
        process, naming the compiler and what went wrong."""
        monkeypatch.setenv("CC", "false")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert native.load() is None and native.load() is None
            make_kernel(WalkConfig(kernel="huge"), rmat(5, seed=1))
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "$CC='false': exit status 1" in str(caught[0].message)

    def test_the_disabled_library_warns_never(self, lanes_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert native.load() is None
            embed_graph(rmat(5, seed=1), dim=4, epochs=1, seed=0)
        assert not [w for w in caught if "compiled" in str(w.message)]

    def test_concurrent_builds_each_load_a_complete_library(self, fresh,
                                                            expected):
        env = {**os.environ, "XDG_CACHE_HOME": str(fresh.parent),
               "PYTHONPATH": SRC}
        code = ("import sys; sys.path.insert(0, {tests!r}); "
                "from test_walks_native import probe; print(probe())")
        code = code.format(tests=os.path.dirname(os.path.abspath(__file__)))
        children = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                     stdout=subprocess.PIPE, text=True)
                    for _ in range(3)]
        outputs = [child.communicate(timeout=300)[0] for child in children]
        assert [child.returncode for child in children] == [0, 0, 0]
        assert outputs == [f"{expected}\n"] * 3
        # One sealed library, no temporary build left behind.
        assert os.listdir(fresh) == [
            os.path.basename(native.library_path(str(fresh)))]

    def test_nothing_under_the_leak_patterns(self, compiled_library, fresh):
        before = {p: set(glob.glob(p)) for p in LEAK_PATTERNS}
        assert native.load() is not None
        assert {p: set(glob.glob(p)) for p in LEAK_PATTERNS} == before


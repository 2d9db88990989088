"""Per-package call counts from one ``cProfile`` pass.

ROADMAP item 2 targets interpreter dispatch ("25 040 ``run_step`` calls
for 149k tokens"), and a call count is the one measurement of it that
repeats exactly.  :func:`profile_calls` runs a callable under
``cProfile`` and folds the result per ``repro.<package>``: how many
calls each package made and its share of self time.  Calls into C
functions and third-party Python (NumPy) are charged to the package
whose frame made them, because a NumPy dispatch issued from the trainer
is trainer overhead.  Times measured under the profiler are inflated
unevenly, so only counts and shares leave this module -- never seconds.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict, Optional

#: Bucket for calls that no ``repro`` frame made directly.
OTHER = "other"


def _package(filename: str, src_root: str) -> Optional[str]:
    """``repro.<package>`` owning ``filename``, or None if outside it."""
    if not filename.startswith(src_root):
        return None
    parts = filename[len(src_root):].lstrip(os.sep).split(os.sep)
    if not parts or parts[0] != "repro":
        return None
    if len(parts) == 2:                      # repro/api.py -> repro.api
        return "repro." + parts[1].rsplit(".", 1)[0]
    return "repro." + parts[1]


def profile_calls(fn: Callable[[], object], src_root: str) -> Dict[str, dict]:
    """Run ``fn`` under cProfile; return per-package calls and self share.

    Returns ``{package: {"calls": int, "self_share": float}}``.  A
    function outside ``repro`` is charged to its direct callers in
    proportion to the calls each made; whatever no ``repro`` frame called
    directly lands in ``"other"``.
    """
    src_root = os.path.abspath(src_root)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    calls: Dict[str, int] = {}
    self_time: Dict[str, float] = {}

    def charge(package: str, count: int, seconds: float) -> None:
        calls[package] = calls.get(package, 0) + count
        self_time[package] = self_time.get(package, 0.0) + seconds

    for (filename, _line, _name), (_cc, ncalls, tottime, _ct,
                                   callers) in stats.items():
        package = _package(filename, src_root)
        if package is not None:
            charge(package, ncalls, tottime)
            continue
        for (caller_file, _l, _n), (_ccc, caller_calls, caller_tt,
                                    _cct) in callers.items():
            charge(_package(caller_file, src_root) or OTHER,
                   caller_calls, caller_tt)
    total = sum(self_time.values()) or 1.0
    return {package: {"calls": calls[package],
                      "self_share": self_time[package] / total}
            for package in sorted(calls)}

"""Ablation: InCoM's O(1) step cost vs full-path O(L), and message sizes.

Not a single paper figure, but the micro-mechanism behind §3.1's claims:
per-step measurement cost must stay flat for InCoM and grow linearly for
the full-path baseline, and message sizes must be 80 B vs 24+8L B.  This
is the design choice the paper names as DistGER's first contribution.

What is timed is the **scalar** pair the loop oracle runs
(:class:`IncrementalWalkMeasure` / :class:`FullPathWalkMeasure` in
``tests/oracles/walks.py``), one walk at a time -- not the vectorised
engine's path-occurrence scan.  The full-path measure makes the same
``entropy_of_sequence`` / ``r_squared`` calls per step that the
lock-step engine makes per HuGE-D walker.
"""

from __future__ import annotations

import time

import pytest

from common import print_table, run_once
from repro.runtime.message import message_size_ratio

from oracles.walks import FullPathWalkMeasure, IncrementalWalkMeasure

#: Up to 16x the paper-scale cap of 80: the full-path measure carries a
#: fixed 20-35 µs per call (array construction, the regression set-up), so
#: its O(L) term only shows once L is in the hundreds -- at L <= 160 both
#: measures look flat per step and a growth gate measures noise.
LENGTHS = (20, 80, 320, 1280)
#: Steps timed per (mode, length) cell, spread over fewer walks as L grows.
STEPS_PER_CELL = 3840
_per_step = {}


def _observe_walk(measure_cls, length: int) -> float:
    measure = measure_cls()
    start = time.perf_counter()
    for step in range(length):
        # Five nodes and min_length=1: even the shortest walk is mostly
        # revisits and pays for every decision, so per-step work does not
        # depend on L through first visits or the length gate.
        measure.observe(step % 5)
        measure.should_terminate(0.9, 1)
    return time.perf_counter() - start


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("mode", ("incom", "fullpath"))
def test_ablation_incom_step_cost(benchmark, mode, length):
    cls = IncrementalWalkMeasure if mode == "incom" else FullPathWalkMeasure

    def run():
        # Best walk of the cell: the minimum is what the measure costs,
        # everything above it is the host.
        walks = max(8, STEPS_PER_CELL // length)
        return min(_observe_walk(cls, length) for _ in range(walks)) / length

    _per_step[(mode, length)] = run_once(benchmark, run)


def test_ablation_incom_report(benchmark):
    if len(_per_step) < 2 * len(LENGTHS):
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    rows = []
    for length in LENGTHS:
        inc = _per_step[("incom", length)]
        full = _per_step[("fullpath", length)]
        rows.append([length, inc * 1e6, full * 1e6, full / max(1e-12, inc),
                     message_size_ratio(length)])
    print_table(
        "Ablation: per-step walk-measurement cost and message-size ratio "
        "vs length",
        ["walk length", "InCoM µs/step", "full-path µs/step", "time ratio",
         "msg size ratio"], rows,
    )
    # Complexity shape, for the reason the paper gives (§3.1): InCoM's
    # update is O(1), so a step costs the same on a 64x longer walk; the
    # full-path measure recomputes from the whole path, so its per-step
    # cost grows with L once L clears the fixed per-call cost.
    short, long = LENGTHS[0], LENGTHS[-1]
    inc_growth = _per_step[("incom", long)] / _per_step[("incom", short)]
    full_growth = (_per_step[("fullpath", long)]
                   / _per_step[("fullpath", short)])
    assert inc_growth < 1.5, (
        f"InCoM per-step cost grew {inc_growth:.2f}x from L={short} to "
        f"L={long}; an O(1) update should stay flat"
    )
    assert full_growth > 2.0, (
        f"full-path per-step cost grew only {full_growth:.2f}x from "
        f"L={short} to L={long}; an O(L) recomputation should grow"
    )
    # Message-size ratio at the routine L=80 is the paper's 8.3x.
    assert message_size_ratio(80) == pytest.approx(8.3)

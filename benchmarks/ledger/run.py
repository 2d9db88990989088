#!/usr/bin/env python3
"""The ledger: one command, five workloads, absolute numbers.

    python3 benchmarks/ledger/run.py                 # the full set
    python3 benchmarks/ledger/run.py --trace 1 --out report.json
    python3 benchmarks/ledger/run.py --workload serve_zipf --seed 3
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --selfcheck
    python3 benchmarks/ledger/run.py --size smoke --trace 1

With ``--workload`` the run happens in this interpreter and the last
line of standard output is the one JSON object ``BENCHMARK.json``'s
contract describes: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs in
a fresh interpreter of its own (untraced, then traced under
``--trace 1``) and the results are gathered into one report.  Metric
names, units and bounds live in ``BENCHMARK.json`` only; see the README
beside this file for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DETAIL_PREFIX = "#detail "
SMOKE_SECONDS = 0.5


def pin_environment() -> list:
    """One BLAS thread, no ``REPRO_*`` knobs, ``src`` importable -- for
    this interpreter and every process it starts.  Must run before NumPy
    is imported.  Returns the names of the variables it removed."""
    scrubbed = sorted(name for name in os.environ
                      if name.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != SRC]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, SRC)
    return scrubbed


def load_manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


# ----------------------------------------------------------------- #
# One workload, in this interpreter
# ----------------------------------------------------------------- #

def contract_object(result: dict, manifest: dict, trace: bool) -> dict:
    """The object the contract wants on the last line of stdout."""
    declared = manifest["per_layer" if trace else "end_to_end"]
    values = result["per_layer" if trace else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # A layer the workload does not touch, or a counter a later
        # change renamed, reads 0 here; the report keeps it absent.
        "metrics": {m["name"]: {"value": values.get(m["name"]) or 0.0,
                                "unit": m["unit"]} for m in declared},
    }


def print_result(name: str, result: dict, outcome: dict) -> None:
    samples = result["detail"].get("samples", {})
    print(f"== {name}: {samples.get('op', 0)} timed operations, "
          f"{samples.get('setup', 0)} set-ups, "
          f"{result['detail'].get('duration_s', 0.0):.1f} s")
    for metric, cell in outcome["metrics"].items():
        print(f"{name:<18} {metric:<36} {cell['value']:>16.4f} "
              f"{cell['unit']}")
    print(f"{name:<18} {'ops_attempted':<36} {outcome['attempted']:>16d} "
          "count")
    print(f"{name:<18} {'ops_failed':<36} {outcome['failed']:>16d} count")
    for message in result["failures"]:
        print(f"FAILED {name}: {message}", file=sys.stderr)


def run_one(args, manifest: dict, scrubbed: list) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; options: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.time()
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.profile, args.size)
    try:
        result = workloads.execute(run)
    finally:
        # execute() already did this unless it was interrupted; no path
        # out of a run may leave a process behind.
        workloads.stop_processes()
    outcome = contract_object(result, manifest, bool(args.trace))
    print_result(args.workload, result, outcome)
    if args.out:
        mode = "traced" if args.trace else "untraced"
        write_report(args.out, build_report(
            args, {args.workload: {mode: result}}, started, scrubbed))
    if args.emit_detail:
        print(DETAIL_PREFIX + json.dumps(result))
    print(json.dumps(outcome))
    return 0


# ----------------------------------------------------------------- #
# The full set, each workload in a fresh interpreter
# ----------------------------------------------------------------- #

def run_child(args, name: str, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--size", args.size, "--emit-detail"]
    if args.profile and trace:
        command.append("--profile")
    detail = None
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        try:
            for line in child.stdout:
                if line.startswith(DETAIL_PREFIX):
                    detail = json.loads(line[len(DETAIL_PREFIX):])
                elif not line.startswith("{"):
                    sys.stdout.write(line)
                    sys.stdout.flush()
        except BaseException:
            # SIGINT lets the workload stop its own processes first.
            child.send_signal(signal.SIGINT)
            raise
    if child.returncode != 0 or detail is None:
        raise RuntimeError(f"workload {name} (trace {trace}) exited with "
                           f"code {child.returncode} and no result")
    return detail


def run_set(args, manifest: dict, scrubbed: list) -> dict:
    started = time.time()
    results = {}
    for workload in manifest["workloads"]:
        name = workload["name"]
        results[name] = {"untraced": run_child(args, name, 0)}
        if args.trace:
            results[name]["traced"] = run_child(args, name, 1)
    serial = results["embed_lj_serial"]["untraced"]
    pipeline = results["embed_lj_pipeline"]["untraced"]
    first = (serial["detail"].get("digests") or [None])[0]
    if first is None or first != \
            (pipeline["detail"].get("digests") or [None])[0]:
        pipeline["failed"] += 1
        pipeline["failures"].append(
            "pass 0 embedding digest differs from embed_lj_serial's")
        print("FAILED embed_lj_pipeline: pass 0 digest differs from "
              "embed_lj_serial's", file=sys.stderr)
    return build_report(args, results, started, scrubbed)


def fingerprint(scrubbed: list) -> dict:
    import numpy as np

    def git(*command: str):
        try:
            done = subprocess.run(("git", "-C", ROOT) + command,
                                  capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def first_line(path: str, key: str):
        try:
            with open(path) as handle:
                for line in handle:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    # Only a checkout that is itself the repository's top level has a
    # commit of its own to report.
    top = git("rev-parse", "--show-toplevel")
    own = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = git("status", "--porcelain") if own else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "commit": git("rev-parse", "HEAD") if own else None,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "ram_total": first_line("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "scrubbed_env": scrubbed,
    }


def build_report(args, results: dict, started: float, scrubbed: list) -> dict:
    import workloads

    return {
        "schema": 1,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": workloads.SIZES[args.size],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "duration_s": time.time() - started,
        "fingerprint": fingerprint(scrubbed),
        "workloads": results,
    }


def write_report(path: str, report: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"report written to {path}")


def report_ok(report: dict) -> bool:
    return all(result["failed"] == 0
               for runs in report["workloads"].values()
               for result in runs.values())


# ----------------------------------------------------------------- #
# Comparing two reports
# ----------------------------------------------------------------- #

def compare(before: dict, after: dict, manifest: dict) -> int:
    """Print every end-to-end metric of both reports; return 1 when one
    is worse by more than its bound or more operations failed."""
    for report in (before, after):
        if report.get("size") != "full":
            print("refusing to compare: a report of size "
                  f"{report.get('size')!r} holds toy numbers",
                  file=sys.stderr)
            return 2
    regressions = 0
    print(f"{'workload':<18} {'metric':<12} {'before':>14} {'after':>14} "
          f"{'change':>8} {'bound':>6}")
    for workload in manifest["workloads"]:
        name = workload["name"]
        try:
            old = before["workloads"][name]["untraced"]
            new = after["workloads"][name]["untraced"]
        except KeyError:
            print(f"{name:<18} missing from one report")
            regressions += 1
            continue
        for metric in manifest["end_to_end"]:
            a = old["end_to_end"][metric["name"]]
            b = new["end_to_end"][metric["name"]]
            change = (b - a) / a if a else float("inf")
            worse = change if metric["better"] == "lower" else -change
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  REGRESSION"
                regressions += 1
            print(f"{name:<18} {metric['name']:<12} {a:>14.4f} {b:>14.4f} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}{verdict}")
        verdict = ""
        if new["failed"] > old["failed"]:
            verdict = "  REGRESSION"
            regressions += 1
        print(f"{name:<18} {'ops_failed':<12} {old['failed']:>14d} "
              f"{new['failed']:>14d}{verdict}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def same_outputs(first: dict, second: dict) -> bool:
    """Both sets of one checkout must produce the same bytes: digests
    and quality of the fixed-count passes repeat exactly."""
    import workloads

    same = True
    for name, runs in first["workloads"].items():
        a = runs["untraced"]["detail"]
        b = second["workloads"][name]["untraced"]["detail"]
        fixed = workloads.SIZES[first["size"]]["min_passes"]
        if a.get("digests", [])[:fixed] != b.get("digests", [])[:fixed]:
            print(f"FAILED {name}: digests differ between the two sets",
                  file=sys.stderr)
            same = False
        if runs["untraced"]["end_to_end"]["quality"] != \
                second["workloads"][name]["untraced"]["end_to_end"]["quality"]:
            print(f"FAILED {name}: quality differs between the two sets",
                  file=sys.stderr)
            same = False
    return same


# ----------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="DistGER reproduction benchmark ledger")
    parser.add_argument("--workload", help="run one workload in this "
                        "interpreter (default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="record spans and report "
                        "per-layer metrics")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--profile", action="store_true",
                        help="embed_lj_serial, traced: profile twice and "
                        "require identical call counts")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two reports against the bounds")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the full set twice and compare")
    parser.add_argument("--emit-detail", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.size == "smoke"
                        else float(manifest["run_seconds"]))

    if args.compare:
        reports = []
        for path in args.compare:
            with open(path) as handle:
                reports.append(json.load(handle))
        return compare(reports[0], reports[1], manifest)

    scrubbed = pin_environment()
    if args.workload:
        return run_one(args, manifest, scrubbed)
    if args.selfcheck:
        first = run_set(args, manifest, scrubbed)
        second = run_set(args, manifest, scrubbed)
        code = compare(first, second, manifest)
        ok = (report_ok(first) and report_ok(second)
              and same_outputs(first, second))
        return code if code or ok else 1
    report = run_set(args, manifest, scrubbed)
    if args.out:
        write_report(args.out, report)
    return 0 if report_ok(report) else 1


if __name__ == "__main__":
    sys.exit(main())

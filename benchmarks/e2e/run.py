"""End-to-end benchmark of the FastLSA reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out PATH] [--quick] [--self-test]

Run from the repository root.  A prepare step copies ``src/`` into
``.bench_build/e2e/`` and builds the compiled kernel tier there (falling
back to numpy if the build fails), so the checkout itself is never written
to outside ``.bench_build/``.  Each workload then runs in its own process
(``worker.py``) with a private, empty ``FASTLSA_CACHE_DIR`` that its set-up
calibrates into.  Without ``--workload`` all three run.  Each workload does a
fixed amount of work, sized by ``run_seconds`` in ``BENCHMARK.json`` (what
took about that long on the reference host), so two commits do the same
work however fast they are; ``--seconds`` is accepted only with that
value, and ``--quick`` does a tenth of the work.  Timings are
reported at the reference host speed (``harness.reference_probe``); the
``--out`` record also holds them as measured, under ``raw_metrics``.

Prints every metric as ``workload metric value unit (n=…)`` and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones plus a per-layer table.  Exits 1 on any
wrong output, failed or refused operation, or failed workload process, 2
when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from harness import BUILD_DIR, HERE, ROOT, WORKLOADS, host_metadata, load_spec, median, metric
from layers import format_rows

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Each workload, set-ups included, must end within this many seconds.
WORKLOAD_LIMIT_S = 170.0
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
_BUILD_IGNORE = ("__pycache__", "*.pyc", "_ckernels.c", "_ckernels.o", "_ckernels*.so")
_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


class WorkloadError(RuntimeError):
    pass


def tree_digest(src: str) -> str:
    """Content hash of ``src/`` (and the interpreter the build targets)."""
    h = hashlib.sha256(sys.version.encode())
    ignore = shutil.ignore_patterns(*_BUILD_IGNORE)
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(set(dirnames) - ignore(dirpath, dirnames))
        for name in sorted(set(filenames) - ignore(dirpath, filenames)):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def child_env(src: str, cache_dir: str) -> dict:
    """Children import ``src`` and keep their temporary files and the
    calibration cache inside the checkout."""
    return dict(os.environ, PYTHONPATH=src, TMPDIR=TMP_DIR, FASTLSA_CACHE_DIR=cache_dir)


def prepare() -> dict:
    """Copy ``src/`` once per content hash and build the compiled tier in
    the copy; later runs of the same code reuse it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no src/repro under {ROOT}; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    os.makedirs(TMP_DIR, exist_ok=True)
    tree = os.path.join(BUILD_DIR, "tree-" + tree_digest(src))
    marker = os.path.join(tree, "build.json")
    if not os.path.exists(marker):
        staging = tempfile.mkdtemp(dir=BUILD_DIR, prefix="staging-")
        shutil.copytree(src, os.path.join(staging, "src"),
                        ignore=shutil.ignore_patterns(*_BUILD_IGNORE))
        env = child_env(os.path.join(staging, "src"), os.path.join(staging, "cache"))
        t0 = time.perf_counter()
        build = subprocess.run([sys.executable, "-m", "repro.kernels._ckernels_build"],
                               cwd=staging, env=env, capture_output=True, text=True, timeout=600)
        build_s = time.perf_counter() - t0
        # byte-compile now so the first timed ``import repro`` is not a cold one
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(staging, "src")],
                       env=env, capture_output=True, timeout=600, check=True)
        info = {"compiled_built": build.returncode == 0, "build_s": build_s,
                "build_log": (build.stdout + build.stderr)[-2000:]}
        with open(os.path.join(staging, "build.json"), "w") as fh:
            json.dump(info, fh)
        try:
            os.rename(staging, tree)
        except OSError:  # another run finished the same tree first
            shutil.rmtree(staging, ignore_errors=True)
    with open(marker) as fh:
        info = json.load(fh)
    info["tree"] = os.path.relpath(tree, ROOT)
    info["src"] = os.path.join(tree, "src")
    return info


def spawn(name: str, args, build: dict, role: str, deadline: float) -> dict:
    """Run one worker process; returns its JSON result."""
    work = tempfile.mkdtemp(dir=TMP_DIR, prefix=f"{name}-")
    cache = os.path.join(work, "cache")
    os.makedirs(cache)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--workdir", work, "--trace-dir", TRACE_DIR]
    if args.quick:
        cmd.append("--quick")
    if args.self_test:
        cmd.append("--corrupt")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env(build["src"], cache), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise WorkloadError(f"{name}: worker timed out") from None
    finally:
        _kill_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"{name}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _become_subreaper() -> None:
    """Have orphaned descendants (pool processes the library leaves behind
    when a worker exits) re-parented to this process rather than to init,
    which can take seconds to reap them, so that ``_kill_group`` can reap
    them itself."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _kill_group(pgid: int) -> None:
    """Stop anything left in the worker's process group (pool processes)
    and wait until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_workload(name: str, args, build: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    repeats = 1 if args.trace or args.quick else SETUP_REPEATS
    setups = [spawn(name, args, build, "setup", deadline)["setup"] for _ in range(repeats - 1)]
    result = spawn(name, args, build, "run", deadline)
    setups.append(result["setup"])
    result["setup_runs"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = metric(
            median([s["setup_s"] * s["scale"] for s in setups]), "s", len(setups))
        result["raw_metrics"]["setup_s"] = metric(
            median([s["setup_s"] for s in setups]), "s", len(setups))
    return result


def report(results: dict, names) -> dict:
    """Print ``workload metric value unit (n=…)`` lines; return the metrics
    for the final JSON line."""
    out = {}
    for workload, result in results.items():
        for name in names:
            m = result["metrics" if "metrics" in result else "per_layer"][name]
            print(f"{workload} {name} {m['value']:.6g} {m['unit']} (n={m['n']})")
            key = name if len(results) == 1 else f"{workload}.{name}"
            out[key] = {"value": m["value"], "unit": m["unit"]}
        if "layer_table" in result:
            print(format_rows(result["layer_table"],
                              f"{workload}: per-layer self time (share of traced wall)"))
            print(f"{workload} trace {result['trace_file']}")
        for line in result.get("errors", []) + result.get("verify_errors", []):
            print(f"{workload} ERROR: {line}")
    return out


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    run_seconds = float(spec["run_seconds"])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="run one workload (default: all three)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="accepted only as BENCHMARK.json's run_seconds, which fixes the work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write the full run record (JSON) here")
    p.add_argument("--quick", action="store_true",
                   help="a tenth of the work and one set-up: a smoke run")
    p.add_argument("--self-test", action="store_true",
                   help="corrupt one expected value per workload; must exit 1")
    args = p.parse_args(argv)
    if args.seconds != run_seconds:
        p.error(f"--seconds must be BENCHMARK.json's run_seconds ({run_seconds:g}): "
                "the work of a run is fixed so that two commits do the same")
    if args.self_test:
        args.quick = True
    if args.quick:
        args.seconds = max(1.0, args.seconds / 10)

    _become_subreaper()
    build = prepare()
    names =[m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in workloads:
            results[name] = run_workload(name, args, build)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report(results, names)
    correct = all(r["correct"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out:
        record = {"host": host_metadata(), "build": build, "args": vars(args), "results": results}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    if args.self_test:
        caught = [w for w, r in results.items() if not r["correct"]]
        print(f"self-test: corrupted oracle caught on {len(caught)}/{len(results)} workloads",
              file=sys.stderr)
    if failed:
        print(f"error: {failed} operations failed or were refused", file=sys.stderr)
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of LowDiff checkpointing on a real LocalDiskBackend.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small-diffs --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it interleaves untraced,
traced and plain (no checkpointer) episodes and reports the per-layer
table, writing the Chrome trace and the obs registry snapshot as
artifacts.  Human-readable tables go to stderr and artifacts under
``perfbench/out/``; the last line of stdout is the JSON result.  See
``perfbench/NOTES.md`` for the metrics, workloads and predictions.
"""

import time

_STARTED = time.perf_counter()  # before the heavy imports: set-up includes them

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One BLAS thread, set before NumPy loads.  The library default starts a
# busy-waiting BLAS thread per CPU; on a 2-vCPU host those threads take the
# cores from the checkpointer's writer threads, and the figures then measure
# the scheduler rather than the program.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# Fresh processes that repeat the set-up (imports and warm-up) one at a
# time before the timed phase; ``setup_s`` is the median over them and the
# run's own process, since one process start alone varies by ~25%.
SETUP_REPEATS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="small-diffs or large-sharded")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up sample
    return parser.parse_args(argv)


def setup_in_fresh_processes(args) -> list:
    """``(seconds, error)`` of each repeated set-up; ``seconds`` is
    ``None`` when the process failed."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "1",
               "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-500:]}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            samples.append((float(line["setup_s"]), ""))
        except (OSError, ValueError, IndexError, KeyError, RuntimeError,
                subprocess.TimeoutExpired) as err:
            samples.append((None, repr(err)))
    return samples


# Environment block ----------------------------------------------------------
def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _git_commit() -> str | None:
    """HEAD commit read from ``.git`` (no subprocess); ``None`` outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(args, workload, scratch: str) -> dict:
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name)
                       for name in BLAS_THREAD_VARS},
        "checkpoint_fs": _fs_type(scratch),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload_seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.describe(),
    }


# Output ---------------------------------------------------------------------
def _finite(value) -> float:
    """JSON has no NaN: a metric without samples (a layer idle on this
    workload, or ops that failed and are counted as such) reads 0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def emit(result: dict, units: dict, env: dict, out_dir: str, extra: dict):
    os.makedirs(out_dir, exist_ok=True)
    metrics = {name: {"value": _finite(value), "unit": units[name]}
               for name, value in result["metrics"].items()}
    line = {"correct": result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    with open(os.path.join(out_dir, "env.json"), "w") as handle:
        json.dump(env, handle, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "result.json"), "w") as handle:
        json.dump({**line, "errors": result["errors"], **extra}, handle,
                  indent=2, sort_keys=True)
    err = sys.stderr
    print(f"== {env['workload']['name']} seed={env['workload_seed']} "
          f"trace={env['trace']} cpus={env['cpu_count']} "
          f"fs={env['checkpoint_fs']} python={env['python']} "
          f"numpy={env['numpy']}", file=err)
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}",
              file=err)
    for key, value in extra.items():
        print(f"  {key:<40} {value}", file=err)
    print(f"  ops attempted {line['attempted']}, failed {line['failed']}",
          file=err)
    for error in result["errors"][:10]:
        print(f"  FAILED: {error}", file=err)
    print(f"  artifacts: {os.path.relpath(out_dir, ROOT)}", file=err)
    print(json.dumps(line, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import runner
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    out_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}"
                                f"-trace{args.trace}")
    try:
        if args.setup_only:
            bench = runner.Run()
            runner.warm_up(workload, args.seed, scratch, bench)
            if bench.failed:
                print("; ".join(bench.errors), file=sys.stderr)
                return 1
            print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
            return 0
        result = runner.run(workload, args.seed, args.seconds,
                            bool(args.trace), scratch, _STARTED, out_dir,
                            lambda: setup_in_fresh_processes(args))
        env = environment(args, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = result.pop("units")
    emit(result, units, env, out_dir, result.pop("extra", {}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

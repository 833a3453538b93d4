"""qseal benchmark: time to a verified result on four workloads.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Load is a closed loop from one process and one thread: passes run back to
back until ``--seconds`` have elapsed (at least one pass), and every pass's
outputs are checked by the workload's oracles before the next pass starts.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (the
median of several fresh processes that import numpy and qseal and build the
inputs), ``wall_s`` (the median pass time) and ``peak_rss_mb``. Both times
are read at a reference machine speed sampled while they run (``speed.py``);
the raw times are printed and kept in the manifest. With
``--trace 1`` it runs untraced passes for half the time, then one traced
set-up and pass, and reports the per-layer metrics. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. A manifest of the
run (versions, nproc, commit, seed, parameters, samples) is written to
``perfbench/out/<workload>.manifest.json`` and spans of a traced run to
``perfbench/out/<workload>.spans.jsonl``. ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy can be imported, here and in every
# child process, which inherits this environment.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections.abc import Iterable  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedSampler  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("chain-sweep", "bound-sweep", "oaep-ladder", "oaep-seal")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def load_workloads() -> dict:
    """Import numpy, qseal from this checkout's ``src`` and the workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import qseal

    expected = ROOT / "src" / "qseal"
    if Path(qseal.__file__).resolve().parent != expected:
        raise ImportError(f"qseal imported from {qseal.__file__}, not {expected}")
    import workloads

    return workloads.WORKLOADS


def setup_probe(name: str, seed: int) -> None:
    """Child process: time imports plus input construction, print both times."""
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        load_workloads()[name].build(seed)
        wall = time.perf_counter() - start
    print(json.dumps({"raw_s": wall - sampler.probe_s, "ref_s": sampler.reference_s(wall)}))


def measure_setup(name: str, seed: int) -> dict:
    """Seconds one fresh process takes to import numpy and qseal and build inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_passes(workload, inputs, seconds: float, tally, between=None) -> list[dict]:
    """Run passes until ``seconds`` have elapsed; check each pass's outputs.

    Each pass gives its raw time and its time at reference speed.
    ``between`` runs after each pass's check, outside the timed region.
    """
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()  # every pass starts from the same collector state
        try:
            with SpeedSampler() as sampler:
                t0 = time.perf_counter()
                outputs = workload.run(inputs)
                wall = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a crashed pass is a failed check
            tally.expect(False, f"pass raised {type(exc).__name__}: {exc}")
            break
        walls.append({"raw_s": wall - sampler.probe_s, "ref_s": sampler.reference_s(wall),
                      "speed": sampler.speed})
        with tally.guard(1, "oracles"):
            workload.check(inputs, outputs, tally)
        del outputs
        if between is not None:
            between()
    return walls


def summary(samples: Iterable[float]) -> dict:
    samples = list(samples)
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git, if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(name: str, args, workload, extra: dict) -> dict:
    import numpy

    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": workload.params,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "load": "closed loop, 1 process, 1 thread",
        **extra,
    }


def run_one(args) -> int:
    name = args.workload
    workload = load_workloads()[name]
    from spans import Tracer, layer_metrics
    from workloads import Tally

    inputs = workload.build(args.seed)
    tally = Tally()
    setup: list[dict] = []
    if args.trace:
        walls = timed_passes(workload, inputs, args.seconds / 2, tally)
    else:
        # Set-up probes run between passes, so they sample the whole run.
        walls = timed_passes(workload, inputs, args.seconds, tally,
                             between=lambda: setup.append(measure_setup(name, args.seed)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(measure_setup(name, args.seed))
    raw_walls = [w["raw_s"] for w in walls]
    extra = {"wall_s": summary(w["ref_s"] for w in walls), "raw_wall_s": summary(raw_walls),
             "speed": summary(w["speed"] for w in walls),
             "setup_s": summary(p["ref_s"] for p in setup), "raw_setup_s": summary(p["raw_s"] for p in setup)}
    metrics = {}
    if args.trace and walls and not tally.failed:
        tracer = Tracer(f"{name}-s{args.seed}-{os.getpid()}-{time.time_ns()}")
        tracer.install()
        try:
            traced_inputs, _ = tracer.root("perfbench.setup", workload.build, args.seed)
            outputs, traced_wall = tracer.root("perfbench.pass", workload.run, traced_inputs)
        except Exception as exc:  # noqa: BLE001 - a crashed pass is a failed check
            tally.expect(False, f"traced pass raised {type(exc).__name__}: {exc}")
        finally:
            tracer.uninstall()
        if not tally.failed:
            with tally.guard(1, "oracles on the traced pass"):
                workload.check(traced_inputs, outputs, tally)
            metrics = layer_metrics(tracer, "perfbench.pass", statistics.median(raw_walls))
            OUT.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT / f"{name}.spans.jsonl")
            extra.update(run_id=tracer.run_id, traced_wall_s=traced_wall)
    elif walls:
        metrics = {"setup_s": (extra["setup_s"]["median"], "s"),
                   "wall_s": (extra["wall_s"]["median"], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    correct = tally.failed == 0 and bool(metrics)
    result = {
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = manifest(name, args, workload, {**extra, "failures": tally.failures, "result": result})
    (OUT / f"{name}.manifest.json").write_text(json.dumps(record, indent=2) + "\n")
    wall, raw = extra["wall_s"], extra["raw_wall_s"]
    print(f"{name} seed={args.seed}: wall_s median {wall['median']} "
          f"q1 {wall.get('q1')} q3 {wall.get('q3')} n={wall['n']} at reference speed, "
          f"raw median {raw['median']}; checks {tally.attempted} attempted, {tally.failed} failed")
    if "traced_wall_s" in extra:
        top = sorted(((v, k) for k, (v, _) in metrics.items() if k.endswith(".self_s")), reverse=True)
        print("largest self_s shares of the traced pass: " + ", ".join(
            f"{k[:-len('.self_s')]} {v / extra['traced_wall_s']:.1%}" for v, k in top[:4]))
    for failure in tally.failures:
        print(f"  failed: {failure}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to it alone."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout if proc.returncode else "\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        rows.append((name, proc.returncode, result))
    print()
    for name, code, result in rows:
        if result is None:
            print(f"{name:12s} no result (exit {code})")
            continue
        ratio = result["failed"] / result["attempted"]
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
                 if not args.trace or k.startswith("trace.") or k.endswith("self_s")]
        print(f"{name:12s} " + "  ".join(cells) + f"  fail_ratio {ratio:.6g} "
              f"({result['failed']}/{result['attempted']})")
    ok = all(code == 0 and result and result["correct"] for _, code, result in rows)
    print(json.dumps({name: result for name, _, result in rows}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

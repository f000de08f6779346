"""hematodyn benchmark: one command for the three workloads and the traced run.

    python3 perfbench/run.py --workload <sweep_grid|constellation_audit|point_queries|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout that holds ``src/hematodyn``. Each
workload runs in its own child process (perfbench/child.py), single
threaded, one at a time. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics of a separate traced
run. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
from stats import median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep_grid", "constellation_audit", "point_queries")
# set-up is timed in this many fresh interpreters before the workload child
# and as many after it, so the median spans two moments of machine speed;
# one untimed warm-up first lets the bytecode cache fill, which users pay once
SETUP_SAMPLES_EACH_SIDE = 5
# measured and printed, not gated: the raw operation times and the
# calibration loop time that scales them to the reference speed
UNGATED_UNITS = {"calibration_ms": "ms", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s"}
CHILD_TIMEOUT_S = 170.0
SHOWN_FAILURES = 20


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env) -> tuple:
    """Start a child, time it to its READY line, collect its output and rusage.

    Returns (setup seconds, remaining stdout text, peak RSS in MB).
    """
    cmd = [sys.executable, str(HERE / "child.py")] + [str(a) for a in args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"child {' '.join(map(str, args))} exited {proc.returncode}")
    return setup, rest, usage.ru_maxrss / 1024.0


def environment(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hematodyn").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def op_times(latencies, suffix: str = "") -> dict:
    """Median, tail and 1 / mean of operation times."""
    n = len(latencies)
    tail_label, tail_value = tail(latencies)
    return {
        "op_p50_ms" + suffix: (1000.0 * median(latencies), n, "median"),
        "op_tail_ms" + suffix: (1000.0 * tail_value, n, tail_label),
        "ops_per_s" + suffix: (n / sum(latencies), n, "1 / mean latency"),
    }


def end_to_end(child, setups, rss_mb) -> dict:
    """Set-up, memory, and operation times both at the reference speed and raw."""
    cal = child["calibration"]
    scaled = calibration.scaled(child["latencies"], child["local_calibration"])
    return {
        "setup_s": (median(setups), len(setups), "median of fresh interpreters"),
        "peak_rss_mb": (rss_mb, 1, "workload child"),
        "calibration_ms": (1000.0 * median(cal), len(cal), "median loop time"),
        **op_times(scaled, "_norm"),
        **op_times(child["latencies"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    env = child_env()
    setup_only = [name, seed, seconds, 0, "--setup-only"]
    sides = 0 if trace else SETUP_SAMPLES_EACH_SIDE
    if sides:
        run_child(setup_only, env)
    setups = [run_child(setup_only, env)[0] for _ in range(sides)]
    _, rest, rss_mb = run_child([name, seed, seconds, int(trace)], env)
    setups += [run_child(setup_only, env)[0] for _ in range(sides)]
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{name}: child printed no result")
    child = json.loads(lines[-1])
    if not Path(child["hematodyn_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"hematodyn was imported from {child['hematodyn_file']}, not {ROOT / 'src'}")

    section = "per_layer" if trace else "end_to_end"
    if trace:
        measured = {key: (value, None, "traced phase") for key, value in child["per_layer"].items()}
    else:
        measured = end_to_end(child, setups, rss_mb)
    metrics = {}
    for entry in spec[section]:
        if entry["name"] not in measured:
            raise BenchError(f"{name}: metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": measured[entry["name"]][0], "unit": entry["unit"]}
    attempted = child["checked"]
    failed = child["failed"]
    return {
        "workload": name,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": measured,
        "child": child,
    }


def report(result: dict, env: dict, seconds: float) -> None:
    """Human-readable block, then one JSON line with the full record."""
    child = result["child"]
    name = result["workload"]
    print(f"== {name}  seed={env['seed']}  seconds={seconds:g}  trace={int(result['trace'])}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    print("inputs: " + json.dumps(child["inputs"]))
    print(f"{'metric':34} {'value':>16} {'unit':>9}  samples")
    rows = [(key, entry["value"], entry["unit"]) for key, entry in result["metrics"].items()]
    if not result["trace"]:
        rows += [(key, result["samples"][key][0], unit) for key, unit in UNGATED_UNITS.items()]
    for key, value, unit in rows:
        _, count, note = result["samples"][key]
        samples = f"{count} ({note})" if count is not None else note
        print(f"{key:34} {value:16.6g} {unit:>9}  {samples}")
    if not result["trace"]:
        for key, value, unit, note in child["extra"]:
            print(f"{key:34} {value:16.6g} {unit:>9}  {note}")
    else:
        untraced, traced = sum(child["untraced_latencies"]), sum(child["latencies"])
        print(f"tracing overhead: traced {traced:.4f} s - untraced {untraced:.4f} s "
              f"= {traced - untraced:+.4f} s ({(traced - untraced) / untraced:+.1%})")
        for line in shape_lines(name, child):
            print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'fail_ratio':34} {failed / attempted:16.6g} {'ratio':>9}  {failed} of {attempted} operations")
    for key, digest in child["digests"].items():
        print(f"sha256 {key}: {digest}")
    for reason in child["failures"][:SHOWN_FAILURES]:
        print(f"FAILED {reason}")
    if len(child["failures"]) > SHOWN_FAILURES:
        print(f"FAILED ... {len(child['failures']) - SHOWN_FAILURES} more")
    defects = child["known_defects"]
    if defects:
        print(f"known defect (ROADMAP: non-finite inputs get through validation): "
              f"{len(defects)} of {attempted} operations accepted a non-finite rate, "
              f"known_defect_ratio {len(defects) / attempted:.6g}")
        for reason in defects[:3]:
            print(f"KNOWN-DEFECT {reason}")
    record = {key: result[key] for key in ("workload", "trace", "attempted", "failed", "metrics")}
    record.update(environment=env, digests=child["digests"], inputs=child["inputs"],
                  ungated={k: result["samples"][k][0] for k in UNGATED_UNITS if not result["trace"]},
                  workload_metrics=child["extra"], failures=child["failures"],
                  known_defects=len(defects))
    if result["trace"]:
        record.update(audit_set_s=child["audit_set_s"], bindings=child["bindings"],
                      spans_file=child["spans_file"])
    print("record: " + json.dumps(record))


def shape_lines(name: str, child: dict):
    """The traced run against the shape each workload had when the benchmark was defined."""
    m = child["per_layer"]
    if name == "sweep_grid":
        share = m["serialize.csv_pass_share"]
        yield f"shape: CSV writing is {share:.1%} of a sweep pass (defined at >= 90%)"
    elif name == "constellation_audit":
        share = m["sweep.set6_share"]
        per_set = ", ".join(f"{k}: {v:.2f}" for k, v in child["audit_set_s"].items())
        yield f"shape: set 6 is {share:.1%} of the audit (defined as most of it); seconds by set {{{per_set}}}"
    else:
        share = m["cli.stability_self_share"]
        yield f"shape: cli self time is {share:.1%} of a stability query (defined as most of it)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hematodyn" / "__init__.py").is_file():
        print(f"error: no hematodyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for result in results:
        env = environment(args.seed, result["child"]["numpy"])
        report(result, env, args.seconds)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

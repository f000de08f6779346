"""One benchmark child process: set up a workload, run it, report as JSON.

Started by run.py as ``python3 perfbench/child.py <workload> <seed> <seconds>
<trace> [--setup-only]`` with ``src`` on PYTHONPATH. It writes ``READY`` on
stdout once its inputs exist (the parent times set-up up to that line),
then, unless --setup-only, one JSON line with the results.
"""

from __future__ import annotations

import json
import os
import sys
import time

import calibration

# a run that has not finished its minimum work by then stops anyway, so the
# process ends well inside the 180 s a run may take
HARD_STOP_S = 120.0


def check(workload, index, op, outcome) -> None:
    """Run the workload's output checks; a check that raises is a failed operation."""
    workload.checked += 1
    try:
        workload.check(index, op, outcome)
    except Exception as exc:  # the run goes on and reports the operation as failed
        workload.fail(index, f"output check raised {type(exc).__name__}: {exc}")


def timed_run(workload, seconds: float) -> dict:
    """Closed loop: operations back to back until the next would overrun.

    Another operation starts while the time used plus half the mean
    operation wall time (checks included) is below `seconds`, and always
    until `workload.min_ops` have run. Calibration samples are taken every
    SAMPLE_EVERY_S: between operations, and inside long ones at the start
    of each `integrate` call and at the workload's own sample points (the
    sweep's CSV sink). Each operation gets the mean of the samples from the
    last one before it to the first one after it; sampling time inside an
    operation is taken out of its time.
    """
    from hematodyn import integrator
    from tracing import patched

    sampler = calibration.Sampler()
    integrate = integrator.integrate

    def sampling_integrate(*args, **kwargs):
        sampler.take_if_due()
        return integrate(*args, **kwargs)

    latencies = []
    brackets = []  # (first, last) calibration sample index around each operation
    start = time.perf_counter()
    index = 0
    workload.sample_hook = sampler.take_if_due
    with patched(integrate, sampling_integrate):
        while True:
            elapsed = time.perf_counter() - start
            if index >= workload.min_ops and elapsed + 0.5 * elapsed / index >= seconds:
                break
            if elapsed >= HARD_STOP_S:
                break
            op = workload.op(index)
            first = len(sampler.samples) - 1
            sampler.inside_s = 0.0
            latency, outcome = workload.run_op(op)
            latency -= sampler.inside_s
            latencies.append(latency)
            brackets.append((first, len(sampler.samples)))
            workload.note_latency(op, latency)
            check(workload, index, op, outcome)
            index += 1
            sampler.take_if_due()
    workload.sample_hook = None
    sampler.take()
    samples = sampler.samples
    local = []
    for first, last in brackets:
        around = samples[first:last + 1]
        local.append(sum(around) / len(around))
    return {"latencies": latencies, "calibration": samples, "local_calibration": local}


def traced_run(workload, out_dir: str) -> dict:
    """Each of a fixed list of operations untraced, then traced; per-layer metrics.

    Running the two copies of an operation back to back keeps slow drift in
    machine speed out of the tracing overhead.
    """
    from tracing import Tracer, key_times, layer_metrics, layer_totals, op_layer_self

    count = workload.trace_ops()
    if count > 1:
        # an untimed first operation, so the first untraced copy does not
        # carry the process's cold start (a lone 13 s audit does not need it)
        workload.run_op(workload.op(0))
    tracer = Tracer(param_key=getattr(workload, "params_key", {}).get)
    defects_before = len(workload.known_defects)
    untraced, traced, kinds = [], [], []
    for index in range(count):
        op = workload.op(index)
        latency, outcome = workload.run_op(op)
        untraced.append(latency)
        check(workload, index, op, outcome)
        tracer.op = index
        tracer.attach()
        try:
            latency, outcome = workload.run_op(op)
        finally:
            tracer.detach()
        traced.append(latency)
        kinds.append(op[0] if isinstance(op, tuple) else workload.name)
        check(workload, count + index, op, outcome)

    spans = tracer.spans
    metrics = layer_metrics(spans)
    overhead = sum(traced) - sum(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / sum(untraced)
    metrics["trace.spans"] = len(spans)
    # both copies of each operation are checked; count the traced copies
    metrics["cli.nonfinite_accepted"] = (len(workload.known_defects) - defects_before) // 2
    # shares of the traced operation time; 0 where the workload has no such part
    metrics["serialize.csv_pass_share"] = metrics["serialize.csv_busy_s"] / sum(traced)
    by_set = key_times(spans, "check_constellations")
    metrics["sweep.set6_share"] = by_set.get(6, 0.0) / sum(traced)
    cli_self = op_layer_self(spans, "cli")
    stab = [i for i, kind in enumerate(kinds) if kind == "stability"]
    stab_wall = sum(traced[i] for i in stab)
    metrics["cli.stability_self_share"] = (
        sum(cli_self.get(i, 0.0) for i in stab) / stab_wall if stab_wall else 0.0
    )

    # one more checked operation: every layer the workload uses recorded calls
    totals = layer_totals(spans)
    workload.checked += 1
    for layer in workload.expected_layers:
        if totals[layer].calls == 0:
            workload.fail(-1, f"traced run: layer {layer} should run but recorded no calls")

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{workload.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"bindings": tracer.bindings, "spans": tracer.dump()}, fh)
    return {
        "latencies": traced,
        "untraced_latencies": untraced,
        "per_layer": metrics,
        "audit_set_s": {str(k): v for k, v in sorted(by_set.items())},
        "bindings": tracer.bindings,
        "spans_file": os.path.relpath(path),
    }


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    import hematodyn
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if setup_only:
        return 0
    if trace:
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        result = traced_run(workload, out_dir)
    else:
        result = timed_run(workload, seconds)
    result.update(
        checked=workload.checked,
        failed=len(workload.failed_ops),
        failures=workload.failures,
        known_defects=workload.known_defects,
        digests=workload.digests(),
        inputs=workload.describe(),
        extra=workload.extra_metrics(result["latencies"]),
        hematodyn_file=hematodyn.__file__,
        numpy=numpy.__version__,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

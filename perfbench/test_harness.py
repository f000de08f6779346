"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

import hashlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stats import DigestSink, interval_union, percentile, self_time, tail, tail_percentile  # noqa: E402
from tracing import Span, layer_totals, span_self_times  # noqa: E402


def test_self_time_is_span_minus_union_of_children():
    # children overlap each other and stick out of the parent on both sides
    children = [(0.5, 2.0), (1.5, 3.0), (4.0, 5.0), (9.5, 12.0)]
    covered = (3.0 - 1.0) + (5.0 - 4.0) + (10.0 - 9.5)
    assert self_time(1.0, 10.0, children) == pytest.approx(9.0 - covered)
    assert self_time(1.0, 10.0, []) == pytest.approx(9.0)
    assert self_time(1.0, 2.0, [(3.0, 4.0)]) == pytest.approx(1.0)


def test_interval_union_counts_overlaps_once():
    assert interval_union([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert interval_union([]) == 0.0


def test_layer_totals_from_spans():
    # cli.main [0, 10] -> stability [1, 4] -> cubic [2, 3]; serialize [5, 6]
    spans = [
        Span(0, "cli", "main", None, 0, False, 0.0, 10.0),
        Span(1, "stability", "stability_reports", 0, 0, False, 1.0, 4.0),
        Span(2, "cubic", "solve_cubic", 1, 0, False, 2.0, 3.0),
        Span(3, "serialize", "dumps", 0, 0, False, 5.0, 6.0),
    ]
    assert span_self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    totals = layer_totals(spans)
    assert (totals["cli"].calls, totals["cli"].busy_s, totals["cli"].self_s) == (1, 10.0, 6.0)
    assert totals["stability"].busy_s == pytest.approx(3.0)
    assert totals["model"].calls == 0


def test_nested_span_of_the_same_layer_is_not_busy_twice():
    spans = [
        Span(0, "analysis", "classify", None, 0, False, 0.0, 4.0),
        Span(1, "analysis", "oscillation_report", 0, 0, True, 1.0, 2.0),
    ]
    totals = layer_totals(spans)
    assert totals["analysis"].calls == 2
    assert totals["analysis"].busy_s == pytest.approx(4.0)
    assert totals["analysis"].self_s == pytest.approx(4.0)


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        label, value = tail(values)
        assert label == "p%g" % expected
        assert sum(1 for v in values if v > value) >= 10


def test_tail_of_few_samples_falls_back_to_the_median():
    assert tail([3.0, 1.0, 2.0, 10.0]) == ("p50 (n<20)", 2.5)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100


@pytest.mark.parametrize("block_chars", [1, 7, 64, 1 << 20])
def test_digest_sink_matches_hash_of_whole_text(block_chars):
    rng = random.Random(block_chars)
    pieces = ["".join(rng.choice("0123456789,.e-\nabc") for _ in range(rng.randrange(0, 40)))
              for _ in range(500)]
    seen = []
    sink = DigestSink(block_chars=block_chars, on_block=seen.append)
    for piece in pieces:
        sink.write(piece)
    text = "".join(pieces)
    assert sink.hexdigest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert "".join(seen) == text
    assert sink.nchars == len(text)


def test_csv_checker_tallies_and_samples_across_block_boundaries():
    from workloads import CsvChecker

    rows = [f"{i}.5,0.25,1e-3,1,0.1,{('stable', 'unstable', 'nonexistent')[i % 3]}"
            for i in range(200)]
    text = "p1,a2,d3,e2_exists,hurwitz,class\n" + "".join(r + "\n" for r in rows)
    checker = CsvChecker([0, 57, 199])
    sink = DigestSink(block_chars=13, on_block=checker.feed)
    sink.write(text)
    sink.hexdigest()
    assert checker.header == "p1,a2,d3,e2_exists,hurwitz,class"
    assert checker.rows == 200
    assert checker.tally == {"stable": 67, "unstable": 67, "marginal": 0, "nonexistent": 66}
    assert checker.samples == {0: rows[0], 57: rows[57], 199: rows[199]}


def test_tracer_wraps_every_binding_and_restores_them():
    import hematodyn
    from hematodyn import analysis, integrator, sweep
    from tracing import Tracer

    original = integrator.integrate
    tracer = Tracer()
    tracer.attach()
    try:
        wrapped = integrator.integrate
        assert wrapped is not original
        # the package re-export and the analysis module's import are the same wrapper
        assert hematodyn.integrate is wrapped and analysis.integrate is wrapped
        assert tracer.bindings["integrator:integrate"] >= 3
        assert sweep.run_sweep is hematodyn.run_sweep
    finally:
        tracer.detach()
    assert integrator.integrate is original and analysis.integrate is original


def test_traced_calls_record_parent_spans_and_info():
    import hematodyn
    from tracing import Tracer, layer_metrics

    params = hematodyn.REFERENCE_PARAMETERS
    tracer = Tracer()
    tracer.op = 7
    tracer.attach()
    try:
        hematodyn.stability_reports(params)
    finally:
        tracer.detach()
    hematodyn.stability_reports(params)  # detached: records nothing
    names = [span.name for span in tracer.spans]
    assert names[0] == "stability_reports"
    assert "steady_state_E2" in names and "solve_cubic" in names
    assert all(span.op == 7 for span in tracer.spans)
    assert all(span.parent == 0 for span in tracer.spans[1:] if span.name != "solve_cubic")
    metrics = layer_metrics(tracer.spans)
    assert metrics["stability.calls"] == 1 and metrics["cubic.calls"] == 3


def test_calibration_loop_work_is_pinned_and_scaling_is_proportional():
    import calibration

    assert calibration.loop() == calibration.CHECKSUM
    ref = calibration.REFERENCE_S
    # an operation that took 3 s while the loop took twice its reference time
    # counts as 1.5 s at the reference speed
    assert calibration.scaled([3.0, 1.0], [2 * ref, ref]) == pytest.approx([1.5, 1.0])

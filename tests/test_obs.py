"""The telemetry layer: metrics, spans, clocks, files, and neutrality."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.core.explorer import run_sweep_dir
from repro.errors import ObsError
from repro.obs import (
    DISABLED,
    ManualClock,
    MetricsRegistry,
    Telemetry,
    Tracer,
    activate,
    canonical_spans,
    current,
    load_metrics_file,
    load_run_metrics,
    load_run_spans,
    load_spans_file,
    metrics_jsonl,
    render_metrics,
    render_spans,
    spans_jsonl,
)
from repro.runner import RunJournal, Runner, RunUnit

TEMPLATE = SystemConfig(l1_bytes=2048, l2_bytes=16384)

#: Journal/telemetry fields that legitimately differ between
#: byte-equivalent runs (wall-clock measurements).
VOLATILE_FIELDS = ("elapsed_s", "duration_s", "started_at", "ended_at")


def strip_timing(record):
    return {k: v for k, v in record.items() if k not in ("start", "duration_s")}


class TestManualClock:
    def test_advances_both_clocks(self):
        clock = ManualClock(start=10.0, wall_start=1000.0)
        clock.advance(2.5)
        assert clock.monotonic() == 12.5
        assert clock.wall() == 1002.5


class TestMetricsRegistry:
    def test_counter_increments_and_labels_split_series(self):
        registry = MetricsRegistry()
        registry.counter("units_total", {"status": "ok"}).inc()
        registry.counter("units_total", {"status": "ok"}).inc(2)
        registry.counter("units_total", {"status": "failed"}).inc()
        samples = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in registry.snapshot()
        }
        assert samples[(("status", "ok"),)] == 3
        assert samples[(("status", "failed"),)] == 1

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError, match="cannot decrease"):
            registry.counter("n").inc(-1)

    def test_gauge_set_and_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("rss_bytes")
        gauge.set(100.0)
        gauge.set_max(50.0)
        assert gauge.value == 100.0
        gauge.set_max(200.0)
        assert gauge.value == 200.0

    def test_histogram_buckets_are_cumulative_in_render(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("d", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.25)
        text = registry.render_prometheus()
        assert 'd_bucket{le="0.1"} 1' in text
        assert 'd_bucket{le="1"} 3' in text
        assert 'd_bucket{le="+Inf"} 4' in text
        assert "d_count 4" in text

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObsError, match="already registered"):
            registry.gauge("x")

    def test_invalid_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError, match="invalid metric name"):
            registry.counter("9bad")
        with pytest.raises(ObsError, match="invalid metric label"):
            registry.counter("ok", {"bad-label": "x"})

    def test_merge_adds_counters_and_histograms_maxes_gauges(self):
        worker = MetricsRegistry()
        worker.counter("n").inc(3)
        worker.gauge("rss").set(100.0)
        worker.histogram("d", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("n").inc(1)
        parent.gauge("rss").set(250.0)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        assert parent.counter("n").value == 7
        assert parent.gauge("rss").value == 250.0
        assert parent.histogram("d", buckets=(1.0,)).count == 2

    def test_merge_rejects_malformed_and_incompatible(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError, match="malformed"):
            registry.merge([{"value": 1}])
        registry.histogram("d", buckets=(1.0,)).observe(0.5)
        bad = MetricsRegistry()
        bad.histogram("d", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ObsError, match="incompatible bucket layout"):
            registry.merge(bad.snapshot())

    def test_prometheus_labels_are_sorted_and_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", {"b": 'say "hi"', "a": "x"}).inc()
        text = registry.render_prometheus()
        assert 'c{a="x",b="say \\"hi\\""} 1' in text


class TestTracer:
    def test_nesting_parents_and_unit_inheritance(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("unit", unit="2:16"):
            clock.advance(1.0)
            with tracer.span("simulate"):
                clock.advance(0.25)
        inner, outer = tracer.records()
        assert outer["name"] == "unit" and outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert inner["unit"] == "2:16"  # inherited from the parent span
        assert inner["duration_s"] == 0.25
        assert outer["duration_s"] == 1.25

    def test_escaping_exception_marks_error_status(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ValueError):
            with tracer.span("unit"):
                raise ValueError("boom")
        assert tracer.records()[0]["status"] == "error"

    def test_root_spans_skip_the_nesting_stack(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("request", root=True):
            with tracer.span("inner"):
                pass
        request = [r for r in tracer.records() if r["name"] == "request"][0]
        inner = [r for r in tracer.records() if r["name"] == "inner"][0]
        assert request["parent"] is None
        assert inner["parent"] is None  # a root span never adopts children

    def test_absorb_rebases_ids(self):
        parent = Tracer(clock=ManualClock())
        with parent.span("a"):
            pass
        worker = Tracer(clock=ManualClock())
        with worker.span("unit"):
            with worker.span("simulate"):
                pass
        parent.absorb(worker.records())
        ids = [r["id"] for r in parent.records()]
        assert len(set(ids)) == len(ids)
        absorbed = {r["name"]: r for r in parent.records()[1:]}
        assert absorbed["simulate"]["parent"] == absorbed["unit"]["id"]

    def test_absorb_rejects_malformed(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(ObsError, match="malformed span record"):
            tracer.absorb([{"id": 1}])

    def test_max_spans_bounds_memory_not_the_total(self):
        tracer = Tracer(clock=ManualClock(), max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.records()) == 2
        assert tracer.recorded == 5

    def test_canonical_spans_is_scheduling_independent(self):
        def trace(order):
            tracer = Tracer(clock=ManualClock())
            for unit in order:
                with tracer.span("unit", unit=unit):
                    with tracer.span("simulate"):
                        pass
            return tracer.records()

        unit_order = ["u1", "u2", "u3"]
        a = canonical_spans(trace(unit_order), unit_order)
        b = canonical_spans(trace(["u3", "u1", "u2"]), unit_order)
        assert a == b
        assert [r["unit"] for r in a] == ["u1", "u1", "u2", "u2", "u3", "u3"]


class TestTelemetryFiles:
    def test_metrics_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n", {"status": "ok"}).inc(2)
        path = tmp_path / "METRICS.jsonl"
        path.write_text(metrics_jsonl(registry.snapshot()))
        assert load_metrics_file(path) == registry.snapshot()

    def test_spans_roundtrip(self, tmp_path):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("unit", unit="u1"):
            pass
        path = tmp_path / "SPANS.jsonl"
        path.write_text(spans_jsonl(tracer.records()))
        assert load_spans_file(path) == tracer.records()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "empty"),
            ("not json\n", "corrupt"),
            ('{"metrics": 99}\n', "unsupported"),
            ('{"metrics": 1}\nnot json\n', "corrupt"),
            ('{"metrics": 1}\n{"no_name": 1}\n', "malformed"),
        ],
    )
    def test_metrics_file_errors_are_typed(self, tmp_path, body, message):
        path = tmp_path / "METRICS.jsonl"
        path.write_text(body)
        with pytest.raises(ObsError, match=message):
            load_metrics_file(path)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read"):
            load_metrics_file(tmp_path / "nope.jsonl")
        with pytest.raises(ObsError, match="unsupported span log"):
            path = tmp_path / "SPANS.jsonl"
            path.write_text('{"spans": 99}\n')
            load_spans_file(path)


class TestTelemetryBundle:
    def test_disabled_bundle_is_inert(self, tmp_path):
        DISABLED.count("n")
        DISABLED.observe("d", 1.0)
        with DISABLED.span("unit") as span:
            span.set(anything="goes")
        DISABLED.bind(tmp_path)
        DISABLED.flush()
        assert not list(tmp_path.iterdir())
        assert DISABLED.registry.snapshot() == []
        DISABLED.out_dir = None

    def test_ambient_activation_nests(self):
        bundle = Telemetry(clock=ManualClock())
        assert current() is DISABLED
        with activate(bundle):
            assert current() is bundle
            with activate(None):
                assert current() is bundle
        assert current() is DISABLED

    def test_worker_snapshot_absorb(self):
        worker = Telemetry(clock=ManualClock())
        worker.count("repro_units_total", status="ok")
        with worker.span("unit", unit="u1"):
            pass
        parent = Telemetry(clock=ManualClock())
        parent.absorb(worker.snapshot())
        parent.absorb(None)  # a dead worker ships nothing
        assert parent.registry.counter("repro_units_total", {"status": "ok"}).value == 1
        assert len(parent.tracer.records()) == 1

    def test_flush_writes_tracked_atomic_files(self, tmp_path):
        bundle = Telemetry(clock=ManualClock()).bind(tmp_path)
        bundle.count("n")
        with bundle.span("unit", unit="u1"):
            pass
        bundle.flush(unit_order=["u1"])
        for name in ("METRICS.jsonl", "SPANS.jsonl"):
            assert (tmp_path / name).exists()
            assert (tmp_path / f"{name}.sha256").exists()
        assert load_run_spans(tmp_path)[0]["unit"] == "u1"

    def test_serial_run_writes_telemetry_once(self, tmp_path, monkeypatch):
        """A run writes its span log once, at the end, not per batch of units."""
        import repro.runner.atomic as atomic

        written = []
        real_write = atomic.write_text_atomic

        def counting_write(path, text, **kwargs):
            written.append(path.name)
            return real_write(path, text, **kwargs)

        monkeypatch.setattr(atomic, "write_text_atomic", counting_write)
        bundle = Telemetry(clock=ManualClock()).bind(tmp_path)
        units = [
            RunUnit(f"u{i:02d}", {"i": i}, run=lambda i=i: i) for i in range(48)
        ]
        result = Runner(telemetry=bundle).run(units)
        assert len(result.outcomes) == 48
        assert written.count("SPANS.jsonl") == 1
        assert written.count("METRICS.jsonl") == 1
        assert len(load_run_spans(tmp_path)) >= 48


class TestJournalSchemaCompat:
    """Satellite: v1 journals (no duration_s) still resume and report."""

    V1_ENTRY = {
        "unit": "2:16",
        "key": "abc123",
        "status": "ok",
        "attempts": 1,
        "elapsed_s": 0.25,
    }

    def write_v1(self, path):
        lines = [json.dumps({"journal": 1}), json.dumps(self.V1_ENTRY)]
        path.write_text("\n".join(lines) + "\n")

    def test_v1_journal_resumes_and_upgrades_on_append(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_v1(path)
        journal = RunJournal.open(path, resume=True)
        assert journal.completed("2:16", "abc123")
        journal.record(
            "4:32", "def456", "ok", duration_s=0.5, started_at=1.0, ended_at=1.5
        )
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"journal": 2}
        assert json.loads(lines[2])["duration_s"] == 0.5

    def test_metrics_synthesis_falls_back_to_elapsed_s(self, tmp_path):
        self.write_v1(tmp_path / "journal.jsonl")
        samples, source = load_run_metrics(tmp_path)
        assert source == "journal"
        by_name = {s["name"]: s for s in samples if s["name"] != "repro_units_total"}
        histogram = by_name["repro_unit_duration_seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] == pytest.approx(0.25)

    def test_directory_without_any_journal_is_typed(self, tmp_path):
        with pytest.raises(ObsError, match="no METRICS.jsonl and no journal"):
            load_run_metrics(tmp_path)


class TestRendering:
    def test_render_metrics_table(self):
        registry = MetricsRegistry()
        registry.counter("repro_units_total", {"status": "ok"}).inc(45)
        registry.histogram("repro_unit_duration_seconds").observe(0.5)
        text = render_metrics(registry.snapshot(), source="metrics")
        assert "# 2 series (metrics)" in text
        assert "repro_units_total" in text and "{status=ok}" in text
        assert "count=1" in text

    def test_render_spans_tree_and_limit(self):
        tracer = Tracer(clock=ManualClock())
        for unit in ("u1", "u2"):
            with tracer.span("unit", unit=unit):
                with tracer.span("simulate"):
                    pass
        text = render_spans(tracer.records())
        lines = text.splitlines()
        assert lines[0] == "# 4 spans"
        assert lines[1].startswith("unit ") and lines[2].startswith("  simulate ")
        limited = render_spans(tracer.records(), limit=2)
        assert "more spans" in limited


class TestSweepTelemetry:
    """Integration: telemetry across a real (tiny) sweep directory."""

    SCALE = 0.01

    def run(self, out, **kwargs):
        return run_sweep_dir(out, "gcc1", TEMPLATE, scale=self.SCALE, **kwargs)

    def test_telemetry_is_byte_neutral(self, tmp_path):
        _, points_off = self.run(tmp_path / "off")
        _, points_on = self.run(tmp_path / "on", telemetry=True)
        assert points_off == points_on
        for name in ("sweep.tsv", "RUN.json", "sweep.tsv.sha256"):
            assert (tmp_path / "off" / name).read_bytes() == (
                tmp_path / "on" / name
            ).read_bytes()
        assert not (tmp_path / "off" / "METRICS.jsonl").exists()
        assert (tmp_path / "on" / "METRICS.jsonl").exists()
        assert (tmp_path / "on" / "SPANS.jsonl").exists()

    def test_pool_sweep_spans_match_journal_and_workers_dont_show(self, tmp_path):
        self.run(tmp_path / "serial", telemetry=True)
        self.run(tmp_path / "pooled", telemetry=True, workers=4)

        journal = RunJournal.open(
            tmp_path / "pooled" / "sweep.journal.jsonl", resume=True
        )
        unit_ids = {entry["unit"] for entry in journal.entries}
        pooled_spans = load_run_spans(tmp_path / "pooled")
        pooled_units = [r for r in pooled_spans if r["name"] == "unit"]
        assert len(pooled_units) == len(unit_ids) == len(journal)
        assert {r["unit"] for r in pooled_units} == unit_ids

        # After the canonical rewrite, span-file *structure* is
        # identical whatever the worker count; only timings differ.
        serial_spans = load_run_spans(tmp_path / "serial")
        assert [strip_timing(r) for r in serial_spans] == [
            strip_timing(r) for r in pooled_spans
        ]

        # The merged metrics agree on every deterministic counter.
        def counters(out):
            return {
                (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
                for s in load_run_metrics(out)[0]
                if s["type"] == "counter"
            }

        assert counters(tmp_path / "serial") == counters(tmp_path / "pooled")

    def test_profile_capture_writes_per_unit_profiles(self, tmp_path):
        result, _ = self.run(tmp_path / "prof", telemetry=True, profile=True)
        profiles = sorted((tmp_path / "prof" / "profiles").glob("*.prof"))
        assert len(profiles) == len(result.values())
        assert all(p.with_name(p.name + ".sha256").exists() for p in profiles)

    def test_hot_path_counters_reach_the_snapshot(self, tmp_path):
        self.run(tmp_path / "run", telemetry=True)
        samples, source = load_run_metrics(tmp_path / "run")
        assert source == "metrics"
        by_key = {
            (s["name"], tuple(sorted(s["labels"].items()))): s for s in samples
        }
        refs = by_key[("repro_refs_total", ())]
        assert refs["value"] > 0
        ok = by_key[("repro_units_total", (("status", "ok"),))]
        assert ok["value"] == len(
            RunJournal.open(tmp_path / "run" / "sweep.journal.jsonl", resume=True)
        )
        assert ("repro_simulate_seconds", ()) in by_key

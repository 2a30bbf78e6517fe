"""Tests for configuration objects and the metrics utilities."""

import json

import pytest

from repro.config import (
    CacheConfig,
    INTERACTIVITY_BUDGET_MS,
    KyrixConfig,
    NetworkConfig,
    PrefetchConfig,
    StorageConfig,
)
from repro.errors import KyrixError
from repro.metrics.collector import LatencyBreakdown, MetricsCollector, summarize
from repro.metrics.timer import Timer, VirtualClock


class TestConfig:
    def test_defaults_validate(self):
        KyrixConfig().validate()

    def test_interactivity_budget_is_500ms(self):
        assert INTERACTIVITY_BUDGET_MS == 500.0
        assert KyrixConfig().interactivity_budget_ms == 500.0

    def test_round_trip_dict(self):
        config = KyrixConfig(app_name="demo", viewport_width=640)
        config.network.rtt_ms = 7.5
        restored = KyrixConfig.from_dict(config.to_dict())
        assert restored.app_name == "demo"
        assert restored.viewport_width == 640
        assert restored.network.rtt_ms == 7.5

    def test_round_trip_json_and_file(self, tmp_path):
        config = KyrixConfig(app_name="demo")
        path = tmp_path / "config.json"
        config.save(path)
        restored = KyrixConfig.from_file(path)
        assert restored.app_name == "demo"
        assert json.loads(config.to_json())["app_name"] == "demo"

    def test_partial_dict_uses_defaults(self):
        config = KyrixConfig.from_dict({"app_name": "x", "cache": {"enabled": False}})
        assert config.cache.enabled is False
        assert config.network.rtt_ms == NetworkConfig().rtt_ms

    @pytest.mark.parametrize(
        "bad",
        [
            {"app_name": ""},
            {"viewport_width": 0},
            {"interactivity_budget_ms": -1},
            {"storage": {"page_size": 10}},
            {"network": {"bandwidth_mbps": 0}},
            {"prefetch": {"strategy": "psychic"}},
            {"cache": {"backend_entries": -1}},
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(KyrixError):
            KyrixConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "stale, name",
        [
            # A key an earlier version saved: the shard wire codec option.
            ({"cluster": {"wire_codec": "auto"}}, "cluster.wire_codec"),
            ({"bogus": 1}, "bogus"),
            ({"cluster": {"autopilot": {"bogus": 1}}}, "cluster.autopilot.bogus"),
        ],
    )
    def test_unknown_keys_are_typed_errors_naming_the_key(self, stale, name):
        with pytest.raises(KyrixError, match=f"unknown config key '{name}'"):
            KyrixConfig.from_dict(stale)

    def test_section_must_be_a_mapping(self):
        with pytest.raises(KyrixError, match="'cluster' must be a mapping"):
            KyrixConfig.from_dict({"cluster": 3})

    def test_nested_sections_round_trip(self):
        config = KyrixConfig()
        config.cluster.autopilot.enabled = True
        restored = KyrixConfig.from_dict(config.to_dict())
        assert restored == config

    def test_storage_config_validation(self):
        with pytest.raises(KyrixError):
            StorageConfig(buffer_pool_pages=2).validate()

    def test_prefetch_config_validation(self):
        PrefetchConfig(strategy="momentum").validate()
        with pytest.raises(KyrixError):
            PrefetchConfig(lookahead_steps=-1).validate()


class TestTimers:
    def test_timer_measures_elapsed(self):
        with Timer() as timer:
            sum(range(10_000))
        assert timer.elapsed_ms >= 0.0

    def test_timer_misuse_raises(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            timer.stop()
        with pytest.raises(RuntimeError):
            timer.lap_ms()

    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        clock.advance(5.0)
        checkpoint = clock.checkpoint()
        clock.advance(2.5)
        assert clock.now_ms == 7.5
        assert clock.since(checkpoint) == 2.5

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_virtual_clock_reset(self):
        clock = VirtualClock()
        clock.advance(3)
        clock.reset()
        assert clock.now_ms == 0.0


class TestMetricsCollector:
    def _step(self, query=1.0, network=2.0, render=0.5, **kwargs):
        return LatencyBreakdown(
            query_ms=query, network_ms=network, render_ms=render, **kwargs
        )

    def test_total_ms(self):
        assert self._step().total_ms == 3.5

    def test_merge_accumulates(self):
        step = self._step(requests=1, objects_fetched=10, cache_hit=True)
        step.merge(self._step(requests=2, objects_fetched=5, cache_hit=False))
        assert step.requests == 3
        assert step.objects_fetched == 15
        assert step.cache_hit is False

    def test_average_and_summary(self):
        collector = MetricsCollector()
        for query in (1.0, 2.0, 3.0):
            collector.record(self._step(query=query, network=0, render=0))
        assert collector.average_response_ms() == pytest.approx(2.0)
        summary = collector.summary()
        assert summary.count == 3
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_component_averages(self):
        collector = MetricsCollector()
        collector.record(self._step(query=2.0, network=4.0, render=0.0))
        averages = collector.component_averages()
        assert averages["query_ms"] == 2.0
        assert averages["network_ms"] == 4.0

    def test_cache_hit_rate(self):
        collector = MetricsCollector()
        collector.record(self._step(cache_hit=True))
        collector.record(self._step(cache_hit=False))
        assert collector.cache_hit_rate() == 0.5

    def test_counters(self):
        collector = MetricsCollector()
        collector.bump("prefetch", 3)
        collector.bump("prefetch")
        assert collector.counters["prefetch"] == 4

    def test_empty_collector(self):
        collector = MetricsCollector()
        assert collector.average_response_ms() == 0.0
        assert collector.cache_hit_rate() == 0.0
        with pytest.raises(ValueError):
            collector.summary()

    def test_summarize_percentiles(self):
        # Nearest-rank percentiles: for samples 1..100 the p-th percentile
        # is exactly the sample at rank ceil(p * 100).
        summary = summarize(range(1, 101))
        assert summary.median == 50
        assert summary.p95 == 95
        assert summary.p99 == 99
        assert summary.p999 == 100
        assert summary.within_budget(500.0)
        assert not summary.within_budget(50.0)

    def test_percentile_is_nearest_rank_on_small_n(self):
        from repro.metrics.collector import percentile

        data = [10.0, 20.0, 30.0]
        assert percentile(data, 0.5) == 20.0
        assert percentile(data, 0.95) == 30.0
        assert percentile(data, 0.0) == 10.0
        assert percentile([7.0], 0.999) == 7.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

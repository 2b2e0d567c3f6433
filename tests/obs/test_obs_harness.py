"""``REPRO_OBS`` grammar and process-wide arming."""

import pytest

from repro.obs import harness
from repro.obs.harness import ObsConfig, arm, arm_from_env, config_from_env
from repro.obs.profile import active_profiler, deactivate as prof_deactivate
from repro.obs.trace import active_tracer, deactivate as trace_deactivate


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    trace_deactivate()
    prof_deactivate()


class TestGrammar:
    def test_one_means_everything(self):
        for spec in ("1", "all", "on", "true", "ON"):
            config = config_from_env(spec)
            assert config.trace and config.profile and config.metrics

    def test_single_components(self):
        assert config_from_env("trace").trace
        assert not config_from_env("trace").profile
        assert config_from_env("profile").profile
        assert config_from_env("metrics").metrics

    def test_semicolon_and_comma_both_separate(self):
        for spec in ("trace;profile", "trace,profile", " trace ; profile "):
            config = config_from_env(spec)
            assert config.trace and config.profile and not config.metrics

    def test_trace_options(self):
        config = config_from_env("trace:export=/tmp/s.jsonl:buffer=128")
        assert config.trace_export == "/tmp/s.jsonl"
        assert config.trace_buffer == 128

    def test_export_requires_trace_component(self):
        with pytest.raises(ValueError, match="export= applies to trace"):
            config_from_env("profile:export=/tmp/x")
        for spec in ("profile:buffer=5", "metrics:buffer=9"):
            with pytest.raises(ValueError, match="buffer= applies to trace"):
                config_from_env(spec)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown component"):
            config_from_env("telemetry")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            config_from_env("trace:color=on")

    def test_empty_parts_ignored(self):
        config = config_from_env(";;trace;;")
        assert config.trace and not config.profile

    def test_any_flag(self):
        assert not ObsConfig().any
        assert ObsConfig(metrics=True).any


class TestArming:
    def test_arm_activates_requested_components(self):
        armed = arm(ObsConfig(trace=True, profile=True))
        assert active_tracer() is armed["tracer"]
        assert active_profiler() is armed["profiler"]

    def test_metrics_only_arms_nothing_global(self):
        armed = arm(ObsConfig(metrics=True))
        assert armed == {}
        assert active_tracer() is None and active_profiler() is None

    def test_arm_honours_trace_options(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        armed = arm(ObsConfig(trace=True, trace_export=path,
                              trace_buffer=42))
        tracer = armed["tracer"]
        assert tracer.export_path == path
        assert tracer._buffer == 42
        tracer.close()

    def test_arm_from_env_unset_is_inert(self):
        assert arm_from_env(environ={}) is None
        assert arm_from_env(environ={harness.OBS_ENV: ""}) is None
        assert active_tracer() is None and active_profiler() is None

    def test_arm_from_env_set_arms(self):
        armed = arm_from_env(environ={harness.OBS_ENV: "trace;profile"})
        assert "tracer" in armed and "profiler" in armed
        assert active_tracer() is armed["tracer"]

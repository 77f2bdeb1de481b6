"""The ``repro.api`` facade: top-level surface, persisted artifacts, validation."""

import warnings

import numpy as np
import pytest

import repro
from repro import api
from repro.config import (
    DecompositionConfig,
    DLBConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.errors import ConfigurationError, SchemaError


def small_config(dlb_enabled: bool = True) -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=9),
        dlb=DLBConfig(enabled=dlb_enabled),
    )


class TestDeprecatedShims:
    """The old top-level runner shims are gone; the classes live in
    ``repro.core.runner`` and runs go through ``repro.api``."""

    @staticmethod
    def _assert_not_exported(name):
        assert name not in repro.__all__
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_parallel_runner_shim_is_gone(self):
        self._assert_not_exported("ParallelMDRunner")

    def test_driven_runner_shim_is_gone(self):
        self._assert_not_exported("DrivenLoadRunner")

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing

    def test_runner_class_and_api_are_equivalent(self):
        """The runner class path computes the same physics as simulate()."""
        from repro.core.runner import ParallelMDRunner

        old = ParallelMDRunner(small_config(), RunConfig(steps=3, seed=5)).run()
        new = api.simulate(small_config(), run=RunConfig(steps=3, seed=5))
        assert old.digest() == new.digest()

    def test_direct_module_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core.runner import ParallelMDRunner  # noqa: F401


class TestSimulateValidation:
    def test_rejects_non_config(self):
        with pytest.raises(ConfigurationError):
            api.simulate(42, run=RunConfig(steps=1))

    def test_rejects_unknown_preset(self):
        with pytest.raises(Exception):
            api.simulate("no-such-preset", run=RunConfig(steps=1))

    def test_rejects_bad_faults_type(self):
        with pytest.raises(ConfigurationError):
            api.simulate(small_config(), run=RunConfig(steps=1), faults="plan.json")

    def test_rejects_negative_stop_after(self):
        with pytest.raises(ConfigurationError):
            api.simulate(small_config(), run=RunConfig(steps=1), stop_after=-1)

    def test_dlb_override_flips_mode(self):
        result = api.simulate(small_config(True), run=RunConfig(steps=2, seed=1), dlb=False)
        assert result.meta["mode"] == "ddm"
        assert not result.dlb_enabled


class TestSimulateDriven:
    def test_runs_configuration_sequence(self):
        rng = np.random.default_rng(0)
        box = small_config().md.box_length
        configs = [rng.uniform(0, box, (500, 3)) for _ in range(3)]
        result = api.simulate_driven(small_config(), configs)
        assert result.meta["mode"] == "dlb"
        assert result.meta["engine"] == "inproc"


class TestPersistedArtifacts:
    def test_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        run = RunConfig(steps=7, seed=9)
        api.save_config(path, small_config(), run)
        loaded = api.load_config(path)
        assert loaded.simulation == small_config()
        assert loaded.run == run

    def test_config_without_run_section(self, tmp_path):
        path = tmp_path / "config.json"
        api.save_config(path, small_config())
        assert api.load_config(path).run is None

    def test_load_config_rejects_missing_simulation(self, tmp_path):
        path = tmp_path / "broken.json"
        from repro.core.results import write_result_json

        write_result_json(path, {"not_simulation": {}})
        with pytest.raises(SchemaError):
            api.load_config(path)

    def test_result_payload_is_schema_versioned(self):
        result = api.simulate(small_config(), run=RunConfig(steps=2, seed=1))
        payload = api.result_payload(result)
        from repro.core.results import RESULT_SCHEMA_VERSION

        assert payload["schema_version"] == RESULT_SCHEMA_VERSION
        assert payload["digest"] == result.digest()
        assert payload["steps_run"] == 2

    def test_load_result_round_trip(self, tmp_path):
        from repro.core.results import write_result_json

        result = api.simulate(small_config(), run=RunConfig(steps=2, seed=1))
        path = tmp_path / "result.json"
        write_result_json(path, api.result_payload(result))
        loaded = api.load_result(path)
        assert loaded["digest"] == result.digest()

    def test_load_faults(self, tmp_path):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 3, "jitter": 0.1}))
        plan = api.load_faults(path)
        assert plan.seed == 3
        assert plan.jitter == 0.1

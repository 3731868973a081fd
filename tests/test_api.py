"""Tests for the unified ExperimentSpec API and the removed legacy shims."""

import pytest

from repro.api import CONFIGS, PLAN_KINDS, ExperimentSpec, config_row, plan, profile, run
from repro.config import get_machine
from repro.errors import ExperimentError
from repro.experiments import mixes_common, runner
from repro.multicore.coordinator import HeuristicCoordinator, RLCoordinator

SCALE = 0.05


class TestSpecValidation:
    def test_defaults(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii")
        assert spec.config == "baseline"
        assert spec.input_set == "ref"
        assert spec.scale == 1.0

    def test_unknown_config_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec("mcf", "amd-phenom-ii", "quantum")

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ExperimentError):
            ExperimentSpec("mcf", "amd-phenom-ii", scale=scale)

    @pytest.mark.parametrize("field", ["workload", "machine", "input_set"])
    def test_empty_strings_rejected(self, field):
        kwargs = {"workload": "mcf", "machine": "amd-phenom-ii", "input_set": "ref"}
        kwargs[field] = ""
        with pytest.raises(ExperimentError):
            ExperimentSpec(**kwargs)

    def test_scale_normalised_to_float(self):
        a = ExperimentSpec("mcf", "amd-phenom-ii", scale=1)
        b = ExperimentSpec("mcf", "amd-phenom-ii", scale=1.0)
        assert a == b and hash(a) == hash(b)
        assert isinstance(a.scale, float)

    def test_frozen(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii")
        with pytest.raises(AttributeError):
            spec.config = "hw"


class TestSpecDerivedViews:
    def test_profile_key_ignores_machine_and_config(self):
        a = ExperimentSpec("mcf", "amd-phenom-ii", "hw", "train", 0.2)
        b = ExperimentSpec("mcf", "intel-i7-2600k", "swnt", "train", 0.2)
        assert a.profile_key == b.profile_key == ("mcf", "train", 0.2)

    @pytest.mark.parametrize(
        "config,kind",
        [("baseline", None), ("hw", None), ("sw", "sw"), ("swnt", "swnt"),
         ("stride", "stride"), ("hwsw", "swnt"), ("hwcoord", None),
         ("hwrl", None), ("swi", "swi"), ("hwx", None)],
    )
    def test_plan_kind(self, config, kind):
        assert ExperimentSpec("mcf", "amd-phenom-ii", config).plan_kind == kind

    def test_with_config(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii", "baseline", "train", 0.2)
        other = spec.with_config("swnt")
        assert other.config == "swnt"
        assert other.profile_key == spec.profile_key

    def test_grid_order_and_size(self):
        grid = ExperimentSpec.grid(
            ("a1", "b2"), ("amd-phenom-ii",), ("baseline", "hw"), scales=(0.1,)
        )
        assert len(grid) == 4
        assert grid[0] == ExperimentSpec("a1", "amd-phenom-ii", "baseline", "ref", 0.1)
        assert [s.workload for s in grid] == ["a1", "a1", "b2", "b2"]

    def test_label(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii", "swnt", "train", 0.25)
        assert spec.label() == "mcf/amd-phenom-ii/swnt/train@0.25"


class TestFacade:
    def test_run_is_memoised(self):
        spec = ExperimentSpec("libquantum", "amd-phenom-ii", "baseline", scale=SCALE)
        assert run(spec) is run(spec)

    def test_profile_ignores_machine(self):
        a = profile(ExperimentSpec("mcf", "amd-phenom-ii", scale=SCALE))
        b = profile(ExperimentSpec("mcf", "intel-i7-2600k", scale=SCALE))
        assert a is b

    def test_plan_requires_plan_config(self):
        with pytest.raises(ExperimentError):
            plan(ExperimentSpec("mcf", "amd-phenom-ii", "baseline", scale=SCALE))

    def test_plan_for_hwsw_is_swnt_plan(self):
        hwsw = plan(ExperimentSpec("libquantum", "amd-phenom-ii", "hwsw", scale=SCALE))
        swnt = plan(ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=SCALE))
        assert hwsw is swnt


class TestConfigTable:
    """Pins what every configuration means, as its consumers read it."""

    #: config -> (plan kind, prefetcher, throttled in solo cells,
    #: coordinator type, baseline needed by evaluate_mixes)
    EXPECTED = {
        "baseline": (None, None, False, None, False),
        "hw": (None, "machine", True, None, True),
        "sw": ("sw", None, False, None, False),
        "swnt": ("swnt", None, False, None, False),
        "stride": ("stride", None, False, None, False),
        "hwsw": ("swnt", "machine", True, None, False),
        "hwcoord": (None, "machine", True, HeuristicCoordinator, True),
        "hwrl": (None, "machine", True, RLCoordinator, True),
        "swi": ("swi", None, False, None, False),
        "hwx": (None, "xcore", False, None, False),
    }

    def test_rows(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            runner, "hw_prefetcher_for",
            lambda machine, utilisation=None: built.append(("machine", utilisation)),
        )
        monkeypatch.setattr(
            runner, "cross_core_prefetcher_for",
            lambda program, machine: built.append(("xcore", None)),
        )
        machine = get_machine("amd-phenom-ii")
        utilisation = object()
        assert tuple(self.EXPECTED) == CONFIGS
        for config, expected in self.EXPECTED.items():
            row = config_row(config)
            built.clear()
            runner.prefetcher_for(row, machine, program=None, utilisation=utilisation)
            coordinator = mixes_common.coordinator_for(config)
            assert (
                row.plan,
                built[0][0] if built else None,
                bool(built) and built[0][1] is utilisation,
                None if coordinator is None else type(coordinator),
                config in mixes_common.HW_CONFIGS,
            ) == expected, config
        assert mixes_common.HW_CONFIGS == ("hw", "hwcoord", "hwrl")
        assert set(runner._PLANNERS) == set(PLAN_KINDS)

    def test_unknown_config_row(self):
        with pytest.raises(ExperimentError, match="unknown config 'quantum'"):
            config_row("quantum")


class TestRemovedShims:
    """The stringly-typed entry points finished their tombstone cycle;
    the old names are now plain AttributeErrors like any other typo."""

    NAMES = ("profile_workload", "plan_for", "run_config", "run_all_configs")

    @pytest.mark.parametrize("name", NAMES)
    def test_runner_names_raise_attribute_error(self, name):
        with pytest.raises(AttributeError):
            getattr(runner, name)

    @pytest.mark.parametrize("name", NAMES)
    def test_package_names_raise_attribute_error(self, name):
        import repro.experiments as experiments

        with pytest.raises(AttributeError):
            getattr(experiments, name)

    def test_engine_lazy_reexport_survives(self):
        import repro.experiments as experiments

        assert experiments.ExperimentEngine.__name__ == "ExperimentEngine"

    def test_configs_reexported(self):
        assert runner.CONFIGS == CONFIGS


class TestEngineSurface:
    """repro.api is the one import point for the engine machinery."""

    def test_engine_types_resolvable(self):
        import repro.api as api

        assert api.ExperimentEngine.__name__ == "ExperimentEngine"
        assert api.EngineStats.__name__ == "EngineStats"
        assert api.FailureReport.__name__ == "FailureReport"
        assert api.RetryPolicy.__name__ == "RetryPolicy"

    def test_configure_installs_default_engine(self):
        from repro.api import configure, current_engine, reset_default_engine

        try:
            engine = configure(jobs=1, use_cache=False)
            assert current_engine() is engine
        finally:
            reset_default_engine()

    def test_current_engine_creates_on_demand(self):
        from repro.api import current_engine, reset_default_engine

        reset_default_engine()
        engine = current_engine()
        assert current_engine() is engine
        reset_default_engine()

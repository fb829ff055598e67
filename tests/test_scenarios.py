import dataclasses
import json
import math

import numpy as np
import pytest

import wassbayes as wb
from wassbayes import scenarios
from wassbayes.cli import main
from wassbayes.errors import ComputeError, ConfigError


def minimal_config(**patches):
    """A small valid inversion config that runs in well under a second."""
    cfg = {
        "kind": "inversion",
        "name": "tiny",
        "seed": 5,
        "forward": {"kind": "constant", "n_samples": 9, "t_end": 1.0},
        "truth": {"theta": [1.0]},
        "noise": {"gaussian_sigma": 0.3},
        "likelihood": {"kind": wb.KIND_GAUSS_L2},
        "theta_prior": {"bounds": [[-5.0, 5.0]]},
        "s_prior": None,
        "s_update": "fixed",
        "proposal": {"covariance": [[0.5]]},
        "init": {"theta": [0.0], "s": 2.0},
        "schedule": {"total_iters": 60, "burn_in": 20, "thinning": 2},
    }
    cfg.update(patches)
    return cfg


def counting_forward(monkeypatch) -> list[int]:
    """Count forward builds and runs: one list entry per build_forward call,
    holding the number of simulate calls on that bundle."""
    calls = []
    build = scenarios.build_forward

    def counting_build(fwd):
        bundle = build(fwd)
        calls.append(0)
        slot = len(calls) - 1

        def simulate(theta):
            calls[slot] += 1
            return bundle.simulate(theta)

        return dataclasses.replace(bundle, simulate=simulate)

    monkeypatch.setattr(scenarios, "build_forward", counting_build)
    return calls


class TestValidation:
    def test_minimal_config_accepted(self):
        sc = wb.scenario_from_config(minimal_config())
        assert sc.name == "tiny"
        assert sc.kind == "inversion"

    def test_input_dict_not_mutated(self):
        cfg = minimal_config()
        del cfg["noise"]
        before = json.dumps(cfg, sort_keys=True)
        wb.scenario_from_config(cfg)
        assert json.dumps(cfg, sort_keys=True) == before

    def test_kind_defaults_to_inversion(self):
        cfg = minimal_config()
        del cfg["kind"]
        assert wb.scenario_from_config(cfg).kind == "inversion"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            wb.scenario_from_config(minimal_config(kind="mystery"))

    def test_missing_truth_rejected(self):
        cfg = minimal_config()
        del cfg["truth"]
        with pytest.raises(ConfigError, match="truth"):
            wb.scenario_from_config(cfg)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            wb.scenario_from_config(minimal_config(seed=3.5))

    def test_dimension_mismatch_rejected(self):
        cfg = minimal_config(init={"theta": [0.0, 0.0], "s": 2.0})
        with pytest.raises(ConfigError, match="dimensions"):
            wb.scenario_from_config(cfg)

    def test_truth_outside_prior_rejected(self):
        cfg = minimal_config(truth={"theta": [40.0]})
        with pytest.raises(ConfigError, match="prior box"):
            wb.scenario_from_config(cfg)

    def test_init_outside_prior_rejected(self):
        cfg = minimal_config(init={"theta": [-9.0], "s": 2.0})
        with pytest.raises(ConfigError, match="prior box"):
            wb.scenario_from_config(cfg)

    def test_gibbs_without_s_prior_rejected(self):
        cfg = minimal_config(s_update="gibbs", s_prior=None)
        with pytest.raises(ConfigError, match="s_prior"):
            wb.scenario_from_config(cfg)

    def test_unknown_likelihood_rejected(self):
        cfg = minimal_config(likelihood={"kind": "cauchy"})
        with pytest.raises(ConfigError, match="likelihood"):
            wb.scenario_from_config(cfg)

    def test_burn_in_not_below_total_rejected(self):
        cfg = minimal_config(
            schedule={"total_iters": 60, "burn_in": 60, "thinning": 2})
        with pytest.raises(ConfigError):
            wb.scenario_from_config(cfg)

    def test_bad_noise_rejected(self):
        cfg = minimal_config(noise={"gaussian_sigma": -1.0})
        with pytest.raises(ConfigError, match="noise"):
            wb.scenario_from_config(cfg)

    def test_landscape_grid_must_stay_in_prior(self):
        cfg = minimal_config(landscape={
            "param_index": 0, "start": -8.0, "stop": 0.0, "step": 0.5,
            "fixed_theta": [0.0], "s_ref": 1.0})
        with pytest.raises(ConfigError, match="prior box"):
            wb.scenario_from_config(cfg)

    def test_landscape_param_index_checked(self):
        cfg = minimal_config(landscape={
            "param_index": 3, "start": -1.0, "stop": 1.0, "step": 0.5,
            "fixed_theta": [0.0], "s_ref": 1.0})
        with pytest.raises(ConfigError, match="param_index"):
            wb.scenario_from_config(cfg)

    def test_unknown_forward_kind_rejected(self):
        cfg = minimal_config(forward={"kind": "spectral", "n_samples": 9})
        with pytest.raises(ConfigError, match="forward"):
            wb.scenario_from_config(cfg)

    def test_scaling_study_needs_positive_delta(self):
        cfg = {"kind": "scaling-study", "name": "s", "delta": 0.0,
               "shifts": {"start": -1.0, "stop": 1.0, "step": 0.5}}
        with pytest.raises(ConfigError, match="delta"):
            wb.scenario_from_config(cfg)

    def test_scaling_study_shift_grid_checked(self):
        cfg = {"kind": "scaling-study", "name": "s", "delta": 1.0,
               "shifts": {"start": 1.0, "stop": -1.0, "step": 0.5}}
        with pytest.raises(ConfigError, match="shifts"):
            wb.scenario_from_config(cfg)


BUILTIN_FINGERPRINTS = [
    ("pulse-amplitude", "fa048633b33db0f61085bd09935c87fee4b2486db3572f0298a3877e960621ea"),
    ("pulse-amplitude-quick", "d02d8701cba989b9d33b1a2110f753ca66cfaea684bb9af4437f0d3c93784ed9"),
    ("pulse-amplitude-l2", "90cf87a2f774a34903f036eedd880cffe3cd46b4788c08660698b1ba3a985cdc"),
    ("pulse-amplitude-l2-quick", "79fe5f66a4c25da1cdb6898c97e4588a380034716af1555ebc801990fe0c6fdb"),
    ("pulse-location", "2e8e51298e0b4e29c4c0404e50c0bf038cc96498d7b3cba16c7978201db8341e"),
    ("pulse-location-quick", "13785f2d0632a14613861297b8535bfd01a6d23d301a2824f5ed16eccedbc700"),
    ("ten-block-tomography", "94ec2e882e55d7891c1bd502f8eefac5c105ed1bcf73bb6b307fe122427a547a"),
    ("two-block-tomography", "70f3d32d18ea724b2daf2bc2349c3c3e25d52d7f04143a2d6c5c21a26a85d140"),
    ("four-block-tomography", "a6005d163c2a7217ca5408b8a1e2a7381c5c502a306c739ab5db646617c68637"),
    ("linear-gaussian", "6e990027285b8a02a99817039a95855b4c42b524100ee3e108aad38cda89a94a"),
    ("shift-study-wide", "a3084a9b5093982d59d6f0f61062a6132e9ab8d066098c068f47a73e5e0dd3bd"),
    ("shift-study-narrow", "991db11149f90752ba5f6bf61b1d3b7880fe6af877ec1a1f82e1bec748e42c55"),
]


class TestCompile:
    @pytest.mark.parametrize("name,fingerprint", BUILTIN_FINGERPRINTS)
    def test_builtin_fingerprint_pinned(self, name, fingerprint):
        # the resolved config, defaults included, hashes as it always has
        assert wb.load_scenario(name).fingerprint == fingerprint

    def test_forward_built_once(self, tmp_path, monkeypatch):
        calls = counting_forward(monkeypatch)
        sc = wb.scenario_from_config(minimal_config())
        assert calls == [0]
        _, noisy = wb.synthesize_observations(sc)
        wb.build_problem(sc, noisy)
        wb.run_inversion(sc, tmp_path)
        # both syntheses and every chain step ran the one compiled bundle
        assert len(calls) == 1 and calls[0] > 2

    def test_compiled_objects_carry_no_state(self, tmp_path):
        # Gibbs draws and covariance adaptation exercise every stage object
        cfg = minimal_config(s_update="gibbs", s_prior={"shape": 1.0, "rate": 0.1},
                             proposal={"covariance": [[0.5]], "adapt_after": 10})
        sc = wb.scenario_from_config(cfg)
        for out in ("a", "b"):
            wb.run_inversion(sc, tmp_path / out)
        wb.run_inversion(wb.scenario_from_config(cfg), tmp_path / "fresh")
        chain = (tmp_path / "a/chain.csv").read_bytes()
        assert (tmp_path / "b/chain.csv").read_bytes() == chain
        assert (tmp_path / "fresh/chain.csv").read_bytes() == chain

    def test_stages_reject_a_scaling_study(self, tmp_path):
        study = wb.load_scenario("shift-study-wide")
        for stage in (wb.synthesize_observations, lambda sc: wb.build_problem(sc, None),
                      lambda sc: wb.run_landscape(sc, tmp_path),
                      lambda sc: wb.summarize_run(sc, tmp_path)):
            with pytest.raises(ConfigError, match="not an inversion"):
                stage(study)


class TestLoadScenario:
    def test_builtin_name_resolves(self):
        sc = wb.load_scenario("linear-gaussian")
        assert sc.name == "linear-gaussian"

    def test_unknown_source_lists_builtins(self):
        with pytest.raises(ConfigError, match="pulse-amplitude"):
            wb.load_scenario("no-such-scenario")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(minimal_config()))
        sc = wb.load_scenario(path)
        assert sc.name == "tiny"

    def test_file_name_defaults_to_stem(self, tmp_path):
        cfg = minimal_config()
        del cfg["name"]
        path = tmp_path / "bespoke.json"
        path.write_text(json.dumps(cfg))
        assert wb.load_scenario(path).name == "bespoke"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": }')
        with pytest.raises(ConfigError, match="line 1"):
            wb.load_scenario(path)


class TestFingerprint:
    def test_key_order_never_matters(self):
        cfg = minimal_config()
        reordered = dict(reversed(list(cfg.items())))
        assert wb.config_fingerprint(cfg) == wb.config_fingerprint(reordered)

    def test_resolved_defaults_hash_like_explicit(self):
        spelled_out = minimal_config(
            proposal={"covariance": [[0.5]], "adapt_after": 0,
                      "adapt_scale": None})
        explicit = wb.scenario_from_config(spelled_out)
        trimmed = minimal_config()
        del trimmed["kind"]
        implicit = wb.scenario_from_config(trimmed)
        assert explicit.fingerprint == implicit.fingerprint

    def test_value_change_changes_fingerprint(self):
        a = wb.scenario_from_config(minimal_config())
        b = wb.scenario_from_config(minimal_config(seed=6))
        assert a.fingerprint != b.fingerprint


class TestOverrides:
    def test_scalar_override(self):
        cfg = wb.apply_overrides(minimal_config(), ["seed=9"])
        assert cfg["seed"] == 9

    def test_dotted_path_override(self):
        cfg = wb.apply_overrides(minimal_config(), ["schedule.total_iters=100"])
        assert cfg["schedule"]["total_iters"] == 100

    def test_json_list_value(self):
        cfg = wb.apply_overrides(minimal_config(), ["truth.theta=[2.5]"])
        assert cfg["truth"]["theta"] == [2.5]

    def test_non_json_value_stays_string(self):
        cfg = wb.apply_overrides(minimal_config(), ["likelihood.kind=gauss_l2"])
        assert cfg["likelihood"]["kind"] == "gauss_l2"

    def test_original_untouched(self):
        base = minimal_config()
        wb.apply_overrides(base, ["seed=9"])
        assert base["seed"] == 5

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            wb.apply_overrides(minimal_config(), ["seed"])

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError, match="does not exist"):
            wb.apply_overrides(minimal_config(), ["sched.total=1"])

    def test_path_through_scalar_rejected(self):
        with pytest.raises(ConfigError):
            wb.apply_overrides(minimal_config(), ["seed.sub=1"])


class TestSeedFanout:
    def test_data_stream_uses_spawn_key_zero(self):
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=77, spawn_key=(0,)))
        got = wb.data_noise_rng(77)
        np.testing.assert_array_equal(got.random(8), expected.random(8))

    def test_chain_stream_differs_from_data_stream(self):
        data = wb.data_noise_rng(77).random(8)
        chain = np.random.default_rng(wb.chain_seed_sequence(77)).random(8)
        assert not np.allclose(data, chain)

    def test_noise_free_scenario_returns_clean_data(self):
        sc = wb.scenario_from_config(minimal_config(noise=None))
        clean, noisy = wb.synthesize_observations(sc)
        np.testing.assert_array_equal(clean.values,
                                      noisy.values)

    def test_same_seed_same_observations(self):
        sc = wb.scenario_from_config(minimal_config())
        _, a = wb.synthesize_observations(sc)
        _, b = wb.synthesize_observations(sc)
        np.testing.assert_array_equal(a.values, b.values)


class TestForwardBundles:
    def test_constant_forward(self):
        bundle = wb.build_forward({"kind": "constant", "n_samples": 9})
        gather = bundle.simulate(np.array([2.5]))
        assert tuple(gather.labels) == ((0, 0, 0),)
        np.testing.assert_array_equal(gather.values, np.full((1, 9), 2.5))

    def test_pulse_modes_expose_dimension(self):
        base = {"kind": "pulse-1d", "receivers": [0.0, 1.0],
                "t_end": 5.0, "n_samples": 101}
        amp = wb.build_forward({**base, "mode": "amplitude"})
        loc = wb.build_forward({**base, "mode": "location-amplitude"})
        assert (amp.n_params, loc.n_params) == (1, 2)

    def test_acoustic_bundle_carries_block_layout(self):
        cfg = wb.builtin_config("two-block-tomography")
        bundle = wb.build_forward(cfg["forward"])
        assert bundle.block_layout == (1, 2)
        assert bundle.n_params == 2


class TestBuiltinConstants:
    def test_every_builtin_validates(self):
        for name in wb.builtin_names():
            sc = wb.scenario_from_config(wb.builtin_config(name))
            assert sc.name == name

    def test_builtin_listing(self):
        names = wb.builtin_names()
        assert len(names) == len(set(names)) == 12

    @pytest.mark.parametrize("name,total,burn,thin", [
        ("pulse-amplitude", 30000, 10000, 4),
        ("pulse-amplitude-quick", 6000, 2000, 4),
        ("pulse-amplitude-l2", 30000, 10000, 4),
        ("pulse-location", 25000, 5000, 4),
        ("pulse-location-quick", 10000, 2000, 4),
        ("ten-block-tomography", 80000, 65000, 3),
        ("two-block-tomography", 4000, 2000, 2),
        ("linear-gaussian", 20000, 2000, 10),
    ])
    def test_schedules(self, name, total, burn, thin):
        sched = wb.builtin_config(name)["schedule"]
        assert (sched["total_iters"], sched["burn_in"],
                sched["thinning"]) == (total, burn, thin)

    def test_pulse_amplitude_constants(self):
        cfg = wb.builtin_config("pulse-amplitude")
        fwd = cfg["forward"]
        assert fwd["receivers"] == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        assert (fwd["t_end"], fwd["n_samples"]) == (5.0, 101)
        assert cfg["truth"]["theta"] == [5.0]
        assert cfg["noise"] == {"gamma_shape": 60.0, "uniform_width": 0.25}
        assert cfg["likelihood"]["kind"] == wb.KIND_EXP_W2
        assert cfg["likelihood"]["scaling"] == {"kind": "linear", "c": None}
        assert cfg["theta_prior"]["bounds"] == [[2.0, 8.0]]
        assert cfg["s_prior"] == {"shape": 1.0, "rate": 0.1}
        assert cfg["proposal"]["covariance"] == [[0.005]]
        assert cfg["init"] == {"theta": [3.0], "s": 70.0}

    def test_pulse_amplitude_l2_same_data_different_likelihood(self):
        w2 = wb.builtin_config("pulse-amplitude")
        l2 = wb.builtin_config("pulse-amplitude-l2")
        assert l2["likelihood"] == {"kind": wb.KIND_GAUSS_L2}
        for key in ("seed", "forward", "truth", "noise", "theta_prior",
                    "proposal", "init", "schedule"):
            assert w2[key] == l2[key]

    def test_pulse_location_constants(self):
        cfg = wb.builtin_config("pulse-location")
        assert cfg["truth"]["theta"] == [0.0, 5.0]
        assert cfg["noise"] == {"gaussian_sigma": 0.1}
        assert cfg["theta_prior"]["bounds"] == [[-3.0, 3.0], [2.0, 8.0]]
        assert cfg["init"] == {"theta": [0.6, 3.0], "s": 70.0}
        land = cfg["landscape"]
        assert (land["start"], land["stop"], land["step"]) == (-3.0, 3.0, 0.05)
        assert land["fixed_theta"] == [0.0, 5.0]
        assert land["param_index"] == 0

    def test_ten_block_constants(self):
        cfg = wb.builtin_config("ten-block-tomography")
        fwd = cfg["forward"]
        assert (fwd["dx"], fwd["t_end"], fwd["n_samples"]) == (0.02, 4.0, 801)
        assert (fwd["block_rows"], fwd["block_cols"]) == (2, 5)
        assert [s[0] for s in fwd["sources"]] == [-0.8, -0.4, 0.0, 0.4, 0.8]
        assert all(s[1] == -0.2 for s in fwd["sources"])
        assert len(fwd["receivers"]) == 199
        assert cfg["truth"]["theta"] == [3.0, 2.0, 3.5, 2.5, 4.0,
                                         3.0, 4.5, 3.5, 5.0, 4.0]
        assert cfg["theta_prior"]["bounds"] == [[1.0, 6.0]] * 10
        assert cfg["proposal"]["adapt_after"] == 1000
        assert cfg["init"]["theta"] == [3.8] * 10

    def test_two_block_constants(self):
        cfg = wb.builtin_config("two-block-tomography")
        fwd = cfg["forward"]
        assert (fwd["dx"], fwd["t_end"], fwd["n_samples"]) == (0.04, 2.0, 201)
        assert len(fwd["sources"]) == 2
        assert len(fwd["receivers"]) == 41
        assert cfg["truth"]["theta"] == [2.0, 3.0]

    def test_linear_gaussian_constants(self):
        cfg = wb.builtin_config("linear-gaussian")
        assert cfg["forward"] == {"kind": "constant", "n_samples": 25,
                                  "t_end": 1.0}
        assert cfg["noise"] == {"gaussian_sigma": 0.5}
        assert cfg["s_update"] == "fixed"
        # fixed s must equal the exact noise precision 1/sigma^2
        assert cfg["init"]["s"] == 4.0

    def test_shift_study_constants(self):
        wide = wb.builtin_config("shift-study-wide")
        narrow = wb.builtin_config("shift-study-narrow")
        assert (wide["delta"], narrow["delta"]) == (1.0, 0.1)
        for cfg in (wide, narrow):
            assert cfg["shifts"] == {"start": -3.0, "stop": 3.0, "step": 0.05}
            assert cfg["grid"] == {"t_start": 0.0, "t_end": 10.0,
                                   "n_samples": 1001}


class TestSummarizeBlocks:
    def test_degenerate_chain_gives_exact_maps(self):
        theta_star = np.arange(1.0, 11.0)
        thetas = np.tile(theta_star, (40, 1))
        mean, std = wb.summarize_blocks(thetas, 2, 5)
        np.testing.assert_array_equal(mean, theta_star.reshape(5, 2).T)
        np.testing.assert_array_equal(std, np.zeros((2, 5)))

    def test_sample_order_irrelevant(self):
        rng = np.random.default_rng(3)
        thetas = rng.normal(size=(50, 4))
        mean_a, std_a = wb.summarize_blocks(thetas, 2, 2)
        perm = rng.permutation(50)
        mean_b, std_b = wb.summarize_blocks(thetas[perm], 2, 2)
        np.testing.assert_allclose(mean_a, mean_b)
        np.testing.assert_allclose(std_a, std_b)

    def test_layout_is_column_major_top_first(self):
        thetas = np.arange(6.0)[None, :].repeat(3, axis=0)
        mean, _ = wb.summarize_blocks(thetas, 2, 3)
        np.testing.assert_array_equal(mean, [[0.0, 2.0, 4.0],
                                             [1.0, 3.0, 5.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="block layout"):
            wb.summarize_blocks(np.zeros((10, 3)), 2, 2)


@pytest.fixture(scope="module")
def gaussian_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gaussian-run")
    scenario = wb.load_scenario("linear-gaussian")
    manifest = wb.run_inversion(scenario, out)
    return scenario, out, manifest


class TestRunInversion:
    def test_manifest_reports_run(self, gaussian_run):
        scenario, _, manifest = gaussian_run
        assert manifest["name"] == "linear-gaussian"
        assert manifest["fingerprint"] == scenario.fingerprint
        assert manifest["retained_samples"] == 1800
        assert manifest["health_ok"] is True
        assert manifest["seeds"] == {"master": 1106, "data_spawn_key": [0],
                                     "chain_spawn_key": [1]}
        assert 0.0 < manifest["acceptance_rate"] < 1.0

    def test_manifest_artifacts_exist_and_parse(self, gaussian_run):
        _, out, manifest = gaussian_run
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest
        for name in manifest["artifacts"]:
            path = out / name
            assert path.exists(), name
            lines = path.read_text().strip().split("\n")
            assert len(lines) >= 2, name
            width = len(lines[0].split(","))
            for line in lines[1:]:
                cells = line.split(",")
                assert len(cells) == width
                for cell in cells[1:]:
                    float(cell)

    def test_expected_artifact_names(self, gaussian_run):
        _, _, manifest = gaussian_run
        assert set(manifest["artifacts"]) == {
            "chain.csv", "gather_noisy.csv",
            "hist_theta_1.csv", "trace_theta_1.csv",
            "hist_s.csv", "trace_s.csv"}

    def test_chain_csv_round_trip(self, gaussian_run):
        _, out, manifest = gaussian_run
        iterations, thetas, s_values, accepted = wb.read_chain_csv(
            out / "chain.csv")
        assert thetas.shape == (1800, 1)
        np.testing.assert_allclose(thetas.mean(),
                                   manifest["posterior"]["theta_mean"][0],
                                   rtol=1e-15)
        # fixed-precision run: every retained s equals the configured value
        np.testing.assert_array_equal(s_values, np.full(1800, 4.0))
        assert iterations[0] > 2000
        assert accepted.dtype == bool

    def test_rerun_is_byte_identical(self, gaussian_run, tmp_path):
        scenario, out, _ = gaussian_run
        wb.run_inversion(scenario, tmp_path)
        assert (tmp_path / "chain.csv").read_bytes() == \
            (out / "chain.csv").read_bytes()

    def test_summarize_regenerates_identical_marginals(self, gaussian_run,
                                                       tmp_path):
        scenario, out, _ = gaussian_run
        (tmp_path / "chain.csv").write_bytes((out / "chain.csv").read_bytes())
        summary = wb.summarize_run(scenario, tmp_path)
        assert summary["retained_samples"] == 1800
        for name in ("hist_theta_1.csv", "trace_theta_1.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        study = wb.load_scenario("shift-study-wide")
        with pytest.raises(ConfigError, match="not an inversion"):
            wb.run_inversion(study, tmp_path)


class TestRunSimulate:
    def test_writes_clean_and_noisy(self, tmp_path):
        sc = wb.scenario_from_config(minimal_config())
        result = wb.run_simulate(sc, tmp_path)
        clean = wb.read_gather_csv(tmp_path / "gather_clean.csv")
        noisy = wb.read_gather_csv(tmp_path / "gather_noisy.csv")
        np.testing.assert_array_equal(clean.values, np.ones((1, 9)))
        assert not np.array_equal(noisy.values,
                                  clean.values)
        assert result["n_traces"] == 1


class TestRunLandscape:
    def test_missing_landscape_block_rejected(self, tmp_path):
        sc = wb.scenario_from_config(minimal_config())
        with pytest.raises(ConfigError, match="landscape"):
            wb.run_landscape(sc, tmp_path)

    def test_single_point_grid_gives_single_row(self, tmp_path):
        cfg = minimal_config(landscape={
            "param_index": 0, "start": 1.0, "stop": 1.0, "step": 0.5,
            "fixed_theta": [1.0], "s_ref": 2.0})
        sc = wb.scenario_from_config(cfg)
        result = wb.run_landscape(sc, tmp_path)
        lines = (tmp_path / "landscape.csv").read_text().strip().split("\n")
        assert lines[0] == "param_value,log_exp,log_norm"
        assert len(lines) == 2
        assert result["n_points"] == 1

    def test_one_forward_run_per_point(self, tmp_path, monkeypatch):
        calls = counting_forward(monkeypatch)
        cfg = minimal_config(landscape={
            "param_index": 0, "start": 0.0, "stop": 2.0, "step": 0.25,
            "fixed_theta": [1.0], "s_ref": 2.0})
        result = wb.run_landscape(wb.scenario_from_config(cfg), tmp_path)
        # one bundle: the synthesis run plus one run per grid point
        assert result["n_points"] == 9
        assert calls == [result["n_points"] + 1]

    def test_curves_peak_at_truth(self, tmp_path):
        cfg = minimal_config(noise=None, landscape={
            "param_index": 0, "start": 0.0, "stop": 2.0, "step": 0.25,
            "fixed_theta": [1.0], "s_ref": 2.0})
        sc = wb.scenario_from_config(cfg)
        wb.run_landscape(sc, tmp_path)
        rows = np.loadtxt(tmp_path / "landscape.csv", delimiter=",",
                          skiprows=1)
        assert rows[np.argmax(rows[:, 2]), 0] == pytest.approx(1.0)


class TestRunScalingStudy:
    def run_study(self, tmp_path, **patches):
        cfg = wb.builtin_config("shift-study-wide")
        cfg["shifts"] = {"start": -3.0, "stop": 3.0, "step": 1.0}
        cfg["grid"]["n_samples"] = 201
        cfg.update(patches)
        sc = wb.scenario_from_config(cfg)
        wb.run_scaling_study(sc, tmp_path)
        return np.loadtxt(tmp_path / "scaling.csv", delimiter=",", skiprows=1)

    def test_first_row_is_exactly_one(self, tmp_path):
        table = self.run_study(tmp_path)
        np.testing.assert_array_equal(table[0, 1:], np.ones(6))

    def test_zero_shift_row_is_exactly_zero(self, tmp_path):
        table = self.run_study(tmp_path)
        zero_row = table[np.where(table[:, 0] == 0.0)[0][0]]
        np.testing.assert_array_equal(zero_row[1:], np.zeros(6))

    def test_header_names_every_scaling(self, tmp_path):
        self.run_study(tmp_path)
        header = (tmp_path / "scaling.csv").read_text().split("\n")[0]
        assert header == "shift,linear,square,exponential,absolute,linexp,l2"

    def test_zero_distance_at_first_shift_rejected(self, tmp_path):
        with pytest.raises(ComputeError, match="rescale"):
            self.run_study(tmp_path, shifts={"start": 0.0, "stop": 2.0,
                                             "step": 1.0})

    def test_inversion_scenario_rejected(self, tmp_path):
        sc = wb.scenario_from_config(minimal_config())
        with pytest.raises(ConfigError, match="not a scaling study"):
            wb.run_scaling_study(sc, tmp_path)


class TestCli:
    def test_validate_builtin(self, capsys):
        assert main(["validate", "--scenario", "linear-gaussian"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert len(payload["fingerprint"]) == 64

    def test_validate_reports_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cfg = minimal_config(truth={"theta": [40.0]})
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["validate", "--scenario", "missing.json"]) == 2

    def test_bad_override_exits_2(self, capsys):
        rc = main(["validate", "--scenario", "linear-gaussian",
                   "--override", "no.such.path=1"])
        assert rc == 2

    def test_seed_flag_changes_fingerprint(self, capsys):
        main(["validate", "--scenario", "linear-gaussian"])
        base = json.loads(capsys.readouterr().out)["fingerprint"]
        main(["validate", "--scenario", "linear-gaussian", "--seed", "9"])
        reseeded = json.loads(capsys.readouterr().out)["fingerprint"]
        assert base != reseeded

    def test_run_writes_artifacts(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "linear-gaussian",
                   "--override", "schedule.total_iters=400",
                   "--override", "schedule.burn_in=100",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["retained_samples"] == 30
        assert (tmp_path / "chain.csv").exists()

    def test_summarize_after_run(self, tmp_path, capsys):
        main(["run", "--scenario", "linear-gaussian",
              "--override", "schedule.total_iters=400",
              "--override", "schedule.burn_in=100",
              "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["summarize", "--scenario", "linear-gaussian",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "hist_theta_1.csv" in json.loads(capsys.readouterr().out)["artifacts"]

    def test_simulate_verb(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "pulse-amplitude-quick",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "gather_clean.csv").exists()
        assert (tmp_path / "gather_noisy.csv").exists()

    def test_scaling_study_verb(self, tmp_path, capsys):
        rc = main(["scaling-study", "--scenario", "shift-study-wide",
                   "--override", "shifts.step=1.0",
                   "--override", "grid.n_samples=201",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "scaling.csv").exists()

    def test_verb_kind_mismatch_exits_2(self, tmp_path, capsys):
        assert main(["run", "--scenario", "shift-study-wide",
                     "--out", str(tmp_path)]) == 2
        assert main(["scaling-study", "--scenario", "linear-gaussian",
                     "--out", str(tmp_path)]) == 2

    def test_adaptation_past_burn_in_exits_2_before_synthesis(self, tmp_path, capsys):
        short = ["--scenario", "two-block-tomography",
                 "--override", "schedule.burn_in=100",
                 "--override", "schedule.total_iters=150"]
        assert main(["validate", *short]) == 2
        assert "adapt_after=500 exceeds burn_in=100" in capsys.readouterr().err
        assert main(["run", *short, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "gather_noisy.csv").exists()

    def test_scenario_loaded_once(self, monkeypatch, tmp_path, capsys):
        import wassbayes.cli as cli
        calls = []

        def counting_load(source):
            calls.append(source)
            return wb.load_scenario(source)

        monkeypatch.setattr(cli, "load_scenario", counting_load)
        assert main(["validate", "--scenario", "linear-gaussian", "--seed", "3",
                     "--override", "schedule.thinning=2"]) == 0
        assert calls == ["linear-gaussian"]

    @pytest.mark.parametrize("scenario,override", [
        ("shift-study-wide", "shifts.step=abc"),
        ("pulse-location-quick", "landscape.step=abc"),
        ("pulse-location-quick", "landscape.param_index=abc"),
        ("pulse-location-quick", "init.s=abc"),
        ("linear-gaussian", "proposal=5"),
        ("linear-gaussian", "truth=5"),
    ])
    def test_malformed_field_exits_2(self, scenario, override, capsys):
        assert main(["validate", "--scenario", scenario, "--override", override]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert override.split("=")[0] in err

    def test_summarize_mismatch_writes_nothing(self, tmp_path, capsys):
        assert main(["run", "--scenario", "linear-gaussian",
                     "--override", "schedule.total_iters=400",
                     "--override", "schedule.burn_in=100",
                     "--out", str(tmp_path)]) == 0
        for path in [*tmp_path.glob("hist_*"), *tmp_path.glob("trace_*")]:
            path.unlink()
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["summarize", "--scenario", "two-block-tomography",
                     "--out", str(tmp_path)]) == 2
        assert "parameters" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_landscape_without_block_exits_2(self, tmp_path, capsys):
        rc = main(["landscape", "--scenario", "pulse-amplitude-quick",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        rc = main(["scaling-study", "--scenario", "shift-study-wide",
                   "--override", "shifts.start=0.0",
                   "--override", "grid.n_samples=201",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_dead_chain_exits_4_but_keeps_artifacts(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "linear-gaussian",
                   "--override", "proposal.covariance=[[1e16]]",
                   "--override", "schedule.total_iters=3000",
                   "--override", "schedule.burn_in=1000",
                   "--override", "schedule.thinning=2",
                   "--out", str(tmp_path)])
        assert rc == 4
        assert "health check failed" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["health_ok"] is False
        assert manifest["acceptance_rate"] == 0.0

    def test_cli_chain_matches_library_chain(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "linear-gaussian",
                   "--out", str(tmp_path / "cli")])
        assert rc == 0
        wb.run_inversion(wb.load_scenario("linear-gaussian"),
                         tmp_path / "lib")
        assert (tmp_path / "cli/chain.csv").read_bytes() == \
            (tmp_path / "lib/chain.csv").read_bytes()

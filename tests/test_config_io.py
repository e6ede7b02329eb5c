import json
from pathlib import Path

import numpy as np
import pytest

from condiff.config import (apply_overrides, build_model, build_open_control,
                            build_policy, build_sim_config, config_hash,
                            load_config, read)
from condiff.errors import ConfigError
from condiff.io import write_csv, write_json
from condiff.model import (ConstantPolicy, GridPolicy, LinearPolicy,
                           NoisePeekControl, PiecewiseControl,
                           RandomizedSignControl)

DEFAULT_CONFIG = Path(__file__).parent.parent / "configs" / "default.json"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_load_config_unwraps_manifest(tmp_path):
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    manifest = {"command": "simulate", "config": cfg, "seed": 1,
                "versions": {}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert load_config(path) == cfg
    assert load_config(DEFAULT_CONFIG) == cfg


def test_apply_overrides():
    cfg = {"sim": {"dt": 0.001, "seed": 1}}
    out = apply_overrides(cfg, ["sim.dt=0.5", "sim.grid.step=0.1",
                                "policy.type=constant", "sim.store_paths=true"])
    assert out["sim"]["dt"] == 0.5
    assert out["sim"]["grid"]["step"] == 0.1
    assert out["policy"]["type"] == "constant"  # not valid JSON, kept as text
    assert out["sim"]["store_paths"] is True
    assert cfg["sim"]["dt"] == 0.001  # the input dict stays untouched

    with pytest.raises(ConfigError, match="path=value"):
        apply_overrides(cfg, ["sim.dt"])
    with pytest.raises(ConfigError, match="non-object"):
        apply_overrides({"a": 5}, ["a.b=1"])


def test_config_hash_is_order_independent():
    h1 = config_hash({"a": 1, "b": [1, 2]})
    h2 = config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert len(h1) == 64
    assert config_hash({"a": 2, "b": [1, 2]}) != h1


def test_require_and_optional():
    cfg = {"sim": {"seed": 7, "dt": None, "grid": 5}}
    assert read(cfg, "sim.seed") == 7
    with pytest.raises(ConfigError, match="missing required field 'sim.n_particles'"):
        read(cfg, "sim.n_particles")
    with pytest.raises(ConfigError, match="missing required field 'model.sigma'"):
        read(cfg, "model.sigma")
    assert read(cfg, "sim.min_survivors") == 1  # a missing field is its declared default
    with pytest.raises(ConfigError, match="missing required field 'sim.dt'"):
        read(cfg, "sim.dt")  # explicit null means missing
    with pytest.raises(ConfigError, match="invalid 'sim.grid': must be an object"):
        read(cfg, "sim.grid.step")
    # an integral float is an int, an int is a float
    cfg = {"sim": {"n_particles": 40.0, "dt": 1}}
    assert type(read(cfg, "sim.n_particles")) is int and read(cfg, "sim.dt") == 1.0
    for dotted, value, message in (
            ("sim.n_particles", 2.7, "an integer"), ("sim.n_particles", True, "an integer"),
            ("sim.n_particles", "40", "an integer"), ("sim.store_paths", 1, "true or false"),
            ("sim.dt", "0.1", "a finite number"), ("sim.dt", float("inf"), "a finite number"),
            ("sim.dt", 0, "> 0"), ("sim.min_survivors", -1, ">= 0"),
            ("fv.variant", "both", "one of 'meanfield', 'finite'")):
        section, key = dotted.split(".")
        with pytest.raises(ConfigError, match=f"invalid '{dotted}': must be {message}, got"):
            read({section: {key: value}}, dotted)


def test_list_fields_take_numbers_only():
    cfg = {"model": {"sigma": [[1, 0.5]], "control_box": {"lo": [-1]},
                     "initial": {"x": 0.3, "lo": [[0], [2]], "values": [[[1.5]]]}}}
    assert read(cfg, "model.sigma") == ((1.0, 0.5),)
    assert read(cfg, "model.control_box.lo") == (-1.0,)
    # numbers at any depth, a bare number included; the object reshapes them
    assert read(cfg, "model.initial.x") == 0.3
    assert read(cfg, "model.initial.lo") == ((0.0,), (2.0,))
    assert read(cfg, "model.initial.values") == (((1.5,),),)
    assert read(cfg, "model.reward.phi_weights") is None  # unset, worked out by the caller
    for dotted, value, message in (
            ("model.control_box.lo", 1.0, "a list of numbers"),
            ("model.control_box.lo", [True], "a list of numbers"),
            ("model.control_box.lo", [[1.0]], "a list of numbers"),
            ("model.sigma", [1.0], "a list of lists of numbers"),
            ("model.initial.x", True, "a number or lists of numbers"),
            ("model.initial.x", "0.3", "a number or lists of numbers"),
            ("model.domain.hi", [[1.0], [False]], "a number or lists of numbers"),
            ("policy.values", {"a": 1.0}, "a number or lists of numbers")):
        *sections, key = dotted.split(".")
        node = cfg = {}
        for p in sections:
            node = node.setdefault(p, {})
        node[key] = value
        with pytest.raises(ConfigError, match=f"invalid '{dotted}': must be {message}, got"):
            read(cfg, dotted)


def test_undeclared_keys_are_refused():
    cfg = load_config(DEFAULT_CONFIG)
    for override, dotted in (("model.initial.values_=[1]", "model.initial.values_"),
                             ("fv.cap=null", "fv.cap"), ("extra={}", "extra")):
        with pytest.raises(ConfigError, match=f"^unknown field '{dotted}'$"):
            apply_overrides(cfg, [override])
    with pytest.raises(ConfigError, match="^unknown field 'sim.dt'$"):
        apply_overrides({"sim.dt": 0.1}, [])  # a dotted key is no path
    # a declared leaf or section of the wrong shape is left for read to name
    wrong = apply_overrides(cfg, ["sim.grid=5", "model.sigma={\"a\": 1}"])
    with pytest.raises(ConfigError, match="invalid 'model.sigma'"):
        build_model(wrong)


def test_benchmark_inputs_are_accepted(monkeypatch):
    """The shipped config and every config of each benchmark workload, at
    its full and its tiny sizes, pass the undeclared-key check and build.
    A refused key there would fail every round of the benchmark."""
    monkeypatch.syspath_prepend(str(DEFAULT_CONFIG.parent.parent / "perfbench"))
    import workloads
    cfgs = [load_config(DEFAULT_CONFIG)]
    for workload in workloads.WORKLOADS.values():
        for sizes in (workload.sizes, workload.tiny):
            cfgs.extend(workload.configs(1, sizes).values())
    assert len(cfgs) == 11
    for cfg in cfgs:
        cfg = apply_overrides(cfg, [])  # the undeclared-key check
        model = build_model(cfg)
        build_sim_config(cfg, model)
        if "policy" in cfg:
            build_policy(cfg, model)
        if "open_control" in cfg:
            build_open_control(cfg, model)


def test_build_model_and_sim_from_default():
    cfg = load_config(DEFAULT_CONFIG)
    model = build_model(cfg)
    assert model.dim == 1
    assert model.horizon == 1.0
    assert model.drift.mf_gain == 0.5
    config = build_sim_config(cfg, model)
    assert config.n_particles == 20000
    assert config.grid[0] == 0.0
    assert config.grid[-1] == 1.0

    explicit = apply_overrides(cfg, ["sim.grid={\"times\": [0.0, 0.5, 1.0]}"])
    config2 = build_sim_config(explicit, model)
    assert np.array_equal(config2.grid, [0.0, 0.5, 1.0])

    broken = apply_overrides(cfg, ["model.sigma=[[0.0]]"])
    with pytest.raises(ConfigError, match="model"):
        build_model(broken)


def test_build_policy_kinds():
    cfg = load_config(DEFAULT_CONFIG)
    model = build_model(cfg)
    assert isinstance(build_policy(cfg, model), ConstantPolicy)

    lin = apply_overrides(cfg, ['policy={"type": "linear", "theta0": [0.1], '
                                '"theta1": [[-0.5]]}'])
    assert isinstance(build_policy(lin, model), LinearPolicy)

    grid = apply_overrides(cfg, ['policy={"type": "grid", "time_bins": 2, "space_bins": 2, '
                                 '"values": [0.1, 0.2, 0.3, 0.4]}'])
    assert isinstance(build_policy(grid, model), GridPolicy)

    with pytest.raises(ConfigError, match="policy.type"):
        build_policy(apply_overrides(cfg, ["policy.type=spline"]), model)
    with pytest.raises(ConfigError, match="policy.value"):
        build_policy(apply_overrides(cfg, ["policy={\"type\": \"constant\"}"]),
                     model)


def test_build_open_control_kinds():
    cfg = load_config(DEFAULT_CONFIG)
    model = build_model(cfg)
    assert isinstance(build_open_control(cfg, model), RandomizedSignControl)

    pw = apply_overrides(cfg, [
        "open_control={\"type\": \"piecewise\", \"t_switch\": 0.25,"
        " \"before\": [0.2], \"after\": [-0.1]}"])
    assert isinstance(build_open_control(pw, model), PiecewiseControl)

    peek = apply_overrides(cfg, [
        "open_control={\"type\": \"noise_peek\", \"base\": [0.3],"
        " \"peek_time\": 0.1}"])
    assert isinstance(build_open_control(peek, model), NoisePeekControl)

    with pytest.raises(ConfigError, match="open_control.type"):
        build_open_control(apply_overrides(cfg, ["open_control.type=oracle"]),
                           model)


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "out.csv"
    third = 1.0 / 3.0
    write_csv(path, ["a", "b", "c", "d"], [[1, third, True, "x"],
                                           [np.int64(2), np.float64(0.5),
                                            np.False_, "y"]])
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1].split(",")[2] == "true"
    assert lines[2].split(",")[2] == "false"
    assert lines[1].split(",")[0] == "1"
    assert float(lines[1].split(",")[1]) == third  # 17 digits round-trip
    assert text.endswith("\n")

    with pytest.raises(ValueError, match="row width"):
        write_csv(path, ["a", "b"], [[1]])


def test_write_json_numpy_and_roundtrip(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"i": np.int64(3), "f": np.float64(0.25),
                      "arr": np.array([1.0, 2.0]), "flag": np.True_})
    back = json.loads(path.read_text())
    assert back == {"i": 3, "f": 0.25, "arr": [1.0, 2.0], "flag": True}

    with pytest.raises(TypeError):
        write_json(path, {"bad": object()})

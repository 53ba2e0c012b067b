import json
import warnings
import math

import numpy as np
import pytest

from warpcheck.checks import (
    CHECKS,
    FIELD_BUILTINS,
    POTENTIAL_BUILTINS,
    ConfigError,
    EXAMPLE_CONFIGS,
    RunConfig,
    build_context,
    report_to_json,
    run_suite,
)
from warpcheck.cli import main

EJIRI_CONFIG = {
    "space": {
        "kind": "warped",
        "interval": [0.0, 2.0 * math.pi],
        "warping": "sqrt(2+sin(t))",
        "periodic": True,  # no kind reads this key; a config that sets it runs as one that does not
        "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0},
    },
    "checks": ["icotton_zero", "wp3_identity", "firstthm"],
    "samples": 12,
}


def test_run_suite_ejiri_all_pass():
    report = run_suite(RunConfig.from_dict(EJIRI_CONFIG))
    assert [c.status for c in report.checks] == ["PASS", "PASS", "PASS"]
    assert report.summary["fail"] == 0


def test_run_suite_basicex_all_pass():
    config = RunConfig.from_dict(
        {
            "space": {"kind": "basicex", "n": 5, "k": 2},
            "checks": ["vss_residual", "t_algebra", "tfe_identity", "decompose_ids"],
            "samples": 10,
        }
    )
    report = run_suite(config)
    assert all(c.status == "PASS" for c in report.checks)


def test_equiv_chain_meta_pass_on_failing_space():
    """Non-Einstein fiber: all four clauses fail together, meta-check PASSes."""
    config = RunConfig.from_dict(
        {
            "space": {
                "kind": "ode_warped",
                "scalar": 2.0,
                "h0": 1.0,
                "fiber": {
                    "kind": "product",
                    "left": {"kind": "sphere", "dim": 2, "radius": 1.0},
                    "right": {"kind": "sphere", "dim": 2, "radius": 2.0},
                },
            },
            "checks": ["equiv_chain"],
            "samples": 8,
        }
    )
    report = run_suite(config)
    outcome = report.checks[0]
    assert outcome.status == "PASS"
    assert outcome.details["all_below_tol"] == 0.0
    assert outcome.details["max_fiber_efield"] > 0.5


def test_inrp_via_potential_t_config():
    omega = math.sqrt(2.0)  # Rbar/(n-1) = 6/3
    config = RunConfig.from_dict(
        {
            "space": {
                "kind": "warped",
                "interval": [-1.0, 1.0],
                "warping": "1",
                "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0},
            },
            "potential": {"potential_t": f"cos({omega}*t)"},
            "checks": ["inrp", "vss_residual", "lgh_forms"],
            "samples": 8,
        }
    )
    report = run_suite(config)
    assert all(c.status == "PASS" for c in report.checks), [
        (c.check, c.status, c.max_rel_residual) for c in report.checks
    ]


def test_field_components_config():
    """A parallel field given as component expressions is Killing on a flat torus."""
    config = RunConfig.from_dict(
        {
            "space": {"kind": "flat_torus", "dim": 3},
            "field": {"components": ["1", "0", "0.5"]},
            "checks": ["firstthm", "ixi_cotton"],
            "samples": 5,
        }
    )
    report = run_suite(config)
    assert all(c.status == "PASS" for c in report.checks)


def test_skip_is_reported_with_reason():
    config = RunConfig.from_dict(
        {
            "space": {
                "kind": "warped",
                "interval": [-1.0, 1.0],
                "warping": "exp(t/5)",
                "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0},
            },
            "checks": ["icotton_zero", "nein3_forms"],
            "samples": 8,
        }
    )
    report = run_suite(config)
    by_name = {c.check: c for c in report.checks}
    assert by_name["icotton_zero"].status == "SKIP"
    assert "not constant" in by_name["icotton_zero"].reason
    assert by_name["nein3_forms"].status == "PASS"
    assert report.summary["skip"] == 1
    assert report.summary["skip_reasons"][0]["check"] == "icotton_zero"


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="space.kind"):
        RunConfig.from_dict({"space": {"kind": "banana"}, "checks": ["firstthm"]})
    with pytest.raises(ConfigError, match=r"checks\[0\]"):
        RunConfig.from_dict({"space": {"kind": "sphere", "dim": 3}, "checks": ["nope"]})
    with pytest.raises(ConfigError, match="samples"):
        RunConfig.from_dict(
            {"space": {"kind": "sphere", "dim": 3}, "checks": ["firstthm"], "samples": 0}
        )
    with pytest.raises(ConfigError, match="tolerances.firstthm"):
        RunConfig.from_dict(
            {
                "space": {"kind": "sphere", "dim": 3},
                "checks": ["firstthm"],
                "tolerances": {"firstthm": -1.0},
            }
        )
    sphere = {"space": {"kind": "sphere", "dim": 3}, "checks": ["firstthm"]}
    # an infinite tolerance would PASS a non-finite residual; JSON 1e309 parses as inf, 10**400 overflows a float
    for tol in (math.inf, json.loads("1e309"), 10**400, math.nan, True, "1e-8"):
        with pytest.raises(ConfigError, match="tolerances.firstthm: must be a finite positive number"):
            RunConfig.from_dict(dict(sphere, tolerances={"firstthm": tol}))
    assert RunConfig.from_dict(dict(sphere, tolerances={"firstthm": 1})).tolerance("firstthm") == 1.0
    for key in ("samples", "offset"):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(dict(sphere, **{key: True}))
    with pytest.raises(ConfigError, match=r"checks\[1\]: repeated check id 'firstthm'"):
        RunConfig.from_dict(dict(sphere, checks=["firstthm", "firstthm"]))
    with pytest.raises(ConfigError, match=r"checks\[0\]: unknown check id \['firstthm'\]"):
        RunConfig.from_dict(dict(sphere, checks=[["firstthm"]]))
    both = {"builtin": "sphere_height", "potential_t": "t"}
    with pytest.raises(ConfigError, match="not both"):
        build_context(RunConfig.from_dict({"space": {"kind": "sphere", "dim": 3}, "checks": ["vss_residual"], "potential": both}))
    # a value of the wrong type or length under a key the schema leaves to build_context
    space, ode = EJIRI_CONFIG["space"], EXAMPLE_CONFIGS["ejiri-ode"]
    for key, raw in {
        "field.components": dict(EJIRI_CONFIG, field={"components": [1, "0", "0", "0"]}),
        "potential.potential_t": dict(EJIRI_CONFIG, potential={"potential_t": 7}),
        "space.warping": dict(EJIRI_CONFIG, space=dict(space, warping=2.0)),
        "space.interval": dict(EJIRI_CONFIG, space=dict(space, interval=[0.0])),
        # the orbit starts at its turning point (h0, 0), and the fiber fixes c1
        "space.hdot0": dict(ode, space=dict(ode["space"], hdot0=0.3535533905932738)),
        "space.c1": dict(ode, space=dict(ode["space"], c1=0.75)),
    }.items():
        with pytest.raises(ConfigError, match=f"^{key}: "):
            build_context(RunConfig.from_dict(raw))


def test_point_override():
    config = RunConfig.from_dict(EJIRI_CONFIG)
    point = np.array([0.9, 0.2, -0.1, 0.3])
    report = run_suite(config, point_override=point)
    assert all(c.samples == 1 for c in report.checks)
    assert all(c.worst_point == [float(x) for x in point] for c in report.checks)


def test_every_check_id_described():
    assert set(CHECKS) == {
        "vss_residual",
        "lgh_forms",
        "wp3_identity",
        "icotton_zero",
        "nein3_forms",
        "t_algebra",
        "tfe_identity",
        "decompose_ids",
        "xicvf_forms",
        "propddoth",
        "inrp",
        "firstthm",
        "ixi_cotton",
        "cxi_div",
        "equiv_chain",
        "closed_cvf",
        "scalar_value",
    }


# -- CLI surface ---------------------------------------------------------------------


def test_cli_verify_deterministic(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(EJIRI_CONFIG))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", str(config_path), "--out", str(out1), "--no-timestamp"]) == 0
    assert main(["verify", str(config_path), "--out", str(out2), "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_exit_code_fail(tmp_path):
    config = dict(EJIRI_CONFIG, tolerances={"firstthm": 1e-30})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["verify", str(config_path), "--out", str(out), "--no-timestamp"]) == 1
    report = json.loads(out.read_text())
    worst = [c for c in report["checks"] if c["check"] == "firstthm"][0]
    assert worst["status"] == "FAIL"
    assert "worst_point" in worst


def test_cli_verify_exit_code_config_error(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"space": {"kind": "nope"}, "checks": ["firstthm"]}))
    assert main(["verify", str(config_path)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == 2


def test_cli_samples_zero_is_a_config_error(tmp_path, capsys):
    assert main(["example", "sphere-s4", "--no-timestamp", "--samples", "0"]) == 2
    assert "samples: must be an integer >= 1" in capsys.readouterr().err
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(EJIRI_CONFIG))
    assert main(["verify", str(config_path), "--samples", "0"]) == 2


@pytest.mark.parametrize(
    "raw", [[1, 2], "abc", [["space", {"kind": "sphere", "dim": 3}], ["checks", ["scalar_value"]]]]
)
def test_cli_samples_on_a_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys, raw):
    """--samples overrides the key of a config object; any other JSON value is rejected as without it."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    for extra in ([], ["--samples", "3"]):
        assert main(["verify", str(config_path), "--no-timestamp", *extra]) == 2
        assert capsys.readouterr().err == "error: $: config must be a JSON object\n", extra


def test_cli_verify_exit_code_construction_error(tmp_path):
    # negative scalar curvature has no oscillatory regime: construction error
    config = {
        "space": {
            "kind": "ode_warped",
            "scalar": -2.0,
            "h0": 1.0,
            "fiber": {"kind": "sphere", "dim": 3, "radius": 1.0},
        },
        "checks": ["equiv_chain"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path)]) == 2


def test_cli_overflowing_warping_is_a_config_error(tmp_path, capsys):
    """exp(exp(exp(t))) overflows a float on [5, 6] in the warping's positivity scan."""
    config = {"space": dict(EJIRI_CONFIG["space"], interval=[5, 6], warping="exp(exp(exp(t)))"), "checks": ["lgh_forms"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == "error: space.warping: cannot evaluate on [5, 6] (math range error)\n"


def test_cli_warping_outside_a_math_domain_is_a_config_error(tmp_path, capsys):
    """log(t) has no value at t <= 0, which the warping's positivity scan on [-1, 1] reaches."""
    config = {"space": dict(EJIRI_CONFIG["space"], interval=[-1, 1], warping="2+log(t)"), "checks": ["lgh_forms"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == "error: space.warping: cannot evaluate on [-1, 1] (math domain error)\n"


@pytest.mark.parametrize(
    "warping, where",
    [("2+t/0", "h = nan at t = 0"), ("1+(t-0.5)/(t-0.5)", "h = nan at t = 0.5")],
    ids=["everywhere", "midpoint"],
)
def test_cli_nan_warping_is_a_config_error(tmp_path, capfd, warping, where):
    """A warping that is NaN at a point of the positivity scan, the first or one in the middle, exits 2
    naming space.warping, and numpy warns of nothing."""
    config = {"space": dict(EJIRI_CONFIG["space"], interval=[0, 1], warping=warping), "checks": ["lgh_forms"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert [str(w.message) for w in caught] == []
    assert capfd.readouterr().err == f"error: space.warping: cannot evaluate on [0, 1] ({where})\n"


@pytest.mark.parametrize(
    "interval, warping, fiber, message",
    [
        ([1, 1], "1", {"kind": "sphere", "dim": 3}, "empty interval (1, 1)"),
        ([-1, 1], "t", {"kind": "sphere", "dim": 3}, "warping function is nonpositive on [-1.0, 1.0] (min -1)"),
        ([-1, 1], "1", {"kind": "sphere", "dim": 1}, "warped product needs total dim >= 3, got 2"),
    ],
)
def test_cli_warped_space_construction_errors(tmp_path, capsys, interval, warping, fiber, message):
    config = {"space": {"kind": "warped", "interval": interval, "warping": warping, "fiber": fiber}, "checks": ["lgh_forms"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_field_with_builtin_and_components_is_a_config_error(tmp_path, capsys):
    """Either key alone names the field; with both, one of them would be ignored."""
    field = {"builtin": "zero", "components": ["t", "0", "0"]}
    config = {"space": {"kind": "sphere", "dim": 3}, "field": field, "checks": ["firstthm"], "samples": 2}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == "error: field: provide 'builtin' or 'components', not both\n"


@pytest.mark.parametrize("dt", [0, -0.001, math.nan, math.inf], ids=repr)
def test_cli_ode_warped_dt_must_be_a_positive_step(tmp_path, capsys, dt):
    """The orbit search steps t by dt up to its horizon: a zero or negative step never got there."""
    config = dict(EXAMPLE_CONFIGS["ejiri-ode"], samples=2)
    config["space"] = dict(config["space"], dt=dt)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: space.dt: must be a finite positive step, got {float(dt)!r}\n"


SPHERE = {"kind": "sphere", "dim": 3}
ODE_SPACE = {"kind": "ode_warped", "scalar": 3.0, "h0": 1.0, "fiber": SPHERE}
T_POTENTIAL = {"potential_t": "cos(t)"}


@pytest.mark.parametrize(
    "space, potential, path, value, message",
    [
        (SPHERE, None, "space.dim", "3.7", "must be a finite integer, got 3.7"),
        (SPHERE, None, "space.dim", "true", "must be a finite integer, got True"),
        (SPHERE, None, "space.radius", '"2"', "must be a finite number, got '2'"),
        (SPHERE, None, "space.radius", '"abc"', "must be a finite number, got 'abc'"),
        (SPHERE, None, "space.radius", "1e400", "must be a finite number, got inf"),
        ({"kind": "basicex", "n": 5, "k": 2}, None, "space.n", "5.9", "must be a finite integer, got 5.9"),
        ({"kind": "basicex", "n": 5, "k": 2}, None, "space.k", "false", "must be a finite integer, got False"),
        (EJIRI_CONFIG["space"], None, "space.fiber.dim", "2.5", "must be a finite integer, got 2.5"),
        (ODE_SPACE, None, "space.scalar", "NaN", "must be a finite number, got nan"),
        (ODE_SPACE, None, "space.h0", '"1"', "must be a finite number, got '1'"),
        (SPHERE, {"builtin": "sphere_height"}, "potential.shift", "-Infinity", "must be a finite number, got -inf"),
        (EJIRI_CONFIG["space"], T_POTENTIAL, "potential.a", "true", "must be a finite number, got True"),
        (EJIRI_CONFIG["space"], T_POTENTIAL, "potential.b", "[1]", "must be a finite number, got [1]"),
        (ODE_SPACE, None, "space.dt", '"abc"', "must be a finite positive step, got 'abc'"),
        (ODE_SPACE, None, "space.dt", "true", "must be a finite positive step, got True"),
        (SPHERE, None, "label", "0", "must be a string"),
        (SPHERE, None, "label", '["a"]', "must be a string"),
    ],
)
def test_cli_config_numbers_name_their_field(tmp_path, capsys, space, potential, path, value, message):
    """A bool, a string, a fraction where an integer is due, a non-finite number, or a label that is no
    string exits 2 naming the field."""
    config = {"space": json.loads(json.dumps(space)), "checks": ["scalar_value"], "samples": 2}
    if potential is not None:
        config["potential"] = dict(potential)
    *parents, key = path.split(".")
    node = config
    for name in parents:
        node = node[name]
    node[key] = "@"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config).replace('"@"', value))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("src", ["(-2)^0.5", "0^(-1)", "10^400", "1/0", "log(-1)", "sqrt(-1)"])
@pytest.mark.parametrize("path", ["space.warping", "potential.potential_t", "field.components"])
def test_cli_dsl_constants_without_a_finite_real_value_name_their_field(tmp_path, capsys, path, src):
    """A subexpression without t that has no finite real value exits 2 naming its field, not with a traceback
    or a bare math error."""
    config = json.loads(json.dumps(dict(EJIRI_CONFIG, checks=["lgh_forms"], samples=2)))
    expr = f"2+{src}*t"
    if path == "space.warping":
        config["space"]["warping"] = expr
    elif path == "potential.potential_t":
        config["potential"] = {"potential_t": expr}
    else:
        config["field"] = {"components": [expr, "0", "0", "0"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {src!r} has no finite real value at offset 2\n"


def test_cli_integral_config_numbers_are_integers():
    """An integral float is an integer: dim 3.0 builds the S^3 that dim 3 does."""
    config = {"space": {"kind": "sphere", "dim": 3.0, "radius": 2}, "checks": ["scalar_value"]}
    assert build_context(RunConfig.from_dict(config)).chart.dim == 3


def test_cli_point_reproduction(tmp_path):
    """A FAIL row's worst point reproduces the failure via --point."""
    config = dict(EJIRI_CONFIG, tolerances={"firstthm": 1e-30})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    main(["verify", str(config_path), "--out", str(out), "--no-timestamp"])
    worst = [
        c for c in json.loads(out.read_text())["checks"] if c["check"] == "firstthm"
    ][0]["worst_point"]
    point_arg = ",".join(str(x) for x in worst)
    out2 = tmp_path / "r2.json"
    code = main(
        ["verify", str(config_path), "--out", str(out2), "--no-timestamp", "--point", point_arg]
    )
    assert code == 1
    again = [c for c in json.loads(out2.read_text())["checks"] if c["check"] == "firstthm"][0]
    assert again["status"] == "FAIL"
    assert again["samples"] == 1


@pytest.mark.parametrize(
    "point, message",
    [
        ("nan,0,0", "--point: coordinates must be finite, got [nan, 0.0, 0.0]"),
        ("0,inf,0", "--point: coordinates must be finite, got [0.0, inf, 0.0]"),
        ("0.1,abc,0.3", "--point: could not convert string to float: 'abc'"),
    ],
)
def test_cli_point_must_be_finite_numbers(tmp_path, capsys, point, message):
    config = {"space": {"kind": "sphere", "dim": 3}, "field": {"builtin": "sphere_gradient"}, "checks": ["firstthm"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp", "--point", point]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("axes", [[0, 7], [0], [1, 1], [-1, 0], [0, 1.5], "01"], ids=str)
def test_cli_rotation_axes_must_be_two_distinct_axes(tmp_path, capsys, axes):
    field = {"builtin": "rotation", "axes": axes}
    config = {"space": {"kind": "sphere", "dim": 3}, "field": field, "checks": ["firstthm"], "samples": 2}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: field.axes: need two distinct integers in 0..2, got {axes!r}\n"


@pytest.mark.parametrize(
    "space, key, builtin, message",
    [
        ("hyperbolic", "potential", "sphere_height", "potential.builtin: sphere_height needs a sphere space"),
        ("hyperbolic", "field", "sphere_gradient", "field.builtin: sphere_gradient needs a sphere space"),
        ("flat_torus", "potential", "hyperbolic_x0", "potential.builtin: hyperbolic_x0 needs a hyperbolic space"),
        ("sphere", "potential", "hyperbolic_x0", "potential.builtin: hyperbolic_x0 needs a hyperbolic space"),
        ("sphere", "potential", "basicex", "potential.builtin: basicex needs a basicex space"),
        ("sphere", "potential", "warped_hdot", "potential.builtin: warped_hdot needs a warped space"),
    ],
)
def test_cli_chart_builtins_need_their_space_kind(tmp_path, capsys, space, key, builtin, message):
    """A builtin written in one chart's coordinates would FAIL an identity elsewhere; it is a config error."""
    check = "vss_residual" if key == "potential" else "firstthm"
    config = {"space": {"kind": space, "dim": 3}, key: {"builtin": builtin}, "checks": [check], "samples": 2}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "space, key, builtin, checks",
    [
        ({"kind": "hyperbolic", "dim": 3}, "potential", "hyperbolic_x0", ["vss_residual", "t_algebra"]),
        ({"kind": "basicex", "n": 5, "k": 2}, "potential", "basicex", ["vss_residual", "propddoth"]),
        (EJIRI_CONFIG["space"], "potential", "warped_hdot", ["vss_residual", "lgh_forms"]),
        ({"kind": "sphere", "dim": 3}, "field", "zero", ["firstthm", "closed_cvf"]),
    ],
)
def test_builtins_run_on_their_space_kind(space, key, builtin, checks):
    report = run_suite(RunConfig.from_dict({"space": space, key: {"builtin": builtin}, "checks": checks, "samples": 3}))
    assert [(c.check, c.status) for c in report.checks] == [(c, "PASS") for c in checks]


def test_warped_hdot_potential_is_the_default_of_a_warped_space():
    raw = dict(EJIRI_CONFIG, checks=["vss_residual", "lgh_forms", "t_algebra"], samples=3)
    plain = run_suite(RunConfig.from_dict(raw))
    hdot = run_suite(RunConfig.from_dict(dict(raw, potential={"builtin": "warped_hdot"})))
    for report in (plain, hdot):
        for outcome in report.checks:
            outcome.wall_time = 0.0
    assert report_to_json(hdot) == report_to_json(plain)


@pytest.mark.parametrize("key, have", [("potential", POTENTIAL_BUILTINS), ("field", FIELD_BUILTINS)])
def test_cli_unknown_builtin_lists_the_known_ones(tmp_path, capsys, key, have):
    config = {"space": {"kind": "sphere", "dim": 3}, key: {"builtin": "nope"}, "checks": ["firstthm"], "samples": 2}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {key}.builtin: unknown builtin 'nope' (have {have})\n"


@pytest.mark.parametrize("axis", [9, 0, -1, 2.0, "1", True], ids=repr)
@pytest.mark.parametrize("key, builtin, check", [("field", "sphere_gradient", "firstthm"), ("potential", "sphere_height", "vss_residual")])
def test_cli_sphere_axis_names_its_key(tmp_path, capsys, key, builtin, check, axis):
    config = {"space": {"kind": "sphere", "dim": 3}, key: {"builtin": builtin, "axis": axis}, "checks": [check], "samples": 2}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {key}.axis: need an integer in 1..4, got {axis!r}\n"


def test_cli_csv_output(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(EJIRI_CONFIG))
    out = tmp_path / "r.json"
    csv_path = tmp_path / "rows.csv"
    main(["verify", str(config_path), "--out", str(out), "--no-timestamp", "--csv", str(csv_path)])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "check,point,abs_residual,rel_residual,tolerance"
    # one row per (check, point); equiv_chain is a meta check without rows
    per_point = [c for c in EJIRI_CONFIG["checks"] if c != "equiv_chain"]
    assert len(lines) == 1 + len(per_point) * EJIRI_CONFIG["samples"]
    fields = lines[1].split(",")
    assert fields[0] in EJIRI_CONFIG["checks"]
    assert len(fields[1].split(";")) == 4  # the sample point
    assert float(fields[3]) <= float(fields[4])  # rel residual within tolerance


def test_cli_solve_ode_matches_analytic(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "solve-ode",
            "--n", "4",
            "--scalar", "3",
            "--rbar", "6",
            "--c1", "0.75",
            "--h0", str(math.sqrt(2.0)),
            "--hdot0", str(1.0 / (2.0 * math.sqrt(2.0))),
            "--t-end", str(2.0 * math.pi),
            "--dt", "1e-3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,h,hdot,first_integral_residual"
    worst = 0.0
    for line in lines[1:]:
        t, h, hdot, resid = (float(x) for x in line.split(","))
        worst = max(worst, abs(h - math.sqrt(2.0 + math.sin(t))))
    assert worst < 1e-8


def test_cli_solve_ode_equilibrium(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["solve-ode", "--n", "4", "--scalar", "12", "--c1", "1", "--h0", "1",
         "--t-end", "2", "--dt", "1e-3", "--out", str(out)]
    )
    assert code == 0
    hs = [float(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
    assert max(abs(h - 1.0) for h in hs) < 1e-12


def test_cli_solve_ode_bad_h0(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["solve-ode", "--n", "4", "--scalar", "12", "--c1", "1",
                 "--h0", "0", "--out", str(out)]) == 2


@pytest.mark.parametrize("periodic", [[], ["--periodic"]], ids=["integrate", "periodic"])
@pytest.mark.parametrize("dt", ["0", "-1e-3", "nan"])
def test_cli_solve_ode_bad_dt(tmp_path, capsys, periodic, dt):
    out = tmp_path / "traj.csv"
    code = main(["solve-ode", "--n", "4", "--scalar", "12", "--c1", "2", "--h0", "1.07", f"--dt={dt}",
                 "--out", str(out)] + periodic)
    assert code == 2
    assert capsys.readouterr().err == "error: --dt must be a finite positive step\n"
    assert not out.exists()


@pytest.mark.parametrize("periodic", [[], ["--periodic"]], ids=["integrate", "periodic"])
@pytest.mark.parametrize("flag", ["--scalar", "--rbar", "--c1", "--h0", "--hdot0"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_solve_ode_non_finite_numbers(tmp_path, capsys, periodic, flag, value):
    """A non-finite parameter exits 2 naming it, before any step is taken."""
    out = tmp_path / "traj.csv"
    args = {"--scalar": "12", "--c1": "2", "--h0": "1.07", flag: value}
    code = main(["solve-ode", "--n", "4", *(f"{k}={v}" for k, v in args.items()), "--out", str(out)] + periodic)
    assert code == 2
    assert capsys.readouterr().err == f"error: {flag} must be a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("t_end, dt", [("1e-4", "1e-3"), ("2.5004", "1e-3"), ("1", str(1 / 49)), ("0.7", "0.2")])
def test_cli_solve_ode_grid_ends_at_t_end(tmp_path, t_end, dt):
    """round(t_end / dt) steps of t_end / steps: the last row is at t_end, the rows evenly spaced."""
    out = tmp_path / "traj.csv"
    code = main(["solve-ode", "--n", "4", "--scalar", "12", "--c1", "1", "--h0", "1", "--hdot0", "0.1",
                 f"--t-end={t_end}", f"--dt={dt}", "--out", str(out)])
    assert code == 0
    times = [float(line.split(",")[0]) for line in out.read_text().strip().splitlines()[1:]]
    steps = max(1, round(float(t_end) / float(dt)))
    assert len(times) == steps + 1
    assert times[0] == 0.0 and times[-1] == float(t_end)
    assert np.diff(times) == pytest.approx(float(t_end) / steps, rel=1e-9)


@pytest.mark.parametrize(
    "hdot0, message",
    [
        # the second RK4 stage lands at h = 5e-11; the step used to end at h = 2.7e24
        ("-1999.9999999", "error: warping function lost positivity at t = 0\n"),
        # every stage stays above H_MIN, but one at h = 5e-6 throws h to 2.7e9 in one step
        (
            "-1999.99",
            "error: the orbit drifts: first-integral residual 1 relative to its terms at row 1 (t = 0.001) "
            "is above 1e-06; take a smaller --dt\n",
        ),
    ],
    ids=["stage_collapse", "drift"],
)
def test_cli_solve_ode_broken_orbit_exits_1(tmp_path, capsys, hdot0, message):
    """A step with a collapsed stage, or an orbit whose first integral drifts, exits 1 naming where; no CSV is written."""
    out = tmp_path / "traj.csv"
    code = main(["solve-ode", "--n", "4", "--scalar", "12", "--c1", "1", "--h0", "1", f"--hdot0={hdot0}",
                 "--t-end", "0.01", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("periodic", [[], ["--periodic"]], ids=["integrate", "periodic"])
def test_cli_solve_ode_fiber_scalar_out_of_float_range(tmp_path, capsys, periodic):
    """h0^(2-n) = 0.1^-398 overflows a float: one error line, exit 2, as for the other parameter errors."""
    out = tmp_path / "traj.csv"
    code = main(["solve-ode", "--n", "400", "--scalar", "1", "--c1", "1", "--h0", "0.1", "--out", str(out)] + periodic)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --h0 0.1 and --n 400 take the fiber scalar out of float range; give --rbar\n"
    )
    assert not out.exists()


def test_cli_solve_ode_periodic_overflow_loses_positivity(tmp_path, capsys):
    """With --rbar given, the search's first step overflows h^(1-n): lost positivity, exit 1, not a traceback."""
    out = tmp_path / "traj.csv"
    code = main(["solve-ode", "--n", "400", "--scalar", "1", "--c1", "1", "--h0", "0.1", "--rbar", "1",
                 "--periodic", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: warping function lost positivity at t = 0\n"
    assert not out.exists()


def test_cli_ode_warped_drifting_orbit_is_a_config_error(tmp_path, capsys):
    """ejiri-ode's orbit at dt = 0.3 keeps h positive, but its first integral drifts by 2e-5."""
    config = dict(EXAMPLE_CONFIGS["ejiri-ode"], samples=2)
    config["space"] = dict(config["space"], dt=0.3)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == (
        "error: space: the warping orbit drifts (first-integral residual 1.94e-05 at t = 6.28368, above 1e-06); "
        "take a smaller space.dt\n"
    )


@pytest.mark.parametrize("t_end", ["0", "-5", "inf", "nan"])
def test_cli_solve_ode_bad_t_end(tmp_path, capsys, t_end):
    out = tmp_path / "traj.csv"
    code = main(["solve-ode", "--n", "4", "--scalar", "12", "--c1", "1", "--h0", "1", f"--t-end={t_end}",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: --t-end must be a finite positive horizon\n"
    assert not out.exists()


def test_cli_solve_ode_periodic(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        ["solve-ode", "--n", "4", "--scalar", "12", "--c1", "2",
         "--h0", "1.07", "--periodic", "--dt", "1e-3", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "period:" in captured.out
    assert out.exists()


def test_cli_solve_ode_periodic_rejects_hdot0(tmp_path, capsys):
    """The periodic search starts at (h0, 0); a nonzero --hdot0 would be ignored, so it is an error."""
    out = tmp_path / "traj.csv"
    code = main(
        ["solve-ode", "--n", "4", "--scalar", "3", "--c1", "0.75", "--h0", "1.41421",
         "--hdot0", "0.353553", "--periodic", "--out", str(out)]
    )
    assert code == 2
    assert "drop --hdot0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_list(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    assert "basicex" in text
    for check in CHECKS:
        assert check in text
    assert f"t_algebra: {CHECKS['t_algebra'].description} [tol 1e-10]" in text
    # stable ordering
    assert main(["list"]) == 0
    assert capsys.readouterr().out == text


def test_cli_example(tmp_path):
    out = tmp_path / "r.json"
    assert main(["example", "sphere-s4", "--out", str(out), "--no-timestamp", "--samples", "6"]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["summary"]["fail"] == 0


def test_example_configs_are_valid():
    for name, raw in EXAMPLE_CONFIGS.items():
        config = RunConfig.from_dict(json.loads(json.dumps(raw)))
        build_context(config)


def test_config_output_paths(tmp_path):
    config = dict(
        EJIRI_CONFIG,
        output={"report": str(tmp_path / "r.json"), "csv": str(tmp_path / "rows.csv")},
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["verify", str(config_path), "--no-timestamp"]) == 0
    assert (tmp_path / "r.json").exists()
    assert (tmp_path / "rows.csv").exists()
    with pytest.raises(ConfigError, match="output.bogus"):
        RunConfig.from_dict(dict(EJIRI_CONFIG, output={"bogus": "x"}))

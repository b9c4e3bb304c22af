"""Command-line interface: subcommands, config layering, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

from symsector import cli


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse paths
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_no_command_shows_usage(capsys):
    code, _out, err = run_cli([], capsys)
    assert code == 2
    assert "usage" in err


def test_verify_report_to_stdout(capsys):
    code, out, _ = run_cli(["verify", "--sample-scale", "0.02"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert len(rep["suites"]) == 26
    assert rep["config"]["sample_scale"] == 0.02


def test_verify_deterministic_bytes(tmp_path, capsys):
    # the second run also writes the timings sidecar, which must not
    # change the report
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    t = tmp_path / "timings.json"
    args = ["verify", "--sample-scale", "0.02", "--seed", "11"]
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b), "--timings", str(t)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    timings = json.loads(t.read_text())
    report = json.loads(a.read_text())
    assert list(timings["suites"]) == [s["name"] for s in report["suites"]]
    assert all(s >= 0.0 for s in timings["suites"].values())
    assert timings["workers"] >= 1 and timings["wall_s"] > 0.0


@pytest.mark.parametrize("names", [
    ["corner-pairing"],
    ["surface-validation", "pair-sym-round-trip"],
])
def test_verify_suite_option(names, tmp_path, capsys):
    t = tmp_path / "timings.json"
    args = ["verify", "--sample-scale", "0.05", "--timings", str(t)]
    for name in names:
        args += ["--suite", name]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    ran = [s["name"] for s in json.loads(out)["suites"]]
    assert ran == [name for name in cli.verify.SUITE_NAMES if name in names]
    timings = json.loads(t.read_text())
    assert list(timings["suites"]) == ran
    assert timings["workers"] <= len(names)


def test_verify_unknown_suite_exits_2(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", "--suite", "pair-sym-round-trip", "--suite", "no-such-suite",
         "--out", str(target)], capsys
    )
    _assert_user_error(code, err)
    assert "no-such-suite" in err and out == ""
    assert not target.exists()


def test_verify_infeasible_cutoff_is_expected(capsys):
    # below the bridge threshold the cutoff profile cannot exist, and the
    # profile suite records that as the expected outcome rather than a failure
    code, out, _ = run_cli(
        ["verify", "--sample-scale", "0.02", "--epsilon", "1.0"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    profile = next(s for s in rep["suites"]
                   if s["name"] == "smoothing-profile-bounds")
    assert "infeasible" in profile["detail"]


def test_verify_failure_maps_to_exit_1(monkeypatch, capsys):
    from symsector import verify as verify_mod

    fake = {"passed": False, "failed": ["x"], "suites": [], "config": {}}
    monkeypatch.setattr(verify_mod, "run_all", lambda cfg, timings=None: fake)
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_classify_grid_csv(capsys):
    code, out, _ = run_cli(["classify-grid", "--grid", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("coord1,coord2,label")
    assert len(lines) == 1 + 49


def test_classify_grid_out_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        ["classify-grid", "--grid", "5", "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert target.read_text().count("\n") == 1 + 25


def test_slice_plot_svg(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, _, _ = run_cli(
        ["slice-plot", "--grid", "9", "--slice", "im:0", "--out", str(target)],
        capsys,
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text


def test_slice_plot_without_out_writes_stdout(tmp_path, capsys, monkeypatch):
    # it used to write slice.svg in the working directory instead
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["slice-plot", "--grid", "5"], capsys)
    assert code == 0
    assert out.startswith("<?xml") and "<svg" in out
    assert list(tmp_path.iterdir()) == []


def test_decompose_builtin(capsys):
    code, out, _ = run_cli(["decompose", "--surface", "p1-minus-4pts"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["counts"] == {"pieces": 3, "hypersurfaces": 2, "corners": 0}
    assert rep["lg_labels"]["mirror"] == "{xyz=0} in C^3"


def test_decompose_requires_surface(capsys):
    code, _, err = run_cli(["decompose"], capsys)
    assert code == 2
    assert "--surface" in err


def test_decompose_surface_file(tmp_path, capsys):
    from symsector.surfaces import builtin_surface

    path = tmp_path / "surface.json"
    path.write_text(builtin_surface("example-5.3").dumps())
    code, out, _ = run_cli(["decompose", "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["counts"]["pieces"] == 6


def test_decompose_invalid_surface(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "components": [
            {"id": "a", "genus": 0, "ends": 1, "slots": ["p"]}
        ],
        "arcs": [["p", "ghost"]],
    }))
    code, _, err = run_cli(["decompose", "--surface", str(path)], capsys)
    assert code == 2
    assert "UNKNOWN_SLOT" in err


def test_decompose_missing_file(capsys):
    code, _, err = run_cli(["decompose", "--surface", "/no/such.json"], capsys)
    assert code == 2
    assert err


@pytest.mark.parametrize("alpha", ["0.5", "inf"])
def test_bad_alpha_rejected(alpha, capsys):
    code, _, err = run_cli(["verify", "--alpha", alpha], capsys)
    assert code == 2
    assert "alpha" in err


def test_bad_smoothing_rejected(capsys):
    code, _, err = run_cli(["classify-grid", "--smoothing", "fancy"], capsys)
    assert code == 2


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sample-scale": 0.02, "seed": 4, "epsilon": 16.0}))
    code, out, _ = run_cli(["verify", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 4
    # flags win over the config file
    code, out, _ = run_cli(
        ["verify", "--config", str(cfg), "--seed", "9"], capsys
    )
    assert json.loads(out)["config"]["seed"] == 9


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sample-scale": 0.02, "bogus": 1}))
    code, _, err = run_cli(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus" in err


def _assert_user_error(code, err):
    # exit 2 with one line on stderr, never a traceback
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_slice_exits_2(capsys):
    code, _, err = run_cli(["classify-grid", "--grid", "3", "--slice", "foo"], capsys)
    _assert_user_error(code, err)
    assert "foo" in err


def test_config_value_of_wrong_type_exits_2(tmp_path, capsys):
    # out = true or 1 would open file descriptor 1, grid = true draw a 1x1 grid
    cases = [
        ("classify-grid", {"epsilon": "abc"}),
        ("classify-grid", {"grid": 3.5}),
        ("classify-grid", {"grid": True}),
        ("classify-grid", {"box": True}),
        ("verify", {"seed": False}),
        ("verify", {"seed": math.inf}),  # json writes Infinity
        ("classify-grid", {"out": True}),
        ("classify-grid", {"out": 1}),
        ("decompose", {"out": 1, "surface": "example-5.3"}),
        ("decompose", {"surface": ["example-5.3"]}),
        ("verify", {"timings": 2}),
    ]
    cfg = tmp_path / "run.json"
    for command, data in cases:
        cfg.write_text(json.dumps(data))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        _assert_user_error(code, err)
        assert out == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run_cli(
        ["decompose", "--surface", "p1-minus-4pts", "--out", str(target)], capsys
    )
    _assert_user_error(code, err)
    assert str(target) in err and out == ""


@pytest.mark.parametrize("command, module, attr", [
    ("verify", "verify", "run_all"),
    ("classify-grid", "gridplot", "classify_grid"),
    ("slice-plot", "gridplot", "classify_grid"),
])
def test_unwritable_out_fails_before_computing(
    command, module, attr, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError(f"{module}.{attr} ran before --out was checked")

    monkeypatch.setattr(getattr(cli, module), attr, never)
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run_cli([command, "--out", str(target)], capsys)
    _assert_user_error(code, err)
    assert "cannot write" in err and str(target) in err and out == ""


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_verify_out_and_timings_on_one_file_exit_2(link, tmp_path, capsys, monkeypatch):
    # the timings sidecar used to overwrite the report, with exit 0
    def never(*args, **kwargs):
        raise AssertionError("verify.run_all ran before the paths were checked")

    monkeypatch.setattr(cli.verify, "run_all", never)
    report = tmp_path / "r.json"
    report.write_text("kept\n")
    timings = report
    if link:
        timings = tmp_path / "t.json"
        timings.symlink_to(report)
    code, out, err = run_cli(
        ["verify", "--out", str(report), "--timings", str(timings)], capsys
    )
    _assert_user_error(code, err)
    assert "same file" in err and out == ""
    assert report.read_text() == "kept\n"


def test_out_check_leaves_no_file_when_run_fails(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("grid failed")

    monkeypatch.setattr(cli.gridplot, "classify_grid", broken)
    target = tmp_path / "grid.csv"
    with pytest.raises(RuntimeError):
        cli.main(["classify-grid", "--out", str(target)])
    assert not target.exists()
    target.write_text("kept\n")
    with pytest.raises(RuntimeError):
        cli.main(["classify-grid", "--out", str(target)])
    assert target.read_text() == "kept\n"


def test_negative_seed_exits_2(capsys):
    code, out, err = run_cli(["verify", "--seed", "-1"], capsys)
    _assert_user_error(code, err)
    assert "seed" in err and out == ""


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_bad_sample_scale_exits_2_before_computing(scale, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["verify", "--sample-scale", scale, "--out", str(target)], capsys
    )
    _assert_user_error(code, err)
    assert "sample-scale" in err and out == ""
    assert not target.exists()


@pytest.mark.parametrize("box", ["-5", "0", "nan", "inf"])
def test_bad_box_exits_2(box, capsys):
    code, out, err = run_cli(["classify-grid", "--grid", "3", "--box", box], capsys)
    _assert_user_error(code, err)
    assert "box" in err and out == ""


# the options each subcommand reads
_GRID_READS = ("epsilon", "alpha", "smoothing", "grid", "slice", "box", "band-tol",
               "max-time", "out", "config")
_READS = {
    "verify": ("epsilon", "alpha", "seed", "sample-scale", "suite", "timings",
               "out", "config"),
    "classify-grid": _GRID_READS,
    "slice-plot": _GRID_READS,
    "decompose": ("surface", "out", "config"),
}
# every subcommand used to take these, read or not
_FORMER_COMMON = ("epsilon", "alpha", "band-tol", "grid", "seed", "max-time",
                  "escape-radius", "out", "smoothing", "surface", "config", "slice",
                  "sample-scale", "box")
_UNREAD = [(command, option) for command in _READS for option in _FORMER_COMMON
           if option not in _READS[command]]
# a small run of each subcommand, and a value of each option it changes
_BASE = {
    "verify": ["--suite", "kahler-form-consistency", "--sample-scale", "0.05"],
    "classify-grid": ["--grid", "5"],
    "slice-plot": ["--grid", "5"],
    "decompose": ["--surface", "p1-minus-4pts"],
}
_CHANGED = {
    "epsilon": 8.0, "alpha": 3.0, "seed": 3, "sample-scale": 0.1,
    "suite": "offset-evenness", "timings": "timings.json", "smoothing": "cutoff",
    "grid": 3, "slice": "z1:-40", "box": 3.0, "band-tol": 1e3, "max-time": 1e-300,
    "surface": "example-5.3", "escape-radius": 5.0,
}


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command, option", [
    (command, option) for command in ("verify", "classify-grid", "slice-plot")
    for option in ("--epsilon", "--max-time", "--band-tol", "--escape-radius")
])
def test_non_finite_value_exits_2(command, option, value, tmp_path, capsys):
    # verify --epsilon inf crashed on the JSON report and exited 1;
    # classify-grid --band-tol nan labelled every cell U_PP and exited 0;
    # an option the subcommand does not read is refused the same way
    target = tmp_path / "out.txt"
    code, out, err = run_cli(
        [command, *_BASE[command], "--out", str(target), option, value], capsys
    )
    _assert_user_error(code, err)
    assert option[2:] in err and out == ""
    assert not target.exists()


@pytest.mark.parametrize("command", list(_READS))
def test_help_lists_the_options_read(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", out))
    assert listed == {"--help"} | {"--" + option for option in _READS[command]}


def _outcome(argv, capsys):
    """Exit code, stdout and whether timings.json was written.

    A verify report loses its echo of the options, which changes with
    every value, read or not.
    """
    code, out, _ = run_cli(argv, capsys)
    if argv[0] == "verify":
        report = json.loads(out)
        del report["config"]
        out = json.dumps(report)
    return code, out, os.path.exists("timings.json")


@pytest.mark.parametrize("command, option", [
    (command, option) for command in _READS for option in _READS[command]
    if option not in ("out", "config")
])
def test_every_option_changes_the_run(command, option, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, *_BASE[command]]
    default = _outcome(argv, capsys)
    assert default[0] == 0
    changed = _outcome(argv + ["--" + option, str(_CHANGED[option])], capsys)
    assert changed != default


@pytest.mark.parametrize("command, option", _UNREAD)
def test_unread_option_exits_2(command, option, tmp_path, capsys):
    # decompose --alpha 7 and verify --smoothing cutoff were accepted and
    # changed nothing; now they exit 2, as a flag and as a config key,
    # before anything is computed or written
    target = tmp_path / "out.txt"
    argv = [command, *_BASE[command], "--out", str(target)]
    value = _CHANGED[option]
    code, out, err = run_cli(argv + ["--" + option, str(value)], capsys)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: --{option}" in err
    assert not target.exists()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({option: value}))
    code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    _assert_user_error(code, err)
    assert repr(option) in err and command in err and out == ""
    assert not target.exists()


@pytest.mark.parametrize("field, value", [
    ("slots", "pq"),
    ("arcs", ["pr"]),
    ("genus", 0.9),
    ("ends", True),
    ("expected_euler", True),
    ("expected_euler", -1.0),
], ids=["slots-string", "arc-string", "genus-float", "ends-bool", "euler-bool",
        "euler-float"])
def test_surface_field_of_wrong_type_exits_2(field, value, tmp_path, capsys):
    comp = {"id": "a", "genus": 0, "ends": 2, "slots": ["p", "q"]}
    data = {"components": [comp], "arcs": [["p", "q"]]}
    if field in ("arcs", "expected_euler"):
        data[field] = value
    else:
        comp[field] = value
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["decompose", "--surface", str(path)], capsys)
    _assert_user_error(code, err)
    assert "must be" in err and out == ""


@pytest.mark.parametrize("data", [[], {"components": [5]}],
                         ids=["surface-list", "component-int"])
def test_surface_not_an_object_exits_2(data, tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["decompose", "--surface", str(path)], capsys)
    _assert_user_error(code, err)
    assert "must be a JSON object" in err and out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symsector", "decompose", "--surface",
         "example-5.3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["euler"] == 1


def test_package_never_imports_scipy():
    # scipy may be installed, and the DOP853 tableau was copied from its
    # source, so an accidental import would pass every other test; the
    # pool modules load only when a pool starts, which keeps them out of
    # the start-up time of every command
    modules = ["scipy", "multiprocessing", "concurrent.futures"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, symsector, symsector.cli; "
         f"print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["classify-grid", "slice-plot"])
@pytest.mark.parametrize("args", [
    ["--box", "1e308"],
    ["--slice", "z1:1e308", "--box", "1"],
], ids=["linspace", "w-product"])
def test_grid_beyond_float_range_exits_2(command, args, tmp_path, capsys):
    target = tmp_path / "grid.out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            [command, "--grid", "3", "--out", str(target)] + args, capsys
        )
    _assert_user_error(code, err)
    assert "overflows" in err and out == ""
    assert caught == [] and not target.exists()


def test_grid_too_large_to_allocate_exits_2(capsys):
    # (5e6)^2 float64 cells outgrow the 128 TiB user address space, so the
    # allocation is refused under any overcommit policy; the two axes take
    # 80 MB before it
    code, out, err = run_cli(["classify-grid", "--grid", "5000000"], capsys)
    _assert_user_error(code, err)
    assert "too large" in err and out == ""


@pytest.mark.parametrize("command", ["classify-grid", "slice-plot"])
def test_error_cells_are_counted_on_stderr(command, tmp_path, capsys):
    # no Delta row takes a step before max_time, so only the two cells whose
    # s = +-48 starts beyond s_star (47.05) resolve, at t = 0; every other
    # cell is ERROR
    target = tmp_path / "grid.out"
    args = [command, "--grid", "5", "--out", str(target)]
    code, out, err = run_cli(args + ["--max-time", "1e-300"], capsys)
    assert code == 0 and out == ""
    assert err == "warning: 23 of 25 grid cells are ERROR (offset not resolved)\n"
    assert run_cli(args, capsys) == (0, "", "")


def test_large_offsets_resolve(tmp_path, capsys):
    # the Delta stop rule is relative, so offsets near 400 resolve too:
    # c = |Re s| where |Re s| starts beyond s_star
    target = tmp_path / "grid.csv"
    code, out, err = run_cli(["classify-grid", "--grid", "5", "--box", "400",
                              "--slice", "z1:-40", "--out", str(target)], capsys)
    assert (code, out, err) == (0, "", "")
    cells = {}
    for line in target.read_text().splitlines()[1:]:
        x, y, label, a, b = line.split(",")
        assert label != "ERROR"
        cells[float(x), float(y)] = (float(a) - float(b)) / 2.0
    # s = (z1 - z2)/2 = (-40 - x)/2 at Im z2 = 0
    for x in (-400.0, 200.0, 400.0):
        assert cells[x, 0.0] == abs(-40.0 - x) / 2.0


@pytest.mark.parametrize("alpha", ["1.2", "2", "3", "5"])
def test_alpha_aware_suites_pass(alpha, capsys):
    # the fixed-pair reference flows at alpha, and the disk floor is the
    # least Laplacian of the bridge, its outer end once alpha > 2.375
    code, out, _ = run_cli(
        ["verify", "--suite", "product-flow-regression", "--suite", "disk-blend-psh",
         "--sample-scale", "0.05", "--alpha", alpha], capsys)
    report = json.loads(out)
    assert [s["name"] for s in report["suites"]] == [
        "disk-blend-psh", "product-flow-regression"]
    assert code == 0 and report["passed"] is True

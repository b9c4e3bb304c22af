"""Verification suite runner and report plumbing."""

import concurrent.futures
import json
import math
import multiprocessing
import os

import pytest

from symsector import geometry, sectors, verify
from symsector._accel import using_numba
from symsector.verify import (
    SENSES,
    SUITE_NAMES,
    VerifyConfig,
    _result,
    passes,
    report_json,
    run_all,
    run_suite,
)

FAST_SUITES = [
    "pair-sym-round-trip",
    "decomposition-counts",
    "surface-validation",
]


def test_suite_names_are_registered():
    assert len(SUITE_NAMES) == 26
    assert len(set(SUITE_NAMES)) == 26
    assert "product-flow-regression" in SUITE_NAMES
    assert "builtin-decompositions" in SUITE_NAMES


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", VerifyConfig(sample_scale=0.05))


def test_run_suite_result_shape():
    out = run_suite("pair-sym-round-trip", VerifyConfig(sample_scale=0.05))
    assert set(out) == {"passed", "samples", "checks", "detail", "name"}
    assert out["passed"] is True
    assert isinstance(out["samples"], int)
    assert [set(c) for c in out["checks"]] == [{"name", "value", "sense", "bound"}] * 2


def test_run_all_subset():
    rep = run_all(VerifyConfig(sample_scale=0.05, suites=FAST_SUITES))
    assert [s["name"] for s in rep["suites"]] == FAST_SUITES
    assert rep["passed"] is True
    assert rep["failed"] == []
    assert rep["config"]["sample_scale"] == 0.05
    assert rep["config"]["epsilon"] == 16.0


def test_report_json_deterministic():
    cfg = VerifyConfig(seed=7, sample_scale=0.05, suites=FAST_SUITES)
    a = report_json(run_all(cfg))
    b = report_json(run_all(cfg))
    assert a == b
    data = json.loads(a)
    assert data["passed"] is True
    assert a.endswith("\n")


def test_seed_changes_are_isolated():
    # different seed still passes; the report text may differ only in
    # sampled check values
    rep = run_all(VerifyConfig(seed=99, sample_scale=0.05, suites=FAST_SUITES))
    assert rep["passed"] is True


@pytest.mark.parametrize(
    "kwargs",
    [dict(sample_scale=0.0), dict(sample_scale=-1.0), dict(seed=-1),
     dict(seed=1.5), dict(suites=["nope"]), dict(sample_scale=math.inf)],
)
def test_config_validation(kwargs):
    with pytest.raises((ValueError, KeyError)):
        cfg = VerifyConfig(**kwargs)
        run_all(cfg)


@pytest.mark.parametrize(
    "kwargs",
    [dict(alpha=a) for a in (0.5, 1.0, math.inf, math.nan)]
    + [dict(epsilon=e) for e in (0.0, -1.0, math.inf, math.nan)],
)
def test_config_refuses_model_parameters_steinparams_refuses(kwargs):
    # before any suite runs: run_all would report every suite failed, and
    # an infinite or NaN value would make the report invalid JSON
    with pytest.raises(ValueError):
        VerifyConfig(sample_scale=0.02, **kwargs)


def test_report_numbers_are_valid_json():
    out = _result(1, [("signed zero", -0.0, "==", 0.0),
                      ("nan", float("nan"), "<=", 1.0),
                      ("inf", float("inf"), ">", 0.0)], "")
    assert [json.dumps(c["value"]) for c in out["checks"]] == ["0.0", "null", "null"]
    assert out["passed"] is False
    with pytest.raises(ValueError):
        report_json({"value": float("nan")})


def _checks(*rows):
    return [dict(name=str(k), value=v, sense=s, bound=b)
            for k, (v, s, b) in enumerate(rows)]


def test_pass_rule():
    assert passes([]) is False
    assert passes(_checks((1.0, "<=", 1.0))) is True
    assert passes(_checks((1.0, "<", 1.0))) is False
    assert passes(_checks((1.0, ">=", 1.0), (True, "==", True))) is True
    assert passes(_checks((1.0, ">", 1.0))) is False
    for bad in (math.nan, math.inf, -math.inf, None):
        for sense in SENSES:
            assert passes(_checks((bad, sense, 0.0))) is False
    assert passes(_checks((0.0, "<=", 1.0), (2.0, "<=", 1.0))) is False
    # a suite that stops early returns no checks, so it fails
    assert _result(5, [], "stopped early")["passed"] is False


# suite: (module, measurement made NaN, the check that reads it)
NAN_CASES = {
    "chart-poisson-brackets": (sectors, "check_poisson_bracket", "|{I_i, I_j}|"),
    "characteristic-transversality": (sectors, "check_dI_characteristic",
                                      "min dI(C)"),
    "disk-cover-family": (geometry, "laplacian_fd", "min Laplacian"),
}


@pytest.mark.parametrize("suite", NAN_CASES)
def test_nan_measurement_fails_its_suite(monkeypatch, suite):
    # the built-in max and min drop a NaN that comes second, so these
    # suites used to pass on NaN measurements
    module, measurement, check = NAN_CASES[suite]
    monkeypatch.setattr(module, measurement, lambda *args, **kwargs: math.nan)
    out = run_suite(suite, VerifyConfig(sample_scale=0.05))
    assert out["passed"] is False
    printed = json.loads(report_json(out))["checks"]
    assert {c["name"]: c["value"] for c in printed}[check] is None


@pytest.mark.parametrize("seed", [0, 7])
def test_pool_report_matches_serial_loop(seed):
    cfg = VerifyConfig(seed=seed, sample_scale=0.05)
    results = [run_suite(name, cfg) for name in SUITE_NAMES]
    failed = [r["name"] for r in results if not r["passed"]]
    serial = {
        "config": {"alpha": 1.5, "epsilon": 16.0, "numba": using_numba(),
                   "sample_scale": 0.05, "seed": seed},
        "failed": failed,
        "passed": not failed,
        "suites": results,
    }
    assert report_json(run_all(cfg)) == report_json(serial)
    for r in results:
        assert r["checks"], r["name"]
        assert {c["sense"] for c in r["checks"]} <= set(SENSES)
        assert r["passed"] is passes(r["checks"])


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was made")


def _run_all_without_pool(config):
    # runs in a pool worker: a nested pool would raise here
    concurrent.futures.ProcessPoolExecutor = _no_pool
    timings = {}
    return report_json(run_all(config, timings)), timings["workers"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs a forked worker to call run_all in")
def test_run_all_in_a_worker_runs_its_suites_here(monkeypatch):
    cfg = VerifyConfig(sample_scale=0.05, suites=FAST_SUITES)
    with concurrent.futures.ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        in_worker = pool.submit(_run_all_without_pool, cfg).result()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(verify, "can_fork", lambda: False)
    assert in_worker == (report_json(run_all(cfg)), 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="in-process suites would end the test run")
def test_dead_worker_fails_its_suite(monkeypatch):
    def die(config, rng):
        os._exit(3)

    dead = FAST_SUITES[1]
    monkeypatch.setattr(verify, "REGISTRY", tuple(
        (name, die if name == dead else fn) for name, fn in verify.REGISTRY
    ))
    timings = {}
    rep = run_all(VerifyConfig(sample_scale=0.05, suites=FAST_SUITES), timings)
    assert [s["name"] for s in rep["suites"]] == FAST_SUITES
    assert rep["passed"] is False and dead in rep["failed"]
    out = rep["suites"][1]
    assert out["detail"].startswith("raised BrokenProcessPool")
    assert out["samples"] == 0 and timings["suites"][dead] is None

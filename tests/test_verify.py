"""Verification suite runner and report plumbing."""

import json
import math
import multiprocessing
import os

import pytest

from symsector import verify
from symsector._accel import using_numba
from symsector.verify import (
    SUITE_NAMES,
    VerifyConfig,
    _result,
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
    assert set(out) == {"passed", "samples", "worst", "gate", "detail", "name"}
    assert out["passed"] is True
    assert isinstance(out["samples"], int)


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
    # sampled worst values
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


def test_report_numbers_are_valid_json():
    out = _result(True, 1, -0.0, float("nan"), "signed zero, no gate")
    assert out["gate"] is None
    assert json.dumps(out["worst"]) == "0.0"
    assert _result(False, 1, float("inf"), 1e-6, "")["worst"] is None
    with pytest.raises(ValueError):
        report_json({"worst": float("nan")})


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

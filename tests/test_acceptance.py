"""End-to-end acceptance gates, one printed pass/fail line per criterion.

Each criterion runs the relevant verification suites at full sample
scale, measures wall time against its runtime cap, and prints a single
summary line even when the assertion fails.
"""

import time

from symsector import cli, surfaces, verify

FULL = verify.VerifyConfig(seed=0, sample_scale=1.0)


def _run_suites(names):
    start = time.perf_counter()
    results = [verify.run_suite(name, FULL) for name in names]
    elapsed = time.perf_counter() - start
    return results, elapsed


def _why(result):
    """Assertion message naming each failed check of a suite result."""
    failed = [f"{c['name']} = {c['value']} (needs {c['sense']} {c['bound']})"
              for c in result["checks"] if not verify.holds(c)]
    return f"{result['name']}: {'; '.join(failed) or 'no checks'}; {result['detail']}"


def _gate(capsys, key, results, elapsed, cap):
    ok = all(r["passed"] for r in results) and elapsed < cap
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] {key}: {status} "
              f"({elapsed:.2f}s, cap {cap:g}s)")
    for r in results:
        assert r["passed"], _why(r)
    assert elapsed < cap, f"runtime {elapsed:.2f}s exceeds {cap:g}s cap"


def test_criterion_1_product_flow(capsys):
    # decoupled flow matches the closed-form rates per coordinate at 1e-6
    results, elapsed = _run_suites(["product-flow-regression"])
    _gate(capsys, "criterion-1", results, elapsed, 10.0)


def test_criterion_2_near_diagonal_escape(capsys):
    # every near-diagonal start must leave through large positive Re(w)
    results, elapsed = _run_suites(["near-diagonal-escape"])
    _gate(capsys, "criterion-2", results, elapsed, 30.0)


def test_criterion_3_offset_bounds(capsys):
    # grid bounds, evenness to 1e-8, identity beyond 1.05 epsilon
    results, elapsed = _run_suites(
        ["offset-grid-bounds", "offset-evenness", "offset-identity-region"]
    )
    _gate(capsys, "criterion-3", results, elapsed, 60.0)


def test_criterion_4_label_agreement(capsys):
    # closed-form vs flow-limit labels, and the hypersurfaces stay apart
    results, elapsed = _run_suites(
        ["label-agreement", "hypersurface-disjointness"]
    )
    _gate(capsys, "criterion-4", results, elapsed, 120.0)


def test_criterion_5_sector_axioms(capsys):
    # ZI scaling, dI positivity on the foliation, Poisson commutation
    results, elapsed = _run_suites(
        ["chart-scaling-identity", "characteristic-transversality",
         "chart-poisson-brackets"]
    )
    _gate(capsys, "criterion-5", results, elapsed, 60.0)


def test_criterion_6_truncation_absorption(capsys):
    results, elapsed = _run_suites(["truncation-absorption"])
    _gate(capsys, "criterion-6", results, elapsed, 30.0)


def test_criterion_7_combinatorial_exactness(capsys):
    start = time.perf_counter()
    results = [verify.run_suite(n, FULL)
               for n in ("decomposition-counts", "builtin-decompositions")]
    four = surfaces.enumerate_decomposition(
        surfaces.builtin_surface("p1-minus-4pts")
    )
    counts_ok = four.counts() == {
        "pieces": 3, "hypersurfaces": 2, "corners": 0
    }
    completions_ok = {
        p["completion"]["display"] for p in four.to_report()["pieces"]
    } == {"(C*)^2", "P x C*", "C x C*"}
    mirror_ok = surfaces.lg_labels(four.surface)["mirror"] == "{xyz=0} in C^3"
    elapsed = time.perf_counter() - start
    ok = (all(r["passed"] for r in results) and counts_ok
          and completions_ok and mirror_ok and elapsed < 10.0)
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] criterion-7: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s, cap 10s)")
    for r in results:
        assert r["passed"], _why(r)
    assert counts_ok and completions_ok and mirror_ok
    assert elapsed < 10.0


def test_criterion_8_plurisubharmonicity(capsys):
    # blended disk potential has positive Laplacian on [-5,5]^2 at 401^2
    results, elapsed = _run_suites(["disk-blend-psh"])
    _gate(capsys, "criterion-8", results, elapsed, 5.0)


def test_criterion_9_determinism(tmp_path, capsys):
    start = time.perf_counter()
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    codes = [
        cli.main(["verify", "--sample-scale", "0.05", "--seed", "7",
                  "--out", str(p)])
        for p in paths
    ]
    same = paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - start
    ok = codes == [0, 0] and same
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] criterion-9: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s)")
    assert codes == [0, 0]
    assert same, "repeated runs differ byte for byte"

"""Unit tests for the perf benchmark suite and baseline comparison."""

import pytest

from repro.analysis import perfreport


def _report(**rates):
    return {
        "version": perfreport.REPORT_VERSION,
        "meta": {},
        "benchmarks": {
            name: {"ops": 100, "wall_s": 100 / rate, "ops_per_s": rate}
            for name, rate in rates.items()
        },
    }


# ----------------------------------------------------------------------
# compare / check
# ----------------------------------------------------------------------
def test_compare_ok_within_tolerance():
    comparisons = perfreport.compare(
        _report(a=95.0, b=80.0), _report(a=100.0, b=100.0), tolerance=0.25
    )
    assert {c.name: c.status for c in comparisons} == {"a": "ok", "b": "ok"}
    assert perfreport.check_passed(comparisons)


def test_compare_flags_regression_beyond_tolerance():
    comparisons = perfreport.compare(
        _report(a=70.0), _report(a=100.0), tolerance=0.25
    )
    (comparison,) = comparisons
    assert comparison.status == "regression"
    assert comparison.failed
    assert comparison.ratio == pytest.approx(0.7)
    assert not perfreport.check_passed(comparisons)


def test_compare_faster_is_never_a_regression():
    comparisons = perfreport.compare(_report(a=500.0), _report(a=100.0))
    assert comparisons[0].status == "ok"


def test_missing_benchmark_fails_the_check():
    comparisons = perfreport.compare(_report(b=100.0), _report(a=100.0))
    by_name = {c.name: c for c in comparisons}
    assert by_name["a"].status == "missing"
    assert by_name["a"].failed
    assert by_name["b"].status == "new"
    assert not by_name["b"].failed
    assert not perfreport.check_passed(comparisons)


def test_compare_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        perfreport.compare(_report(a=1.0), _report(a=1.0), tolerance=1.5)


def test_comparison_render_mentions_rates():
    (comparison,) = perfreport.compare(_report(a=50.0), _report(a=100.0))
    text = comparison.render()
    assert "a" in text and "regression" in text and "x0.50" in text


# ----------------------------------------------------------------------
# suite execution and report round-trip
# ----------------------------------------------------------------------
def test_run_suite_subset_and_report_roundtrip(tmp_path):
    results = perfreport.run_suite(["hmac_sign_verify"], repeats=1)
    assert set(results) == {"hmac_sign_verify"}
    result = results["hmac_sign_verify"]
    assert result.ops > 0 and result.wall_s > 0 and result.ops_per_s > 0

    report = perfreport.build_report(results)
    path = perfreport.write_report(report, tmp_path / "perf.json")
    loaded = perfreport.load_report(path)
    assert loaded["version"] == perfreport.REPORT_VERSION
    assert loaded["benchmarks"]["hmac_sign_verify"]["ops"] == result.ops
    # a freshly measured report compares clean against itself
    assert perfreport.check_passed(perfreport.compare(loaded, loaded))


def test_run_suite_executes_a_macro_bench():
    # The macro benches drive run_workload end to end; this pins the
    # runner's return shape so a refactor there cannot silently break
    # `repro bench` while the micro benches keep passing.
    results = perfreport.run_suite(["fig6_mini"], repeats=1)
    assert results["fig6_mini"].ops > 0


def test_run_suite_rejects_unknown_and_bad_repeats():
    with pytest.raises(KeyError):
        perfreport.run_suite(["no_such_bench"])
    with pytest.raises(ValueError):
        perfreport.run_suite(["hmac_sign_verify"], repeats=0)


def test_suite_covers_micro_and_macro():
    names = set(perfreport.SUITE)
    assert {"encode_fresh", "encode_cached", "hmac_sign_verify",
            "rsa_sign_verify", "sim_events", "fig6_mini", "fig7_mini"} <= names

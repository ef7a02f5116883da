"""The benchmark's trace hooks (perfbench/spans.py) against the package.

The tracer wraps package functions by name, from outside; a renamed or
moved hooked name would only show when the traced benchmark runs.
"""

from pathlib import Path

import pytest

import ncbundles
import ncbundles.cli  # noqa: F401  (the benchmark's report serializer)
from ncbundles import engine, full_gauge_oracle, linalg, parse_sigma_spec
from ncbundles.oracle import STANDARD_ORACLE_CONFIGS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_trace_hooks_install_and_uninstall(bench):
    spans, workloads = bench
    plain_add = linalg.ColumnSpace.add
    tracer = spans.Tracer()
    try:
        tracer.install(ncbundles, workloads)  # raises on a missing name
        assert linalg.ColumnSpace.add is not plain_add
    finally:
        tracer.uninstall()
    assert linalg.ColumnSpace.add is plain_add


def test_clear_master_caches_empties_the_oracle_cache(bench, monkeypatch):
    _, workloads = bench
    monkeypatch.setattr(engine, "_MASTERS", {})
    sigma = parse_sigma_spec("gen1", 1)
    full_gauge_oracle(1, 2, sigma, [1, 1, 1, 1], [0, 0, 0, 1])
    assert engine._MASTERS
    workloads.clear_master_caches(ncbundles)
    assert not engine._MASTERS


def test_oracle_battery_runs_the_standard_configs(bench):
    _, workloads = bench
    assert workloads.OracleBattery.CONFIGS == STANDARD_ORACLE_CONFIGS


def test_clear_master_caches_drops_the_presolve_plans(bench, monkeypatch):
    # the traced benchmark empties the caches before each of its two
    # passes and needs equal counts from both, so a decision after
    # clear_master_caches must presolve its full system again
    _, workloads = bench
    monkeypatch.setattr(engine, "_MASTERS", {})
    real = linalg.presolve_singletons
    calls = []

    def spy(columns, rhs):
        calls.append(len(columns))
        return real(columns, rhs)

    monkeypatch.setattr(linalg, "presolve_singletons", spy)
    sigma = parse_sigma_spec("gen1", 1)

    def decide():
        calls.clear()
        full_gauge_oracle(1, 2, sigma, [1, 1, 1, 1], [0, 0, 0, 1])
        return list(calls)

    cold, warm = decide(), decide()
    workloads.clear_master_caches(ncbundles)
    assert decide() == cold
    # a "no": plans presolve the 482 bump-0 and then all 556 unknowns,
    # and a warm decision reuses both plans with no presolve at all
    assert cold == [482, 556] and warm == []

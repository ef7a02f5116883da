"""The benchmark's trace hooks (perfbench/spans.py) against the package.

The tracer wraps package functions by name, from outside; a renamed or
moved hooked name would only show when the traced benchmark runs.
"""

from pathlib import Path

import pytest

import ncbundles
import ncbundles.cli  # noqa: F401  (the benchmark's report serializer)
from ncbundles import (
    build_cancellation_system,
    engine,
    full_gauge_oracle,
    linalg,
    parse_sigma_spec,
)
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



def test_clear_master_caches_drops_every_frame_and_table(bench,
                                                         monkeypatch):
    # claims-cold stands for a fresh `verify` process per op: after
    # clear_master_caches no frame or compiled form table may be left
    _, workloads = bench
    monkeypatch.setattr(engine, "_MASTERS", {})
    sigma = parse_sigma_spec("u1*gen1", 1)
    frame = ("_build_frame", 1, 3, sigma.cache_key())

    def cold_pair():
        for formula in ("derived", "printed"):
            build_cancellation_system(1, 3, sigma, formula=formula)
        return [engine._MASTERS[("_build_master", 1, 3, sigma.cache_key(),
                                 formula)]
                for formula in ("derived", "printed")]

    derived, printed = cold_pair()
    assert frame in engine._MASTERS
    # a rank query compiles the derived table; the printed one is unread
    engine.point_rank(1, 3, sigma, [1] * 8)
    assert derived._table is not None and printed._table is None
    workloads.clear_master_caches(ncbundles)
    assert not engine._MASTERS
    fresh = cold_pair()
    assert fresh[0] is not derived and frame in engine._MASTERS
    assert [m._table for m in fresh] == [None, None]


def test_a_cold_claims_op_multiplies_t_and_r_once(bench, monkeypatch):
    # each claims-cold op empties the caches and builds both masters of
    # its configuration, which share one frame: one star_matrix_mul (the
    # T * R = 1 check) and two master builds per op, in every op
    spans, workloads = bench
    monkeypatch.setattr(engine, "_MASTERS", {})
    workload = workloads.ClaimsCold(None)
    op = workload.cycle(1, 0)[0]
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed(ncbundles, workloads):
            workload.run(ncbundles, None, op)
        assert tracer.counts["bundles.star_matrix_mul"] == 1
        assert tracer.counts["moduli.master_build"] == 2

"""Integration: the paper's qualitative findings must hold end-to-end.

These are the claims of Section 6.3 ("Summary of Results"), asserted on a
reduced-size world so they run in CI time.  Absolute numbers are hardware-
dependent; the *shape* — which algorithm wins, how accuracy degrades — is
what a reproduction must preserve.
"""
import pytest

from repro.core.search import FPQ, LCPQ
from tests.conftest import table_rows


@pytest.fixture(scope="module")
def rows(small_world):
    return table_rows(small_world, (FPQ, LCPQ))


@pytest.fixture(scope="module")
def timing_rows(default_world):
    """Timing comparisons need the full default world: on the one-floor test
    world all searches finish in ~12 ms and scheduler noise swamps the
    structural differences Table 3 reports.  Each query's running time is
    already the median of several fresh-estimator runs (``measure_query``).
    """
    return table_rows(default_world, (FPQ, LCPQ))


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_exact_pair_identical_accuracy(rows, qt):
    """Finding: *PQ and *PQ-G are both exact — identical hit/error."""
    r = rows[qt]
    assert r[""]["hit_rate_pct"] == r["-G"]["hit_rate_pct"]
    assert r[""]["relative_error"] == pytest.approx(r["-G"]["relative_error"])


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_gtg_accuracy_equals_exact(rows, qt):
    """Finding: *PQ-GTG uses the exact estimator → same relative error."""
    r = rows[qt]
    assert r["-GTG"]["relative_error"] == pytest.approx(
        r[""]["relative_error"], rel=1e-6
    )


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_gtg_is_slowest(timing_rows, qt):
    """Finding: GTG performs poorly on efficiency (more nodes/edges).

    A 10% noise margin absorbs scheduler jitter; the structural gap at the
    default scale is ~2×.
    """
    r = timing_rows[qt]
    slow = r["-GTG"]["running_time_ms"]
    for alg in ("", "-G", "-PP", "-NT"):
        assert slow > 0.9 * r[alg]["running_time_ms"]
    assert slow > max(r[alg]["running_time_ms"] for alg in ("-PP", "-NT"))


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_nt_least_memory_among_estimators(rows, qt):
    """Finding: NT costs the least memory of the four searches."""
    r = rows[qt]
    for alg in ("", "-G", "-PP", "-GTG"):
        assert r["-NT"]["memory_kb"] < r[alg]["memory_kb"]


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_nt_faster_than_exact(timing_rows, qt):
    """Finding: the approximate searches beat the exact ones on time."""
    r = timing_rows[qt]
    for alg in ("-NT", "-PP"):
        assert r[alg]["running_time_ms"] < 1.1 * r[""]["running_time_ms"]
        assert r[alg]["running_time_ms"] < 1.1 * r["-G"]["running_time_ms"]


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_approximations_do_not_beat_exact_accuracy(rows, qt):
    """Finding: PP ≈ exact accuracy; NT trades accuracy for speed."""
    r = rows[qt]
    assert r["-PP"]["relative_error"] <= r["-NT"]["relative_error"] + 1e-12
    assert r[""]["relative_error"] <= r["-NT"]["relative_error"] + 1e-12


def test_pp_matches_exact_accuracy_closely(rows):
    """Finding: 'FPQ-PP works as accurately as the exact algorithms'."""
    for qt in (FPQ, LCPQ):
        r = rows[qt]
        exact, pp = r[""]["relative_error"], r["-PP"]["relative_error"]
        assert pp == pytest.approx(exact, rel=0.25, abs=1e-3)


def test_fpq_less_sensitive_than_lcpq(rows):
    """Finding: partition-passing time is less population-sensitive than
    partition-passing contact — FPQ's relative errors are far smaller."""
    assert rows[FPQ][""]["relative_error"] < rows[LCPQ][""]["relative_error"]


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_hit_rates_in_plausible_band(rows, qt):
    r = rows[qt]
    for alg in ("", "-G", "-PP", "-GTG"):
        assert r[alg]["hit_rate_pct"] >= 50.0
    assert r["-NT"]["hit_rate_pct"] >= 15.0


@pytest.mark.parametrize("qt", [FPQ, LCPQ])
def test_all_queries_return_paths(small_world, qt):
    from repro.experiments.harness import ALGORITHMS, run_query

    w = small_world
    for alg in ALGORITHMS:
        for inst in w.instances[:2]:
            assert run_query(w.model, w.gold_pop, inst, qt, alg) is not None

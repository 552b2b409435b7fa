"""Acceptance gate: the nine seeded property suites at full scale.

Every check is an exact rational equality (zero tolerance). Each test
prints its criterion's pass/fail line with its wall time (shown with
`pytest -s`); criteria 1 and 2 also enforce their wall-clock budgets.
"""

import time

from condatom import selftest as st

SEED = 42


def _run(criterion, **sizes) -> float:
    """Run one criterion at the given sizes, print its line and wall time,
    and return the time in seconds."""
    t0 = time.perf_counter()
    result = criterion(SEED, **sizes)
    elapsed = time.perf_counter() - t0
    print(f"\n{result.line}  [{elapsed:.2f}s]")
    assert result.passed, result.line
    return elapsed


def test_criterion_1_split_exactness():
    elapsed = _run(st.split_exactness, instances=200)
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s, budget is 5s"


def test_criterion_2_dyadic_family():
    elapsed = _run(st.family_exactness, instances=20, depth=10)
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s, budget is 10s"


def test_criterion_3_uniform_pushforward():
    _run(st.pushforward_uniformity, instances=20, grid=1024)


def test_criterion_4_kernel_equivalence():
    _run(st.kernel_agreement, instances=200, sets_per=20)


def test_criterion_5_shrink_chain():
    _run(st.shrink_bounds, instances=20, n=20)


def test_criterion_6_level_scan():
    _run(st.scan_strictness, pairs=100, lipschitz_depth=8)


def test_criterion_7_density_calculus():
    _run(st.density_calculus, families=100, refinements=100)


def test_criterion_8_construction_agreement():
    _run(st.construction_agreement, instances=20, depth=10)


def test_criterion_9_cli_determinism():
    _run(st.determinism, scenarios=50)

"""Validator bookkeeping at reduced sizes: eigensolve counts and verdicts
that must not depend on argument order."""

from framefieldops.validation import validate_anisotropy, validate_square_spectrum


def test_square_spectrum_makes_one_eigensolve_per_case(eigs_requests):
    validate_square_spectrum(base_n=6)
    # 2 epsilons x 2 boundary conditions x 3 levels, each one request of
    # modes + nullity pairs: 1 zero mode under Neumann conditions, 5 on the
    # natural square
    assert eigs_requests == [21, 21, 21, 25, 25, 25] * 2


def test_anisotropy_verdict_ignores_epsilon_order():
    a = validate_anisotropy(rings=12, epsilons=(1.0, 0.2))
    b = validate_anisotropy(rings=12, epsilons=(0.2, 1.0))
    assert a.rows == b.rows
    assert a.summary == b.summary
    # the isotropy check reads the epsilon = 1 ratio, 1.015 on this coarse
    # disk, in both orders; the epsilon = 0.2 ratio, 1.090, would fail it
    ratios = {row["epsilon"]: row["axis_ratio"] for row in a.rows}
    assert abs(ratios[1.0] - 1.0) <= 0.05 < abs(ratios[0.2] - 1.0)
    assert a.passed and b.passed

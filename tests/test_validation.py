"""Validator bookkeeping at reduced sizes: eigensolve counts and verdicts
that must not depend on argument order."""

from framefieldops.validation import validate_anisotropy, validate_square_spectrum


def test_square_spectrum_makes_one_eigensolve_per_case(eigs_requests):
    validate_square_spectrum(base_n=6, refinements=1)
    # 2 epsilons x 2 boundary conditions x 2 levels, each one request of
    # modes + 5 pairs (the natural square has 5 zero modes)
    assert eigs_requests == [25] * 8


def test_anisotropy_verdict_ignores_epsilon_order():
    a = validate_anisotropy(rings=12, epsilons=(1.0, 0.2), isotropy_tol=0.01)
    b = validate_anisotropy(rings=12, epsilons=(0.2, 1.0), isotropy_tol=0.01)
    assert a.rows == b.rows
    assert a.summary == b.summary
    # the epsilon = 1 ratio misses the tight tolerance on this coarse disk
    assert not a.passed and not b.passed

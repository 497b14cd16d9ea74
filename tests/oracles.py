"""Reference implementations that tests compare the package against.

Each one computes its quantity the plain way, apart from the package's
own kernels: the Legendre polynomials by the Bonnet recurrence, against
which the Clenshaw summation is checked, the side condition S as a sum
over a stored eigenvector, against which the backward sweep's running sum
is checked, and the summation identity as a plain sum over an explicit
zero list, against which the head-plus-tail sums are checked.
"""

from mpmath import mp, mpf

from pwextremal.extremal import _test_function


def legendre_pair(n: int, x):
    """(P_n(x), P_{n-1}(x)) by the Bonnet recurrence; P_{-1} taken as 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p_prev, p = mpf(1), x
    if n == 0:
        return mpf(1), mpf(0)
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


def legendre_condition(pair) -> mpf:
    """S = sum_n (-1)^{floor((n-1)/2)} xi_n (sign pattern -,+,+,-,-,+,...)
    over the eigenvector of an EigenPair.

    The extremal parameter a is the root of S(a) = 0: vanishing of this
    alternating endpoint sum is the phase condition picking out the
    eigenfunction whose zeros interlace correctly.  The solver sums S
    inside its sweep; this is the plain sum over a stored vector.
    """
    total = mpf(0)
    for n, x in enumerate(pair.xi):
        total += -x if ((n - 1) // 2) % 2 else x
    return total


def direct_summation(zeros):
    """(2 sum_mu f(mu), tail bound) over an explicit list of signed zeros,
    f = x sinc(pi x / 5)^5 the test function of the summation checks.

    |f(x)| <= K |x|^-4, K = (5/pi)^5, bounds the zeros left out by
    2 K (X^-3 / 3 + X^-4), X the largest |mu| summed.
    """
    total = 2 * mp.fsum(_test_function(mpf(mu)) for mu in zeros)
    X = max(abs(mpf(mu)) for mu in zeros)
    return total, 2 * (mpf(5) / mp.pi) ** 5 * (X ** -3 / 3 + X ** -4)

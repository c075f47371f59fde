"""Exact checkers for the counting inequalities, plus diagnostic growth reports.

Each report is the row the command line prints, a dict in printed order: the
check's name and its own parameters, then lhs, rhs, relation, holds and the
exact slack lhs/rhs with its float.  Every comparison here is exact
big-integer or rational arithmetic; floats appear only in diagnostic fields.
Core counts come from their generating function, so every check is exact at
any n; its series for each k is built once and shared by every n of a sweep.
The fiber identity ties those counts to the pentagonal recurrence for p(n)
and to the multipartition counts' recurrence over divisor sums, three routes
that share no code.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cores import count_k_cores, multipartition_count
from .padic import _meets_threshold, _require_scale
from .partitions import partition_count


def _report(check: str, lhs, rhs, relation: str, **params) -> dict:
    # relation is "<=" or "=="; slack is None when rhs is 0
    slack = Fraction(lhs, rhs) if rhs else None
    return {
        "check": check,
        **params,
        "lhs": lhs,
        "rhs": rhs,
        "relation": relation,
        "holds": lhs <= rhs if relation == "<=" else lhs == rhs,
        "slack": slack,
        "slack_float": float(slack) if slack is not None else None,
    }


def check_multipartition_growth(k: int, m: int) -> dict:
    """Exact check that p_k(m) <= (k + 1) * p_k(m - 1)."""
    if k < 1:
        raise ValueError("k must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    lhs = multipartition_count(k, m)
    rhs = (k + 1) * multipartition_count(k, m - 1)
    return _report("multipartition-growth", lhs, rhs, "<=", k=k, m=m)


def check_core_deficit(n: int, k: int) -> dict:
    """Exact check that p(n) - c_k(n) <= (k + 1) * p(n - k), for 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    lhs = partition_count(n) - count_k_cores(n, k)
    rhs = (k + 1) * partition_count(n - k)
    return _report("core-deficit", lhs, rhs, "<=", n=n, k=k)


def check_core_fiber_identity(n: int, k: int) -> dict:
    """Exact equality p(n) - c_k(n) = sum over m >= 1 of c_k(n - m k) * p_k(m).

    Both sides count partitions of n that are not k-cores: the right side
    classifies them by core and quotient.  This is the cross-check tying the
    three counting paths together.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    lhs = partition_count(n) - count_k_cores(n, k)
    rhs = sum(
        count_k_cores(n - m * k, k) * multipartition_count(k, m)
        for m in range(1, n // k + 1)
    )
    return _report("fiber-identity", lhs, rhs, "==", n=n, k=k)


def core_density_report(n: int, k: int, c: float) -> dict:
    """Diagnostic report on the k-core share of partitions of n.

    lhs is the exact non-core share 1 - c_k(n)/p(n); rhs is the decay bound
    (k + 1) p(n - k) / p(n) it never exceeds.  The row's k_meets_threshold
    says whether k meets padic.threshold(n, c), by the predicates' rule
    (padic._meets_threshold).
    The limiting decay rate behind this diagnostic involves a constant with
    no effective value, so nothing asymptotic is asserted here; only the
    exact ratios are.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 1:
        raise ValueError("k must be positive")
    _require_scale(c)
    pn = partition_count(n)
    rhs = Fraction((k + 1) * partition_count(n - k), pn) if k <= n else Fraction(0)
    lhs = 1 - Fraction(count_k_cores(n, k), pn)
    return _report("core-density", lhs, rhs, "<=", n=n, k=k, c=c,
                   k_meets_threshold=_meets_threshold(k, n, c))


def growth_envelope_report(m: int) -> dict:
    """p(m) against the exponential growth scale exp(pi * sqrt(2m/3)) / m.

    The row {m, count, ratio} has ratio = p(m) * m / exp(pi * sqrt(2m/3));
    sweeping m and reading off the envelope of the ratio gives empirical
    bracketing constants.  Purely diagnostic, nothing asserted.
    """
    if m < 1:
        raise ValueError("m must be positive")
    count = partition_count(m)
    # exp(log ...) keeps huge counts inside float range
    ratio = math.exp(math.log(count) + math.log(m) - math.pi * math.sqrt(2 * m / 3))
    return {"m": m, "count": count, "ratio": ratio}

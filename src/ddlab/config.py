"""Caps for the brute-force oracles.

Every enumeration in this package is desk scale on purpose; the caps make the
scale explicit. They are constants, not per-call options: no search takes a
cap argument.
"""

from .errors import ScaleError

# Largest universe (in variables) the 2^n enumerations accept.
BRUTE_FORCE_VAR_CAP = 22

# Largest vertex count for exhaustive width search over linear orders (a
# 2^n·n subset DP).
EXHAUSTIVE_ORDER_CAP = 8

# Largest variable count for exhaustive minimum-OBDD search: the same subset
# DP, each placed set keeping its distinct full-width 2^n-bit subfunctions.
EXHAUSTIVE_OBDD_CAP = 10

# Largest vertex count for the exact treewidth/pathwidth subset DP.
TREEWIDTH_CAP = 10

# Largest variable count for reduced-OBDD sizing of one order.
OBDD_SIZING_CAP = 20


def check_scale(count, cap, what, hint=""):
    """The one scale guard: a ScaleError naming the count and the cap when
    ``count`` exceeds ``cap``. ``what`` names the counted things and the work,
    ``hint`` is appended to the message."""
    if count > cap:
        raise ScaleError(f"{count} {what} exceed the cap {cap}{hint}")

"""Reference functions shared by several test modules."""

from lineworld.analysis import _choose
from lineworld.routing import Sidedness


def base_digits_nonzero(distance: int, b: int) -> int:
    """Number of nonzero base-b digits of `distance`: the hop count of
    digit routing on the base-b deterministic scheme."""
    count = 0
    while distance:
        if distance % b:
            count += 1
        distance //= b
    return count


def base_digit_sum(distance: int, b: int) -> int:
    """Sum of the base-b digits of `distance`: the hop count of greedy
    routing on the powers-of-b scheme, one power of b per hop."""
    total = 0
    while distance:
        total += distance % b
        distance //= b
    return total


def deterministic_links(u: int, n: int, b: int) -> set[int]:
    """Sinks of u on the base-b scheme, one node at a time: u +/- j*b^i for
    j in [1, b-1] and b^i < n (i < ceil(log_b n)), clipped to the line."""
    sinks: set[int] = set()
    step = 1
    while step < n:
        for j in range(1, b):
            sinks.update((u - j * step, u + j * step))
        step *= b
    return {v for v in sinks if 0 <= v < n}


def power_links(u: int, n: int, b: int) -> set[int]:
    """Sinks of u on the powers-of-b scheme, one node at a time: u +/- b^i
    for b^i <= n (i <= floor(log_b n)), clipped to the line."""
    sinks: set[int] = set()
    step = 1
    while step <= n:
        sinks.update((u - step, u + step))
        step *= b
    return {v for v in sinks if 0 <= v < n}


def step_point(x: int, offsets, sidedness: Sidedness) -> int:
    """Greedy successor of position x given the sorted available offsets.

    0 is absorbing.  Raises ValueError when no offset is usable from x.
    """
    if x == 0:
        return 0
    if sidedness is Sidedness.ONE_SIDED and x < 0:
        raise ValueError("one-sided chain positions are nonnegative")
    return x - offsets[_choose(x, offsets, sidedness)]


def nearest_live(live, target: int) -> int:
    """Nearest element of the sorted `live` positions to `target`, one
    candidate at a time; ties go to the lower position."""
    best = None
    for c in live:
        if best is None or abs(c - target) < abs(best - target):
            best = c
    if best is None:
        raise ValueError("no live positions")
    return int(best)

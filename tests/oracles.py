"""Reference functions shared by several test modules."""


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

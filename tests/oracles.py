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

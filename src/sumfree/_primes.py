"""Deterministic primality testing below the witness set's proven bound."""

from __future__ import annotations

from .errors import DomainError

# The first twelve primes as witnesses are proven sufficient for every n
# below 318665857834031151167461 (about 3.2 * 10^23), the least composite
# all twelve pass; that is far beyond 64 bits.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PROVEN_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin on fixed witnesses: exact below _PROVEN_BELOW, refused above."""
    if n >= _PROVEN_BELOW:
        raise DomainError(f"primality of {n} is proven only below {_PROVEN_BELOW}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

"""Matrix permanents: a factorial-time reference and a meet-in-the-middle Glynn kernel.

Per(M) = sum over permutations sigma of prod_i M[i, sigma(i)].

``permanent_naive`` enumerates all n! permutations and serves as the
oracle, capped at n <= 9.  ``permanent_ryser``, the production path, keeps
the name of the Ryser kernel it replaced (callers and the benchmark tracer
look it up by that name) but evaluates Glynn's formula (Glynn, Eur. J.
Combin. 31, 1887 (2010)) over the 2^(n-1) sign vectors with delta_0 = +1:

    Per(A) = 2^(1-n) sum_delta (prod_i delta_i) prod_j sum_i delta_i A[i, j].

Row 0 and the first LO_BITS free signs are tabulated once per call as an
(n, 2^lo) array of column sums over a prefix of the constant sign table
SIGNS.  Up to n = LO_BITS + 1 = 13 that table holds every sign vector,
and the permanent is its column products weighted by the sign parities:
one matrix product, one reduction and one dot product, about 18 us at
n = 6.  Larger n walk the other signs in blocks of BLOCK consecutive high
sign vectors, whose signs are the bits of their indices, so nothing
passes from one block to the next and no sum is updated along the walk:
rounding error does not accumulate.  Each block adds its column sums to
the table and multiplies the n columns together elementwise.  The
working set is a few MB up to the cap n = 30, and runtime doubles per
added row: n = 21 takes about 0.03-0.05 s on one core.

Both functions are pure and deterministic: repeated calls on the same
matrix return bit-identical results.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import SizeLimitError
from .unitary import as_square_matrix

NAIVE_LIMIT = 9
RYSER_LIMIT = 30
# Glynn kernel: the first LO_BITS free signs are tabulated once per call, and
# a block pairs BLOCK high sign vectors with every low one, so each of a
# block's two working arrays is 256 KB.
LO_BITS = 12
BLOCK = 4


def permanent_naive(matrix) -> complex:
    """Permanent by direct summation over all n! permutations (n <= 9)."""
    m = as_square_matrix(matrix)
    n = m.shape[0]
    if n > NAIVE_LIMIT:
        raise SizeLimitError(
            f"permanent_naive is capped at n = {NAIVE_LIMIT}, got n = {n}"
        )
    if n == 0:
        return 1 + 0j
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    products = m[np.arange(n), perms].prod(axis=1)
    return complex(products.sum())


def _bit_signs(index: np.ndarray, k: int) -> np.ndarray:
    """A (k, len(index)) array whose row i holds bit i of each index as +1 (clear) or -1 (set)."""
    return 1.0 - 2.0 * ((index >> np.arange(k)[:, None]) & 1)


# Column c holds the signs of sign vector 2c: row 0 is the fixed delta_0 = +1
# (bit 0 of an even index is clear) and row i + 1 the i-th low sign.  A call
# with lo low signs reads the prefix SIGNS[:lo + 1, :2^lo].
SIGNS = _bit_signs(np.arange(0, 2 << LO_BITS, 2), LO_BITS + 1).astype(np.complex128)
PARITY = SIGNS.prod(axis=0)
SIGNS.flags.writeable = PARITY.flags.writeable = False


def _glynn(a: np.ndarray) -> complex:
    n = a.shape[0]
    lo = min(LO_BITS, n - 1)
    parity = PARITY[:1 << lo]
    table = a[:lo + 1].T @ SIGNS[:lo + 1, :1 << lo]  # (n, 2^lo): row 0 plus each low sign vector
    if lo == n - 1:  # every free sign is in the table: one product, no blocks
        return table.prod(axis=0) @ parity / (1 << lo)
    hi = n - 1 - lo
    prods = np.empty((min(BLOCK, 1 << hi), 1 << lo), dtype=np.complex128)
    factor = np.empty_like(prods)
    total = 0j
    for start in range(0, 1 << hi, BLOCK):
        # the block's high sign vectors are the bits of consecutive indices
        signs = _bit_signs(np.arange(start, min(start + BLOCK, 1 << hi)), hi)
        sums = a[lo + 1:].T @ signs  # (n, block): the block's high partial sums
        p, f = prods[:signs.shape[1]], factor[:signs.shape[1]]
        np.add(table[0], sums[0][:, None], out=p)
        for j in range(1, n):
            np.add(table[j], sums[j][:, None], out=f)
            p *= f
        total += signs.prod(axis=0) @ (p @ parity)
    return total / (1 << (n - 1))


def permanent_ryser(matrix) -> complex:
    """Permanent by Glynn's formula, O(2^(n-1) * n), n <= 30.

    The name is kept from the Ryser kernel this replaced.  Up to n = 13
    a call is one table product with no block walk: about 18 us at n = 6
    and 23 us at n = 8 on a 2-vCPU Xeon VM.  Accuracy, measured against
    an exact integer Ryser sum on entries rounded to 40 digits
    (``tests/oracles.py``), on ten Haar-random unitaries per size:
    relative error at most 1.1e-15 up to n = 9, 1.2e-14 at n = 10,
    5.0e-15 at n = 12, 5.8e-15 at n = 13 and 5.2e-14 at n = 14; 7.5e-15
    on three at n = 16.
    """
    m = as_square_matrix(matrix)
    n = m.shape[0]
    if n > RYSER_LIMIT:
        raise SizeLimitError(
            f"permanent_ryser is capped at n = {RYSER_LIMIT}, got n = {n}"
        )
    if n == 0:
        return 1 + 0j
    return complex(_glynn(m))

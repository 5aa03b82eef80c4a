"""Matrix permanents: a factorial-time reference and a meet-in-the-middle Glynn kernel.

Per(M) = sum over permutations sigma of prod_i M[i, sigma(i)].

``permanent_naive`` enumerates all n! permutations and serves as the
oracle, capped at n <= 9.  ``permanent_ryser``, the production path, keeps
the name of the Ryser kernel it replaced (callers and the benchmark tracer
look it up by that name) but evaluates Glynn's formula (Glynn, Eur. J.
Combin. 31, 1887 (2010)) over the 2^(n-1) sign vectors with delta_0 = +1:

    Per(A) = 2^(1-n) sum_delta (prod_i delta_i) prod_j sum_i delta_i A[i, j].

Row 0 and the first LO_BITS signs are tabulated once per call as an
(n, 2^lo) array of column sums.  Up to n = LO_BITS + 1 = 13 that table
holds every sign vector, and the permanent is its column products
weighted by the sign parities: one matrix product, one reduction and one
dot product, about 18 us at n = 6.  Larger n run the other signs in
blocks; each block adds its own column sums to the table one column at a
time and multiplies the n columns together elementwise.  No sum is
carried along a walk, so rounding error does not accumulate, and the
working set is a few MB up to the cap n = 30.  Runtime doubles per added
row: n = 21 takes about 0.04 s on one core.

Both functions are pure and deterministic: repeated calls on the same
matrix return bit-identical results.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import SizeLimitError
from .unitary import as_square_matrix

NAIVE_LIMIT = 9
RYSER_LIMIT = 30
# Glynn kernel: the first LO_BITS free signs are tabulated once per call, and
# a block holds 2^BLOCK_BITS (high, low) sign pairs (BLOCK_BITS >= LO_BITS),
# so each of a block's two working arrays is 256 KB.
LO_BITS = 12
BLOCK_BITS = 14


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


@functools.lru_cache(maxsize=None)
def _signs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """A (k + 1, 2^k) table and the product of each of its columns.

    Row 0 is all +1 (the fixed row of Glynn's formula); row i + 1 holds bit
    i of the column index as +1 (clear) or -1 (set).  Only k <= LO_BITS
    occurs, so the cache stays near 2 MB; its arrays are shared between
    calls, so they are read-only.
    """
    bits = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
    table = np.vstack([np.ones(1 << k), 1.0 - 2.0 * bits]).astype(np.complex128)
    parity = table.prod(axis=0)
    table.flags.writeable = parity.flags.writeable = False
    return table, parity


def _glynn(a: np.ndarray) -> complex:
    n = a.shape[0]
    lo = min(LO_BITS, n - 1)
    mid = min(BLOCK_BITS - lo, n - 1 - lo)  # high signs that vary within a block
    top = n - 1 - lo - mid  # high signs shared by a block
    low_signs, low_parity = _signs(lo)
    table = a[:lo + 1].T @ low_signs  # (n, 2^lo): row 0 plus each low sign vector
    if lo == n - 1:  # every free sign is in the table: one product, no blocks
        return table.prod(axis=0) @ low_parity / (1 << lo)
    mid_signs, mid_parity = _signs(mid)
    high = a[lo + 1:].T
    # Column b holds the high signs of the block's b-th sign vector: its mid
    # signs from the table, then the top signs, walked in Gray-code order.
    block_signs = np.ones((n - 1 - lo, 1 << mid), dtype=np.complex128)
    block_signs[:mid] = mid_signs[1:]
    prods = np.empty((1 << mid, 1 << lo), dtype=np.complex128)
    factor = np.empty_like(prods)
    total = 0j
    for k in range(1 << top):
        if k:
            block_signs[mid + (k & -k).bit_length() - 1] *= -1
        sums = high @ block_signs  # (n, 2^mid): the block's high partial sums
        np.add(table[0], sums[0][:, None], out=prods)
        for j in range(1, n):
            np.add(table[j], sums[j][:, None], out=factor)
            prods *= factor
        # each Gray-code step flips one top sign, and with it their product
        term = mid_parity @ (prods @ low_parity)
        total = total - term if k & 1 else total + term
    return total / (1 << (n - 1))


def permanent_ryser(matrix) -> complex:
    """Permanent by Glynn's formula, O(2^(n-1) * n), n <= 30.

    The name is kept from the Ryser kernel this replaced.  Up to n = 13
    a call is one table product with no block walk: about 18 us at n = 6
    and 23 us at n = 8 on a 2-vCPU Xeon VM, against 50 us and 65 us
    through the walk.  Accuracy, measured against an exact integer Ryser
    sum on entries rounded to 40 digits (``tests/oracles.py``), on ten
    Haar-random unitaries per size: relative error at most 1.1e-15 up to
    n = 9, 1.2e-14 at n = 10, 5.0e-15 at n = 12, 5.8e-15 at n = 13 and
    5.2e-14 at n = 14; 7.5e-15 on three at n = 16.
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

"""Independent brute-force oracles used by the tests.

The distribution oracle expands the input Fock state over every
assignment of the n photons to output modes, multiplies single-photon
amplitudes U[out, in] along each assignment, and collects the
symmetrized outcome weights.  It never touches permanents or submatrix
construction, so it checks the production pipeline from a different
direction.

The permanent oracle evaluates Ryser's formula, not Glynn's formula of
the production kernel, in exact integer arithmetic on entries rounded to
40 digits, so its own error is far below the kernel's.  The pair-ranking
oracle ranks visibility pairs with a scalar loop, one pair at a time, as the
reference for the vectorized ranking; the simulator oracle likewise
draws each pair's Poisson counts and visibility estimate in a scalar
loop, as the reference for the simulator's one stacked draw.

The rate oracle evaluates the partly-distinguishable coincidence rate
as the defining double sum over permutation pairs (sigma, rho) of
prod_k S[sigma(k), rho(k)] * A[k, sigma(k)] * conj(A[k, rho(k)]), one
scalar term at a time.  It costs (n!)^2 * n, so it is meant for n <= 5,
and it shares no permanent with the production rate, which sums n!
permanents weighted by overlap products.

The derivative oracle differentiates any vector function numerically,
by central differences, one coordinate at a time; it checks the
analytic fit Jacobian without sharing any of its algebra.
"""

import fractions
import itertools
import math

import numpy as np


def brute_force_distribution(u, input_state):
    """Map from output occupation tuple to exact probability."""
    m = len(input_state)
    photons = [mode for mode, occ in enumerate(input_state) for _ in range(occ)]
    amplitudes = {}
    for assignment in itertools.product(range(m), repeat=len(photons)):
        amp = 1.0 + 0.0j
        for source, dest in zip(photons, assignment):
            amp *= u[dest, source]
        occ = [0] * m
        for dest in assignment:
            occ[dest] += 1
        key = tuple(occ)
        amplitudes[key] = amplitudes.get(key, 0.0 + 0.0j) + amp
    in_norm = math.prod(math.factorial(k) for k in input_state)
    probs = {}
    for occ, amp in amplitudes.items():
        out_norm = math.prod(math.factorial(k) for k in occ)
        probs[occ] = abs(amp) ** 2 * out_norm / in_norm
    return probs


def integer_ryser_permanent(matrix, digits=40):
    """Permanent by Ryser's formula, exact on entries rounded to ``digits`` digits.

    Per(A) = (-1)^n sum over nonempty column sets S of (-1)^|S|
    prod_i sum_{j in S} A[i, j], with the sets walked in Gray-code order:
    step k adds or removes column ctz(k), and |S| has the parity of k.
    Each entry becomes an integer multiple of 2^-p with 2^-p < 10^-digits
    (exactly, for a float64 entry of magnitude at least 2^(53-p)); the
    walk then runs in Python integers, so the one rounding after the
    inputs is the final conversion to complex.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    p = math.ceil(digits * math.log2(10))

    def fixed(x):
        return round(fractions.Fraction(float(x)) * (1 << p))

    re = [[fixed(z.real) for z in a[:, j]] for j in range(n)]
    im = [[fixed(z.imag) for z in a[:, j]] for j in range(n)]
    sum_re, sum_im = [0] * n, [0] * n
    total_re = total_im = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        sign = -1 if (k >> (j + 1)) & 1 else 1  # column j leaves S or joins it
        sum_re = [s + sign * c for s, c in zip(sum_re, re[j])]
        sum_im = [s + sign * c for s, c in zip(sum_im, im[j])]
        prod_re, prod_im = sum_re[0], sum_im[0]
        for x, y in zip(sum_re[1:], sum_im[1:]):
            prod_re, prod_im = prod_re * x - prod_im * y, prod_re * y + prod_im * x
        if k & 1:
            total_re, total_im = total_re - prod_re, total_im - prod_im
        else:
            total_re, total_im = total_re + prod_re, total_im + prod_im
    scale = (1 << (p * n)) * (-1) ** n
    return complex(float(fractions.Fraction(total_re, scale)),
                   float(fractions.Fraction(total_im, scale)))


def ranked_pairs_loop(u, count):
    """The ``count`` 5-mode visibility pairs of largest classical rate, by a scalar loop."""
    ranked = []
    for in_pair in itertools.combinations(range(1, 6), 2):
        for out_pair in itertools.combinations(range(1, 6), 2):
            (a, b), (c, d) = in_pair, out_pair
            direct = u[c - 1, a - 1] * u[d - 1, b - 1]
            crossed = u[c - 1, b - 1] * u[d - 1, a - 1]
            classical = abs(direct) ** 2 + abs(crossed) ** 2
            ranked.append((-classical, in_pair, out_pair))
    ranked.sort()
    return [(in_pair, out_pair) for _, in_pair, out_pair in ranked[:count]]


def simulated_visibilities_loop(u, counts_per_setting, seed, pairs):
    """(value, sigma) of each pair as the simulator draws it, one pair at a time.

    After the 25 singles counts, each pair draws its classical count n_d
    and then its quantum count n_q from the generator, with the rates of
    the direct and crossed amplitudes computed here per pair.  Then
    V = (n_d - n_q) / n_d clipped to [-1, 1] and sigma^2 = q / n_d^2 +
    q^2 / n_d^3 with q = max(n_q, 1), in Python integers; n_d = 0 gives
    (0, 1).
    """
    rng = np.random.default_rng(seed)
    rng.poisson(counts_per_setting * np.abs(u) ** 2)
    out = []
    for (a, b), (c, d) in pairs:
        direct = u[c - 1, a - 1] * u[d - 1, b - 1]
        crossed = u[c - 1, b - 1] * u[d - 1, a - 1]
        n_d = int(rng.poisson(counts_per_setting * (abs(direct) ** 2 + abs(crossed) ** 2)))
        n_q = int(rng.poisson(counts_per_setting * abs(direct + crossed) ** 2))
        if n_d == 0:
            out.append((0.0, 1.0))
            continue
        q = max(n_q, 1)
        out.append((float(np.clip((n_d - n_q) / n_d, -1.0, 1.0)),
                    float(np.sqrt(q / n_d**2 + q**2 / n_d**3))))
    return out


def rate_pair_sum(a, s):
    """Coincidence rate of submatrix ``a`` and overlap ``s`` by the (n!)^2 pair sum (n <= 5)."""
    n = a.shape[0]
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        for rho in itertools.permutations(range(n)):
            term = 1.0 + 0.0j
            for k in range(n):
                term *= s[sigma[k], rho[k]] * a[k, sigma[k]] * np.conj(a[k, rho[k]])
            total += term
    return total


def central_differences(f, x, h=1e-6):
    """Jacobian of the vector function ``f`` at ``x``, one column per coordinate.

    Column k is (f(x + h e_k) - f(x - h e_k)) / (2h); its error is O(h^2).
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for k in range(len(x)):
        step = np.zeros_like(x)
        step[k] = h
        columns.append((f(x + step) - f(x - step)) / (2.0 * h))
    return np.stack(columns, axis=1)


def one_sided_differences(f, x, sides, h=1e-6):
    """Jacobian of ``f`` at ``x`` from steps to one side of each coordinate.

    Column k is (-3 f(x) + 4 f(x + s h e_k) - f(x + 2 s h e_k)) / (2 s h)
    with s = sides[k], +1 or -1; its error is O(h^2).
    """
    x = np.asarray(x, dtype=float)
    at_x = f(x)
    columns = []
    for k, side in enumerate(sides):
        step = np.zeros_like(x)
        step[k] = side * h
        columns.append((-3.0 * at_x + 4.0 * f(x + step) - f(x + 2.0 * step)) / (2.0 * side * h))
    return np.stack(columns, axis=1)

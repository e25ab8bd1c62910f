"""Exact arithmetic of the benchmark's own, for building inputs and checking outputs.

Nothing here imports omatroid, so a defect in the package cannot make its
own output look right. Subsets are bitmasks (element i is bit i-1), the
same convention as the JSON keys "1,3" that the CLI reads and writes.
Values are Python ints (optionally reduced mod p) or Fractions.
"""

from __future__ import annotations

from fractions import Fraction


def masks_of_size(n: int, k: int) -> list[int]:
    """Every k-subset of {1..n} in increasing mask (colex) order."""
    return sorted(m for m in range(1 << n) if m.bit_count() == k)


def subset_key(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def skew_from_upper(n: int, upper: list) -> list[list]:
    """Square skew matrix with the given strict upper triangle, row by row."""
    a = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            a[i][j] = v
            a[j][i] = -v
    return a


def pfaffian_table(a: list[list], p: int | None = None) -> list:
    """Pf(A_J) for every subset mask J, expanding along the largest element.

    Pf(A_J) = sum over t of (-1)**(t+1) * a[j_t][j_top] * Pf(A_{J - j_t - j_top}),
    t running over the 1-based positions of J's other elements. The package
    expands along the smallest element instead, so the two do not share a
    recurrence. Works over the integers, the rationals, or GF(p) when p is given.
    """
    n = len(a)
    table = [0] * (1 << n)
    table[0] = 1
    for mask in range(3, 1 << n):
        if mask.bit_count() & 1:
            continue
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        acc = 0
        t = 0
        r = rest
        while r:
            b = r & -r
            r ^= b
            t += 1
            sub = table[rest ^ b]
            if sub:
                term = a[b.bit_length() - 1][top] * sub
                acc = acc + term if t & 1 else acc - term
        table[mask] = acc % p if p else acc
    return table


def determinant(rows: list[list], p: int | None = None):
    """Gaussian elimination over Fractions, or over GF(p) when p is given."""
    if p:
        a = [[v % p for v in row] for row in rows]
    else:
        a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pk = a[k][k]
        det *= pk
        inv = pow(pk, -1, p) if p else 1 / pk
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if p:
                f %= p
            if f:
                row_i, row_k = a[i], a[k]
                for j in range(k, n):
                    row_i[j] -= f * row_k[j]
                    if p:
                        row_i[j] %= p
    return det % p if p else det


def maximal_minors(rows: list[list], p: int | None = None) -> list:
    """Every r x r minor of an r x n matrix, columns in colex order."""
    r, n = len(rows), len(rows[0])
    out = []
    for mask in masks_of_size(n, r):
        cols = [j for j in range(n) if mask >> j & 1]
        out.append(determinant([[row[j] for j in cols] for row in rows], p))
    return out


def wick_pair_value(coords, j1: int, j2: int, p: int):
    """sum over j of (-1)**j * p_{J1 delta i_j} * p_{J2 delta i_j}, mod p.

    ``coords`` maps masks to values; i_1 < i_2 < ... run over J1 delta J2.
    """
    acc = 0
    d = j1 ^ j2
    j = 0
    for i in range(d.bit_length()):
        b = 1 << i
        if d & b:
            j += 1
            term = coords.get(j1 ^ b, 0) * coords.get(j2 ^ b, 0)
            acc += -term if j & 1 else term
    return acc % p


"""Exact scalar arithmetic and linear algebra.

Rings here are the integers, the rationals, and prime fields GF(p); values
are plain Python ints, ``fractions.Fraction``, or residues in [0, p). All
arithmetic is exact, there is no floating point anywhere in this package.

A partial field restricts which scalars may appear in a representation: a
ring together with a unit group containing -1. Each supported ring takes
its whole unit group, so the ring names the partial field: every nonzero
element over a field, and {+1, -1} over the integers (the regular partial
field).

Every kernel runs on plain integers for every ring: residues mod p over
GF(p), and over QQ the values with their denominators cleared by one
helper, ``_integers``. One fraction-free row reduction serves the
determinant here and the maximal minors of a wide matrix in ``plucker``; a
single Pfaffian is fraction-free skew elimination, O(n**3); the table of
all principal Pfaffians expands along the lowest index over every mask in
increasing order, O(2**n * n).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import CapabilityError, InputError, MapUndefinedError
from .groundset import SubsetMask, mask_elements, record, within_budget


# ---------------------------------------------------------------------------
# rings


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first twelve prime bases.

    Exact below 3.18e23 (Sorenson and Webster, Math. Comp. 86, 2017), so
    for every modulus GF(p) takes: it refuses p >= 2**64.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if any(p % b == 0 for b in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    for b in _PRIME_BASES:
        x = pow(b, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class Ring:
    """Common interface of the supported coefficient rings.

    The arithmetic here is Python's own operators, as over ZZ and QQ;
    GF(p) sets its modulus ``p`` and reduces by it.
    """

    kind: str = "?"
    is_field: bool = False
    p: int = 0  # the modulus; 0 for none

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == self.zero

    def inv(self, a):
        raise InputError(f"{self!r} has no general inverses")

    def coerce(self, v):
        """Normalize a Python value (int, Fraction, or string) into this ring."""
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def fmt(self, v) -> str:
        try:
            return str(v)
        except ValueError as exc:  # an int past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            message = f"a value has more than {limit} digits, Python's int-to-string limit"
            raise CapabilityError(message) from exc

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return self.kind


class IntegerRing(Ring):
    kind = "z"

    def inv(self, a):
        if a in (1, -1):
            return a
        raise InputError(f"{a} is not a unit of the integers")

    def coerce(self, v):
        if isinstance(v, bool):
            raise InputError("booleans are not ring values")
        if isinstance(v, int):
            return v
        if isinstance(v, Fraction) and v.denominator == 1:
            return int(v)
        if isinstance(v, str):
            return self.parse(v)
        raise InputError(f"cannot coerce {v!r} into the integers")

    def parse(self, s: str):
        try:
            return int(s.strip())
        except ValueError as exc:
            raise InputError(f"bad integer literal {s!r}") from exc


class RationalField(Ring):
    kind = "q"
    is_field = True

    zero = Fraction(0)
    one = Fraction(1)

    def inv(self, a):
        if a == 0:
            raise InputError("division by zero")
        return 1 / a

    def coerce(self, v):
        if isinstance(v, bool):
            raise InputError("booleans are not ring values")
        if isinstance(v, (int, Fraction)):
            return v if type(v) is Fraction else Fraction(v)
        if isinstance(v, str):
            return self.parse(v)
        raise InputError(f"cannot coerce {v!r} into the rationals")

    def parse(self, s: str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {s!r}") from exc


class PrimeField(Ring):
    """GF(p), residues kept canonical in [0, p)."""

    kind = "gfp"
    is_field = True

    def __init__(self, p: int):
        if isinstance(p, int) and p >= 1 << 64:
            raise CapabilityError(f"GF(p) is capped at p < 2**64, got a {p.bit_length()}-bit p")
        if not _is_prime(p):
            raise InputError(f"{p!r} is not prime")
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise InputError("division by zero")
        return pow(a, -1, self.p)

    def coerce(self, v):
        if isinstance(v, bool):
            raise InputError("booleans are not ring values")
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, str):
            return self.parse(v)
        raise InputError(f"cannot coerce {v!r} into GF({self.p})")

    def parse(self, s: str):
        s = s.strip()
        if "/" in s:
            raise InputError(f"residues are plain decimal strings, got {s!r}")
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise InputError(f"bad residue literal {s!r}") from exc

    def __repr__(self) -> str:
        return f"gf({self.p})"


ZZ = IntegerRing()
QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


# ---------------------------------------------------------------------------
# partial fields

@record
class PartialField:
    """A ring together with its unit group: all nonzero elements over a field, and
    {+1, -1} over the integers (the regular partial field)."""

    ring: Ring

    def __post_init__(self) -> None:
        if not isinstance(self.ring, Ring):
            raise InputError(f"a partial field is built on a ring, got {self.ring!r}")

    def is_element(self, v) -> bool:
        """Whether v lies in the unit group or is zero."""
        return self.ring.is_field or v in (0, 1, -1)

    def __repr__(self) -> str:
        return repr(self.ring) if self.ring.is_field else "regular"


REGULAR = PartialField(ZZ)


# ---------------------------------------------------------------------------
# matrices


@record
class Matrix:
    """An immutable rows x cols matrix over one ring, row-major entries.

    Rows and columns are 0-indexed internally; when a matrix is tied to a
    ground set, column j-1 carries element label j.
    """

    ring: Ring
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        # every entry a canonical ring value: InputError for anything outside the ring
        object.__setattr__(self, "entries", tuple(map(self.ring.coerce, self.entries)))

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise InputError("ragged rows")
        return cls(ring, len(rows), ncols, tuple(v for r in rows for v in r))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def to_json_rows(self) -> list[list[str]]:
        fmt = self.ring.fmt
        return [[fmt(v) for v in row] for row in self.row_lists()]

    def __repr__(self) -> str:
        return f"Matrix({self.ring!r}, {self.rows}x{self.cols})"


class SkewMatrix(Matrix):
    """A square skew-symmetric matrix (zero diagonal required)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rows != self.cols:
            raise InputError("skew matrix must be square")
        n = self.rows
        ring = self.ring
        for i in range(n):
            if not ring.is_zero(self.entry(i, i)):
                raise InputError(f"diagonal entry ({i + 1},{i + 1}) must be zero")
            for j in range(i + 1, n):
                if self.entry(j, i) != ring.neg(self.entry(i, j)):
                    raise InputError(
                        f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) are not skew"
                    )

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "SkewMatrix":
        m = Matrix.from_rows(ring, rows)
        return cls(ring, m.rows, m.cols, m.entries)

    @classmethod
    def from_upper(cls, ring: Ring, n: int, upper: Sequence) -> "SkewMatrix":
        """Build from the strictly-upper-triangle entries (numbers), row by row."""
        need = n * (n - 1) // 2
        if len(upper) != need:
            raise InputError(f"expected {need} upper entries, got {len(upper)}")
        grid = [[ring.zero] * n for _ in range(n)]
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                grid[i][j] = upper[k]
                grid[j][i] = ring.neg(upper[k])
                k += 1
        return cls(ring, n, n, tuple(v for row in grid for v in row))

    @property
    def size(self) -> int:
        return self.rows

    def principal(self, j) -> "SkewMatrix":
        """Principal submatrix on the elements of j (a SubsetMask or bare mask)."""
        bits = j.bits if isinstance(j, SubsetMask) else j
        if isinstance(j, SubsetMask) and j.ground.n != self.size:
            raise InputError(
                f"subset lives on a ground set of size {j.ground.n}, matrix has size {self.size}"
            )
        if not 0 <= bits < (1 << self.size):
            raise InputError(f"mask {bits!r} does not index a {self.size}x{self.size} matrix")
        idx = [e - 1 for e in mask_elements(bits)]
        ents = tuple(self.entry(a, b) for a in idx for b in idx)
        return SkewMatrix(self.ring, len(idx), len(idx), ents)


# ---------------------------------------------------------------------------
# determinants


def _integers(values, ring: Ring):
    """``values`` times c, as integers, and c: over QQ the lcm of the denominators;
    over every other ring 1, with the values returned as they are, not copied."""
    if not isinstance(ring, RationalField):
        return values, 1
    c = lcm(*(v.denominator for v in values))
    return [v.numerator * (c // v.denominator) for v in values], c


def _reduce(rows: list, p: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer ``rows``, mod p if p.

    Each step keeps its pivot row y and sets every other row, f = 0 or not,
    to (piv * x - f * y) / prev, prev the last pivot (1 at first): an exact
    division over ZZ, a product with prev**-1 mod p. A swap negates the row
    moved down, so no determinant changes sign. Returns the pivot columns
    and d: at full row rank the last pivot, d = det(A_P) with the rows
    reading d * A_P^-1 A; below it 0.
    """
    pivots, prev = [], 1
    width = len(rows[0]) if rows else 0
    for c in range(width):
        k = len(pivots)
        i = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        if i != k:
            rows[k], rows[i] = rows[i], [-x for x in rows[k]]
        y = rows[k]
        piv, inv = y[c], pow(prev, -1, p) if p else 0
        for o, x in enumerate(rows):
            if o != k:
                f = x[c]
                if p:
                    rows[o] = [(piv * u - f * v) * inv % p for u, v in zip(x, y)]
                else:
                    rows[o] = [(piv * u - f * v) // prev for u, v in zip(x, y)]
        prev = piv
        pivots.append(c)
    return pivots, prev if len(pivots) == len(rows) else 0


def determinant(m: Matrix):
    """Exact determinant of a square matrix, by one fraction-free row reduction."""
    if m.rows != m.cols:
        raise InputError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    ints, c = _integers(m.entries, m.ring)
    d = _reduce([ints[i * n : (i + 1) * n] for i in range(n)], m.ring.p)[1]
    return m.ring.coerce(d if c == 1 else Fraction(d, c**n))


# ---------------------------------------------------------------------------
# pfaffians


def pfaffian(m: SkewMatrix):
    """Pfaffian by fraction-free skew elimination (Parlett-Reid) on integers.

    A step swaps index 1 with the first j where a_0j != 0 (a sign flip;
    none, as at the end of an odd size, gives 0), then drops indices 0 and
    1, with piv = a_01 and prev the last piv (1 at first), keeping
    a_il <- (piv a_il + a_1i a_0l - a_0i a_1l) / prev: exact by Knuth's
    overlapping-Pfaffian identity, a product with prev**-1 over GF(p). The
    last piv is the Pfaffian up to the swaps' sign, of cA over QQ. The empty
    matrix has Pfaffian 1, and the square of the result is the determinant.
    """
    if not isinstance(m, SkewMatrix):
        raise InputError("pfaffian needs a skew-symmetric matrix")
    n, p = m.size, m.ring.p
    ints, c = _integers(m.entries, m.ring)
    a, sign, prev = [list(ints[i * n : (i + 1) * n]) for i in range(n)], 1, 1
    while a:
        x = a[0]
        j = next((j for j in range(1, len(a)) if x[j]), None)
        if j is None:
            return m.ring.zero
        if j != 1:
            a[1], a[j] = a[j], a[1]
            for r in a:
                r[1], r[j] = r[j], r[1]
            sign = -sign
        piv, xs, ws = x[1], x[2:], a[1][2:]
        if p:
            inv = pow(prev, -1, p)
            a = [[(piv * y + wi * u - xi * v) * inv % p for y, u, v in zip(r[2:], xs, ws)]
                 for r, wi, xi in zip(a[2:], ws, xs)]
        else:
            a = [[(piv * y + wi * u - xi * v) // prev for y, u, v in zip(r[2:], xs, ws)]
                 for r, wi, xi in zip(a[2:], ws, xs)]
        prev = piv
    return m.ring.coerce(sign * prev if c == 1 else Fraction(sign * prev, c ** (n // 2)))


def all_principal_pfaffians(m: SkewMatrix) -> list:
    """Pfaffians of every principal submatrix, indexed by subset mask.

    One integer expansion for every ring, over masks in increasing order:
    Pf(A_J) is the alternating sum, over the j in J after its lowest index
    i, of a_ij * Pf(A_(J-i-j)) read from the table. O(2**n * n) steps,
    refused above SWEEP_BUDGET. ZZ and the regular partial field expand
    their entries as they are, and GF(p) its residues, each new entry taken
    mod p. QQ expands the integer matrix cA, c the lcm of the denominators,
    and divides entry J by c**(|J|/2) at the end.
    """
    if not isinstance(m, SkewMatrix):
        raise InputError("pfaffian table needs a skew-symmetric matrix")
    n, p = m.size, m.ring.p
    within_budget(n << n, "Pfaffian table", "expansion steps")
    a, c = _integers(m.entries, m.ring)
    table = [1] + [0] * ((1 << n) - 1)
    for mask in range(1, len(table)):
        if mask.bit_count() % 2:
            continue
        low = mask & -mask
        row, rest = (low.bit_length() - 1) * n - 1, mask ^ low  # a[row + b.bit_length()] is a_ij
        acc, r, sign = 0, rest, 1
        while r:
            b = r & -r
            r ^= b
            x = a[row + b.bit_length()]
            if x:
                acc += sign * x * table[rest ^ b]
            sign = -sign
        table[mask] = acc % p if p else acc
    if m.ring != QQ:
        return table
    scale = [c ** (k // 2) for k in range(n + 1)]
    return [Fraction(v, scale[mask.bit_count()]) if v else QQ.zero for mask, v in enumerate(table)]


# ---------------------------------------------------------------------------
# homomorphisms

@record
class Homomorphism:
    """Reduction mod p onto GF(p), fixed by the source ring: of each integer over the
    regular partial field, and of numerator and denominator over the rationals."""

    source: PartialField
    target: PartialField

    def __post_init__(self) -> None:
        if self.source.ring not in (ZZ, QQ) or not self.target.ring.p:
            raise InputError(f"no homomorphism from {self.source!r} to {self.target!r}")

    def apply(self, v):
        p = self.target.ring.p
        if self.source.ring == ZZ:
            return v % p
        den = v.denominator % p
        if den == 0:
            raise MapUndefinedError(f"denominator of {v} is divisible by {p}; residue map undefined")
        return v.numerator % p * pow(den, -1, p) % p


def residue_hom(p: int) -> Homomorphism:
    """Reduction mod p, from the regular partial field (and the integers) onto GF(p)."""
    return Homomorphism(REGULAR, PartialField(GF(p)))


def rational_residue_hom(p: int) -> Homomorphism:
    """The partial map from the rationals onto GF(p); fails on denominators divisible by p."""
    return Homomorphism(PartialField(QQ), PartialField(GF(p)))


def apply_hom(h: Homomorphism, m: Matrix) -> Matrix:
    """Apply a homomorphism entrywise; skew matrices stay skew.

    The matrix must be over the homomorphism's source ring.
    """
    if m.ring != h.source.ring:
        raise InputError(f"matrix ring {m.ring!r} is not the source ring {h.source.ring!r}")
    target = h.target.ring
    ents = tuple(h.apply(v) for v in m.entries)
    cls = SkewMatrix if isinstance(m, SkewMatrix) else Matrix
    return cls(target, m.rows, m.cols, ents)

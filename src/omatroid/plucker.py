"""Rank-r coordinate vectors and their quadratic exchange relations.

A vector assigns a partial-field element p_J to every r-subset J of {1..n},
not all zero, kept in a canonical projective scaling. The full relation
family runs over all pairs (S, T) with |S| = r+1 and |T| = r-1:

    sum over x in S of  sign(x; S, T) * p_{S - x} * p_{T + x}  =  0

where terms with x already in T vanish. The short family keeps only the
pairs with |S - T| = 3, whose surviving three signs alternate. A vector is
Strong when the full family vanishes, Weak when the short family vanishes
and the support is a matroid, and Neither otherwise. Strong and Weak agree
for vectors over a partial field; the checkers still decide both families
so that equivalence stays testable.

A term is nonzero only when both of its indices are in the support, so
only the (r+1)-sets N_S and (r-1)-sets N_T one element away from a support
member are taken, in the colex order of the whole family: skipped pairs
have only zero terms, so verdicts and witnesses are those over all pairs.

Both families are read off one certificate per vector, _Certificate: the
relation for (S, T) is u_S . w_T, an entry of U W^T for rows on 1..n. Only
a dirty u_S, one not orthogonal to the span of the w_T, has a nonzero
relation, so the full family vanishes exactly when no row is dirty and
fails first in the first dirty row, and the short family is swept over
dirty rows only, a row tested against a basis of the columns grown until
it meets it and the rest decided on packed columns. The classifiers decide
both families from one certificate. A check is refused before it starts
when its family has more than SWEEP_BUDGET pairs in N_S x N_T.
"""

from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import chain, compress, count, repeat
from math import comb, prod
from operator import mul, or_
from typing import Callable, Mapping

from .errors import ClassificationError, InputError, MembershipError, RankError
from .exactalg import QQ, Matrix, Ring, _integers, _is_prime, _Ratios, _reduce
from .groundset import GroundSet, SubsetMask, mask_elements, masks_of_size, record, within_budget
from .matroid import BasisFamily, is_matroid
from .verdicts import AxiomVerdict, Label


@lru_cache(maxsize=None)
def _index_of(n: int, r: int) -> dict[int, int]:
    return {m: i for i, m in enumerate(masks_of_size(n, r))}


def _canonical_coords(ring: Ring, masks, coords):
    """Validate coordinates listed in the order of ``masks`` and scale them.

    There must be one coordinate per mask. Each value is coerced into the
    ring. Over a field every nonzero value is a unit, so membership is
    checked only over the regular partial field: MembershipError names the
    first subset outside {0, +1, -1}. The vector is then scaled so its first
    nonzero coordinate is 1, over the regular partial field by that +1 or -1.
    A _Ratios stays one: numerators times a, denominators times b, where
    a / b is the first nonzero value's inverse in lowest terms.
    """
    if len(coords) != len(masks):
        raise InputError(f"expected {len(masks)} coordinates, got {len(coords)}")
    ratios = isinstance(coords, _Ratios)  # QQ values from the integer kernels, kept as integers
    values = coords.nums if ratios else [ring.coerce(v) for v in coords]
    if not ring.is_field:
        for mask, v in zip(masks, values):
            if not ring.is_element(v):
                key = ",".join(map(str, mask_elements(mask)))
                raise MembershipError(
                    f"coordinate {key!r} has value {ring.fmt(v)} outside the partial field"
                )
    i = next(compress(count(), values), None)  # zero is falsy in every ring
    if i is None:
        raise InputError("all coordinates are zero")
    if ratios:
        lam, dens = Fraction(coords.dens[i], values[i]), coords.dens
        a, b = lam.numerator, lam.denominator
        return _Ratios(values if a == 1 else [a * v for v in values],
                       dens if b == 1 else [b * d for d in dens])
    lam, p = ring.inv(values[i]), ring.p
    if lam == ring.one:
        return tuple(values)
    return tuple(lam * v % p for v in values) if p else tuple(lam * v for v in values)


def _dense(ring: Ring, masks, coords, stray: str) -> list:
    """A dense sequence as it is, or a sparse {mask: value} mapping listed in the order of
    ``masks`` with zeros filled in; a mapping key outside ``masks`` is refused as ``stray``."""
    if not isinstance(coords, Mapping):
        return list(coords)
    extra = coords.keys() - set(masks)
    if extra:
        raise InputError(f"coordinate mask {min(extra)!r} {stray}")
    return [coords.get(m, ring.zero) for m in masks]


class _CoordinateVector:
    """What PluckerVector and WickVector share: ``coords`` listed in the order of ``masks()``."""

    def masks(self):
        raise NotImplementedError

    def support_masks(self) -> tuple[int, ...]:
        return tuple(compress(self.masks(), self.coords))  # zero is falsy in every ring


def _neighbourhood(p: _CoordinateVector) -> list[int]:
    """Masks one element away from some support member, in colex order.

    A relation term multiplies two coordinates, each indexed one element
    away from one of the pair's sets, so a pair with a set outside this
    list has only zero terms.
    """
    bits = [1 << i for i in range(p.ground.n)]
    return sorted({u ^ b for u in p.support_masks() for b in bits})


@record
class PluckerVector(_CoordinateVector):
    """Projective point indexed by the r-subsets of {1..n} in colex order.

    Constructed values are validated against the partial field and rescaled
    so the first nonzero coordinate is 1 (fields) or +1 (regular partial
    field), making equality of vectors projective equality.
    """

    ground: GroundSet
    r: int
    ring: Ring
    coords: tuple

    def __post_init__(self) -> None:
        n = self.ground.n
        if not 0 <= self.r <= n:
            raise InputError(f"rank {self.r} is outside 0..{n}")
        object.__setattr__(self, "coords", _canonical_coords(self.ring, self.masks(), self.coords))

    @classmethod
    def from_coords(
        cls, ground: GroundSet, r: int, ring: Ring, coords: Mapping[int, object] | list
    ) -> "PluckerVector":
        """Build from a dense sequence or a sparse {mask: value} mapping."""
        masks = masks_of_size(ground.n, r)
        return cls(ground, r, ring, _dense(ring, masks, coords, f"is not an {r}-subset"))

    def masks(self) -> tuple[int, ...]:
        return masks_of_size(self.ground.n, self.r)

    def coord(self, j: SubsetMask):
        if j.ground.n != self.ground.n:
            raise InputError("subset from a different ground set")
        idx = _index_of(self.ground.n, self.r).get(j.bits)
        if idx is None:
            raise InputError(f"{j!r} is not an {self.r}-subset")
        return self.coords[idx]


@record
class GPVerdict:
    """Result of sweeping a family of exchange relations.

    On failure (S, T) is the first offending pair, ordered by colex S then
    colex T, and ``value`` the nonzero residual.
    """

    ok: bool
    s: SubsetMask | None = None
    t: SubsetMask | None = None
    value: object = None

    def __bool__(self) -> bool:
        return self.ok


@record
class PluckerClassification:
    label: Label
    full: GPVerdict
    short: GPVerdict
    support: AxiomVerdict


def plucker_support(p: PluckerVector) -> BasisFamily:
    """Subsets with nonzero coordinate, as a basis family."""
    return BasisFamily(p.ground, frozenset(p.support_masks()))


def plucker_from_matrix(a: Matrix) -> PluckerVector:
    """Maximal minors of a full-row-rank r x n matrix, column labels 1..n.

    One fraction-free row reduction of the integer rows gives the first
    pivot basis P, d = p_P = det(A_P) and rows d * E, E = A_P^-1 A. Every
    other r-set S then follows from sets one step nearer P by one column
    exchange: with j the lowest element of S - P,

        p_S = sum over i in P - S of  (-1)**k * E[row of i][j] * p_{S - j + i}

    where k counts the elements of S - j strictly between i and j, summed on
    d * E and divided by d once. Over QQ the minors are those of cA, c**r
    times: the same point, kept as integers in a _Ratios. At most
    C(n, r) * min(r, n - r) exchange steps, refused above SWEEP_BUDGET.
    Raises RankError when every minor vanishes and MembershipError when a
    minor falls outside the partial field.
    """
    r, n, p = a.rows, a.cols, a.ring.p
    if r > n:
        raise RankError(f"a {r}x{n} matrix cannot have row rank {r}")
    ground = GroundSet(n)
    within_budget(comb(n, r) * min(r, n - r), "minor table", "exchange steps")
    ints, _ = _integers(a.entries, a.ring)
    rows = [ints[i * n : (i + 1) * n] for i in range(r)]
    pivots, d = _reduce(rows, p)
    if not d:
        raise RankError(f"matrix has row rank below {r}; every maximal minor vanishes")
    inv = pow(d, -1, p) if p else 0
    base = sum(1 << c for c in pivots)
    row_of = {1 << c: row for c, row in zip(pivots, rows)}
    minors = {base: d}
    for s in sorted(masks_of_size(n, r), key=lambda m: (m & ~base).bit_count()):
        if s == base:
            continue
        rest = s & ~base
        jb = rest & -rest
        j = jb.bit_length() - 1
        acc = 0
        missing = base & ~s
        while missing:
            ib = missing & -missing
            missing ^= ib
            e, v = row_of[ib][j], minors[s ^ jb | ib]
            if e and v:
                lo, hi = (ib, jb) if ib < jb else (jb, ib)
                between = s & (hi - 1) & ~(2 * lo - 1)
                acc += -e * v if between.bit_count() & 1 else e * v
        minors[s] = acc * inv % p if p else acc // d
    coords = [minors[s] for s in masks_of_size(n, r)]
    if a.ring == QQ:  # integers over 1, until the vector scales them
        coords = _Ratios(coords, [1] * len(coords))
    return PluckerVector(ground, r, a.ring, coords)


def _moduli(bound: int) -> tuple[int, ...]:
    """The fewest primes below 2**64 with a product above ``bound``: the least one, or the largest."""
    primes = [(1 << 64) - 59]  # the largest prime below 2**64
    if bound < primes[0]:
        return (next(q for q in count(bound + 1) if _is_prime(q)),)
    while prod(primes) <= bound:
        primes.append(next(q for q in range(primes[-1] - 2, 1, -2) if _is_prime(q)))
    return tuple(primes)


def _pack(rows, q: int, mod: bool, slots: int, kb: int) -> list[int]:
    """Slot i of every row, taken mod q when ``mod``, as one integer of kb-byte fields, for each i."""
    flat = map(q.__rmod__, chain.from_iterable(zip(*rows))) if mod else chain.from_iterable(zip(*rows))
    vb = -(-(q - 1).bit_length() // 8)
    raw = bytes(flat) if vb == 1 else b"".join(map(int.to_bytes, flat, repeat(vb), repeat("little")))
    spread = bytearray(len(raw) // vb * kb)
    for i in range(vb):
        spread[i::kb] = raw[i::vb]
    step = len(spread) // slots
    return [int.from_bytes(spread[s * step : (s + 1) * step], "little") for s in range(slots)]


@cache
def _fields(slots: int, top: int, fields: int, q: int) -> tuple[int, ...]:
    """F, bytes a field, the bits below F and at F of every field, and c and 2**F - c a field mod q."""
    n = ((slots + 1) * (top - 1) ** 2).bit_length()
    f = n + top.bit_length() + 1
    kb, c = -(-(n + f + 1) // 8), -((-1 << f) // q)
    ones = int.from_bytes(b"\1".ljust(kb, b"\0") * fields, "little")
    return f, kb, ((1 << f) - 1) * ones, ones << f, c, ((1 << f) - c) * ones


def _kernel(cert, q: int):
    """``dirty(a)``: is u_a of ``cert`` not orthogonal to the w_b's span mod the prime q? And
    ``relations(a)``, once the columns are packed: bit F of field b set when u_a . w_b is not 0.

    An echelon basis of the columns is grown only while the row being decided is orthogonal to
    all of it, reading them in order until more have lain in its span than extend it. Then it
    is reduced, e_k[j_k] = -1, and slot i of all columns becomes one integer pw[i] of fields, b
    holding w_b[i] mod q (Kronecker substitution); the next to read is the first with a nonzero
    pw[i] + sum_k pw[j_k] * e_k[i] at a free slot i. Once a row is clean, d products of the
    packed rows with the basis decide every row.
    """
    u, w, rows, cols, mod, slots = cert.u, cert.w, cert.rows, cert.cols, not cert.ring.p, cert.slots
    f, kb, low, high, c, lift = _fields(slots, max(cert.moduli), max(len(rows), len(cols)), q)
    pack, basis, pivots, free, pw, flags = partial(_pack, q=q, mod=mod, slots=slots, kb=kb), [], [], [], [], None

    def nonzero(x: int) -> int:  # bit F of each field set when the field is not 0 mod q
        return ((x * c & low) + lift) & high

    def extend(v: list) -> list:  # v, 0 at every pivot, joins as -1 at its first nonzero slot
        j = next(i for i, x in enumerate(v) if x)
        v = [x * (q - pow(v[j], -1, q)) % q for x in v]
        basis[:] = [[(x + e[j] * y) % q for x, y in zip(e, v)] if e[j] else e for e in basis]
        pivots.append(j), basis.append(v), free.remove(j)
        return v

    def grow():  # the basis vectors still to come, each appended to ``basis`` when found
        spent = 0
        for v in map(w, cols):
            col = v
            for k, e in zip(pivots, basis):
                if x := v[k]:
                    y = e[k]
                    v = [y * a - x * b for a, b in zip(v, e)]
            if mod or v is not col:  # a GF(p) column met unreduced holds residues already
                v = [a % q for a in v]
            if any(v):
                pivots.append(next(k for k, x in enumerate(v) if x)), basis.append(v)
                yield v
            elif (spent := spent + 1) > len(basis):
                break
        else:
            return
        pw[:], old, free[:] = pack(map(w, cols)), basis[:], range(slots)
        del basis[:], pivots[:]
        list(map(extend, old))
        while free and (out := reduce(or_, (nonzero(pw[i] + sum(pw[j] * e[i] for j, e in zip(pivots, basis) if e[i]))
                                            for i in free))):
            v = w(cols[((out & -out).bit_length() - 1) // (8 * kb)])
            for j, e in zip(pivots, basis):
                if x := v[j] % q:
                    v = [a + x * b for a, b in zip(v, e)]
            yield extend([a % q for a in v])

    def dirty(a: int) -> int:
        nonlocal flags
        if flags is None:
            row = u(rows[a])
            if any(sum(map(mul, row, e)) % q for e in chain(basis, growth)):
                return True
            pu = pack(map(u, rows))
            flags = reduce(or_, (nonzero(sum(map(mul, pu, e))) for e in basis), 0).to_bytes(len(rows) * kb, "little")
        return flags[a * kb + f // 8] & 1 << f % 8

    def relations(a: int) -> int | None:
        return nonzero(sum(p * (x % q) for p, x in zip(pw, u(rows[a])) if x)) if pw else None

    growth = grow()
    return dirty, relations


class _Certificate:
    """The relations of one vector over N as the entries sign * u_a . w_b of U W^T.

    ``u`` and ``w`` build each row once, the only place the relation's signs live, from the
    coordinates as integers (over QQ times their common denominator ``scale``). Row a is dirty
    when u_a is not orthogonal to the columns' span, as one _kernel per prime q decides: q = p
    over GF(p); over ZZ and QQ the q have a product above 2 * L * M**2 >= 2 * |u_a . w_b| (L the
    row length, M the largest |coordinate|), so a row is dirty exactly when it is so mod some q.

    A field holds f < 2**N, a sum of up to L + 1 products of residues, and f = a*q + r is 0 mod q
    exactly when f*c mod 2**F < c, F = N + bits(q) + 1, c = ceil(2**F / q) = (2**F + t) / q, t < q
    (Lemire, Kaser and Kurz, 2019): f*c = a*2**F + a*t + r*c and (a + 1)*t < 2**N + q < c. Fields
    of N + F + 1 bits never carry.
    """

    def __init__(self, p: _CoordinateVector, rows, cols, u, w, sign: int, verdict, scale: int):
        self.ground, self.ring, self.rows, self.cols = p.ground, p.ring, rows, cols
        self.u, self.w, self.sign, self.verdict, self.scale = u, w, sign, verdict, scale
        self.top, self.built, self.at = 0 if self.ring.p else int(max(map(abs, p.coords)) * scale), None, None

    def dirty(self):
        """The indices of the dirty rows, in order, each decided when it is read."""
        if self.built is None and self.rows:  # one _kernel a modulus, built when the first row is decided
            self.slots = slots = len(self.u(self.rows[0]))
            self.moduli = moduli = (self.ring.p,) if self.ring.p else _moduli(2 * slots * self.top**2)
            self.f, self.kb = _fields(slots, max(moduli), max(len(self.rows), len(self.cols)), moduli[0])[:2]
            self.built = [_kernel(self, q) for q in moduli]
        tests = [d for d, _ in self.built or ()]
        return filter(tests[0] if len(tests) == 1 else lambda a: any(d(a) for d in tests), range(len(self.rows)))

    def value(self, a: int, b: int):
        x = self.sign * sum(map(mul, self.u(a), self.w(b)))
        return self.ring.coerce(Fraction(x, self.scale**2) if self.scale > 1 else x)

    def failure(self, a: int, partners):
        """The first (rows[a], b), b in ``partners``, with a nonzero relation, as a failing verdict."""
        s, products = self.rows[a], [r(a) for _, r in self.built]
        if None not in products:  # one product a kernel reads which b those are
            if self.at is None:  # the byte of each column's flag in a packed product
                self.at = {b: i * self.kb + self.f // 8 for i, b in enumerate(self.cols)}
            z = reduce(or_, products).to_bytes(len(self.cols) * self.kb, "little")
            partners = (b for b in partners if z[self.at[b]] & 1 << self.f % 8)
        for b in partners:
            if val := self.value(s, b):  # zero is falsy in every ring
                return self.verdict(False, SubsetMask(self.ground, s), SubsetMask(self.ground, b), val)

    def full(self, partners: Callable):
        """No dirty row, or the first failing (a, b) of the first dirty a, b in ``partners(a)``."""
        a = next(self.dirty(), None)
        verdict = self.verdict(True) if a is None else self.failure(a, partners(self.rows[a]))
        assert verdict is not None, "the certificate's row holds no failing pair"
        return verdict

    def short(self, partners: Callable):
        """The first failing (a, b) over the dirty a, b in ``partners(a)``."""
        failures = (self.failure(a, partners(self.rows[a])) for a in self.dirty())
        return next((v for v in failures if v is not None), self.verdict(True))


def _signed_row(p: int, coords, idx, n: int, flip: int, mask: int) -> list:
    """x -> (-1)**|mask above x| * p_{mask delta x} for the x in ``mask ^ flip``, else 0 (mod p if p)."""
    row = [0] * n
    elems = mask ^ flip
    while elems:
        b = elems & -elems
        elems ^= b
        x = b.bit_length()  # element label
        v = coords[idx[mask ^ b]]
        row[x - 1] = (p - v if p else -v) if v and (mask >> x).bit_count() & 1 else v
    return row


def _gp_certificate(p: PluckerVector) -> _Certificate:
    """N_S as rows u_S, _signed_row on the x in S, and N_T as columns w_T, on the x not in T."""
    near, n, r = _neighbourhood(p), p.ground.n, p.r
    coords, scale = _integers(p.coords, p.ring)
    row = partial(_signed_row, p.ring.p, coords, _index_of(n, r), n)
    u, w = cache(partial(row, 0)), cache(partial(row, (1 << n) - 1))
    s_masks = [m for m in near if m.bit_count() == r + 1]
    t_masks = [m for m in near if m.bit_count() == r - 1]
    return _Certificate(p, s_masks, t_masks, u, w, 1, GPVerdict, scale)


def _gp_full(cert: _Certificate) -> GPVerdict:
    within_budget(len(cert.rows) * len(cert.cols), "full GP sweep")
    return cert.full(lambda s: cert.cols)


def _gp_3term(cert: _Certificate) -> GPVerdict:
    within_budget(len(cert.rows) * len(cert.cols), "3-term GP sweep")
    return cert.short(lambda s: (t for t in cert.cols if (s & ~t).bit_count() == 3))


def check_gp_full(p: PluckerVector) -> GPVerdict:
    """Decide all C(n, r+1) * C(n, r-1) relation instances by the rank certificate."""
    return _gp_full(_gp_certificate(p))


def check_gp_3term(p: PluckerVector) -> GPVerdict:
    """Sweep the instances with |S - T| = 3 (three surviving terms) whose u_S is dirty."""
    return _gp_3term(_gp_certificate(p))


def classify_plucker(p: PluckerVector) -> PluckerClassification:
    """Strongest satisfied label plus the evidence for each route, from one certificate."""
    cert = _gp_certificate(p)
    full, short = _gp_full(cert), _gp_3term(cert)
    return _classify(PluckerClassification, full, short, is_matroid(plucker_support(p)))


def _classify(cls, full, short, support):
    """Strong if the full family vanishes, Weak if the short one does on an axiom-sound support."""
    label = Label.STRONG if full.ok else Label.WEAK if short.ok and support.ok else Label.NEITHER
    return cls(label, full, short, support)


def _weak_gate(support: AxiomVerdict, short, axiom: str) -> None:
    """Refuse to reconstruct a vector whose short family or support axiom fails."""
    if not (short.ok and support.ok):
        message = f"vector is not Weak (short relations or {axiom} fail); cannot reconstruct"
        raise ClassificationError(message)


def reconstruct_plucker(p: PluckerVector) -> Matrix:
    """Rebuild an r x n matrix whose maximal minors reproduce p projectively.

    Requires the weak gate (short relations plus matroid support). The
    colex-least support member B becomes the identity block; canonical
    scaling has already made p_B = 1, so column j outside B gets entries
    read off the near-basis coordinates p_{B - b_i + j} with the
    row/position sign that makes the corresponding minor come out right.
    """
    _weak_gate(is_matroid(plucker_support(p)), check_gp_3term(p), "matroid support")
    ring, n, r = p.ring, p.ground.n, p.r
    idx = _index_of(n, r)
    b_mask = min(p.support_masks())  # the first nonzero coordinate, which scaling made 1
    b_elems = SubsetMask(p.ground, b_mask).elements()
    grid = [[ring.zero] * n for _ in range(r)]
    for i, be in enumerate(b_elems):
        grid[i][be - 1] = ring.one
    for j in range(1, n + 1):
        jbit = 1 << (j - 1)
        if b_mask & jbit:
            continue
        for i, be in enumerate(b_elems, start=1):
            j_mask = (b_mask ^ (1 << (be - 1))) | jbit
            q = p.coords[idx[j_mask]]
            if not q:
                continue
            pos = (j_mask & ((1 << j) - 1)).bit_count()  # 1-based position of j in J
            grid[i - 1][j - 1] = q if (i + pos) % 2 == 0 else ring.neg(q)
    return Matrix(ring, r, n, tuple(v for row in grid for v in row))

"""Independent reference implementations used only to cross-check results.

Everything here is deliberately naive: determinants by the signed
permutation sum, pfaffians by the signed perfect-matching sum. Slow but
unarguable, and written against plain Python integers and Fractions so they
share no code with the implementations under test.

The brute relation sweeps walk every pair of their family in colex order,
as the library did before it restricted the sweeps to the support's
one-step neighbourhood. They read only a vector's ``coords``, ``ground.n``,
``r`` and the modulus ``ring.p``, sum the terms with plain ``+ - *``,
reduce mod ``ring.p`` when it is nonzero, and return a plain tuple (ok,
first failing pair as two masks, its value).

``pfaffian_table`` is the principal-Pfaffian table the library built
before it filled a slice of masks at a time: every even mask in increasing
order, expanded along its lowest index, one term at a time.

``brute_exchange`` is the pair-by-pair search the four exchange-axiom
checkers of ``matroid.py`` ran before they decided every B2 at once with
member bitsets: it tries every (B1, B2, x) in colex order and tests each
candidate y.

``achievable_supports`` is the support search the census ran before it
walked the matrices along a Gray code: every skew matrix in product order,
each with its full principal-Pfaffian table, keeping the first matrix found
for each support.

``subset_key`` is the per-mask coordinate key the JSON writer built before
it extended each key from the key of a shorter mask: the mask's elements,
listed and joined one by one.

``dirty_test`` is the rank test the relation certificate ran before it
packed its columns: an echelon basis of the columns grown one column at a
time, and each row tested by its dot products with that basis.

``census_chunk`` is the per-candidate census writer the library ran before
it wrote records a run at a time: it walks candidates one by one, builds
each record with ``json.dumps``.
"""

import json
from functools import lru_cache
from itertools import chain, permutations, product
from math import gcd, lcm
from operator import mul


def perm_sign(seq) -> int:
    """Sign of the permutation given as a sequence of distinct comparables."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


def leibniz_det(rows):
    """Determinant as the full signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        prod = perm_sign(perm)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total += prod
    return total


def _matchings(rest: tuple):
    if not rest:
        yield ()
        return
    first = rest[0]
    for k in range(1, len(rest)):
        reduced = rest[1:k] + rest[k + 1 :]
        for sub in _matchings(reduced):
            yield ((first, rest[k]),) + sub


def matching_pfaffian(rows):
    """Pfaffian as the signed sum over perfect matchings.

    A matching {(i1,j1),...,(ik,jk)} with i1 < i2 < ... and i < j in each
    pair contributes sign(i1 j1 i2 j2 ...) times the product of its entries.
    """
    n = len(rows)
    if n % 2:
        return 0
    total = 0
    for matching in _matchings(tuple(range(n))):
        flat = [v for pair in matching for v in pair]
        prod = perm_sign(flat)
        for i, j in matching:
            prod = prod * rows[i][j]
        total += prod
    return total


def pfaffian_table(rows, p=0):
    """Pf of every principal submatrix, by mask, each mask expanded along its lowest index.

    Pf(A_J) is the alternating sum, over the j in J after its lowest index i,
    of a_ij * Pf(A_(J-i-j)) read from the table, taken mod p when p is
    nonzero. Works on ints and on Fractions alike.
    """
    n = len(rows)
    table = [1] + [0] * ((1 << n) - 1)
    for mask in range(1, len(table)):
        if mask.bit_count() % 2:
            continue
        low = mask & -mask
        row, rest = rows[low.bit_length() - 1], mask ^ low
        acc, r, sign = 0, rest, 1
        while r:
            b = r & -r
            r ^= b
            x = row[b.bit_length() - 1]
            if x:
                acc += sign * x * table[rest ^ b]
            sign = -sign
        table[mask] = acc % p if p else acc
    return table


def random_skew_int(rng, n, lo=-5, hi=5):
    """Random integer skew matrix as row lists."""
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            grid[i][j] = v
            grid[j][i] = -v
    return grid


def random_int_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def subset_key(mask):
    """The coordinate key of a mask: its 1-based elements, increasing, comma-joined."""
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _colex(n, r):
    return [m for m in range(1 << n) if m.bit_count() == r]


def _wick_pair_value(mod, coords, j1, j2):
    acc = 0
    pos = 0
    m = j1 ^ j2
    while m:
        b = m & -m
        m ^= b
        pos += 1
        v1 = coords[j1 ^ b]
        if not v1:
            continue
        v2 = coords[j2 ^ b]
        if not v2:
            continue
        acc += -v1 * v2 if pos & 1 else v1 * v2
    return acc % mod if mod else acc


def brute_wick_full(p):
    """Every unordered pair {J1, J2} of the 2**n subsets, odd distances included."""
    mod = p.ring.p
    coords = p.coords
    size = 1 << p.ground.n
    for j1 in range(size):
        for j2 in range(j1 + 1, size):
            val = _wick_pair_value(mod, coords, j1, j2)
            if val:
                return False, j1, j2, val
    return True, None, None, None


def brute_wick_4term(p):
    """Every pair at symmetric-difference distance four."""
    mod = p.ring.p
    coords = p.coords
    n = p.ground.n
    if n < 4:
        return True, None, None, None
    diffs = _colex(n, 4)
    size = 1 << n
    for j1 in range(size):
        partners = sorted(j1 ^ d for d in diffs if (j1 ^ d) > j1)
        for j2 in partners:
            val = _wick_pair_value(mod, coords, j1, j2)
            if val:
                return False, j1, j2, val
    return True, None, None, None


def _gp_relation_value(p, s_mask, t_mask, idx):
    coords, mod = p.coords, p.ring.p
    acc = 0
    m = s_mask
    while m:
        b = m & -m
        m ^= b
        if t_mask & b:
            continue  # T + x collapses to a set of size r-1, the term is zero
        x = b.bit_length()  # element label
        v1 = coords[idx[s_mask ^ b]]
        if not v1:
            continue
        v2 = coords[idx[t_mask | b]]
        if not v2:
            continue
        parity = (s_mask >> x).bit_count() + (t_mask >> x).bit_count()
        acc += -v1 * v2 if parity & 1 else v1 * v2
    return acc % mod if mod else acc


def brute_gp_sweep(p, three_term_only):
    """Every (S, T) with |S| = r+1 and |T| = r-1, or only those with |S - T| = 3."""
    n, r = p.ground.n, p.r
    if r + 1 > n or r - 1 < 0:
        return True, None, None, None  # degenerate ranks have an empty relation family
    idx = {m: i for i, m in enumerate(_colex(n, r))}
    for s_mask in _colex(n, r + 1):
        for t_mask in _colex(n, r - 1):
            if three_term_only and (s_mask & ~t_mask).bit_count() != 3:
                continue
            val = _gp_relation_value(p, s_mask, t_mask, idx)
            if val:
                return False, s_mask, t_mask, val
    return True, None, None, None


def dirty_test(mod, rows):
    """A test for whether a row is dirty: not orthogonal to the span of ``rows``.

    Rows are equal-length lists of integers (mod ``mod`` when it is nonzero)
    or Fractions, each scaled to integers by the lcm of its denominators.
    The echelon basis is grown from ``rows``, read once, only while a tested
    row is orthogonal to all of it.
    """
    def integers(row):
        c = lcm(*(v.denominator for v in row))
        return [v.numerator * (c // v.denominator) for v in row]

    pivots, basis = [], []  # basis[i] is 0 at pivots[:i] and not at pivots[i]

    def grow():  # the basis rows still to come, each appended to ``basis`` when found
        for row in rows:
            w = [x % mod for x in row] if mod else integers(row)
            for k, b in zip(pivots, basis):
                c, f = b[k], w[k]
                if f:
                    w = [c * x - f * y for x, y in zip(w, b)]
            if mod:
                w = [x % mod for x in w]
            else:
                g = gcd(*w) or 1
                w = [x // g for x in w]
            if any(w):
                pivots.append(next(k for k, x in enumerate(w) if x))
                basis.append(w)
                yield w

    growth = grow()

    def dirty(u):
        u = u if mod else integers(u)
        spanning = chain(basis, growth)
        if mod:
            return any(sum(map(mul, u, b)) % mod for b in spanning)
        return any(sum(map(mul, u, b)) for b in spanning)

    return dirty


def brute_exchange(f, reason, same_size, strong):
    """The exchange axioms by walking every member pair (B1, B2) and every x, in colex order.

    For all B1, B2 in the family and x in X, some y in Y must have
    B1 Δ {x, y} in the family, and B2 Δ {x, y} too when ``strong``. With
    ``same_size`` the members must share one size (else the first member and
    the first of another size are reported), X = B1 - B2 and Y = B2 - B1;
    otherwise X = B1 Δ B2 and Y = X - x. Reads only ``f.masks`` and returns
    (ok, reason, B1 bits, B2 bits, x) for the first failure, x as a 1-based
    element label.
    """
    members = sorted(f.masks)
    mset = f.masks
    if same_size:
        for m in members[1:]:
            if m.bit_count() != members[0].bit_count():
                return False, "not_equicardinal", members[0], m, None
    for b1 in members:
        for b2 in members:
            d = b1 ^ b2
            xs = d & b1 if same_size else d
            while xs:
                xb = xs & -xs
                xs ^= xb
                base = b1 ^ xb
                ys = d & b2 if same_size else d ^ xb
                while ys:
                    yb = ys & -ys
                    ys ^= yb
                    if (base ^ yb) in mset and (not strong or (b2 ^ xb ^ yb) in mset):
                        break
                else:
                    return False, reason, b1, b2, xb.bit_length()
    return True, None, None, None, None


def skew_matrices(ring, n, values):
    """Every n x n skew matrix over ``ring`` with upper-triangle entries from ``values``.

    The first upper entry varies fastest, as in a base-len(values) counter.
    """
    from omatroid.exactalg import SkewMatrix

    for entries in product(values, repeat=n * (n - 1) // 2):
        yield SkewMatrix.from_upper(ring, n, entries[::-1])


@lru_cache(maxsize=None)
def achievable_supports(n, field):
    """{support as a frozenset of masks: first-found skew matrix} over one partial field.

    A matrix counts only when its whole principal-Pfaffian table stays among
    the field's entry values. Sized as the product-order search was, in
    q**C(n,2) * 2**n * n table steps against SWEEP_BUDGET.
    """
    from omatroid.census import SEARCH_FIELDS
    from omatroid.exactalg import all_principal_pfaffians
    from omatroid.groundset import within_budget

    ring, values = SEARCH_FIELDS[field]
    within_budget(len(values) ** (n * (n - 1) // 2) * (n << n), f"{field} support search", "table steps")
    allowed = frozenset(values)
    found = {}
    for a in skew_matrices(ring, n, values):
        table = all_principal_pfaffians(a)
        if allowed.issuperset(table):
            found.setdefault(frozenset(mask for mask, v in enumerate(table) if v != 0), a)
    return found


def census_candidates(n, start, stop):
    """(parity, bitmap, members) of census candidates number start .. stop - 1.

    Candidate number i is even bitmap i + 1 while that fits the even class,
    then odd bitmaps from 1 on.
    """
    from omatroid.census import _class_total, _members

    offset = 0
    for parity in (0, 1):
        count = _class_total(n, parity)
        for bits in range(max(start - offset, 0) + 1, min(stop - offset, count) + 1):
            yield parity, bits, _members(n, parity, bits)
        offset += count


def census_chunk(n, field, start, stop):
    """Record lines of candidates start .. stop - 1, one candidate at a time.

    A family is representable when its twist by one of its members is an
    achievable support, and an orthogonal family is a matroid when its
    members share one size.
    """
    from omatroid.census import _orthogonal_bitmaps
    from omatroid.groundset import mask_elements

    supports = achievable_supports(n, field)
    lines = []
    for parity, bits, members in census_candidates(n, start, stop):
        rec = {"bases": [list(mask_elements(m)) for m in members], "orthogonal": False}
        if bits in _orthogonal_bitmaps(n, parity):
            rec.update(
                orthogonal=True,
                matroid=len({m.bit_count() for m in members}) == 1,
                representable={field: any(frozenset(m ^ t for m in members) in supports for t in members)},
            )
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)

"""Exact integer linear algebra for homology computations.

Smith normal form over the integers and ranks over prime fields.
All arithmetic uses Python's arbitrary-precision integers; nothing here
is probabilistic, modular-shortcut based, or floating point.

Matrices use the column-vector convention: an ``m x n`` matrix maps
column vectors of length ``n`` to column vectors of length ``m``.  They
are stored sparsely.  The Smith form starts from a unit-pivot sparse
echelon over Z, ``_echelon``.  The rank over F_p is the number of Smith
diagonal entries prime to p, so the homology reads its mod-p Betti
numbers there.  ``ranks_mod_primes`` finds the rank over each requested
prime field by one elimination over F_p per probe prime: an independent
check of that reading.  Both take the rows in orbits under a permutation
of the columns (``RowOrbits``; a list of dense rows is one-row orbits),
sparsest orbit first, and stop each orbit at its first row that reduces
to zero.

>>> smith_normal_form([[2, 4], [6, 8]]).diagonal
(2, 4)
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .geometry import _Checked


class RowOrbits(namedtuple("RowOrbits", "seeds perm order ncols")):
    """An integer matrix given by the orbits of seed rows under a
    permutation s of its columns: each ``{column: value}`` seed r stands for
    the ``order`` rows r, sr, s^2 r, ..., where s moves the entry in column
    j to column ``perm[j]`` (s^order is the identity).

    >>> m = RowOrbits(({0: 1, 1: -1},), perm=(1, 2, 0), order=3, ncols=3)
    >>> m.shape, m.rows
    ((3, 3), [[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
    """

    __slots__ = ()

    def shifts(self, seed):
        """The rows of a seed's orbit, the seed first, as fresh dicts that
        the caller may consume.  Each row is built when the one before it
        is handed out, so a caller that stops after k rows pays for k + 1."""
        perm = self.perm
        row = dict(seed)
        for _ in range(self.order - 1):
            shifted = {perm[j]: v for j, v in row.items()}
            yield row
            row = shifted
        yield row

    @property
    def shape(self):
        return (len(self.seeds) * self.order, self.ncols)

    @property
    def rows(self):
        """A dense view of every row of every orbit, seed by seed."""
        out = []
        for seed in self.seeds:
            for shifted in self.shifts(seed):
                row = [0] * self.ncols
                for j, v in shifted.items():
                    row[j] = v
                out.append(row)
        return out


def _orbits(m, ncols=None):
    """``m`` as RowOrbits; a list of dense rows gives one-row orbits."""
    if isinstance(m, RowOrbits):
        return m
    rows = [[int(v) for v in row] for row in m]
    if ncols is None:
        if not rows:
            raise ValueError("need an explicit column count for a matrix with no rows")
        ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows in matrix input")
    seeds = tuple({j: v for j, v in enumerate(row) if v} for row in rows)
    return RowOrbits(seeds, (), 1, int(ncols))


class SmithForm(_Checked, namedtuple("SmithForm", "diagonal")):
    """Diagonal of a Smith normal form: positive, each entry divides the next.

    >>> SmithForm((2, 4)).rank
    2
    """

    __slots__ = ()

    def __new__(cls, diagonal):
        diagonal = tuple(int(d) for d in diagonal)
        for d in diagonal:
            if d <= 0:
                raise ValueError("Smith diagonal entries must be positive")
        for a, b in zip(diagonal, diagonal[1:]):
            if b % a:
                raise ValueError("Smith diagonal must form a divisibility chain")
        return tuple.__new__(cls, (diagonal,))

    @property
    def rank(self):
        return len(self.diagonal)


class AbelianGroup(_Checked, namedtuple("AbelianGroup", "free_rank torsion")):
    """A finitely generated abelian group: free rank plus invariant factors.

    The torsion entries are the invariant factors greater than 1, each
    dividing the next.

    >>> str(AbelianGroup(2))
    'Z^2'
    >>> str(AbelianGroup(1, (2, 6)))
    'Z + Z/2 + Z/6'
    >>> str(AbelianGroup(0))
    '0'
    """

    __slots__ = ()

    def __new__(cls, free_rank, torsion=()):
        torsion = tuple(int(t) for t in torsion)
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for t in torsion:
            if t <= 1:
                raise ValueError("torsion invariant factors must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion invariant factors must form a divisibility chain")
        return tuple.__new__(cls, (free_rank, torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Core Smith reduction engine.
#
# Reduces A in place by unimodular row and column operations.
# ---------------------------------------------------------------------------


def _min_abs_pivot(A, t, m, n):
    best = None
    for i in range(t, m):
        row = A[i]
        for j in range(t, n):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def _smith(A, m, n):
    """In-place Smith reduction; returns the list of diagonal entries.

    The entry of least absolute value clears its row and column by division
    with remainder.  A nonzero remainder is smaller, so it becomes the next
    pivot at the same place.  The diagonal then goes into divisibility order
    by diag(a, b) ~ diag(gcd, lcm) (Newman, Integral Matrices, 1972, ch. II).
    """
    t = 0
    while found := _min_abs_pivot(A, t, m, n):
        _, pi, pj = found
        A[t], A[pi] = A[pi], A[t]
        for row in A[t:]:
            row[t], row[pj] = row[pj], row[t]
        top = A[t]
        piv = top[t]
        for i in range(t + 1, m):
            if q := A[i][t] // piv:
                A[i] = [a - q * b for a, b in zip(A[i], top)]
        for j in range(t + 1, n):
            if q := top[j] // piv:
                for row in A[t:]:
                    row[j] -= q * row[t]
        if not any(top[t + 1:]) and not any(A[i][t] for i in range(t + 1, m)):
            t += 1
    d = [abs(A[i][i]) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def _subtract(row, f, pivot, modulus=None):
    """row -= f * pivot on sparse rows, in place (mod ``modulus`` when given)."""
    for j, v in pivot.items():
        w = row.get(j, 0) - f * v
        if modulus is not None:
            w %= modulus
        if w:
            row[j] = w
        else:
            row.pop(j, None)


def _reduce(row, pivots, modulus=None):
    """Reduce a sparse row in place by the pivot of its leading column until
    it vanishes or leads in a column without a pivot; return that leading
    column, or None when the row vanished."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return lead
        _subtract(row, row[lead], pivot, modulus)
    return None


def _mod(row, modulus):
    return {j: v % modulus for j, v in row.items() if v % modulus}


def _sparsest_first(seeds):
    """Orbits in a stable sort on their seed's nonzero count (every row of
    an orbit has the same count): fewer nonzeros first keeps the pivots
    sparse and the fill-in low (Markowitz, Management Sci. 1957).  Neither
    a Smith form nor a rank depends on row order."""
    return sorted(seeds, key=len)


# Both eliminations feed an orbit r, sr, s^2 r, ... only up to its first row
# that reduces to zero.  The complete orbits fed before span a module S with
# sS = S, because s permutes columns.  If s^i r reduces to zero, it lies in
# L = S + <r, ..., s^(i-1) r>; then sL lies in L, so L holds every later
# s^k r and they add nothing.  This holds over Z and over every F_p.  A row
# that is set aside has not vanished, so it never stops an orbit.


def _echelon(orbits):
    """Unit-pivot row echelon form over Z of the rows of RowOrbits.

    Each row is reduced until it vanishes or leads in a column without a
    pivot.  It becomes that column's pivot when it leads with +-1 (negated
    to lead with 1); otherwise it is set aside.  An orbit stops at its
    first row that vanishes.  Returns the pivots as ``{column: row}`` and
    the rows set aside.
    """
    pivots = {}
    rest = []
    for seed in _sparsest_first(orbits.seeds):
        for row in orbits.shifts(seed):
            lead = _reduce(row, pivots)
            if lead is None:
                break
            a = row[lead]
            if a == 1:
                pivots[lead] = row
            elif a == -1:
                pivots[lead] = {j: -v for j, v in row.items()}
            else:
                rest.append(row)
    return pivots, rest


def smith_normal_form(m, ncols=None):
    """Smith normal form of an integer matrix (a list of dense rows or
    RowOrbits).

    Rows are first reduced to echelon form with pivots only on leading
    entries +-1 (unit pivots, as in Dumas, Saunders & Villard, J. Symbolic
    Comput. 2001); each pivot contributes a 1 to the diagonal.  The rows
    left over are cleared on every pivot column, which splits the matrix
    into an identity block and that leftover block, and the leftover block
    goes to a dense reduction whose pivot is always the nonzero entry of
    least absolute value (ties broken by lowest row, then lowest column).

    >>> smith_normal_form([[2, 4], [6, 8]]).diagonal
    (2, 4)
    >>> smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).diagonal
    (1, 1, 1)
    >>> smith_normal_form([[0] * 5] * 2).diagonal
    ()
    """
    pivots, rest = _echelon(_orbits(m, ncols=ncols))
    for row in rest:
        while hit := [j for j in row if j in pivots]:
            c = min(hit)
            _subtract(row, row[c], pivots[c])
    cols = sorted({j for row in rest for j in row})
    block = [[row.get(j, 0) for j in cols] for row in rest]
    diag = [1] * len(pivots) + _smith(block, len(block), len(cols))
    return SmithForm(tuple(diag))


# Probe primes lie below this, so that trial division up to sqrt(p) stays instant.
PRIME_CEILING = 2**31


@lru_cache(maxsize=64)  # trial division of a prime near 2^31 takes about 10 ms
def _require_prime(p):
    if p >= PRIME_CEILING:
        raise ValueError(f"{p} is not prime below 2^31")
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")


def ranks_mod_primes(m, primes, ncols=None):
    """Rank of an integer matrix (a list of dense rows or RowOrbits) over
    the field with p elements, for each of the given primes, from one
    sparse row echelon form over F_p per prime.  Returns ``{p: rank}`` in
    increasing p.

    Every nonzero leading entry is a unit mod p, so each row that does not
    vanish is scaled to lead with 1 and becomes a pivot.  Orbits are fed
    sparsest first, and each stops at its first row that vanishes.

    >>> ranks_mod_primes([[2, 4], [6, 8]], (5, 3, 2))
    {2: 0, 3: 2, 5: 2}
    """
    primes = sorted(set(primes))
    for p in primes:
        _require_prime(p)
    orbits = _orbits(m, ncols=ncols)
    seeds = _sparsest_first(orbits.seeds)
    ranks = {}
    for p in primes:
        pivots = {}
        for seed in seeds:
            for row in orbits.shifts(seed):
                row = _mod(row, p)
                lead = _reduce(row, pivots, p)
                if lead is None:
                    break
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: v * inv % p for j, v in row.items()}
        ranks[p] = len(pivots)
    return ranks


def prime_factors(n):
    """Sorted distinct prime factors of |n| (empty for n in {-1, 0, 1}).

    >>> prime_factors(12)
    [2, 3]
    >>> prime_factors(1)
    []
    """
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


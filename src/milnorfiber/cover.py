"""Chain complex of the n-fold cyclic cover of a presentation complex.

The covering map sends every generator to 1 in Z/n.  The cover has n
vertices x^i v, n edges x^i g_j per generator (oriented from x^i v to
x^{i+1} v), and n 2-cells per relator (the x^i-shifts of its lift).  The
boundary d2 has one column per edge, in one block of n columns per
generator: g_2, ..., g_G first and g_1 last, the edge x^k g in column k
of its block.  Each relator is stored once, as the sparse ``{column:
value}`` seed of its lift, read off its Fox derivatives; the deck
transformation x moves column k of a block to column k + 1 (mod n), and
the seed's n shifts are the relator's rows of d2.  ``CoverComplex.d2`` is
that matrix as ``snf.RowOrbits``: the seeds and the deck permutation,
never the shifts themselves.  The edge boundary needs no matrix: the
edges x^0 g_1 .. x^{n-2} g_1 form a spanning tree of the 1-skeleton.

The commutator [g_1, g_2] lifts to the triple cover with dr/dg_1 = 1 - x
in columns 3..5 and dr/dg_2 = x - 1 in columns 0..2:

>>> _fox_seed((1, 2, -1, -2), 3, 2)
{3: 1, 1: 1, 4: -1, 0: -1}

A cover with more than CELL_BUDGET cells (n vertices plus n edges per
generator plus n 2-cells per relator) is refused by ``check_cells``.
"""

from collections import namedtuple

from . import snf
from .geometry import InputError
from .snf import AbelianGroup, RowOrbits
from .presentation import exponent_sum, word_text

# Largest cover, in cells, that build_cover_complex assembles.  The
# Milnor cover of a generic arrangement of 50 lines has about 61 000.
CELL_BUDGET = 250_000


def _fox_seed(word, n, G):
    """Every Fox derivative of a word in one pass, pushed into the group
    ring of Z/n (every generator maps to x): ``{column: c}`` for each
    nonzero coefficient c of x^k in the derivative with respect to g, in
    column (g - 2) % G * n + k (the blocks of g_2 .. g_G first, g_1 last).

    Satisfies d(uv) = du + x^{phi(u)} dv, d(g)/dg = 1, d(g^-1)/dg = -x^-1.
    """
    out = {}
    deg = 0
    for letter in word:
        if letter > 0:
            c = (letter - 2) % G * n + deg % n
            out[c] = out.get(c, 0) + 1
            deg += 1
        else:
            deg -= 1
            c = (-letter - 2) % G * n + deg % n
            out[c] = out.get(c, 0) - 1
    return {c: v for c, v in out.items() if v}


class CoverComplex(namedtuple("CoverComplex", "n generator_count seeds")):
    """Boundary data of the n-fold cyclic cover of a presentation complex:
    ``seeds`` holds one ``{column: value}`` lift per relator, its Fox
    derivatives."""

    __slots__ = ()

    @property
    def relator_count(self):
        return len(self.seeds)

    def chain_ok(self):
        """The boundary of every 2-cell's boundary is zero.

        Edge x^i g_j has boundary (x - 1) x^i v, so this holds exactly when
        every relator r satisfies sum_j (dr/dg_j)(x - 1) = 0 in Z[Z/n],
        i.e. when the sum of r's Fox derivatives is fixed by x: its seed's
        coefficients, summed by power of x, give n equal sums.
        """
        n = self.n
        for seed in self.seeds:
            sums = [0] * n
            for c, v in seed.items():
                sums[c % n] += v
            if sums.count(sums[0]) != n:
                return False
        return True

    def euler_characteristic(self):
        return self.n * (1 - self.generator_count + self.relator_count)

    @property
    def tree_edges(self):
        """Edge count of the spanning tree x^0 g_1 .. x^{n-2} g_1."""
        return self.n - 1 if self.generator_count else 0

    @property
    def d2(self):
        """The (n * relators) x (n * generators) boundary matrix, as the
        deck-group orbits of the seeds."""
        n, cols = self.n, self.n * self.generator_count
        perm = tuple(c - c % n + (c + 1) % n for c in range(cols))
        return RowOrbits(self.seeds, perm, n, cols)


def check_cells(n, generator_count, relator_count, modulus):
    """The cell count n * (1 + G + R) of the degree-n cover of G generators
    and R relators, refused over CELL_BUDGET with an InputError that names
    --modulus when ``modulus`` set n."""
    cells = n * (1 + generator_count + relator_count)
    if cells > CELL_BUDGET:
        raise InputError(
            f"the degree-{n} cover would have {cells} cells, over the budget of {CELL_BUDGET}"
            + ("" if modulus is None else "; choose a smaller --modulus")
        )
    return cells


def build_cover_complex(pres, n):
    """Assemble the d2 of the degree-n cover, every generator sent to 1 in
    Z/n, from a presentation: one seed per relator.

    The Milnor fiber of N lines is the degree-N cover; a smaller n gives
    an auxiliary quotient cover.  Every relator must map to 0 mod n.  A
    cover of more than CELL_BUDGET cells is refused with an InputError.

    >>> from . import geometry, presentation
    >>> aff = geometry.shear_to_generic(geometry.parse_arrangement("affine\\n1 0 0\\n0 1 0"))
    >>> c = build_cover_complex(presentation.arvola_randell(aff), 3)
    >>> c.n, c.d2.shape
    (3, (3, 6))
    >>> c.chain_ok()
    True
    """
    if type(n) is not int:  # a bool too
        raise TypeError(f"cover degree must be an int, got {n!r}")
    if n < 1:
        raise ValueError("cover degree must be >= 1")
    G = pres.generator_count
    check_cells(n, G, len(pres.relators), None)
    for r in pres.relators:
        if exponent_sum(r.word) % n:
            raise ValueError(
                f"relator {word_text(r.word)!r} has exponent sum {exponent_sum(r.word)}, "
                f"not divisible by modulus {n}; no such cover exists"
            )
    seeds = tuple(_fox_seed(r.word, n, G) for r in pres.relators)
    return CoverComplex(n, G, seeds)


class ChainConditionError(Exception):
    """A d2 that is not the boundary of the cover's 2-cells: its rank
    exceeds the columns left past the spanning tree, so it cannot present
    H1.  A failed consistency check, which the command line reports with
    exit status 1."""


class CoverHomology(namedtuple("CoverHomology", "group b0 b2 betti_mod")):
    """H1 of the cover (an AbelianGroup) plus the Betti numbers used for
    cross-checks; ``betti_mod`` maps each prime p, increasing, to dim H1 over F_p."""

    __slots__ = ()

    @property
    def b1(self):
        return self.group.free_rank


def h1_of_cover(complex_, primes=()):
    """H1 by one integer Smith reduction, plus Betti numbers over Q and
    over each requested prime field, all read off its diagonal.

    The edges x^0 g_1 .. x^{n-2} g_1 form a spanning tree, so the image of
    the edge boundary is free of rank n - 1 and coker d2 = H1 + Z^(n-1),
    over Z and over every prime field (Fox, Free differential calculus I).
    Over F_p the rank of d2 is the number of diagonal entries prime to p,
    so H1 over F_p has dimension b1 plus the number of invariant factors
    that p divides.  A d2 of rank above the columns past the tree breaks
    the chain condition and raises ChainConditionError.
    """
    primes = sorted(set(primes))
    for p in primes:
        snf._require_prime(p)
    n = complex_.n
    d2 = complex_.d2
    tree = complex_.tree_edges
    cols = d2.ncols - tree
    form = snf.smith_normal_form(d2)
    if form.rank > cols:
        raise ChainConditionError(
            f"chain_condition fails: d2 has rank {form.rank}, above the {cols} columns "
            "past the spanning tree"
        )
    b1 = cols - form.rank
    torsion = tuple(d for d in form.diagonal if d != 1)
    return CoverHomology(
        group=AbelianGroup(b1, torsion),
        b0=n - tree,
        b2=n * complex_.relator_count - form.rank,
        betti_mod={p: b1 + sum(t % p == 0 for t in torsion) for p in primes},
    )


def modular_betti(complex_, primes):
    """dim H1 over F_p for each prime by a second elimination of d2, one
    over F_p per probe prime (``snf.ranks_mod_primes``): an oracle
    independent of the Smith form, for the Betti numbers h1_of_cover reads
    off it."""
    d2 = complex_.d2
    cols = d2.ncols - complex_.tree_edges
    return {p: cols - rank for p, rank in snf.ranks_mod_primes(d2, primes).items()}

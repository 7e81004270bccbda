import random
import time
import unittest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from milnorfiber import cover, geometry, pipeline, presets, snf, validation
from milnorfiber.snf import (
    AbelianGroup,
    RowOrbits,
    SmithForm,
    prime_factors,
    ranks_mod_primes,
    smith_normal_form,
)
from test_cover import contracted_d2


def rank_mod_p(m, p, ncols=None):
    """The rank over the field with p elements: a one-prime call."""
    return ranks_mod_primes(m, (p,), ncols=ncols)[p]


def test_known_forms():
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == (2, 4)
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == ()
    # classic: presentation matrix of Z/2 + Z/6
    assert smith_normal_form([[2, 0], [0, 6]]).diagonal == (2, 6)
    assert smith_normal_form([[6, 0], [0, 2]]).diagonal == (2, 6)
    # a matrix whose entries have gcd 1 but no unit entry
    assert smith_normal_form([[2, 3], [3, 2]]).diagonal == (1, 5)
    # diagonal but not a divisibility chain: diag(a, b) ~ diag(gcd, lcm)
    assert smith_normal_form([[4, 0], [0, 6]]).diagonal == (2, 12)
    assert smith_normal_form([[-4, 0], [0, 6]]).diagonal == (2, 12)
    assert smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).diagonal == (1, 1, 30)
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]).diagonal == (1, 30, 30)


def test_non_square():
    assert smith_normal_form([[3, 0, 0], [0, 5, 0]]).diagonal == (1, 15)
    assert smith_normal_form([[0] * 5] * 2).diagonal == ()
    assert smith_normal_form([[4], [6]]).diagonal == (2,)


def test_smithform_validates_chain():
    with pytest.raises(ValueError):
        SmithForm((4, 2))
    with pytest.raises(ValueError):
        SmithForm((0,))


def test_abelian_group_str():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(3)) == "Z^3"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(0, (2, 4))) == "Z/2 + Z/4"
    assert str(AbelianGroup(2, (3,))) == "Z^2 + Z/3"
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))  # 3 does not divide 4
    with pytest.raises(ValueError):
        AbelianGroup(-1)


def test_rank_mod_p():
    assert rank_mod_p([[2, 4], [6, 8]], 2) == 0
    assert rank_mod_p([[2, 4], [6, 8]], 3) == 2
    assert rank_mod_p([[2, 4], [6, 8]], 5) == 2
    assert rank_mod_p([[0] * 3] * 3, 7) == 0
    with pytest.raises(ValueError):
        rank_mod_p([[1]], 6)
    assert rank_mod_p([[1, 1]], 2**31 - 1) == 1


@pytest.mark.parametrize("p", [4, 1, 0, -3, 2**31 + 1])
def test_rank_mod_p_refuses_non_prime(p):
    with pytest.raises(ValueError, match=f"{p} is not prime"):
        rank_mod_p([[1]], p)


def test_library_calls_refuse_a_probe_above_the_ceiling_at_once():
    # 2^61 - 1 is prime: trial division up to its square root would take minutes
    huge, top = 2**61 - 1, snf.PRIME_CEILING - 1
    complex_ = pipeline.analyze_text(presets.triangle_text()).complex
    for call in (lambda p: ranks_mod_primes([[1, 1]], (2, p)),
                 lambda p: cover.h1_of_cover(complex_, primes=(p,))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{huge} is not prime below 2\\^31"):
            call(huge)
        assert time.perf_counter() - start < 1.0
        call(top)
    assert top == 2**31 - 1


def test_matrix_input_errors():
    # a list of dense rows must be rectangular, and an empty one needs ncols
    engines = (
        smith_normal_form,
        lambda rows, ncols=None: ranks_mod_primes(rows, (2, 3), ncols=ncols),
        lambda rows, ncols=None: rank_mod_p(rows, 5, ncols=ncols),
    )
    for engine in engines:
        with pytest.raises(ValueError, match="ragged"):
            engine([[1, 2], [3]])
        with pytest.raises(ValueError, match="ragged"):
            engine([[1, 2]], ncols=3)
        with pytest.raises(ValueError, match="explicit column count"):
            engine([])
    assert smith_normal_form([], ncols=3).diagonal == ()
    assert ranks_mod_primes([], (2, 3), ncols=3) == {2: 0, 3: 0}
    assert rank_mod_p([], 5, ncols=3) == 0


def test_prime_factors():
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(1) == []
    assert prime_factors(-18) == [2, 3]


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _gcd_of_k_minors(rows, ncols, k):
    from itertools import combinations
    from math import gcd

    g = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(ncols), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, _det(sub))
    return g


class RandomSNFOracle(unittest.TestCase):
    """Check random reductions against the determinantal-divisor oracle:
    the product d_1 * ... * d_k of the invariant factors equals the gcd of
    all k x k minors of the input matrix.
    """

    def setUp(self):
        self.rng = random.Random(99)

    def test_oracle_agreement(self):
        for _ in range(150):
            m = self.rng.randint(1, 4)
            n = self.rng.randint(1, 4)
            rows = [[self.rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            diag = smith_normal_form(rows).diagonal
            prod = 1
            for k, d in enumerate(diag, start=1):
                prod *= d
                self.assertEqual(prod, _gcd_of_k_minors(rows, n, k), rows)
            # one past the rank every minor must vanish
            if len(diag) < min(m, n):
                self.assertEqual(_gcd_of_k_minors(rows, n, len(diag) + 1), 0, rows)

    def test_determinism(self):
        rows = [[self.rng.randint(-20, 20) for _ in range(5)] for _ in range(4)]
        first = smith_normal_form(rows)
        for _ in range(3):
            self.assertEqual(smith_normal_form(rows), first)


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_divisibility_chain_property(rows):
    diag = smith_normal_form(rows).diagonal
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_rank_consistency_property(rows):
    # rank over F_p is the rational rank minus the number of invariant
    # factors that p divides; in particular it never exceeds the rational
    # rank and agrees with it for any p dividing no invariant factor
    diag = smith_normal_form(rows).diagonal
    ncols = len(rows[0])
    for p in (2, 3, 5):
        drop = sum(1 for d in diag if d % p == 0)
        assert rank_mod_p(rows, p, ncols=ncols) == len(diag) - drop
    big = 2**31 - 1
    assert rank_mod_p(rows, big, ncols=ncols) == len(diag)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_unimodular_moves_preserve_form(rows):
    base = smith_normal_form(rows).diagonal
    assert smith_normal_form(rows[::-1]).diagonal == base
    negated = [[-v for v in rows[0]]] + rows[1:]
    assert smith_normal_form(negated).diagonal == base
    transposed = [list(col) for col in zip(*rows)]
    assert smith_normal_form(transposed).diagonal == base



# --- the sparse engine against dense references --------------------------------
#
# The two references below are the dense engines the package used before
# its sparse echelon: the least-absolute-value Smith reduction run on the
# whole matrix, with its pivot restarts and its repair of the divisibility
# chain, and Gauss-Jordan elimination mod p.  They are kept here only as
# oracles, frozen: the package's own _smith is the code under test.

ORACLE_PRIMES = (2, 3, 5, 7, 2**31 - 1)


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


def _clear_at(A, t, m, n):
    """Clear row t and column t outside the pivot at (t, t)."""
    while True:
        piv = A[t][t]
        restart = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // piv
                if q:
                    At = A[t]
                    A[i] = [a - q * b for a, b in zip(A[i], At)]
                if A[i][t]:  # positive remainder < piv: smaller pivot found
                    A[t], A[i] = A[i], A[t]
                    restart = True
                    break
        if restart:
            continue
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // piv
                if q:
                    for row in A:
                        row[j] -= q * row[t]
                if A[t][j]:
                    for row in A:
                        row[t], row[j] = row[j], row[t]
                    restart = True
                    break
        if restart:
            continue
        return


def _smith(A, m, n):
    """In-place Smith reduction; returns the list of diagonal entries."""
    t = 0
    while True:
        found = _min_abs_pivot(A, t, m, n)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
        _clear_at(A, t, m, n)
        t += 1
    rank = t
    # Divisibility fix-up: repair the chain, re-clearing locally each time.
    while True:
        ok = True
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a:
                ok = False
                # fold column i+1 into column i, then re-reduce the block
                for row in A:
                    row[i] += row[i + 1]
                if A[i][i] < 0:
                    A[i] = [-v for v in A[i]]
                _clear_at(A, i, m, n)
        if ok:
            break
    for i in range(rank):
        if A[i][i] < 0:
            A[i] = [-v for v in A[i]]
    return [A[i][i] for i in range(rank)]


DENSE_SMITH = _smith


def dense_smith_diagonal(rows, ncols):
    return tuple(DENSE_SMITH([list(row) for row in rows], len(rows), ncols))


def dense_rank_mod_p(rows, ncols, p):
    A = [[v % p for v in row] for row in rows]
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][j]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][j], -1, p)
        A[rank] = [v * inv % p for v in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][j]:
                f = A[i][j]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


# the primes a multi-prime call draws its random subsets from
MULTI_PRIMES = (2, 3, 5, 7, 11, 13, 2**31 - 1)


@st.composite
def shift_closed_orbits(draw):
    """Seeds in G column blocks of n, closed under the cyclic shift of
    each block, with entries in [-6, 6]."""
    n, G = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    cols = n * G
    seed = st.dictionaries(st.integers(0, cols - 1), st.integers(-6, 6).filter(bool), max_size=cols)
    seeds = draw(st.lists(seed, min_size=1, max_size=G + 2))
    perm = tuple(j - j % n + (j + 1) % n for j in range(cols))
    return RowOrbits(tuple(seeds), perm, n, cols)


@given(shift_closed_orbits(), st.sets(st.sampled_from(MULTI_PRIMES), min_size=1))
@settings(max_examples=100, deadline=None)
def test_smith_read_rank_mod_p_matches_modular_elimination(orbits, primes):
    """The rank over F_p read off the Smith diagonal, as h1_of_cover reads
    it (the entries prime to p), equals the separate elimination over F_p,
    on orbit matrices whose unit-pivot echelon sets rows aside, so that the
    Smith form reduces a nonempty leftover block and often finds torsion.
    test_rank_consistency_property checks the same on dense matrices."""
    assume(snf._echelon(orbits)[1])
    diag = smith_normal_form(orbits).diagonal
    read = {p: sum(d % p != 0 for d in diag) for p in sorted(primes)}
    assert read == ranks_mod_primes(orbits, primes)


def assert_engines_agree(m, label="", primes=MULTI_PRIMES, ncols=None):
    """Smith diagonal, rank mod each of ORACLE_PRIMES, and the ranks of one
    multi-prime call over ``primes``, of RowOrbits or a list of dense rows
    with ``ncols`` columns: sparse engines against the dense references."""
    if isinstance(m, RowOrbits):
        rows, ncols = m.rows, m.ncols
    else:
        rows = m
    assert smith_normal_form(m, ncols=ncols).diagonal == dense_smith_diagonal(rows, ncols), label
    dense = {p: dense_rank_mod_p(rows, ncols, p) for p in sorted({*ORACLE_PRIMES, *primes})}
    for p in ORACLE_PRIMES:
        assert rank_mod_p(m, p, ncols=ncols) == dense[p], (label, p)
    assert ranks_mod_primes(m, primes, ncols=ncols) == {p: dense[p] for p in sorted(primes)}, (
        label, primes)


def test_ranks_mod_primes():
    assert ranks_mod_primes([[2, 4], [6, 8]], (5, 3, 2, 3)) == {2: 0, 3: 2, 5: 2}
    assert ranks_mod_primes([[6, 0], [0, 35]], MULTI_PRIMES) == {
        2: 1, 3: 1, 5: 1, 7: 1, 11: 2, 13: 2, 2**31 - 1: 2}
    assert ranks_mod_primes([[1]], ()) == {}
    with pytest.raises(ValueError, match="6 is not prime"):
        ranks_mod_primes([[1]], (2, 6))


def test_rank_mod_p_does_its_own_elimination(monkeypatch):
    # reading rank_p off the Smith diagonal or the Smith form's unit-pivot
    # echelon would make the report's torsion_consistency verdict an identity
    def refuse(*args, **kwargs):
        raise AssertionError("the mod-p ranks must not use the Smith reduction")

    monkeypatch.setattr(snf, "smith_normal_form", refuse)
    monkeypatch.setattr(snf, "_smith", refuse)
    monkeypatch.setattr(snf, "_echelon", refuse)
    assert rank_mod_p([[2, 4], [6, 8]], 3) == 2
    assert rank_mod_p([[2, 4], [6, 8]], 2) == 0
    assert ranks_mod_primes([[2, 4], [6, 8]], (2, 3, 5)) == {2: 0, 3: 2, 5: 2}
    assert ranks_mod_primes([[6, 10], [15, 6]], MULTI_PRIMES)[2] == 1


def test_dense_smith_matches_frozen_reference():
    """3000 seeded dense blocks up to 9 x 9 with no unit entry, like the
    leftover blocks the unit-pivot echelon hands on: the package's one-loop
    reduction against the frozen reference, diagonal for diagonal."""
    rng = random.Random(1972)
    values = (0, 0, 0, 2, -2, 3, -3, 4, 6, -6, 9, 10, 15, -15)
    for _ in range(3000):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        expected = DENSE_SMITH([list(row) for row in rows], m, n)
        assert snf._smith([list(row) for row in rows], m, n) == expected, rows


def test_sparse_engine_matches_dense_on_random_matrices(monkeypatch):
    """2000 seeded matrices up to 10 x 10 with entries drawn from
    {0, 0, 0, +-1, +-2, 3, 6}; most leave a block without unit pivots, so
    the dense leftover reduction and the clearing before it are exercised,
    and each leftover block is also held against the frozen reference."""
    leftover_blocks = []
    smith = snf._smith

    def recording_smith(A, m, n):
        if m:
            leftover_blocks.append((m, n))
        expected = DENSE_SMITH([list(row) for row in A], m, n)
        diagonal = smith(A, m, n)
        assert diagonal == expected, A
        return diagonal

    monkeypatch.setattr(snf, "_smith", recording_smith)
    rng = random.Random(20011)
    values = (0, 0, 0, 1, -1, 2, -2, 3, 6)
    reached = 0
    for _ in range(2000):
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        primes = rng.sample(MULTI_PRIMES, rng.randint(1, len(MULTI_PRIMES)))
        before = len(leftover_blocks)
        assert_engines_agree(rows, rows, primes, ncols=n)
        reached += len(leftover_blocks) > before
    assert reached > 1000


def test_multi_prime_shared_factor_entries_match_dense():
    """1000 seeded matrices whose entries are units or products of some,
    never all, of the probe primes, so that a leading entry often vanishes
    mod some probe primes and not others."""
    rng = random.Random(19571)
    factors = (2, 3, 5, 7, 6, 10, 14, 15, 21, 35, 22, 26, 33, 39, 30, 42, 70, 105)
    values = (0, 0, 0, 1, -1) + factors + tuple(-f for f in factors)
    for _ in range(1000):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        primes = rng.sample(MULTI_PRIMES, rng.randint(2, len(MULTI_PRIMES)))
        expected = {p: dense_rank_mod_p(rows, n, p) for p in sorted(primes)}
        assert ranks_mod_primes(rows, primes, ncols=n) == expected, (rows, primes)


def test_orbit_engines_match_dense_on_random_shift_closed_matrices(monkeypatch):
    """2000 seeded matrices closed under a cyclic shift of order n <= 6 in
    each of G <= 4 column blocks, given as R <= G + 2 seeds, with entries
    drawn from {0, +-1, +-2, 3, 5, 6}: the orbit-by-orbit eliminations
    against the dense references on every materialized row.  A seed is
    periodic in each block with a random period dividing n, so that its
    orbit often has fewer than n independent rows.  Most cases have
    torsion, so rows are set aside, and only a row that reduces to zero
    may stop its orbit."""
    drawn = [0]  # rows the shifts generator has handed out
    shifts = RowOrbits.shifts

    def counting_shifts(self, seed):
        for row in shifts(self, seed):
            drawn[0] += 1
            yield row

    monkeypatch.setattr(RowOrbits, "shifts", counting_shifts)
    rng = random.Random(1953)
    values = (0, 0, 1, -1, 2, -2, 3, 5, 6)
    torsion = 0
    stopped = {"smith": 0, "modular": 0}
    for _ in range(2000):
        n, G = rng.randint(1, 6), rng.randint(1, 4)
        R = rng.randint(1, G + 2)
        cols = n * G
        seeds = []
        for _ in range(R):
            period = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            head = [rng.choice(values) for _ in range(G * period)]
            seed = {b * n + k: head[b * period + k % period] for b in range(G) for k in range(n)}
            seeds.append({j: v for j, v in seed.items() if v})
        perm = tuple(j - j % n + (j + 1) % n for j in range(cols))
        orbits = RowOrbits(tuple(seeds), perm, n, cols)
        rows = orbits.rows
        primes = rng.sample(MULTI_PRIMES, rng.randint(1, len(MULTI_PRIMES)))
        drawn[0] = 0
        diagonal = smith_normal_form(orbits).diagonal
        assert diagonal == dense_smith_diagonal(rows, cols), (seeds, n)
        stopped["smith"] += drawn[0] < len(rows)
        expected = {p: dense_rank_mod_p(rows, cols, p) for p in sorted(primes)}
        drawn[0] = 0
        assert ranks_mod_primes(orbits, primes) == expected, (seeds, n, primes)
        stopped["modular"] += drawn[0] < len(rows) * len(primes)  # one pass per prime
        torsion += any(d > 1 for d in diagonal)
    assert torsion > 1000
    assert stopped["smith"] > 500 and stopped["modular"] > 1000


def test_sparse_engine_matches_dense_on_cover_matrices():
    """The tree-contracted d2 of every corpus cover with N <= 7 lines, of
    nearpencil:20 and of generic:16:1."""
    texts = [
        (name, text)
        for name, text in validation.Corpus().entries
        if geometry.parse_arrangement(text).n_lines <= 7
    ]
    assert len(texts) == 115
    texts += [(name, presets.preset_text(name)) for name in ("nearpencil:20", "generic:16:1")]
    for name, text in texts:
        assert_engines_agree(contracted_d2(pipeline.analyze_text(text).complex), name)


B3 = "projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n1 -1 0\n1 0 1\n1 0 -1\n0 1 1\n0 1 -1\n"


def test_row_order_does_not_move_smith_form_or_ranks():
    """Both eliminations sort their rows by nonzero count, stably, so a row
    permutation reorders rows of equal count: the Smith diagonal and every
    mod-p rank of the contracted d2 must not move."""
    texts = [
        text for _, text in validation.Corpus().entries
        if geometry.parse_arrangement(text).n_lines <= 7
    ] + [B3]
    rng = random.Random(1110)
    for text in texts:
        analysis = pipeline.analyze_text(text)
        m = contracted_d2(analysis.complex)
        primes = analysis.primes + (13, 2**31 - 1)
        diagonal, ranks = smith_normal_form(m).diagonal, ranks_mod_primes(m, primes)
        for _ in range(3):
            order = rng.sample(m.seeds, len(m.seeds))
            permuted = RowOrbits(tuple(dict(row) for row in order), (), 1, m.ncols)
            assert smith_normal_form(permuted).diagonal == diagonal, text
            assert ranks_mod_primes(permuted, primes) == ranks, text

"""Presentations of the fundamental group of an affine line-arrangement
complement, computed by a right-to-left sweep over the real picture, and
the projective variant with one extra generator and a product relator.

Generators are numbered 1..G and correspond to the arrangement's lines in
input order; each generator is the meridian loop picked up on the line's
rightmost unbroken ray.  Words are tuples of nonzero signed integers,
-k the inverse of generator k; a relator's word is freely reduced.
"""

from collections import namedtuple
from functools import lru_cache
from operator import neg

from . import geometry
from .geometry import _Checked


def free_reduce(letters):
    """The freely reduced tuple of a letter sequence, reduced in one pass.

    >>> free_reduce((1, 2, -2, 3))
    (1, 3)
    >>> free_reduce((1, 2, -2, -1))
    ()
    """
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def exponent_sum(letters):
    """The sum of a word's exponents: +1 for each letter k > 0, -1 for
    each letter -k."""
    return sum([1 if l > 0 else -1 for l in letters])


def word_text(letters):
    """Stable text form, e.g. 'g1 g2 g1^-1 g2^-1' ('1' for the identity)."""
    if not letters:
        return "1"
    return " ".join(map(_letter_text, letters))


@lru_cache(maxsize=None)
def _letter_text(l):
    return f"g{l}" if l > 0 else f"g{-l}^-1"


def _inverse(letters):
    return tuple(map(neg, reversed(letters)))


def _commutator(u, l):
    """U L U^-1 L^-1 from one free reduction (free reduction is unique)."""
    return free_reduce(u + l + _inverse(u) + _inverse(l))


class Relator(namedtuple("Relator", "word vertex index", defaults=("", 0))):
    """A relator, a freely reduced letter tuple ``word``, with its
    provenance: the vertex that produced it and its index k among that
    vertex's relators.  An immutable tuple of its fields."""

    __slots__ = ()


class Presentation(_Checked, namedtuple("Presentation", "generator_count relators")):
    """A finite presentation: ``generator_count`` generators and a tuple
    of relators whose letters all name one of them.  An immutable tuple of
    its fields."""

    __slots__ = ()

    def __new__(cls, generator_count, relators):
        relators = tuple(relators)
        bad = [l for r in relators for l in r.word if not 1 <= abs(l) <= generator_count]
        if bad:
            raise ValueError(f"letter {bad[0]} outside generator range")
        return tuple.__new__(cls, (generator_count, relators))

    def text(self):
        out = [f"gens: {self.generator_count}"]
        out.extend(word_text(r.word) for r in self.relators)
        return "\n".join(out) + "\n"

    def total_relator_length(self):
        return sum(len(r.word) for r in self.relators)


def arvola_randell(aff):
    """Sweep presentation of the affine complement's fundamental group.

    The sweep moves right to left through the intersection points (strictly
    decreasing geometry.sweep_keys; the arrangement must be in sweep
    position, see geometry.shear_to_generic).  At a vertex of multiplicity
    m whose incident lines currently carry meridian words W_1 <= ... <= W_m
    in ascending geometry.slope_keys order, it emits the m-1 relators

        [W_m ... W_{m-k+1},  W_{m-k} ... W_1]      for k = 1 .. m-1,

    then lets the outermost lines (positions 1 and m) continue unchanged
    while each middle line i picks up a conjugation by W_{i-1} ... W_1.
    Words are letter tuples; each relator and conjugate is reduced once.
    Every relator is a commutator, so its exponent sum is 0; the sweep
    checks that of each one it emits.

    A double point (m = 2), almost every vertex of a generic picture, has
    no middle line: it emits [W_2, W_1] and changes no word.  Every word
    is freely reduced and nonempty, so W_2 W_1 W_2^-1 W_1^-1 can cancel
    only where two of its four pieces meet; it is reduced only when one of
    those three junctions cancels.

    >>> aff = geometry.shear_to_generic(geometry.parse_arrangement("affine\\n1 0 0\\n0 1 0"))
    >>> [r.word for r in arvola_randell(aff).relators]
    [(2, 1, -2, -1)]
    """
    if aff.shear is None:
        raise ValueError("arrangement is not in sweep position; apply shear_to_generic first")
    points = aff.incidence.points
    x = geometry.sweep_keys([pt.point for pt in points])
    if len(set(x)) != len(x):
        raise ValueError("two vertices share an x coordinate; shear first")
    sweep = sorted(range(len(points)), key=x.__getitem__, reverse=True)
    # lines through one vertex have distinct slopes, so their keys order them
    slope = geometry.slope_keys(aff.lines)
    words = [(i + 1,) for i in range(aff.n_lines)]
    relators = []
    for pt in map(points.__getitem__, sweep):
        if len(pt.incident) == 2:
            lo, hi = pt.incident
            if slope[hi] < slope[lo]:
                lo, hi = hi, lo
            u, l = words[hi], words[lo]
            word = u + l + _inverse(l + u)
            if u[-1] == -l[0] or u[0] == -l[-1] or u[-1] == l[-1]:
                word = free_reduce(word)
            relators.append(Relator(word, pt.label(), 1))
            continue
        order = sorted(pt.incident, key=slope.__getitem__)
        W = [words[i] for i in order]
        m = len(W)
        lower = [()]  # lower[j] = W_j ... W_1, unreduced
        for w in W[:-1]:
            lower.append(w + lower[-1])
        vertex = pt.label()
        upper = ()
        for k in range(1, m):
            upper += W[m - k]
            relators.append(Relator(_commutator(upper, lower[m - k]), vertex, k))
        for pos in range(1, m - 1):
            c = lower[pos]
            words[order[pos]] = free_reduce(_inverse(c) + W[pos] + c)
    if any(map(exponent_sum, (r.word for r in relators))):
        raise AssertionError("sweep relator with nonzero exponent sum")
    return Presentation(aff.n_lines, tuple(relators))


def _auxiliary_line(arr, inc):
    """A deterministic rational line through no arrangement line or
    intersection point: the first member of the family x + s*y + s^2*z
    (s = 0, 1, 2, ...) that misses everything."""
    s = 0
    while True:
        cand = geometry.ProjLine((1, s, s * s))
        if cand not in arr.lines and not any(cand.contains(pt.point) for pt in inc.points):
            return cand
        s += 1


def projective_presentation(arr):
    """Presentation of the projective complement's fundamental group with
    one generator per line and a single product relator.

    The arrangement is deconed along an auxiliary line that avoids every
    arrangement line and intersection point, so all original lines stay
    affine and every intersection point stays visible to the sweep.  The
    sweep relators are then completed by the product relator

        g_{s(N)} g_{s(N-1)} ... g_{s(1)},

    the meridians multiplied top-to-bottom as they appear far to the right
    of the swept picture (descending slope).

    >>> arr = geometry.parse_arrangement("projective\\n1 0 0\\n0 1 0\\n0 0 1")
    >>> pres = projective_presentation(arr)
    >>> pres.generator_count, len(pres.relators)
    (3, 4)
    """
    if not isinstance(arr, geometry.Arrangement):
        raise TypeError("projective_presentation expects a projective arrangement")
    inc = arr.incidence
    aux = _auxiliary_line(arr, inc)
    extended = geometry.Arrangement(arr.lines + (aux,))
    aff = geometry.decone(extended, extended.n_lines - 1)
    aff = geometry.shear_to_generic(aff)
    sweep = arvola_randell(aff)
    # all original projective intersection points remain visible, so the
    # sweep saw all of them
    if len(sweep.relators) != sum(pt.multiplicity - 1 for pt in inc.points):
        raise AssertionError("the sweep missed an intersection point")
    # descending slope; parallel lines keep input order
    slope = geometry.slope_keys(aff.lines)
    delta = tuple(i + 1 for i in sorted(range(aff.n_lines), key=slope.__getitem__, reverse=True))
    relators = sweep.relators + (Relator(delta, vertex="infinity", index=0),)
    return Presentation(arr.n_lines, relators)


def free_reduce_and_strip(pres):
    """Strip conjugating wrappers w r w^-1 and drop empty relators.  A
    relator's word is freely reduced, and so is every slice of it: a
    stripped word needs no second reduction.

    Sound for everything downstream: the cover boundary of w r w^-1 is a
    cyclic shift of the boundary of r, and the cover complex includes all
    shifts of every relator anyway.

    >>> p = Presentation(3, (Relator((1, 2, 3, -2, -3, -1)),))
    >>> [r.word for r in free_reduce_and_strip(p).relators]
    [(2, 3, -2, -3)]
    """
    kept = []
    for r in pres.relators:
        word = r.word
        n, k = len(word), 0  # k = the wrapper's length, found in one scan
        while n - 2 * k >= 2 and word[k] == -word[n - 1 - k]:
            k += 1
        if n == 2 * k:
            continue
        if k:
            r = r._replace(word=word[k:n - k])
        kept.append(r)
    return Presentation(pres.generator_count, tuple(kept))

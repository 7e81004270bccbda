"""Exact rational line arrangements: projective lines in CP^2, affine
decones, intersection lattices, and the coordinate normalizations needed
by the sweep.

Lines are stored as primitive integer coefficient triples whose first
nonzero entry is positive, so equality of lines is equality of triples.
All intersection decisions are exact (no floating point anywhere).

The records are immutable namedtuples that store only what was computed;
a value their fields already give is a read-only property.  Those that
check their fields do it in ``__new__`` and derive from ``_Checked``,
whose ``_make``, and so ``_replace``, calls it.  The arrangements keep an
instance ``__dict__`` for their cached ``incidence``.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd, lcm


class InputError(ValueError):
    """Malformed or inconsistent user input (file text, indices, presets)."""


# Most lines accepted in an arrangement or incidence file.  On a random
# projective file with coefficients in [-99, 99], `bounds` took 0.6 s and
# `presentation --json` 3.8 s at 300 lines; at 1000 lines `bounds` took
# 6.6 s and `presentation --json` ran past 120 s.  Python 3.11 on 2 shared
# vCPUs.
LINE_BUDGET = 300


class _Checked:
    """Base of the records that check their fields in ``__new__``:
    namedtuple's ``_make``, which ``_replace`` calls, would skip it."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def canonical_triple(coeffs):
    """Scale a rational triple to primitive integers, first nonzero > 0.

    Entries may be ``int`` or ``Fraction``: both carry ``numerator`` and
    ``denominator``, so integer input never builds a ``Fraction``.

    >>> canonical_triple((Fraction(1, 2), Fraction(-3, 2), 0))
    (1, -3, 0)
    >>> canonical_triple((-2, 4, -6))
    (1, -2, 3)
    """
    a, b, c = coeffs
    mult = lcm(a.denominator, b.denominator, c.denominator)
    return primitive_triple(*(v.numerator * (mult // v.denominator) for v in (a, b, c)))


def primitive_triple(a, b, c):
    """Divide an integer triple by its gcd, first nonzero entry > 0."""
    g = gcd(a, b, c)
    if not g:
        raise InputError("zero coefficient triple does not define a line")
    if (a or b or c) < 0:
        g = -g
    return a // g, b // g, c // g


def _sweep_keys(points, t, q):
    """floor((x - t*y) * q^2 / z), lazily, over points (x : y : z) with
    z != 0, q at least every |z|: distinct rationals with denominators
    <= q differ by at least 1/q^2, so the keys order the values
    (x - t*y) / z exactly, and equal values tie (a stable sort keeps them
    in input order)."""
    q2 = q * q
    return ((x - t * y) * q2 // z for x, y, z in points)


def sweep_keys(points):
    """Integer keys ordered as x over the affine points (x : y : z)."""
    for point in points:
        if not point[2]:
            raise ValueError(f"point {point} lies at infinity")
    return list(_sweep_keys(points, 0, max((abs(z) for _, _, z in points), default=1)))


def slope_keys(lines):
    """Integer keys ordered as the slopes -a/b of non-vertical affine
    lines: the x values of the points (-a : 0 : b)."""
    for line in lines:
        if not line.coeffs[1]:
            raise ValueError(f"vertical line {line} has no slope")
    return sweep_keys([(-a, 0, b) for a, b, _ in (line.coeffs for line in lines)])


class _Line(_Checked):
    """What ProjLine and AffineLine share: a line equals only a line of
    its own kind (as bare tuples the two would compare equal)."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __str__(self):
        a, b, c = self.coeffs
        return f"[{a} {b} {c}]"


class ProjLine(_Line, namedtuple("ProjLine", "coeffs")):
    """The projective line a*x + b*y + c*z = 0, canonically scaled."""

    __slots__ = ()

    def __new__(cls, coeffs):
        return tuple.__new__(cls, (canonical_triple(coeffs),))

    def contains(self, point):
        a, b, c = self.coeffs
        x, y, z = point
        return a * x + b * y + c * z == 0


class AffineLine(_Line, namedtuple("AffineLine", "coeffs")):
    """The affine line a*x + b*y + c = 0 with (a, b) != (0, 0)."""

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = canonical_triple(coeffs)
        a, b, _ = coeffs
        if a == 0 and b == 0:
            raise InputError("affine line needs a nonzero linear part")
        return tuple.__new__(cls, (coeffs,))


class Arrangement(_Checked, namedtuple("Arrangement", "lines")):
    """An ordered arrangement of at least two distinct projective lines."""

    def __new__(cls, lines):
        lines = tuple(lines)
        if len(lines) < 2:
            raise InputError("an arrangement needs at least 2 lines")
        if len(set(lines)) != len(lines):
            raise InputError("duplicate line in arrangement")
        return tuple.__new__(cls, (lines,))

    @property
    def n_lines(self):
        return len(self.lines)

    @cached_property
    def incidence(self):
        """Intersection points, computed once per arrangement object."""
        return intersection_points(self)


class AffineArrangement(_Checked, namedtuple("AffineArrangement", "lines shear")):
    """An ordered affine arrangement.  ``shear`` is the t of the shear that
    put it in sweep position (``shear_to_generic``); the sweep refuses an
    arrangement whose ``shear`` is None.
    """

    def __new__(cls, lines, shear=None):
        lines = tuple(lines)
        if not lines:
            raise InputError("an affine arrangement needs at least 1 line")
        if len(set(lines)) != len(lines):
            raise InputError("duplicate line in arrangement")
        return tuple.__new__(cls, (lines, shear))

    @property
    def n_lines(self):
        return len(self.lines)

    @cached_property
    def incidence(self):
        """Finite intersection points, computed once per arrangement object."""
        return intersection_points(self)


class IncidencePoint(_Checked, namedtuple("IncidencePoint", "point incident")):
    """An intersection point together with the lines through it.

    The point is a primitive integer projective triple (x : y : z) and
    ``incident`` the ascending line indices, as ``intersection_points``
    (the only constructor) computes them; affine points have z != 0.
    An immutable tuple of its two fields.
    """

    __slots__ = ()

    def __new__(cls, point, incident):
        if len(incident) < 2:
            raise ValueError("an intersection point needs at least 2 lines")
        return tuple.__new__(cls, (point, incident))

    @property
    def multiplicity(self):
        return len(self.incident)

    def label(self):
        x, y, z = self.point
        return f"({x}:{y}:{z})"


class IncidenceData(namedtuple("IncidenceData", "points n_lines")):
    """All intersection points of an arrangement."""

    __slots__ = ()

    def multiplicity_census(self):
        census = {}
        for pt in self.points:
            census[pt.multiplicity] = census.get(pt.multiplicity, 0) + 1
        return census


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def intersection_points(arr):
    """Complete incidence data of an arrangement.

    For affine arrangements parallel pairs meet at infinity and are not
    reported as points.
    """
    lines = [l.coeffs for l in arr.lines]
    affine = isinstance(arr, AffineArrangement)
    by_point = {}
    for i, (a1, b1, c1) in enumerate(lines):
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            z = a1 * b2 - b1 * a2
            if affine and not z:
                continue  # parallel affine pair
            key = primitive_triple(b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, z)
            inc = by_point.get(key)
            if inc is None:
                by_point[key] = [i, j]
            elif inc[0] == i:  # pairs come in order: the lowest line meets the rest first
                inc.append(j)
    points = []
    for key in sorted(by_point):
        x, y, z = key
        inc = by_point[key]
        for i in inc:
            a, b, c = lines[i]
            if a * x + b * y + c * z:
                raise AssertionError("incidence check failed")
        points.append(IncidencePoint(key, tuple(inc)))
    return IncidenceData(tuple(points), len(lines))


def decone(arr, infinity_index):
    """Send one line of a projective arrangement to infinity.

    A projective change of coordinates T maps the chosen line to {z = 0};
    the remaining lines, in their original order, come back as affine
    lines.  Points on the chosen line become parallel classes.
    """
    if not isinstance(arr, Arrangement):
        raise TypeError("decone expects a projective arrangement")
    _, infinity_index = projective_picture(arr, infinity_index)
    inf_line = arr.lines[infinity_index].coeffs
    # T has two standard basis rows, avoiding the position of the chosen
    # row's first nonzero entry, above the chosen row itself
    pivot = next(k for k, v in enumerate(inf_line) if v)
    t0, t1 = (tuple(int(k == u) for k in range(3)) for u in range(3) if u != pivot)
    # a line L becomes L * T^-1, which up to scale is L * adj(T); the
    # columns of adj(T) are cross products of T's rows
    adj_cols = (_cross(t1, inf_line), _cross(inf_line, t0), _cross(t0, t1))
    return AffineArrangement(tuple(
        AffineLine(tuple(_dot(line.coeffs, col) for col in adj_cols))
        for idx, line in enumerate(arr.lines)
        if idx != infinity_index
    ))


def cone(aff):
    """Re-homogenize an affine arrangement and append the infinity line.

    The infinity line {z = 0} is appended last, so deconing along the
    default (last) line of the result recovers the input lines.
    """
    lines = [ProjLine(l.coeffs) for l in aff.lines]
    inf = ProjLine((0, 0, 1))
    if inf in lines:
        raise InputError("arrangement already contains the infinity line")
    return Arrangement(tuple(lines) + (inf,))


def projective_picture(arr, infinity_index):
    """``(proj, index)``: the projective arrangement (affine input is coned,
    its infinity line last) and the index of its line at infinity, for
    projective input ``infinity_index`` checked, or the last line if None.
    Affine input has its line at infinity already, so an index is refused."""
    if isinstance(arr, AffineArrangement):
        if infinity_index is not None:
            raise InputError("an infinity index applies to projective input only")
        arr = cone(arr)
    elif not isinstance(arr, Arrangement):
        raise TypeError(f"expected an arrangement, got {type(arr).__name__}")
    if infinity_index is None:
        infinity_index = arr.n_lines - 1
    elif not 0 <= infinity_index < arr.n_lines:
        raise InputError(f"infinity index {infinity_index} out of range")
    return arr, infinity_index


def affine_picture(arr, infinity_index=None):
    """``(proj, aff, index)``: ``projective_picture`` and the affine picture
    the sweep runs on, projective input deconed along that line."""
    proj, infinity_index = projective_picture(arr, infinity_index)
    aff = arr if isinstance(arr, AffineArrangement) else decone(proj, infinity_index)
    return proj, aff, infinity_index


def is_sweep_generic(aff):
    """No vertical line, and no two intersection points share an x value
    (distinct ``sweep_keys``)."""
    return next(_shear_tests(aff))


def _shear_tests(aff):
    """``is_sweep_generic`` of the shear (x, y) -> (x - t*y, y) of ``aff``
    for t = 0, 1, 2, ...: the points and the key scale are read once, and
    a t fails at its first repeated key."""
    coeffs = [l.coeffs for l in aff.lines]
    points = [pt.point for pt in aff.incidence.points]
    q = max((abs(z) for _, _, z in points), default=1)
    for t in count():
        # a line's new y-coefficient is a*t + b; a vertex (x, y) moves to x - t*y
        ok = not any(a * t + b == 0 for a, b, _ in coeffs)
        if ok:
            seen = set()
            for key in _sweep_keys(points, t, q):
                if key in seen:
                    ok = False
                    break
                seen.add(key)
        yield ok


def shear_to_generic(aff):
    """Shear (x, y) -> (x - t*y, y) into sweep position.

    The substitution keeps the arrangement's topology (it is an ambient
    linear isotopy) while removing vertical lines and making all
    intersection-point x coordinates distinct.  t is the smallest
    non-negative integer whose shear ``is_sweep_generic`` accepts, found by
    trying t = 0, 1, 2, ... (only finitely many fail), so runs are
    reproducible.  At t = 0
    the result has the input's lines and shares its ``incidence``, which
    just passed the test; a sheared picture computes its own and is
    tested again.
    """
    t = next(t for t, ok in enumerate(_shear_tests(aff)) if ok)
    if not t:
        out = aff._replace(shear=0)
        vars(out)["incidence"] = aff.incidence
        return out
    new_lines = tuple(AffineLine((a, a * t + b, c)) for a, b, c in (l.coeffs for l in aff.lines))
    out = AffineArrangement(new_lines, shear=t)
    if not is_sweep_generic(out):
        raise AssertionError("shear failed to reach sweep position")
    return out


def _rational(token):
    """``Fraction(token)`` as an ``int`` where ``int`` reads the token.

    For a token with no ``_``, ``int`` accepts exactly a sign and decimal
    digits (Unicode ones included), which ``Fraction`` reads as the same
    integer; any token ``int`` refuses goes to ``Fraction``, so errors stay
    ``Fraction``'s.  A ``_`` always goes to ``Fraction``: before Python
    3.11 it refuses ``1_0``, which ``int`` reads as 10.
    """
    if "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    return Fraction(token)


# one line of str.splitlines and its boundary, or the text's last line
_LINE = re.compile(
    r"([^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*)(?:\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]|\Z)"
)


def content_lines(text):
    """``(lineno, line)`` for each line of a file's text that holds more
    than a comment and whitespace, both stripped.  Lines are numbered from
    1 at the boundaries ``str.splitlines`` uses and read one at a time, so
    a refusal at line K reads no further.  ``#`` starts a comment.

    >>> list(content_lines("# head\\r\\n\\n  affine  # a comment\\n1 0 0"))
    [(3, 'affine'), (4, '1 0 0')]
    """
    for lineno, match in enumerate(_LINE.finditer(text), start=1):
        line = match[1].split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_arrangement(text):
    """Parse the arrangement file format.

    First non-comment line: ``projective`` or ``affine``.  Each further
    non-comment line: three whitespace-separated rationals (``p`` or
    ``p/q``); exponent notation such as ``1e9`` is refused, since a short
    token like ``1e30000000`` would expand to millions of digits.  ``#``
    starts a comment.  A token reads as ``Fraction(token)`` does, with the
    same value and the same errors; see ``_rational``.  A file of more than
    LINE_BUDGET lines, as written, is refused at the first line over it.

    >>> parse_arrangement("projective\\n1 0 0\\n0 1 0\\n0 0 1").n_lines
    3
    >>> parse_arrangement("affine\\n1 0 0\\n0 1 0").n_lines
    2
    """
    mode = None
    triples = []
    for lineno, line in content_lines(text):
        if mode is None:
            if line not in ("projective", "affine"):
                raise InputError(f"line {lineno}: header must be 'projective' or 'affine'")
            mode = line
            continue
        if len(triples) == LINE_BUDGET:
            raise InputError(f"line {lineno}: more than {LINE_BUDGET} lines, over the budget")
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected three rationals, got {line!r}")
        for p in parts:
            if "e" in p.lower():
                raise InputError(
                    f"line {lineno}: malformed rational {p!r} (write p or p/q; no exponents)"
                )
        try:
            coeffs = tuple(map(_rational, parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"line {lineno}: malformed rational ({exc})") from None
        triples.append((lineno, coeffs))
    if mode is None:
        raise InputError("empty input: missing 'projective'/'affine' header")
    if len(triples) < 2:
        raise InputError("an arrangement needs at least 2 lines")
    seen = {}
    built = []
    for lineno, coeffs in triples:
        try:
            obj = ProjLine(coeffs) if mode == "projective" else AffineLine(coeffs)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        if obj in seen:
            raise InputError(
                f"line {lineno}: duplicate of input line {seen[obj]} (proportional coefficients)"
            )
        seen[obj] = lineno
        built.append(obj)
    if mode == "projective":
        return Arrangement(tuple(built))
    return AffineArrangement(tuple(built))


def arrangement_text(arr):
    """Canonical file text for an arrangement (inverse of parse)."""
    header = "affine" if isinstance(arr, AffineArrangement) else "projective"
    out = [header]
    for line in arr.lines:
        out.append(" ".join(str(c) for c in line.coeffs))
    return "\n".join(out) + "\n"

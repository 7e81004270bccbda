"""Combinatorial bounds and exactness criteria for the first homology of
the Milnor fiber, evaluated from incidence data alone.

Every bound here depends only on which lines meet at which multiplicity,
and on their number N = ``inc.n_lines``, the degree of the Milnor cover.
That holds for the transverse-split criterion too: it reads which line
goes to infinity, and two affine lines are parallel exactly when they
meet on that line.  The exact pipeline computes H1 independently;
reports cross-validate the two.
"""

from collections import namedtuple
from math import gcd

from . import geometry
from .geometry import InputError, _Checked
from .snf import AbelianGroup


class SyntheticIncidence(_Checked, namedtuple("SyntheticIncidence", "n_lines points")):
    """Incidence data given combinatorially, with no coordinates.

    ``points`` holds one tuple of line indices per intersection point.
    Accepted directly by ``bound_report`` and ``oka_sakamoto_check``,
    enabling synthetic inputs that were never realized geometrically.
    """

    __slots__ = ()

    def __new__(cls, n_lines, points):
        points = tuple(tuple(sorted(set(p))) for p in points)
        if n_lines < 2:
            raise InputError("need at least 2 lines")
        seen_pairs = {}
        for k, pt in enumerate(points):
            if len(pt) < 2:
                raise InputError(f"point {k} has fewer than 2 lines")
            for i in pt:
                if not 0 <= i < n_lines:
                    raise InputError(f"point {k}: line index {i} out of range")
            for a in range(len(pt)):
                for b in range(a + 1, len(pt)):
                    pair = (pt[a], pt[b])
                    if pair in seen_pairs:
                        raise InputError(
                            f"lines {pair} meet in two points ({seen_pairs[pair]} and {k})"
                        )
                    seen_pairs[pair] = k
        return tuple.__new__(cls, (n_lines, points))


def parse_incidence(text):
    """Parse raw incidence text: ``incidence N=<int>`` then one point per
    line as ``m=<int> lines=<comma-separated indices>``.  N above
    geometry.LINE_BUDGET is refused as soon as the header is read;
    ``bound_report`` makes one pass over the points, and the densest input,
    N(N-1)/2 double points, took 0.3-0.5 s in ``bounds`` at N = 300.  Two
    lines meet at most once, so a point line past the N(N-1)/2-th, or one
    with m > N, is refused before its indices are read.  ``text`` is the
    file's text or its lines (see ``geometry.content_lines``).

    >>> parse_incidence("incidence N=3\\nm=2 lines=0,1\\n").n_lines
    3
    """
    n = None
    points = []
    for lineno, line in geometry.content_lines(text):
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "incidence" or not parts[1].startswith("N="):
                raise InputError(f"line {lineno}: header must be 'incidence N=<int>'")
            try:
                n = int(parts[1][2:])
            except ValueError:
                raise InputError(f"line {lineno}: N must be an integer") from None
            if n > geometry.LINE_BUDGET:
                raise InputError(
                    f"line {lineno}: N={n} exceeds the budget of {geometry.LINE_BUDGET} lines"
                )
            budget = n * (n - 1) // 2
            continue
        if len(points) == budget:
            raise InputError(f"line {lineno}: more than N(N-1)/2 = {budget} points, over the budget")
        parts = line.split()
        if len(parts) != 2 or not parts[0].startswith("m=") or not parts[1].startswith("lines="):
            raise InputError(f"line {lineno}: expected 'm=<int> lines=<indices>'")
        try:
            m = int(parts[0][2:])
            if m <= n:
                idx = tuple(int(tok) for tok in parts[1][6:].split(","))
        except ValueError:
            raise InputError(f"line {lineno}: multiplicity and line indices must be integers") from None
        if m > n:
            raise InputError(f"line {lineno}: m={m} is more than the N={n} lines")
        if m != len(set(idx)):
            raise InputError(f"line {lineno}: m={m} does not match {len(set(idx))} lines")
        points.append(idx)
    if n is None:
        raise InputError("missing 'incidence N=<int>' header")
    return SyntheticIncidence(n, tuple(points))


def _incident(inc):
    """Uniform view: the line indices of each point, in point order."""
    if isinstance(inc, geometry.IncidenceData):
        return [p.incident for p in inc.points]
    if isinstance(inc, SyntheticIncidence):
        return inc.points
    raise TypeError(f"cannot read incidence from {type(inc).__name__}")


def _counting_points(inc):
    """(label, m, line indices) of each point whose multiplicity m makes
    it count for the bounds, in point order: m > 2 and gcd(m, n) > 1, so
    that some n-th root of unity other than 1 has m-th power 1.  Labels are
    ``(x:y:z)``, or ``pt<k>`` for synthetic incidence."""
    n = inc.n_lines
    labelled = isinstance(inc, geometry.IncidenceData)
    return [(inc.points[k].label() if labelled else f"pt{k}", m, p)
            for k, p in enumerate(_incident(inc)) if (m := len(p)) > 2 and gcd(m, n) > 1]


class OnePointCheck(namedtuple("OnePointCheck", "witness guard_blocked", defaults=(None, None))):
    """Outcome of the single-heavy-point criterion.

    A point is *heavy* for the criterion when it counts for the bounds
    (``_counting_points``).  The literal criterion
    asks for a line carrying exactly one heavy point; the guard further
    requires that heavy point to miss at least one line (m < n), because
    the underlying deconing argument needs a line away from it.  On a
    pencil the literal condition holds but the guard correctly refuses.

    ``witness`` is (line, point label, multiplicity) when the criterion
    fires; otherwise ``guard_blocked`` is a witness that the m < n guard
    blocked, if any.
    """

    __slots__ = ()

    @property
    def fires(self):
        return self.witness is not None

    @property
    def literal_fires(self):
        return self.fires or self.guard_blocked is not None


def _one_point(on_line, n):
    """The single-heavy-point criterion over ``{line: [(label, m), ...]}``,
    the points that count on each line, lines in order."""
    blocked = None
    for h, found in on_line.items():
        if len(found) != 1:
            continue
        label, m = found[0]
        if m < n:
            return OnePointCheck(witness=(h, label, m))
        if blocked is None:
            blocked = (h, label, m)
    return OnePointCheck(guard_blocked=blocked)


def oka_sakamoto_check(inc, infinity):
    """Split the affine lines into two nonempty families meeting each other
    only in ordinary double points.

    ``inc`` is the incidence of the projective arrangement and ``infinity``
    the index of the line sent to infinity.  The affine lines are the other
    lines, renumbered in order: index i becomes i - (i > infinity).  Two
    affine lines are parallel exactly when they meet on the infinity line.

    Computed on the conflict graph (edge = parallel pair, or pair sharing
    a point of multiplicity >= 3 off the infinity line): any union of
    connected components gives a valid split, so the check fires exactly
    when the graph is disconnected.  Returns (family_a, family_b) or None.
    """
    if not 0 <= infinity < inc.n_lines:
        raise ValueError(f"infinity index {infinity} out of range")
    parent = list(range(inc.n_lines))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # one group per point on the infinity line (a parallel class) and per
    # point of multiplicity >= 3 off it; each group's lines join one component
    doubles = []
    for incident in _incident(inc):
        if infinity in incident:
            incident = [i for i in incident if i != infinity]
        elif len(incident) == 2:
            doubles.append(incident)
            continue
        for other in incident[1:]:
            parent[find(other)] = find(incident[0])
    affine = [i for i in range(inc.n_lines) if i != infinity]
    root0 = find(affine[0])
    on_a = {i for i in affine if find(i) == root0}
    if len(on_a) == len(affine):
        return None
    # re-verify the witness: every cross pair meets transversally in a
    # double point.  Two lines meet at most once, so the double points with
    # one line on each side are distinct cross pairs: all |A|*|B| of them.
    split = sum((a in on_a) != (b in on_a) for a, b in doubles)
    if split != len(on_a) * (len(affine) - len(on_a)):
        raise AssertionError("transverse-split witness failed re-verification")
    side_a = tuple(i - (i > infinity) for i in affine if i in on_a)
    side_b = tuple(i - (i > infinity) for i in affine if i not in on_a)
    return side_a, side_b


def _jsonable(w):
    return [_jsonable(x) for x in w] if isinstance(w, tuple) else w


class BoundReport(_Checked, namedtuple("BoundReport",
                                       "n onehyp_per_line cdo_per_k one_point oka_sakamoto")):
    """Every combinatorial bound and criterion outcome for one arrangement
    of n lines, as ``bound_report`` gave them (``one_point`` a
    OnePointCheck); the best bounds, the coprime-or-double line, the
    criteria that fired and the notes read them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lower_bound > self.upper_bound:
            raise AssertionError("lower bound exceeds an upper bound")
        return self

    @property
    def onehyp_best(self):
        return min(self.onehyp_per_line.values())

    @property
    def cdo_total(self):
        return self.n - 1 + sum(self.cdo_per_k.values())

    @property
    def corollary_witness(self):
        """The lowest line whose points all have multiplicity 2 or one
        coprime to n, which forces H1 free of rank n - 1: the lowest line
        whose per-line bound is n - 1, or None."""
        return min((h for h, v in self.onehyp_per_line.items() if v == self.n - 1), default=None)

    @property
    def applicable(self):
        """(criterion name, witness) of each exactness criterion that fired;
        a criterion's witness is None exactly when it did not fire."""
        return tuple((name, w) for name, w in (
            ("coprime_or_double_line", self.corollary_witness),
            ("single_heavy_point_line", self.one_point.witness),
            ("transverse_split", self.oka_sakamoto)) if w is not None)

    @property
    def notes(self):
        """The single-heavy-point guard's note, when it blocked a match."""
        if self.one_point.guard_blocked is None:
            return ()
        h, label, m = self.one_point.guard_blocked
        return (f"single-heavy-point criterion matched line {h} literally (point {label}, "
                f"multiplicity {m}), but the point lies on every line, so the deconing argument "
                "behind the criterion does not apply; no exactness is claimed from it",)

    @property
    def lower_bound(self):
        return self.n - 1

    @property
    def upper_bound(self):
        return min(self.onehyp_best, self.cdo_total)

    @property
    def exact(self):
        """The free group of rank N-1 whenever an exactness criterion
        fired, else None."""
        return AbelianGroup(self.n - 1) if self.applicable else None

    def as_dict(self):
        """JSON-ready bounds block, shared by the analysis report and the
        bounds command."""
        opc = self.one_point
        return {
            "lower": self.lower_bound,
            "onehyp": {
                "per_line": {str(i): v for i, v in sorted(self.onehyp_per_line.items())},
                "best": self.onehyp_best,
            },
            "cdo": {
                "per_k": {str(k): v for k, v in sorted(self.cdo_per_k.items())},
                "total": self.cdo_total,
            },
            "corollary_witness": self.corollary_witness,
            "one_point": {
                "fires": opc.fires,
                "witness": _jsonable(opc.witness),
                "guard_blocked": _jsonable(opc.guard_blocked),
            },
            "oka_sakamoto": _jsonable(self.oka_sakamoto),
            "applicable": [[name, _jsonable(w)] for name, w in self.applicable],
        }


def bound_report(inc, infinity=None):
    """The BoundReport of incidence data, read from its points that count
    in one pass: each line's bound n - 1 + sum of (m - 2)(gcd(m, n) - 1)
    over its points, the per-degree bound (Cohen, Dimca & Orlik: for each
    k, the least excess m - 2 of a line's points with n | k*m) and the
    single-heavy-point criterion.  The transverse-split check runs when
    ``infinity``, the index of the line sent to infinity, is given."""
    n = inc.n_lines
    counted = _counting_points(inc)
    per_line = dict.fromkeys(range(n), n - 1)
    on_line = {h: [] for h in range(n)}
    for label, m, incident in counted:
        excess = (m - 2) * (gcd(m, n) - 1)
        for h in incident:
            per_line[h] += excess
            on_line[h].append((label, m))
    per_k = {}
    for k in range(1, n):
        excess = dict.fromkeys(range(n), 0)
        for _, m, incident in counted:
            if (k * m) % n == 0:
                for h in incident:
                    excess[h] += m - 2
        per_k[k] = min(excess.values())
    return BoundReport(n, per_line, per_k, _one_point(on_line, n),
                       None if infinity is None else oka_sakamoto_check(inc, infinity))

"""Open rational box domains with exact set operations.

Domains of plots are finite unions of open axis-aligned boxes with rational
(or infinite) endpoints.  Everything here is exact: containment, coverage
of one union by another, and interval bounds for expressions over a box.

Coverage uses the arrangement trick: the endpoints of the covering boxes
cut a target box into finitely many cells (open intervals and single
breakpoints per axis), and every covering box either contains a whole cell
or misses it.  So a union covers the box iff each cell's representative
point lands in some covering box.

Sampling is pure in (domain, count, max_den), and the same few keys recur
all through a run, so the samples are memoised in a bounded module cache;
`Domain.sample_points` hands every caller a fresh list.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .expr import Expr, ExprVec

Point = tuple[Fraction, ...]


def format_point(point: Sequence[Fraction]) -> str:
    """A point as text, e.g. (0, 1/2)."""
    return "(" + ", ".join(str(v) for v in point) + ")"


# closed bounds with None meaning the side is unbounded
Bounds = tuple[Fraction | None, Fraction | None]


@dataclass(frozen=True)
class Interval:
    """Open interval; None endpoint means unbounded on that side."""

    lo: Fraction | None
    hi: Fraction | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    def contains(self, value: Fraction) -> bool:
        if self.lo is not None and value <= self.lo:
            return False
        if self.hi is not None and value >= self.hi:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo >= hi:
            return None
        return Interval(lo, hi)

    def _key(self):
        lo_key = (0, Fraction(0)) if self.lo is None else (1, self.lo)
        hi_key = (1, Fraction(0)) if self.hi is None else (0, self.hi)
        return (lo_key, hi_key)


def _coerce_interval(spec) -> Interval:
    if isinstance(spec, Interval):
        return spec
    lo, hi = spec
    return Interval(
        None if lo is None else Fraction(lo),
        None if hi is None else Fraction(hi),
    )


@dataclass(frozen=True)
class Box:
    """Product of open intervals; dimension 0 is the one-point box."""

    intervals: tuple[Interval, ...]

    @staticmethod
    def of(*specs) -> "Box":
        return Box(tuple(_coerce_interval(s) for s in specs))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.dim:
            return False
        return all(iv.contains(v) for iv, v in zip(self.intervals, point))

    def intersect(self, other: "Box") -> "Box | None":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        parts = []
        for a, b in zip(self.intervals, other.intervals):
            got = a.intersect(b)
            if got is None:
                return None
            parts.append(got)
        return Box(tuple(parts))

    def _key(self):
        return tuple(iv._key() for iv in self.intervals)


class Domain:
    """Finite union of open boxes of one dimension."""

    __slots__ = ("dim", "boxes")

    def __init__(self, dim: int, boxes: Iterable[Box] = ()):
        packed = tuple(sorted(set(boxes), key=lambda b: b._key()))
        for b in packed:
            if b.dim != dim:
                raise ValueError("box dimension does not match domain")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "boxes", packed)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Domain is immutable")

    @staticmethod
    def full(dim: int) -> "Domain":
        return Domain(dim, (Box(tuple(Interval(None, None) for _ in range(dim))),))

    @staticmethod
    def of(*specs) -> "Domain":
        """Single-box domain from (lo, hi) pairs; None means unbounded."""
        box = Box.of(*specs)
        return Domain(box.dim, (box,))

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def contains(self, point: Sequence[Fraction]) -> bool:
        pt = tuple(point)
        return any(b.contains(pt) for b in self.boxes)

    def union(self, other: "Domain") -> "Domain":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Domain(self.dim, self.boxes + other.boxes)

    def intersect(self, other: "Domain") -> "Domain":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = []
        for a in self.boxes:
            for b in other.boxes:
                got = a.intersect(b)
                if got is not None:
                    out.append(got)
        return Domain(self.dim, out)

    def covers(self, other: "Domain") -> bool:
        """Exact superset test on the underlying open sets."""
        return all(_box_covered(b, self.boxes) for b in other.boxes)

    def same_set(self, other: "Domain") -> bool:
        return self.covers(other) and other.covers(self)

    def covers_closed(self, bounds: Sequence[Bounds]) -> bool:
        """Does this open union contain the closed box given by bounds?

        Bounds may be degenerate (lo == hi) or unbounded (None); an
        unbounded side needs a covering box unbounded the same way.
        """
        if len(bounds) != self.dim:
            raise ValueError("dimension mismatch")
        for lo, hi in bounds:
            if lo is not None and hi is not None and lo > hi:
                return True  # empty box is vacuously covered
        return _cells_covered(
            [_axis_cells_closed(lo, hi, _axis_breaks(self.boxes, i, lo, hi))
             for i, (lo, hi) in enumerate(bounds)],
            self.boxes,
        )

    def sample_points(self, count: int, max_den: int = 8) -> list[Point]:
        """Deterministic rational points inside the domain, simple first.

        Memoised per (domain, count, max_den); the list is fresh on every
        call, so a caller may change it."""
        return list(_domain_samples(self, count, max_den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self.dim == other.dim and self.boxes == other.boxes

    def __hash__(self) -> int:
        return hash((self.dim, self.boxes))

    def to_str(self) -> str:
        if self.is_empty:
            return "(empty)"
        def side(v, default):
            return default if v is None else str(v)
        parts = []
        for b in self.boxes:
            if b.dim == 0:
                parts.append("(point)")
            else:
                parts.append(
                    " x ".join(
                        f"({side(iv.lo, '-inf')}, {side(iv.hi, 'inf')})"
                        for iv in b.intervals
                    )
                )
        return " u ".join(parts)

    def __repr__(self) -> str:
        return f"Domain({self.to_str()!r})"


# ---------------------------------------------------------------------------
# coverage cells
# ---------------------------------------------------------------------------

# a cell along one axis: ("pt", value) or ("open", lo|None, hi|None)


def _axis_breaks(boxes: Sequence[Box], axis: int, lo, hi) -> list[Fraction]:
    vals = set()
    for b in boxes:
        iv = b.intervals[axis]
        for v in (iv.lo, iv.hi):
            if v is None:
                continue
            if (lo is None or v > lo) and (hi is None or v < hi):
                vals.add(v)
    return sorted(vals)


def _axis_cells_open(iv: Interval, breaks: list[Fraction]) -> list[tuple]:
    cells: list[tuple] = []
    prev = iv.lo
    for p in breaks:
        cells.append(("open", prev, p))
        cells.append(("pt", p))
        prev = p
    cells.append(("open", prev, iv.hi))
    return cells


def _axis_cells_closed(lo, hi, breaks: list[Fraction]) -> list[tuple]:
    if lo is not None and hi is not None and lo == hi:
        return [("pt", lo)]
    cells: list[tuple] = []
    if lo is not None:
        cells.append(("pt", lo))
    prev = lo
    for p in breaks:
        cells.append(("open", prev, p))
        cells.append(("pt", p))
        prev = p
    cells.append(("open", prev, hi))
    if hi is not None:
        cells.append(("pt", hi))
    return cells


def _cell_representative(cell: tuple) -> Fraction:
    if cell[0] == "pt":
        return cell[1]
    _, lo, hi = cell
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def _cells_covered(axis_cells: list[list[tuple]], boxes: Sequence[Box]) -> bool:
    if not axis_cells:
        return bool(boxes)
    for combo in itertools.product(*axis_cells):
        rep = tuple(_cell_representative(c) for c in combo)
        if not any(b.contains(rep) for b in boxes):
            return False
    return True


def _box_covered(box: Box, cover: Sequence[Box]) -> bool:
    if box.dim == 0:
        return bool(cover)
    axis_cells = [
        _axis_cells_open(iv, _axis_breaks(cover, i, iv.lo, iv.hi))
        for i, iv in enumerate(box.intervals)
    ]
    return _cells_covered(axis_cells, cover)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# distinct (domain, count, max_den) keys held; a membership benchmark pass
# at budget 6 meets 92 of them
SAMPLE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def _domain_samples(domain: Domain, count: int, max_den: int) -> tuple[Point, ...]:
    if count <= 0 or domain.is_empty:
        return ()
    per_box = [_box_samples(b, count, max_den) for b in domain.boxes]
    out: list[Point] = []
    seen: set[Point] = set()
    for batch in itertools.zip_longest(*per_box):
        for pt in batch:
            if pt is not None and pt not in seen:
                seen.add(pt)
                out.append(pt)
                if len(out) == count:
                    return tuple(out)
    return tuple(out)


def _interval_samples(iv: Interval, count: int, max_den: int) -> list[Fraction]:
    # clip unbounded sides to a window of width 4 for sampling purposes
    if iv.lo is None and iv.hi is None:
        lo, hi = Fraction(-2), Fraction(2)
    elif iv.lo is None:
        lo, hi = iv.hi - 4, iv.hi
    elif iv.hi is None:
        lo, hi = iv.lo, iv.lo + 4
    else:
        lo, hi = iv.lo, iv.hi
    found: list[Fraction] = []
    seen: set[Fraction] = set()
    for den in range(1, max_den + 1):
        start = lo * den
        stop = hi * den
        num = math.floor(start) + 1
        while num < stop:
            v = Fraction(num, den)
            if v not in seen and v > lo and v < hi:
                seen.add(v)
                found.append(v)
            num += 1
        if len(found) >= count * 4:
            break
    found.sort(key=lambda v: (v.denominator, abs(v), v))
    return found[: max(count, 1)]


def _box_samples(box: Box, count: int, max_den: int) -> list[Point]:
    if box.dim == 0:
        return [()]
    axis_vals = [_interval_samples(iv, count, max_den) for iv in box.intervals]
    if any(not vals for vals in axis_vals):
        return []
    limits = [len(vals) - 1 for vals in axis_vals]
    out = []
    # graded enumeration; the full index product is far too large to sort
    for idx in _graded_indices(limits):
        out.append(tuple(axis_vals[i][j] for i, j in enumerate(idx)))
        if len(out) == count:
            break
    return out


def _graded_indices(limits: Sequence[int]):
    """Index tuples ordered by total sum, then lexicographically."""
    for total in range(sum(limits) + 1):
        yield from _sum_indices(total, tuple(limits))


def _sum_indices(total: int, limits: tuple[int, ...]):
    if not limits:
        if total == 0:
            yield ()
        return
    rest = limits[1:]
    rest_cap = sum(rest)
    for first in range(max(0, total - rest_cap), min(limits[0], total) + 1):
        for tail in _sum_indices(total - first, rest):
            yield (first,) + tail


# ---------------------------------------------------------------------------
# interval bounds for expressions
# ---------------------------------------------------------------------------


def _b_add(a: Bounds, b: Bounds) -> Bounds:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (lo, hi)


def _b_scale(a: Bounds, c: Fraction) -> Bounds:
    if c == 0:
        return (Fraction(0), Fraction(0))
    if c > 0:
        return (None if a[0] is None else a[0] * c,
                None if a[1] is None else a[1] * c)
    return (None if a[1] is None else a[1] * c,
            None if a[0] is None else a[0] * c)


def _ext_mul(x, sx, y, sy):
    # x is None means an infinity whose sign is sx; likewise y, sy.
    # Convention 0 * inf = 0 is fine for closed interval endpoints.
    if x is not None and y is not None:
        return ("num", x * y)
    if x is not None and x == 0:
        return ("num", Fraction(0))
    if y is not None and y == 0:
        return ("num", Fraction(0))
    xs = sx if x is None else (1 if x > 0 else -1)
    ys = sy if y is None else (1 if y > 0 else -1)
    return ("inf", xs * ys)


def _b_mul(a: Bounds, b: Bounds) -> Bounds:
    # candidates: products of endpoints, with infinities tracked by sign
    cands = []
    for x, sx in ((a[0], -1), (a[1], 1)):
        for y, sy in ((b[0], -1), (b[1], 1)):
            cands.append(_ext_mul(x, sx, y, sy))
    lo: Fraction | None = None
    hi: Fraction | None = None
    lo_inf = any(kind == "inf" and sign < 0 for kind, sign in cands)
    hi_inf = any(kind == "inf" and sign > 0 for kind, sign in cands)
    nums = [v for kind, v in cands if kind == "num"]
    if not lo_inf:
        lo = min(nums)
    if not hi_inf:
        hi = max(nums)
    return (lo, hi)


def _b_power(a: Bounds, k: int) -> Bounds:
    if k == 0:
        return (Fraction(1), Fraction(1))
    if k % 2 == 1:
        return (None if a[0] is None else a[0] ** k,
                None if a[1] is None else a[1] ** k)
    lo, hi = a
    spans_zero = (lo is None or lo <= 0) and (hi is None or hi >= 0)
    mags = []
    unbounded = lo is None or hi is None
    if lo is not None:
        mags.append(abs(lo))
    if hi is not None:
        mags.append(abs(hi))
    upper = None if unbounded else max(mags) ** k
    if spans_zero:
        return (Fraction(0), upper)
    lower = min(mags) ** k if mags else None
    return (lower, upper)


def _terms_bounds(terms, var_bounds: list[Bounds]) -> Bounds:
    power_cache: dict[tuple[int, int], Bounds] = {}

    def var_power(i: int, k: int) -> Bounds:
        key = (i, k)
        if key not in power_cache:
            power_cache[key] = _b_power(var_bounds[i], k)
        return power_cache[key]

    total: Bounds = (Fraction(0), Fraction(0))
    for mono, coeff in terms.items():
        part: Bounds = (Fraction(1), Fraction(1))
        for i, k in enumerate(mono):
            if k:
                part = _b_mul(part, var_power(i, k))
        total = _b_add(total, _b_scale(part, coeff))
    return total


def expr_bounds(expr: Expr, box: Box) -> Bounds:
    """Closed bounds containing the image of the expression over the box."""
    if expr.arity != box.dim:
        raise ValueError("arity does not match box dimension")
    var_bounds: list[Bounds] = [(iv.lo, iv.hi) for iv in box.intervals]
    num_b = _terms_bounds(expr.num, var_bounds)
    if expr.is_polynomial:
        return num_b
    den_b = _terms_bounds(expr.den, var_bounds)
    floor = expr.den_witness.lower_bound() if expr.den_witness is not None else None
    d_lo = den_b[0]
    if floor is not None:
        d_lo = floor if d_lo is None else max(d_lo, floor)
    if d_lo is None or d_lo <= 0:
        return (None, None)  # cannot bound the quotient
    inv: Bounds = (Fraction(0) if den_b[1] is None else 1 / den_b[1], 1 / d_lo)
    return _b_mul(num_b, inv)


def vec_bounds(vec: ExprVec, box: Box) -> list[Bounds]:
    return [expr_bounds(c, box) for c in vec.components]


def image_within(vec: ExprVec, source: Domain, target: Domain) -> bool:
    """Conservative: True certifies that vec maps the source into the target."""
    if source.dim != vec.arity or target.dim != len(vec):
        raise ValueError("dimension mismatch")
    for box in source.boxes:
        if not target.covers_closed(vec_bounds(vec, box)):
            return False
    return True

"""Differential forms, endomorphism fields, and connections over a bundle.

Forms carry one antisymmetric coefficient tensor per stored plot and extend
to derived plots by pullback along declared factorizations.  The
coefficients of a covariant derivative are such a form, matrix-valued and of
degree 1, so connections share the form code for overlaps, equality and the
affine structure.

Only what the representation leaves open is checked at run time.  A
`PlotForm` refuses malformed storage when it is built, so validation is the
overlap (reparametrization) law alone, compared as canonical identities.  A
covariant derivative is stored as ∇ = d + A and applied as
Σ_j X_j (∂_j s + A_j s), which is C^∞-linear in the direction X and obeys
Leibniz in the section s for every coefficient form A; those two laws are
property tests of `covariant_apply`, not run-time checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .bundles import PseudoBundle
from .expr import Expr, ExprVec, Record
from .linalg import Matrix, invert_rational
from .spaces import (
    DiffSpace,
    Obstruction,
    Plot,
    RuleCert,
    Verdict,
    euclidean_space,
    is_plot,
    subset_space,
)

Key = tuple[int, ...]
Packed = tuple[tuple[Key, ExprVec], ...]


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


class PlotForm(Record):
    """A degree-n form as a family of coefficient tensors, one per plot.

    Coefficients are keyed by strictly increasing index tuples into the
    plot's domain directions; values are expression vectors in the domain
    variables, of a fixed length shared by all plots.  Construction raises
    ValueError on storage that breaks this.
    """

    degree: int
    value_dim: int
    entries: tuple[tuple[Plot, Packed], ...]

    def __post_init__(self) -> None:
        for plot, packed in self.entries:
            m = plot.domain.dim
            for key, value in packed:
                if len(key) != self.degree:
                    raise ValueError(
                        f"coefficient key {key} does not have degree {self.degree}"
                    )
                if any(not 0 <= i < m for i in key) or any(
                    a >= b for a, b in zip(key, key[1:])
                ):
                    raise ValueError(f"coefficient key {key} is not strictly increasing")
                if len(value) != self.value_dim:
                    raise ValueError("coefficient value has the wrong length")
                if value.arity != m:
                    raise ValueError("coefficient value has the wrong arity")

    def coefficients(self, plot: Plot) -> dict[Key, ExprVec]:
        for stored, packed in self.entries:
            if stored.component == plot.component and stored.map == plot.map:
                return dict(packed)
        raise KeyError("no coefficients stored for this plot")


class OverlapPair(Record):
    """A declared factorization fine = coarse ∘ factor between two plots."""

    fine: Plot
    coarse: Plot
    factor: ExprVec


def plot_form(
    degree: int,
    value_dim: int,
    assignments: Sequence[tuple[Plot, Mapping]],
) -> PlotForm:
    """Assemble a form from per-plot coefficient dictionaries.

    A bare int key abbreviates a 1-tuple, a bare string value a
    1-component coefficient.
    """
    entries = []
    for plot, coeffs in assignments:
        packed = {}
        for key, value in coeffs.items():
            key = (key,) if isinstance(key, int) else tuple(key)
            if isinstance(value, str):
                value = (value,)
            if not isinstance(value, ExprVec):
                value = ExprVec.parse(list(value), plot.domain.dim)
            packed[key] = value
        entries.append((plot, tuple(sorted(packed.items()))))
    return PlotForm(degree, value_dim, tuple(entries))


def pullback_coefficients(
    coefficients: Mapping[Key, ExprVec],
    factor: ExprVec,
    degree: int,
) -> dict[Key, ExprVec]:
    """g* in coordinates: values compose with g, keys contract the Jacobian."""
    fine_dim = factor.arity
    jac = [
        [factor.components[j].differentiate(s) for s in range(fine_dim)]
        for j in range(len(factor))
    ]
    out: dict[Key, ExprVec] = {}
    for fine_key in combinations(range(fine_dim), degree):
        acc = None
        for coarse_key, value in coefficients.items():
            minor = [[jac[j][s] for s in fine_key] for j in coarse_key]
            det = Matrix(minor).det() if minor else Expr.one(fine_dim)
            if det.is_zero():
                continue
            term = [det * v for v in value.compose(factor).components]
            acc = term if acc is None else [a + t for a, t in zip(acc, term)]
        if acc is not None and not all(a.is_zero() for a in acc):
            out[fine_key] = ExprVec(acc)
    return out


def _first_difference(left: ExprVec | None, right: ExprVec | None) -> int | None:
    """The first component where two coefficient values differ, or None;
    a missing value (None) reads as zero."""
    if left is None or right is None:
        present = (left or right).components
        return next((i for i, c in enumerate(present) if not c.is_zero()), None)
    return next(
        (i for i, (a, b) in enumerate(zip(left.components, right.components)) if a != b),
        None,
    )


def _overlap_problems(
    form: PlotForm, pairs: Sequence[OverlapPair], mismatch: Callable[[Key, int], str]
) -> list[str]:
    """Each pair's fine coefficients against the pullback of the coarse ones;
    `mismatch` words the first differing key and component of a pair."""
    problems: list[str] = []
    for idx, pair in enumerate(pairs):
        if (
            pair.factor.arity != pair.fine.domain.dim
            or len(pair.factor) != pair.coarse.domain.dim
        ):
            problems.append(f"pair {idx}: factor shape does not match the plots")
            continue
        if pair.coarse.map.compose(pair.factor) != pair.fine.map:
            problems.append(f"pair {idx}: factor does not reproduce the fine plot")
            continue
        try:
            fine_c = form.coefficients(pair.fine)
            coarse_c = form.coefficients(pair.coarse)
        except KeyError:
            problems.append(f"pair {idx}: a plot of the pair is not stored")
            continue
        expected = pullback_coefficients(coarse_c, pair.factor, form.degree)
        for key in sorted(set(expected) | set(fine_c)):
            i = _first_difference(expected.get(key), fine_c.get(key))
            if i is not None:
                problems.append(f"pair {idx}: {mismatch(key, i)}")
                break
    return problems


def _verdict(problems: Sequence[str], kind: str, rule: str) -> Verdict:
    """No with the first problem and a count of the rest, or yes."""
    if problems:
        extra = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        return Verdict.no(Obstruction(kind, detail=problems[0] + extra))
    return Verdict.yes(RuleCert(rule))


def validate_form(form: PlotForm, pairs: Sequence[OverlapPair] = ()) -> Verdict:
    """Overlap compatibility, with witnesses; storage is checked when the
    form is built."""
    problems = _overlap_problems(
        form, pairs, lambda key, i: f"pullback mismatch at key {key}, component {i}"
    )
    return _verdict(problems, "form", "form-compatibility")


def form_d(form: PlotForm) -> PlotForm:
    """Plotwise exterior differential of the coefficient tensor."""
    entries = []
    for plot, packed in form.entries:
        m = plot.domain.dim
        coeffs = dict(packed)
        out: dict[Key, list[Expr]] = {}
        for key in combinations(range(m), form.degree + 1):
            acc = [Expr.zero(m) for _ in range(form.value_dim)]
            for t, j in enumerate(key):
                value = coeffs.get(key[:t] + key[t + 1 :])
                if value is None:
                    continue
                for i, comp in enumerate(value.components):
                    term = comp.differentiate(j)
                    acc[i] = acc[i] + term if t % 2 == 0 else acc[i] - term
            if not all(a.is_zero() for a in acc):
                out[key] = acc
        entries.append(
            (plot, tuple((k, ExprVec(v)) for k, v in sorted(out.items())))
        )
    return PlotForm(form.degree + 1, form.value_dim, tuple(entries))


def forms_equal(left: PlotForm, right: PlotForm) -> bool:
    """Coefficientwise canonical equality, missing keys reading as zero."""
    if left.degree != right.degree or left.value_dim != right.value_dim:
        return False
    if len(left.entries) != len(right.entries):
        return False
    for plot, packed in left.entries:
        try:
            other = right.coefficients(plot)
        except KeyError:
            return False
        mine = dict(packed)
        for key in set(mine) | set(other):
            if _first_difference(mine.get(key), other.get(key)) is not None:
                return False
    return True


def _form_sum(left: PlotForm, right: PlotForm, sign: int, mismatch: str) -> PlotForm:
    """left + sign · right on left's plot family, zero values dropped; both
    forms must be stored on the same plots, else ValueError(mismatch)."""
    if len(left.entries) != len(right.entries):
        raise ValueError(mismatch)
    entries = []
    for plot, packed in left.entries:
        try:
            other = right.coefficients(plot)
        except KeyError:
            raise ValueError(mismatch)
        values = dict(packed)
        for key, b in other.items():
            if sign < 0:
                b = ExprVec([-y for y in b.components])
            a = values.get(key)
            values[key] = b if a is None else ExprVec(
                [x + y for x, y in zip(a.components, b.components)]
            )
        summed = tuple(
            (key, value)
            for key, value in sorted(values.items())
            if not all(c.is_zero() for c in value.components)
        )
        entries.append((plot, summed))
    return PlotForm(left.degree, left.value_dim, tuple(entries))


# ---------------------------------------------------------------------------
# endomorphism fields
# ---------------------------------------------------------------------------


class EndField(Record):
    """A family of fiber endomorphisms, conjugated into a frame family."""

    base_plot: Plot
    frame: Matrix
    frame_inverse: Matrix
    rep: Matrix

    @property
    def dim(self) -> int:
        return self.rep.shape[0]

    def fiber_map(self) -> Matrix:
        """The canonical representative frame · rep · frame⁻¹."""
        return self.frame * self.rep * self.frame_inverse

    def apply(self, point: Sequence, vector: Sequence) -> tuple[Fraction, ...]:
        """Evaluate at a domain point and act on fiber coordinates."""
        entries = [
            [Expr.constant(0, e.eval(point)) for e in row]
            for row in self.fiber_map().rows
        ]
        lifted = [Expr.constant(0, Fraction(v)) for v in vector]
        return tuple(c.constant_value() for c in Matrix(entries).apply(lifted))


def end_field(base_plot: Plot, frame: Matrix, rep: Matrix) -> EndField:
    """Wrap an L(F)-valued family in a frame family."""
    if frame.shape[0] != frame.shape[1] or frame.shape != rep.shape:
        raise ValueError("frame and representation shapes disagree")
    if frame.arity != base_plot.domain.dim or rep.arity != frame.arity:
        raise ValueError("entries must live over the base plot's domain")
    inverse = frame.try_inverse()
    if inverse is None:
        raise ValueError("frame family is not invertible")
    return EndField(base_plot, frame, inverse, rep)


class EndFieldOps(Record):
    sum: EndField
    product: EndField
    evaluation: Callable


def end_value(field: EndField, point: Sequence, vector: Sequence):
    return field.apply(point, vector)


def end_field_ops(first: EndField, second: EndField) -> EndFieldOps:
    """Pointwise sum and composition, re-expressed in the first frame."""
    if (
        first.base_plot.component != second.base_plot.component
        or first.base_plot.map != second.base_plot.map
    ):
        raise ValueError("endomorphism fields live over different base families")
    if first.dim != second.dim:
        raise ValueError("fiber dimensions differ")
    m1, m2 = first.fiber_map(), second.fiber_map()

    def wrap(total: Matrix) -> EndField:
        rep = first.frame_inverse * total * first.frame
        return EndField(first.base_plot, first.frame, first.frame_inverse, rep)

    return EndFieldOps(wrap(m1 + m2), wrap(m1 * m2), end_value)


# ---------------------------------------------------------------------------
# frames with recorded inverses
# ---------------------------------------------------------------------------


def _matrix_of_variables(arity: int, k: int, offset: int) -> Matrix:
    return Matrix(
        [
            [Expr.variable(arity, offset + i * k + j) for j in range(k)]
            for i in range(k)
        ]
    )


def frame_space(bundle: PseudoBundle, plots: Sequence[Plot] = ()) -> DiffSpace:
    """Frames with recorded inverses: (x, f, h) subject to f·h = h·f = 1."""
    n, k = bundle.base_dim, bundle.fiber_block
    arity = n + 2 * k * k
    f = _matrix_of_variables(arity, k, n)
    h = _matrix_of_variables(arity, k, n + k * k)
    eye = Matrix.identity(k, arity)
    eqs = []
    for prod in (f * h, h * f):
        for i in range(k):
            for j in range(k):
                eqs.append(prod.rows[i][j] - eye.rows[i][j])
    space = subset_space(
        f"{bundle.name}-frames",
        euclidean_space(arity),
        eqs,
        generators=plots,
        complete=False,
    )
    for plot in plots:
        verdict = is_plot(space, plot)
        if not verdict.is_yes:
            raise ValueError("a declared frame family leaves the frame carrier")
    return space


# ---------------------------------------------------------------------------
# covariant derivatives
# ---------------------------------------------------------------------------


class CovariantDerivative(Record):
    """Connection coefficients as a matrix-valued 1-form.

    The value of `form` at key (j,) is the coefficient matrix A_j of the
    plot's direction j, flattened row by row; zero matrices are not stored.
    """

    fiber_dim: int
    form: PlotForm


def covariant_derivative(
    fiber_dim: int,
    assignments: Sequence[tuple[Plot, Sequence[Matrix | Sequence[Sequence[str]]]]],
) -> CovariantDerivative:
    """Assemble a covariant derivative from per-plot coefficient matrices."""
    forms = []
    for plot, mats in assignments:
        m = plot.domain.dim
        coeffs = {}
        for j, mat in enumerate(mats):
            if not isinstance(mat, Matrix):
                mat = Matrix(
                    [[Expr.parse(text, m) for text in row] for row in mat]
                )
            if mat.shape != (fiber_dim, fiber_dim) or mat.arity != m:
                raise ValueError("coefficient matrix shape or arity is wrong")
            if not mat.is_zero():
                coeffs[j] = ExprVec([e for row in mat.rows for e in row])
        if len(mats) != m:
            raise ValueError("one coefficient matrix per domain direction")
        forms.append((plot, coeffs))
    return CovariantDerivative(fiber_dim, plot_form(1, fiber_dim * fiber_dim, forms))


def flat_connection(fiber_dim: int, plots: Sequence[Plot]) -> CovariantDerivative:
    """All coefficients zero; every bundle fixture admits it."""
    form = PlotForm(1, fiber_dim * fiber_dim, tuple((plot, ()) for plot in plots))
    return CovariantDerivative(fiber_dim, form)


def covariant_apply(
    nabla: CovariantDerivative, plot: Plot, direction: ExprVec, section: ExprVec
) -> ExprVec:
    """Directional derivative of the section plus the coefficient action."""
    coeffs = nabla.form.coefficients(plot)
    m, k = plot.domain.dim, nabla.fiber_dim
    if direction.arity != m or len(direction) != m:
        raise ValueError("direction field must match the domain dimension")
    if section.arity != m or len(section) != k:
        raise ValueError("section must have one component per fiber direction")
    out = []
    for i in range(k):
        acc = Expr.zero(m)
        for j in range(m):
            acc = acc + direction.components[j] * section.components[i].differentiate(j)
            value = coeffs.get((j,))
            if value is None:
                continue
            row = value.components[i * k : (i + 1) * k]
            acted = sum(
                (row[t] * section.components[t] for t in range(k)), Expr.zero(m)
            )
            acc = acc + direction.components[j] * acted
        out.append(acc)
    return ExprVec(out)


def validate_covariant(
    nabla: CovariantDerivative,
    pairs: Sequence[OverlapPair] = (),
    *,
    rng: object = None,
    trials: object = None,
) -> Verdict:
    """The reparametrization law: overlap compatibility of the coefficient
    form, compared as canonical identities in the domain variables.

    Tensoriality and Leibniz need no run-time check.  `covariant_apply`
    computes Σ_j X_j (∂_j s + A_j s): every term is X_j times a value that
    does not depend on X, so it is C^∞-linear in X, and since
    ∂_j(f s) = (∂_j f) s + f ∂_j s while A_j(f s) = f A_j s, it obeys
    Leibniz in s, for every coefficient form A.  Only a fault in `Expr`
    arithmetic could break either law, and the property tests of
    `covariant_apply` guard that.

    `rng` and `trials` are ignored.  They fed random law trials that are
    gone, and are accepted only so callers that still pass them, such as
    the benchmark worker, keep working.
    """
    problems = _overlap_problems(
        nabla.form,
        pairs,
        lambda key, _: f"reparametrized coefficients differ in direction {key[0]}",
    )
    return _verdict(problems, "covariant", "covariant-laws")


def connections_equal(left: CovariantDerivative, right: CovariantDerivative) -> bool:
    return left.fiber_dim == right.fiber_dim and forms_equal(left.form, right.form)


def affine_structure(
    first: CovariantDerivative, second: CovariantDerivative
) -> PlotForm:
    """The difference form: its value at (j,) flattens A¹_j − A²_j.

    The derivative terms of the two operators cancel, so the difference is
    tensorial in the section and lives as a matrix-valued 1-form.
    """
    if first.fiber_dim != second.fiber_dim:
        raise ValueError("fiber dimensions differ")
    return _form_sum(
        first.form, second.form, -1, "connections are stored on different plot families"
    )


def translate(nabla: CovariantDerivative, form: PlotForm) -> CovariantDerivative:
    """Shift the connection coefficients by a matrix-valued 1-form."""
    k = nabla.fiber_dim
    if form.degree != 1 or form.value_dim != k * k:
        raise ValueError("form does not match the connection's fiber block")
    shifted = _form_sum(nabla.form, form, 1, "form is stored on a different plot family")
    return CovariantDerivative(k, shifted)


# ---------------------------------------------------------------------------
# connection 1-forms on frame families
# ---------------------------------------------------------------------------


class ConnectionOneForm(Record):
    """A Lie-algebra valued 1-form on frame families, given by a rule.

    The rule assigns per-direction coefficient matrices to a frame-family
    map (x, f, h) with h the recorded inverse.  A rule, rather than stored
    tensors, keeps right-translates of a family evaluable without a new
    factorization certificate.
    """

    base_dim: int
    dim_f: int
    rule: Callable[[ExprVec], tuple[Matrix, ...]]

    def coefficients(self, frame_map: ExprVec) -> tuple[Matrix, ...]:
        return self.rule(frame_map)


def _frame_blocks(frame_map: ExprVec, base_dim: int, k: int) -> tuple[Matrix, Matrix]:
    f = Matrix(
        [
            [frame_map.components[base_dim + i * k + j] for j in range(k)]
            for i in range(k)
        ]
    )
    h = Matrix(
        [
            [
                frame_map.components[base_dim + k * k + i * k + j]
                for j in range(k)
            ]
            for i in range(k)
        ]
    )
    return f, h


def right_translate(
    frame_map: ExprVec, g: Matrix, g_inverse: Matrix, base_dim: int, k: int
) -> ExprVec:
    """Translate a frame family (x, f, h) to (x, f·g, g⁻¹·h) by a constant
    matrix g given with its inverse."""
    f, h = _frame_blocks(frame_map, base_dim, k)
    fg = f * g
    gh = g_inverse * h
    comps = list(frame_map.components[:base_dim])
    comps += [fg.rows[i][j] for i in range(k) for j in range(k)]
    comps += [gh.rows[i][j] for i in range(k) for j in range(k)]
    return ExprVec(comps)


def _frame_differential(
    frame_map: ExprVec, base_dim: int, k: int
) -> tuple[Matrix, list[Matrix]]:
    """The recorded inverse block h and df, one matrix per direction."""
    f, h = _frame_blocks(frame_map, base_dim, k)
    df = [
        Matrix([[e.differentiate(s) for e in row] for row in f.rows])
        for s in range(frame_map.arity)
    ]
    return h, df


def maurer_cartan(base_dim: int, dim_f: int) -> ConnectionOneForm:
    """θ = f⁻¹·df, using the recorded inverse block."""

    def rule(frame_map: ExprVec) -> tuple[Matrix, ...]:
        h, df = _frame_differential(frame_map, base_dim, dim_f)
        return tuple(h * d for d in df)

    return ConnectionOneForm(base_dim, dim_f, rule)


def raw_frame_differential(base_dim: int, dim_f: int) -> ConnectionOneForm:
    """θ = df without the frame factor; fails equivariance when dim_f > 0."""

    def rule(frame_map: ExprVec) -> tuple[Matrix, ...]:
        return tuple(_frame_differential(frame_map, base_dim, dim_f)[1])

    return ConnectionOneForm(base_dim, dim_f, rule)


def check_connection_form(
    theta: ConnectionOneForm,
    plots: Sequence[Plot],
    samples: Sequence[Sequence[Sequence]],
) -> Verdict:
    """Right-translation equivariance on every frame plot and sample matrix."""
    n, k = theta.base_dim, theta.dim_f
    prepared = []
    for sample in samples:
        rows = [[Fraction(v) for v in row] for row in sample]
        inverse = invert_rational(rows)
        if inverse is None:
            raise ValueError("sample matrix is not invertible")
        prepared.append((rows, inverse))
    for p_idx, plot in enumerate(plots):
        m = plot.domain.dim
        if len(plot.map) != n + 2 * k * k:
            return Verdict.no(
                Obstruction(
                    "frame-shape",
                    detail=f"plot {p_idx} does not carry (x, f, h) blocks",
                )
            )
        f, h = _frame_blocks(plot.map, n, k)
        if f * h != Matrix.identity(k, plot.map.arity):
            return Verdict.no(
                Obstruction(
                    "frame-shape",
                    detail=f"plot {p_idx} does not record an exact inverse",
                )
            )
        base = theta.rule(plot.map)
        for s_idx, (rows, inverse) in enumerate(prepared):
            g = Matrix.from_rationals(rows, plot.map.arity)
            ginv = Matrix.from_rationals(inverse, plot.map.arity)
            moved = theta.rule(right_translate(plot.map, g, ginv, n, k))
            for direction in range(m):
                want = ginv * base[direction] * g
                have = moved[direction]
                if have != want:
                    spot = next(
                        (a, b)
                        for a in range(k)
                        for b in range(k)
                        if have.rows[a][b] != want.rows[a][b]
                    )
                    return Verdict.no(
                        Obstruction(
                            "equivariance",
                            detail=(
                                f"plot {p_idx}, sample {s_idx}, direction "
                                f"{direction}, entry {spot}"
                            ),
                        )
                    )
    return Verdict.yes(
        RuleCert("equivariance"),
        detail="frame families stay in one typical-fiber component",
    )

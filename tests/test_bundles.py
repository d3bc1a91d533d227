"""Bundle assembly, fiber charts, morphism inversion, deformation to zero."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit import autgroups, bundles, spaces
from diffeokit.bundles import (
    BundleMorphism,
    InvariantViolation,
    NoInverseFound,
    PseudoBundle,
    build_bundle,
    check_morphism,
    fiber_at,
    homotopy_to_zero,
    invert_isomorphism,
    validate_bundle,
    zero_bundle,
)
from diffeokit.domains import Box, Domain, Interval
from diffeokit.expr import ExprVec
from diffeokit.fixtures import load_registry
from diffeokit.linalg import rank
from diffeokit.spaces import (
    AlgebraicCarrier,
    Plot,
    RelationPair,
    Verdict,
    euclidean_space,
    generated_space,
    identity_map,
    is_plot,
    is_smooth,
    product_space,
    quotient_space,
    smooth_map,
    subset_space,
    verify_certificate,
)
from diffeokit.tangent import cone_membership


def plant_uncertified(monkeypatch):
    """Turn every separated difference into an uncertified one, leaving
    certified agreements alone; a difference the check cannot decide must
    never read as a definite answer."""
    real = bundles.difference_witness

    def planted(*args, **kwargs):
        bad = real(*args, **kwargs)
        return None if bad is None else "component 0 not certified equal"

    # any module that imported the name holds its own binding
    for module in (bundles, autgroups):
        if hasattr(module, "difference_witness"):
            monkeypatch.setattr(module, "difference_witness", planted)


def line_bundle():
    total = euclidean_space(2, "line-E")
    base = euclidean_space(1, "line-X")
    return build_bundle(
        "line",
        total,
        base,
        add=["x0", "x1 + x3"],
        scale=["x1", "x0*x2"],
        zero=["x0", "0"],
    )


def fresh_copy(b):
    """An equal bundle built from b's fields, with empty memos."""
    return PseudoBundle(b.name, b.total, b.base, b.base_dim, b.projection, b.add, b.scale,
                        b.zero, b.pairs)


def cross_space():
    carrier = AlgebraicCarrier(2, (ExprVec.parse(["x0*x1"], 2).components[0],))
    gens = (
        Plot(Domain.full(1), ExprVec.parse(["x0", "0"], 1)),
        Plot(Domain.full(1), ExprVec.parse(["0", "x0"], 1)),
    )
    return generated_space("cross", carrier, gens)


def cross_bundle():
    eqs = tuple(ExprVec.parse(["x0*x1", "x1*x2", "x0*x3"], 4).components)
    gens = (
        Plot(Domain.full(2), ExprVec.parse(["x0", "0", "x1", "0"], 2)),
        Plot(Domain.full(2), ExprVec.parse(["0", "x0", "0", "x1"], 2)),
        Plot(Domain.full(2), ExprVec.parse(["0", "0", "x0", "x1"], 2)),
    )
    total = generated_space("cross-E", AlgebraicCarrier(4, eqs), gens)
    return build_bundle(
        "cross",
        total,
        cross_space(),
        add=["x0", "x1", "x2 + x6", "x3 + x7"],
        scale=["x1", "x2", "x0*x3", "x0*x4"],
        zero=["x0", "x1", "0", "0"],
    )


class TestConstruction:
    def test_line_bundle_builds(self):
        b = line_bundle()
        chart = fiber_at(b, (Fraction(2),))
        assert chart.dim == 1
        assert chart.origin == (Fraction(2), Fraction(0))
        assert chart.basis == ((Fraction(0), Fraction(1)),)

    def test_cross_bundle_fiber_dimension_jumps(self):
        b = cross_bundle()
        assert fiber_at(b, (Fraction(0), Fraction(0))).dim == 2
        assert fiber_at(b, (Fraction(1), Fraction(0))).dim == 1
        assert fiber_at(b, (Fraction(0), Fraction(3))).dim == 1
        chart = fiber_at(b, (Fraction(1), Fraction(0)))
        assert chart.basis == ((Fraction(0),) * 2 + (Fraction(1), Fraction(0)),)

    def test_shifted_addition_is_rejected(self):
        total = euclidean_space(2)
        base = euclidean_space(1)
        with pytest.raises(InvariantViolation) as err:
            build_bundle(
                "bad", total, base,
                add=["x0", "x1 + x3 + 1"],
                scale=["x1", "x0*x2"],
                zero=["x0", "0"],
            )
        assert err.value.check == "fiber-axioms"
        assert "neutral" in err.value.witness

    def test_base_moving_addition_is_rejected(self):
        total = euclidean_space(2)
        base = euclidean_space(1)
        with pytest.raises(InvariantViolation) as err:
            build_bundle(
                "bad", total, base,
                add=["x0 + 1", "x1 + x3"],
                scale=["x1", "x0*x2"],
                zero=["x0", "0"],
            )
        assert err.value.check == "add-fiberwise"

    def test_validation_names_every_construction_check(self):
        verdict = validate_bundle(line_bundle())
        assert verdict.is_yes
        assert verdict.certificate.summary == "construction checks replayed"
        assert [name for name, _ in verdict.certificate.parts] == [
            "projection-smooth", "projection-subduction", "zero-smooth", "add-smooth",
            "scale-smooth", "zero-section", "add-fiberwise", "scale-fiberwise",
            "fiber-axioms",
        ]

    def test_open_check_is_unknown_and_still_refused(self, monkeypatch):
        # a copy of the built bundle has an empty memo, so the checks rerun
        b = fresh_copy(line_bundle())
        monkeypatch.setattr(bundles, "is_subduction", lambda *a, **k: Verdict.unknown("planted"))
        verdict = validate_bundle(b)
        assert verdict.is_unknown
        assert verdict.detail == "projection-subduction: planted"
        with pytest.raises(InvariantViolation) as err:
            line_bundle()
        assert err.value.check == "projection-subduction"
        assert err.value.witness == "planted"

    def test_bundle_over_a_quotient_is_never_yes(self):
        # E = R^2/((x, v) ~ (-x, -v)) over R/+-: the fiber over [0] is the
        # half-line {[0, v]}, yet the pairs and fiber charts read
        # representatives and would find a line
        def sign(dim):
            flip = ExprVec.parse([f"-x{i}" for i in range(dim)], dim)
            rel = RelationPair("", ExprVec.identity(dim), "", flip, Domain.full(dim))
            return quotient_space(f"sign-{dim}", euclidean_space(dim), [rel])[0]

        with pytest.raises(InvariantViolation) as err:
            build_bundle(
                "half-lines", sign(2), sign(1),
                add=["x0", "x1 + x3"], scale=["x1", "x0*x2"], zero=["x0", "0"],
            )
        assert err.value.check == "fibered-product"
        assert err.value.witness == "fibered product over a quotient not modelled"

    def test_zero_section_equal_on_the_carrier_builds(self):
        # (x0, x1 + x0*x1) is the identity on the cross x0*x1 = 0, though
        # not as a formula
        b = cross_bundle()
        bent = build_bundle(
            "cross-bent-zero", b.total, b.base,
            add=["x0", "x1", "x2 + x6", "x3 + x7"],
            scale=["x1", "x2", "x0*x3", "x0*x4"],
            zero=["x0", "x1 + x0*x1", "0", "0"],
        )
        assert validate_bundle(bent).is_yes

    def test_uncertified_difference_is_unknown(self, monkeypatch):
        # a difference neither certified zero nor separated at a sample
        # point leaves the fiberwise check open, not refuted; a copy of the
        # built bundle has an empty memo, so the checks rerun
        b = fresh_copy(line_bundle())
        monkeypatch.setattr(
            bundles, "difference_witness",
            lambda *a, **k: "component 0 not certified equal",
        )
        verdict = validate_bundle(b)
        assert verdict.is_unknown
        assert verdict.detail == "add-fiberwise: component 0 not certified equal"

    def test_zero_bundle_has_point_fibers(self):
        zb = zero_bundle(euclidean_space(2))
        assert fiber_at(zb, (Fraction(1), Fraction(-3))).dim == 0


class TestVerdictMemos:
    def count_runs(self, monkeypatch, name):
        """Record each run of the bundles helper `name` behind a memo."""
        runs = []
        real = getattr(bundles, name)
        monkeypatch.setattr(bundles, name, lambda *a: runs.append(a) or real(*a))
        return runs

    def test_validate_returns_the_construction_verdict(self, monkeypatch):
        b = line_bundle()
        runs = self.count_runs(monkeypatch, "_construction_checks")
        verdict = validate_bundle(b)
        assert verdict.is_yes
        assert validate_bundle(b) is verdict
        # the construction's yes serves a larger budget too
        assert validate_bundle(b, budget=5) is verdict
        assert runs == []
        # a smaller budget or another sample count runs the checks afresh
        assert validate_bundle(b, budget=3) == verdict
        assert validate_bundle(b, sample_count=3) == verdict
        assert len(runs) == 2

    def test_same_formulas_into_another_bundle_are_kept_apart(self):
        b = line_bundle()
        # the same spaces with the fiber origin moved to (x, x)
        twisted = build_bundle(
            "twisted", b.total, b.base,
            add=["x0", "x1 + x3 - x0"],
            scale=["x1", "x0*(x2 - x1) + x1"],
            zero=["x0", "x0"],
        )
        ident = BundleMorphism(identity_map(b.total), identity_map(b.base))
        assert check_morphism(ident, b, b).is_yes
        moved = check_morphism(ident, b, twisted)
        assert moved.is_no
        assert moved.obstruction.detail.startswith("additivity: ")
        assert check_morphism(ident, b, b).is_yes

    def test_same_formulas_over_another_space_are_kept_apart(self):
        b = line_bundle()
        ident = BundleMorphism(identity_map(b.total), identity_map(b.base))
        assert check_morphism(ident, b, b).is_yes
        axis = subset_space("axis", euclidean_space(2), ExprVec.parse(["x1"], 2).components)
        onto_axis = BundleMorphism(
            smooth_map(b.total, axis, ["x0", "x1"]), identity_map(b.base)
        )
        verdict = check_morphism(onto_axis, b, b)
        assert verdict.is_no
        assert verdict.obstruction.kind == "point-image"

    def test_a_morphism_hit_runs_no_check_and_serves_larger_budgets(self, monkeypatch):
        b = line_bundle()
        stretch = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "(x0^2 + 1)*x1"]), identity_map(b.base)
        )
        first = check_morphism(stretch, b, b)
        runs = self.count_runs(monkeypatch, "_check_morphism_uncached")
        renamed = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1 + x0^2*x1"], name="stretch"),
            identity_map(b.base, name="base"),
        )
        assert check_morphism(renamed, b, b) is first
        assert check_morphism(stretch, b, b, budget=5) is first
        assert runs == []
        assert check_morphism(stretch, b, b, budget=3) == first
        assert len(runs) == 1

    def test_scale_given_as_a_map_must_act_on_r_times_the_total_space(self):
        total, base = euclidean_space(2), euclidean_space(1)
        texts = dict(add=["x0", "x1 + x3"], zero=["x0", "0"])
        scalars = product_space("R*E", euclidean_space(1), total)
        scale = smooth_map(scalars, total, ["x1", "x0*x2"])
        b = build_bundle("given", total, base, scale=scale, **texts)
        assert b.scale is scale
        flat = smooth_map(euclidean_space(3), total, ["x1", "x0*x2"])
        with pytest.raises(ValueError, match="scale must act on R times"):
            build_bundle("flat", total, base, scale=flat, **texts)


@pytest.fixture(scope="module")
def registry_charts():
    """Each registry bundle with its frame points and 30 base samples."""
    reg = load_registry()
    return [
        (bundle, [*reg.frame_points.get(name, ()), *bundle.base.sample_carrier_points("", 30)])
        for name, bundle in reg.bundles.items()
    ]


class TestChartMemo:
    def test_a_kept_chart_is_the_chart_computed_afresh(self, registry_charts):
        for bundle, points in registry_charts:
            fresh = fresh_copy(bundle)
            assert fresh._charts == {}
            for p in points:
                chart = fiber_at(bundle, p)
                assert chart == fiber_at(fresh, p)
                assert fiber_at(bundle, p) is chart
                assert bundle._charts[chart.basepoint] is chart

    def test_a_refused_point_is_refused_again_and_not_kept(self):
        bundle = load_registry().bundle("cross-bundle")
        kept = dict(bundle._charts)
        for _ in range(2):
            with pytest.raises(InvariantViolation) as err:
                fiber_at(bundle, (1, 1))
            assert err.value.check == "fiber-chart"
            assert err.value.witness == "zero section misses the fiber at (1, 1)"
        assert bundle._charts == kept

    def test_fiber_dimension_is_k_minus_the_rank_of_the_fiber_jacobian(self, registry_charts):
        # every registry bundle is affine in the fiber block v, so the
        # fiber over p is cut out by A(p) v + b(p) = 0 with A = d eq / d v
        for bundle, points in registry_charts:
            n, k = bundle.base_dim, bundle.fiber_block
            eqs = bundle.total.carrier.equations("")
            for p in points:
                chart = fiber_at(bundle, p)
                jacobian = [[eq.differentiate(n + j).eval(chart.origin) for j in range(k)]
                            for eq in eqs]
                assert chart.dim == k - rank(jacobian)
                if bundle.name == "cross-bundle":
                    assert (chart.dim == 2) == (chart.basepoint == (0, 0))


PLANTED = Verdict.unknown("planted")


def memo_user(name):
    """(module, the helper that runs behind the memo, a verdict it can be
    planted to return, ask) for one verdict memo; ask(budget, i) puts the
    i-th of a run of distinct questions that nothing has asked yet, all
    kept in one memo, to the public function (i = 0 by default)."""
    b = line_bundle()
    if name == "is_plot":
        def ask(k, i=0):
            candidate = Plot(Domain.full(1), ExprVec.parse([f"x0^3 + {i}", "x0^5"], 1))
            return is_plot(b.total, candidate, k)
        return spaces, "_is_plot_uncached", PLANTED, ask
    if name == "is_smooth":
        return (spaces, "_is_smooth_uncached", PLANTED,
                lambda k, i=0: is_smooth(smooth_map(b.total, b.base, [f"{i + 2}*x0"]), k))
    if name == "check_morphism":
        def ask(k, i=0):
            stretch = BundleMorphism(
                smooth_map(b.total, b.total, ["x0", f"(x0^2 + {i + 1})*x1"]),
                identity_map(b.base),
            )
            return check_morphism(stretch, b, b, k)
        return bundles, "_check_morphism_uncached", PLANTED, ask
    return (bundles, "_construction_checks", [("planted", PLANTED)],
            lambda k, i=0: validate_bundle(b, k, sample_count=7 + i))


@pytest.mark.parametrize(
    "name", ["is_plot", "is_smooth", "check_morphism", "validate_bundle"])
def test_every_verdict_memo_follows_the_one_budget_rule(monkeypatch, name):
    # the rule of spaces.memoised: a yes or no found at budget b serves
    # every budget >= b, and an unknown found at b every budget <= b
    module, helper, planted, ask = memo_user(name)
    _, _, _, ask_planted = memo_user(name)
    runs = []
    real = getattr(module, helper)
    monkeypatch.setattr(module, helper, lambda *a: runs.append(a) or real(*a))

    definite = ask(4)
    assert definite.is_yes and len(runs) == 1
    assert ask(5) is definite and ask(9) is definite
    assert len(runs) == 1
    ask(3)  # a smaller budget runs afresh
    assert len(runs) == 2

    monkeypatch.setattr(module, helper, lambda *a: runs.append(a) or planted)
    unknown = ask_planted(4)
    assert unknown.is_unknown and len(runs) == 3
    assert ask_planted(3) is unknown and ask_planted(1) is unknown
    assert len(runs) == 3
    ask_planted(5)  # a larger budget runs afresh
    assert len(runs) == 4


@pytest.mark.parametrize(
    "name", ["is_plot", "is_smooth", "check_morphism", "validate_bundle"])
def test_every_verdict_memo_drops_its_least_recently_used_question(monkeypatch, name):
    # after MEMO_ENTRIES newer distinct questions the first runs afresh,
    # to an equal verdict; one asked again in between stays a hit
    module, helper, _, ask = memo_user(name)
    runs = []
    real = getattr(module, helper)
    monkeypatch.setattr(module, helper, lambda *a: runs.append(a) or real(*a))
    first = ask(4)
    kept = ask(4, 1)
    for i in range(2, spaces.MEMO_ENTRIES + 1):
        ask(4, i)
        assert ask(4, 1) is kept
    assert len(runs) == spaces.MEMO_ENTRIES + 1
    again = ask(4)
    assert len(runs) == spaces.MEMO_ENTRIES + 2
    assert again == first and again is not first
    assert ask(4, 1) is kept
    assert len(runs) == spaces.MEMO_ENTRIES + 2


def test_distinct_candidates_leave_at_most_the_bound_of_keys():
    cross = load_registry().space("cross")
    for i in range(5 * spaces.MEMO_ENTRIES):
        assert is_plot(cross, Plot(Domain.full(1), ExprVec.parse([f"{i + 1}*x0", "0"], 1))).is_yes
        assert len(cross._memo) <= spaces.MEMO_ENTRIES
    assert len(cross._memo) == spaces.MEMO_ENTRIES


@st.composite
def _poly(draw, arity):
    """A small polynomial text of degree at most 2."""
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=arity + 2, max_size=arity + 2))
    monos = ["1", *(f"x{j}" for j in range(arity)), "x0^2"]
    return " + ".join(f"({c})*{m}" for c, m in zip(coeffs, monos))


@st.composite
def _plot_question(draw):
    """A membership-benchmark-shaped plot question: a plot by construction
    (an axis, a sign flip, or an axis times a line), or for the carrier
    spaces a map through a point off the cross, on R^1 or R^2 or a box."""
    space = draw(st.sampled_from(["cross", "quotient-sign", "product-cross-line"]))
    arity = draw(st.integers(1, 2))
    p = draw(_poly(arity))
    if space != "quotient-sign" and draw(st.booleans()):
        a, b = draw(st.sampled_from([-2, -1, 1, 2])), draw(st.sampled_from([-2, -1, 1, 2]))
        u = draw(st.integers(-2, 2))
        texts = [f"{a} + (x0 - ({u}))*({p})", f"{b} + (x0 - ({u}))*({draw(_poly(arity))})"]
    elif space == "quotient-sign":
        texts = [p if draw(st.booleans()) else f"-({p})"]
    else:
        texts = [p, "0"] if draw(st.booleans()) else ["0", p]
    if space == "product-cross-line":
        texts.append(draw(_poly(arity)))
    box = None
    if draw(st.booleans()):
        box = tuple((lo, lo + draw(st.integers(1, 3))) for lo in draw(
            st.lists(st.integers(-3, 2), min_size=arity, max_size=arity)))
    return ("plot", space, arity, tuple(texts), box)


@st.composite
def _cone_question(draw):
    """A tangent-cone probe at a carrier point, with a velocity in
    {-1, 0, 1}^n other than 0."""
    space = draw(st.sampled_from(["cross", "quotient-sign", "product-cross-line"]))
    a = draw(st.sampled_from([-2, -1, 1, 2]))
    if space == "quotient-sign":
        point = (draw(st.sampled_from([0, a])),)
    else:
        point = draw(st.sampled_from([(0, 0), (a, 0), (0, a)]))
        if space == "product-cross-line":
            point += (draw(st.integers(-2, 2)),)
    vector = draw(st.lists(st.integers(-1, 1), min_size=len(point), max_size=len(point))
                  .filter(any))
    return ("cone", space, tuple(map(Fraction, point)), tuple(map(Fraction, vector)))


def _answers(stream, bound):
    """(status, obstruction kind) of each question of the stream, asked in
    order of one fresh registry with memos of `bound` keys."""
    out = []
    with mock.patch.object(spaces, "MEMO_ENTRIES", bound):
        reg = load_registry()
        for question in stream:
            space = reg.space(question[1])
            if question[0] == "cone":
                v = cone_membership(space, question[2], question[3], 6)
            else:
                _, _, arity, texts, box = question
                domain = Domain.full(arity) if box is None else Domain(arity, [
                    Box(tuple(Interval(Fraction(lo), Fraction(hi)) for lo, hi in box))])
                candidate = Plot(domain, ExprVec.parse(list(texts), arity))
                v = is_plot(space, candidate, 6)
                assert not v.is_yes or verify_certificate(space, candidate, v.certificate, 6)
            out.append((v.status, v.obstruction.kind if v.obstruction else None))
    return out


@settings(max_examples=15)
@given(st.data())
def test_no_verdict_depends_on_the_memo_bound(data):
    pool = data.draw(st.lists(st.one_of(_plot_question(), _cone_question()),
                              min_size=1, max_size=5))
    stream = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    unbounded = _answers(stream, 10**6)
    for bound in (1, 2, 3):
        assert _answers(stream, bound) == unbounded, bound


class TestMorphisms:
    def test_fiberwise_stretch_is_an_isomorphism(self):
        b = line_bundle()
        stretch = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "(x0^2 + 1)*x1"]),
            identity_map(b.base),
        )
        assert check_morphism(stretch, b, b).is_yes
        inverse = invert_isomorphism(stretch, b, b)
        _, vec = inverse.phi.piece("")
        pt = vec.eval((Fraction(1), Fraction(6)))
        assert pt == (Fraction(1), Fraction(3))

    def test_squaring_the_fiber_is_not_additive(self):
        b = line_bundle()
        squared = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1^2"]),
            identity_map(b.base),
        )
        verdict = check_morphism(squared, b, b)
        assert verdict.is_no
        assert "additivity" in verdict.obstruction.detail

    def test_collapse_has_no_inverse(self):
        b = line_bundle()
        collapse = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "0"]),
            identity_map(b.base),
        )
        assert check_morphism(collapse, b, b).is_yes
        with pytest.raises(NoInverseFound) as err:
            invert_isomorphism(collapse, b, b)
        assert "not invertible" in err.value.reason

    def test_cross_bundle_doubling_inverts_exactly(self):
        b = cross_bundle()
        double = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1", "2*x2", "2*x3"]),
            identity_map(b.base),
        )
        assert check_morphism(double, b, b).is_yes
        inverse = invert_isomorphism(double, b, b)
        _, vec = inverse.phi.piece("")
        assert vec.eval((Fraction(0), Fraction(0), Fraction(4), Fraction(6))) == (
            Fraction(0), Fraction(0), Fraction(2), Fraction(3),
        )

    def test_supplied_inverse_is_verified(self):
        b = line_bundle()
        stretch = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "(x0^2 + 1)*x1"]),
            identity_map(b.base),
        )
        good = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1 / (x0^2 + 1)"]),
            identity_map(b.base),
        )
        assert invert_isomorphism(stretch, b, b, supplied=good) is good
        wrong = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1"]),
            identity_map(b.base),
        )
        with pytest.raises(NoInverseFound):
            invert_isomorphism(stretch, b, b, supplied=wrong)

    def test_base_inverse_equal_on_the_carrier_is_accepted(self):
        # (x0 + x0*x1, x1) restricts the identity to the cross x0*x1 = 0,
        # though not as a formula
        b = cross_bundle()
        ident = BundleMorphism(identity_map(b.total), identity_map(b.base))
        bent = BundleMorphism(
            identity_map(b.total), smooth_map(b.base, b.base, ["x0 + x0*x1", "x1"])
        )
        assert check_morphism(bent, b, b).is_yes
        assert invert_isomorphism(ident, b, b, supplied=bent) is bent

    def test_base_inverse_off_the_restriction_is_refused(self):
        b = line_bundle()
        ident = BundleMorphism(identity_map(b.total), identity_map(b.base))
        shifted = BundleMorphism(identity_map(b.total), smooth_map(b.base, b.base, ["x0 + 1"]))
        with pytest.raises(NoInverseFound) as err:
            invert_isomorphism(ident, b, b, supplied=shifted)
        assert err.value.reason == "base inverse is not the zero-section restriction"

    def test_uncertified_round_trip_is_not_an_inverse(self, monkeypatch):
        b = line_bundle()
        stretch = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "(x0^2 + 1)*x1"]),
            identity_map(b.base),
        )
        wrong = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1"]),
            identity_map(b.base),
        )
        plant_uncertified(monkeypatch)
        with pytest.raises(NoInverseFound) as err:
            invert_isomorphism(stretch, b, b, supplied=wrong)
        assert err.value.reason == "inverse not certified on the source side"


class TestHomotopy:
    def test_line_bundle_deforms_to_zero(self):
        verdict = homotopy_to_zero(line_bundle())
        assert verdict.is_yes
        names = [name for name, _ in verdict.certificate.parts]
        assert "projection-subduction" in names
        assert "t0-roundtrip-on-slice" in names
        assert "t1-zero-bundle-inverse" in names

    def test_open_subduction_leaves_the_deformation_unknown(self, monkeypatch):
        b = line_bundle()
        real = bundles.is_subduction

        def planted(f, *args, **kwargs):
            if f.name == "h.proj":
                return Verdict.unknown("planted")
            return real(f, *args, **kwargs)

        monkeypatch.setattr(bundles, "is_subduction", planted)
        verdict = homotopy_to_zero(b)
        assert verdict.is_unknown
        assert verdict.detail == "projection-subduction: planted"

    def test_base_must_be_a_vector_space(self):
        with pytest.raises(ValueError):
            homotopy_to_zero(cross_bundle())

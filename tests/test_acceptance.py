"""Desk-scale acceptance suite: one test per numbered claim.

Each test pins its own budgets, sample counts, and (where promised)
wall-clock limits, so `pytest -v tests/test_acceptance.py` reads as a
pass/fail line per claim.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from diffeokit.autgroups import (
    aut_diffeology,
    exact_sequence_check,
    frame_bundle_check,
    g_tangent_additivity,
    group_diffeology,
    random_frame,
    typical_fiber_check,
)
from diffeokit.bundles import check_morphism, homotopy_to_zero, invert_isomorphism
from diffeokit.calculus import (
    OverlapPair,
    affine_structure,
    check_connection_form,
    connections_equal,
    covariant_derivative,
    flat_connection,
    form_d,
    forms_equal,
    plot_form,
    raw_frame_differential,
    translate,
    validate_covariant,
    validate_form,
)
from diffeokit.cli import Run, _axioms_checks, main as cli_main
from diffeokit.domains import Domain
from diffeokit.expr import Expr, ExprVec
from diffeokit.fixtures import builtin_registry
from diffeokit.linalg import Matrix, invert_rational
from diffeokit.spaces import (
    EuclideanCarrier,
    Plot,
    is_plot,
    is_subduction,
    plot,
    pullback_space,
    pushforward_space,
)
from diffeokit.tangent import _find_germ, cone_membership

from test_autgroups import class_of, mat_mul, word_by_word_exact_sequence
from test_tangent import exhaustive_germ_search


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv("DIFFEO_FIXTURE_PATH", raising=False)


def _poly(rng: random.Random, arity: int, degree: int) -> Expr:
    total = Expr.zero(arity)
    for k in range(degree + 1):
        term = Expr.constant(arity, rng.randint(-3, 3))
        for _ in range(k):
            term = term * Expr.variable(arity, rng.randrange(arity))
        total = total + term
    return total


def _compose(outer: ExprVec, inner: ExprVec) -> ExprVec:
    return ExprVec([c.compose(inner.components) for c in outer.components])


def _identity_pullback(space):
    pieces = tuple(
        (comp, comp, ExprVec.identity(space.carrier.ambient_dim(comp)))
        for comp in space.carrier.components()
    )
    return pullback_space(f"{space.name}-idpb", space.carrier, pieces, space)


def _identity_pushforward(space):
    pieces = tuple(
        (comp, comp, ExprVec.identity(space.carrier.ambient_dim(comp)))
        for comp in space.carrier.components()
    )
    return pushforward_space(f"{space.name}-idpf", space.carrier, space, pieces)


def _candidate_suite(space, rng: random.Random, count: int) -> list[Plot]:
    gens = space.generators
    n = space.carrier.ambient_dim("")
    out = []
    while len(out) < count:
        mode = len(out) % 3
        g = gens[rng.randrange(len(gens))]
        if mode == 0:
            u = g.domain.sample_points(4)[rng.randrange(4)]
            value = tuple(c.eval(u) for c in g.map.components)
            out.append(Plot(Domain.full(1), ExprVec.constant(1, value), g.component))
        elif mode == 1:
            arity = 1 + rng.randrange(2)
            factor = [_poly(rng, arity, 2) for _ in range(g.domain.dim)]
            out.append(
                Plot(
                    Domain.full(arity),
                    ExprVec([c.compose(factor) for c in g.map.components]),
                    g.component,
                )
            )
        else:
            out.append(Plot(Domain.full(1), ExprVec([_poly(rng, 1, 2) for _ in range(n)])))
    return out


def _random_matrix(rng: random.Random, k: int, arity: int, degree: int = 2) -> Matrix:
    return Matrix(
        [[_poly(rng, arity, degree) for _ in range(k)] for _ in range(k)]
    )


def _transport(mats, factor: ExprVec, fine_arity: int, k: int) -> list[Matrix]:
    """Coefficients of the same connection along plot-composed-with-factor."""
    out = []
    for s in range(fine_arity):
        rows = [[Expr.zero(fine_arity) for _ in range(k)] for _ in range(k)]
        for j, mat in enumerate(mats):
            rate = factor.components[j].differentiate(s)
            for a in range(k):
                for b in range(k):
                    moved = mat.rows[a][b].compose(factor.components)
                    rows[a][b] = rows[a][b] + rate * moved
        out.append(Matrix(rows))
    return out


def _random_compatible_connection(rng, k, coarse_plots, overlaps):
    assignments = []
    coarse_mats = {}
    for p in coarse_plots:
        mats = [_random_matrix(rng, k, p.domain.dim) for _ in range(p.domain.dim)]
        coarse_mats[id(p)] = mats
        assignments.append((p, mats))
    for pair in overlaps:
        mats = _transport(
            coarse_mats[id(pair.coarse)], pair.factor, pair.fine.domain.dim, k
        )
        assignments.append((pair.fine, mats))
    return covariant_derivative(k, assignments)


class TestAcceptance:
    def test_01_axiom_closure_on_every_builtin_space(self, reg):
        started = time.monotonic()
        for name in sorted(reg.spaces):
            laws = _axioms_checks(Run(reg, 4, 7), name, trials=100)
            for law, _, (verdict, witnesses) in laws:
                assert verdict == "yes", (name, law, witnesses)
        assert time.monotonic() - started < 60.0

    def test_02_identity_towers_and_product_projections(self, reg):
        rng = random.Random(2)
        for name in sorted(reg.spaces):
            space = reg.space(name)
            idpb = _identity_pullback(space)
            idpf = _identity_pushforward(space)
            for cand in _candidate_suite(space, rng, 50):
                expected = is_plot(space, cand).status
                assert is_plot(idpb, cand).status == expected, name
                assert is_plot(idpf, cand).status == expected, name

        # pulling back along f then g agrees with pulling back along f o g
        cross = reg.space("cross")
        swap = ExprVec.parse(["x1", "x0"], 2)
        curve = ExprVec.parse(["x0", "x0^2"], 1)
        f_star = pullback_space("f-star", EuclideanCarrier(2), (("", "", swap),), cross)
        stepwise = pullback_space(
            "g-star-f-star", EuclideanCarrier(1), (("", "", curve),), f_star
        )
        joint = pullback_space(
            "fg-star", EuclideanCarrier(1), (("", "", _compose(swap, curve)),), cross
        )
        for cand in _candidate_suite(reg.space("r1"), rng, 50):
            if cand.domain.dim != 1:
                continue
            assert is_plot(stepwise, cand).status == is_plot(joint, cand).status

        for name in ("product-line-line", "product-cross-line"):
            for side in ("left", "right"):
                assert is_subduction(reg.map(f"{name}-{side}")).is_yes

    def test_03_cross_cone_with_exhaustive_germ_confirmation(self, reg):
        started = time.monotonic()
        cross = reg.space("cross")
        origin = (Fraction(0), Fraction(0))
        for v in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert cone_membership(cross, origin, v, budget=6).is_in, v
        for v in ((1, 1), (1, -1)):
            verdict = cone_membership(cross, origin, v, budget=6)
            assert verdict.is_out, v
            probe = tuple(Fraction(c) for c in v)
            assert _find_germ(cross, origin, probe, 6)[0] is None
            assert exhaustive_germ_search(cross, origin, probe, degree=6).is_no, v
        side = (Fraction(1), Fraction(0))
        for v, inside in (((1, 0), True), ((-1, 0), True), ((0, 1), False), ((0, -1), False)):
            verdict = cone_membership(cross, side, v, budget=6)
            assert verdict.is_in is inside and verdict.is_out is not inside, v
        assert time.monotonic() - started < 30.0

    def test_04_every_fixture_isomorphism_inverts(self, reg):
        count = 0
        for group in reg.groups.values():
            b = group.bundle
            for m in group.generators + group.inverses:
                inv = invert_isomorphism(m, b, b)
                assert check_morphism(inv, b, b).is_yes
                _, phi_inv = inv.phi.piece("")
                _, zero_vec = b.zero.piece("")
                _, proj_vec = b.projection.piece("")
                through_zero = _compose(proj_vec, _compose(phi_inv, zero_vec))
                _, varphi_inv = inv.varphi.piece("")
                assert through_zero == varphi_inv
                count += 1
        assert count == 8

    def test_05_deformation_endpoints_for_the_trivial_line_bundle(self, reg):
        verdict = homotopy_to_zero(reg.bundle("line-bundle"))
        assert verdict.is_yes, verdict
        names = {name for name, _ in verdict.certificate.parts}
        assert any(name.startswith("t0-") for name in names)
        assert any(name.startswith("t1-") for name in names)

    def test_06_kernel_equals_linear_part_for_both_groups(self, reg):
        # the proof reads the generator, inverse and projection
        # certificates; the word-by-word reference confirms kernel = linear
        # part on the words it enumerates
        started = time.monotonic()
        for name in ("scale-translate", "axis-swap"):
            group = reg.groups[name]
            verdict = exact_sequence_check(group.bundle, group, budget=4)
            assert verdict.is_yes, verdict.obstruction
            assert "kernel = linear part" in verdict.detail
            parts = dict(verdict.certificate.parts)
            for k in range(len(group.generators)):
                for label in ("generator", "inverse"):
                    assert parts[f"{label} {k}"].rule == "bundle-morphism"
            assert parts["projection"].rule == "subduction"
            reference = word_by_word_exact_sequence(group.bundle, group, budget=4)
            assert reference.is_yes, reference.obstruction
            words = dict(reference.certificate.parts)
            assert words["kernel"] == words["linear"]
        assert time.monotonic() - started < 60.0

    def test_07_orbit_classes_separate_and_the_origin_isolates(self, reg):
        b = reg.bundle("cross-bundle")
        group = reg.groups["axis-swap"]
        points = [
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(2), Fraction(0)),
        ]
        report = typical_fiber_check(b, group, points=points, word_length=4)
        assert len(report.classes) > 1
        origin = class_of(report, (0, 0))
        assert origin.members == ((Fraction(0), Fraction(0)),)
        assert origin.fiber_dim == 2
        assert any("dimensions" in why for _, _, why in report.separations)

        orbit_space = group_diffeology("orbit-classes", b.base, group.families)
        crossing = plot(Domain.full(1), ["x0", "0"])
        assert is_plot(orbit_space, crossing).is_no
        total_space = aut_diffeology(b, group)
        through = plot(Domain.full(1), ["x0", "0", "0", "0"])
        assert is_plot(total_space, through).is_no

    def test_08_velocity_additivity_on_twenty_random_flow_pairs(self, reg):
        fx = reg.flows["linear-flow"]
        assert g_tangent_additivity(fx.space, list(fx.families), list(fx.points)).is_yes
        rng = random.Random(8)
        for _ in range(20):
            families = []
            for _ in range(2):
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                families.append(
                    ExprVec.parse(
                        [
                            f"x1 + x0*(({a})*x1 + ({b})*x2)",
                            f"x2 + x0*(({c})*x1 + ({d})*x2)",
                        ],
                        3,
                    )
                )
            points = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)) for _ in range(2)
            ]
            verdict = g_tangent_additivity(fx.space, families, points)
            assert verdict.is_yes, verdict

    def test_09_fifty_frame_pairs_in_scalar_and_matrix_fixtures(self, reg):
        rng = random.Random(9)
        for bundle_name, x in (("line-bundle", (Fraction(2),)), ("plane-bundle", (Fraction(0),))):
            b = reg.bundle(bundle_name)
            pairs = [
                (random_frame(b, x, rng), random_frame(b, x, rng)) for _ in range(50)
            ]
            report = frame_bundle_check(b, pairs)
            assert report.ok and report.pairs == 50
            for f1, f2 in pairs:
                g = mat_mul(f1.inverse, f2.matrix)
                assert mat_mul(f1.matrix, g) == f2.matrix

    def test_10_form_fixtures_validate_and_dd_vanishes(self, reg):
        for name, fx in reg.forms.items():
            assert validate_form(fx.form, fx.overlaps).is_yes, name
        rng = random.Random(10)
        plane = Plot(Domain.full(2), ExprVec.identity(2))
        nothing = plot_form(2, 1, [(plane, {})])
        for _ in range(10):
            section = plot_form(0, 1, [(plane, {(): ExprVec([_poly(rng, 2, 3)])})])
            assert forms_equal(form_d(form_d(section)), nothing)
            one = plot_form(
                1,
                1,
                [(plane, {0: ExprVec([_poly(rng, 2, 3)]), 1: ExprVec([_poly(rng, 2, 3)])})],
            )
            assert form_d(form_d(one)).coefficients(plane) == {}

    def test_11_connection_differences_are_forms_and_flat_validates(self, reg):
        started = time.monotonic()
        rng = random.Random(11)
        line_plot = Plot(Domain.full(1), ExprVec.identity(1))
        cubic_plot = Plot(Domain.full(1), ExprVec.parse(["x0^3"], 1))
        cubic_pair = OverlapPair(cubic_plot, line_plot, ExprVec.parse(["x0^3"], 1))
        cross = reg.space("cross")
        bent_axis = Plot(
            cross.generators[0].domain,
            _compose(cross.generators[0].map, ExprVec.parse(["x0^3"], 1)),
        )
        bent_pair = OverlapPair(bent_axis, cross.generators[0], ExprVec.parse(["x0^3"], 1))

        setups = {
            "line-bundle": (1, (line_plot,), (cubic_pair,)),
            "plane-bundle": (2, (line_plot,), (cubic_pair,)),
            "cross-bundle": (2, cross.generators, (bent_pair,)),
        }
        for bundle_name, (k, coarse, overlaps) in setups.items():
            family = tuple(coarse) + tuple(p.fine for p in overlaps)
            flat = flat_connection(k, family)
            assert validate_covariant(flat, overlaps).is_yes, bundle_name
            for _ in range(20):
                first = _random_compatible_connection(rng, k, coarse, overlaps)
                second = _random_compatible_connection(rng, k, coarse, overlaps)
                assert validate_covariant(first, overlaps).is_yes
                assert validate_covariant(second, overlaps).is_yes
                diff = affine_structure(first, second)
                assert validate_form(diff, overlaps).is_yes
                assert connections_equal(translate(second, diff), first)
                back = affine_structure(second, first)
                assert connections_equal(translate(first, back), second)
        assert time.monotonic() - started < 60.0

    def test_12_equivariance_for_twenty_sampled_matrices(self, reg):
        fm = reg.frame_models["frame-plane"]
        rng = random.Random(12)
        samples = []
        while len(samples) < 20:
            mat = tuple(
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
                for _ in range(2)
            )
            if invert_rational(mat) is not None:
                samples.append(mat)
        assert check_connection_form(fm.theta, fm.plots, samples).is_yes

        planted = raw_frame_differential(fm.base_dim, fm.dim_f)
        verdict = check_connection_form(planted, fm.plots, samples)
        assert verdict.is_no
        assert verdict.obstruction.kind == "equivariance"
        assert "sample" in verdict.obstruction.detail

    def test_13_full_suite_reports_are_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(["all", "--seed", "7", "--format", "json", "--out", str(first)]) == 0
        assert cli_main(["all", "--seed", "7", "--format", "json", "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text(encoding="utf-8"))
        assert doc["seed"] == 7
        assert doc["checks"]

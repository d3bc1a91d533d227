"""Word groups acting on bundles: exactness, orbits, families, frames."""

import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit import autgroups, bundles, expr, spaces
from diffeokit.autgroups import (
    BundleMorphism,
    FinGenGroup,
    bundle_group,
    enumerate_elements,
    exact_sequence_check,
    family_velocity,
    frame,
    frame_bundle_check,
    g_tangent_additivity,
    aut_diffeology,
    group_diffeology,
    random_frame,
    typical_fiber_check,
    word_name,
)
from diffeokit.bundles import _difference_verdict, check_morphism, validate_bundle
from diffeokit.cli import main as cli_main
from diffeokit.domains import Domain
from diffeokit.expr import ExprVec
from diffeokit.fixtures import load_registry
from diffeokit.linalg import invert_rational
from diffeokit.spaces import (
    DEFAULT_BUDGET,
    ChecksCert,
    Obstruction,
    Verdict,
    all_hold,
    euclidean_space,
    identity_map,
    is_plot,
    is_smooth,
    plot,
    smooth_map,
)

from test_bundles import cross_bundle, line_bundle, plant_uncertified


def class_of(report, x):
    """The orbit class of a sampled point."""
    x = tuple(Fraction(c) for c in x)
    return next(cls for cls in report.classes if x in cls.members)


def scale_translate_group(b):
    sigma = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "(x0^2 + 1)*x1"]),
        identity_map(b.base),
    )
    sigma_inv = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "x1 / (x0^2 + 1)"]),
        identity_map(b.base),
    )
    tau = BundleMorphism(
        smooth_map(b.total, b.total, ["x0 + 1", "x1"]),
        smooth_map(b.base, b.base, ["x0 + 1"]),
    )
    tau_inv = BundleMorphism(
        smooth_map(b.total, b.total, ["x0 - 1", "x1"]),
        smooth_map(b.base, b.base, ["x0 - 1"]),
    )
    return bundle_group(
        "scale-translate", b, [(sigma, sigma_inv), (tau, tau_inv)],
        families=[ExprVec.parse(["x1 + x0"], 2)],
    )


def cross_swap_group(b):
    swap = BundleMorphism(
        smooth_map(b.total, b.total, ["x1", "x0", "x3", "x2"]),
        smooth_map(b.base, b.base, ["x1", "x0"]),
    )
    double = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "x1", "2*x2", "2*x3"]),
        identity_map(b.base),
    )
    halve = BundleMorphism(
        smooth_map(b.total, b.total, ["x0", "x1", "x2 / 2", "x3 / 2"]),
        identity_map(b.base),
    )
    return bundle_group("cross-swap", b, [(swap, swap), (double, halve)])


class TestWords:
    def test_word_names(self):
        assert word_name(()) == "e"
        assert word_name((1, -2, 1)) == "g0*g1^-1*g0"

    def test_enumeration_deduplicates_involutions(self):
        b = cross_bundle()
        group = cross_swap_group(b)
        elements = enumerate_elements(group, 2)
        words = {el.word for el in elements}
        assert () in words
        assert (1,) in words
        # swap*swap collapses back to the identity element
        assert (1, 1) not in words

    def test_bad_inverse_is_rejected(self):
        b = line_bundle()
        gen = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "2*x1"]), identity_map(b.base)
        )
        wrong = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1"]), identity_map(b.base)
        )
        with pytest.raises(ValueError, match="does not invert"):
            bundle_group("bad", b, [(gen, wrong)])

    def test_uncertified_inverse_is_refused_as_not_certified(self, monkeypatch):
        b = line_bundle()
        gen = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "2*x1"]), identity_map(b.base)
        )
        wrong = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "x1"]), identity_map(b.base)
        )
        plant_uncertified(monkeypatch)
        with pytest.raises(ValueError, match="generator 0 of bad: inverse not certified"):
            bundle_group("bad", b, [(gen, wrong)])


def word_by_word_exact_sequence(bundle, group, budget):
    """The exact-sequence check as it was before it read the generator
    certificates: both inclusions of kernel = linear part on every reduced
    word of length at most the budget, and the base projection's
    compatibility with composition on every pair of words of length at
    most 2.  Kept as the reference the certificate proof is checked
    against.

    A yes carries the kernel and linear words in a `ChecksCert`.  A no
    lists every separated difference, and every word whose kernel and
    linearity tests are both decided and disagree.  Otherwise an
    uncertified difference leaves the check unknown, naming its words.
    """
    elements = enumerate_elements(group, budget)
    _, proj = bundle.projection.piece("")
    d = bundle.ambient_dim
    n = bundle.base_dim

    failures, open_ = [], []

    def read(space, lhs, rhs, pending, failed=None):
        v = _difference_verdict(space, lhs, rhs, budget)
        if v.is_unknown:
            open_.append(f"{pending}: {v.detail}")
        elif v.is_no and failed:
            failures.append(f"{failed}: {v.obstruction.detail}")
        return v

    short = [el for el in elements if len(el.word) <= 2]
    for a in short:
        # proj.(a.b) as (proj.a).b: the fibre part of a.b is never built
        proj_a = proj.compose(a.phi)
        for b in short:
            lhs = proj_a.compose(b.phi)
            rhs = a.varphi.compose(b.varphi).compose(proj)
            pair = f"{word_name(a.word)} after {word_name(b.word)}"
            read(bundle.total, lhs, rhs, pair, pair)

    # inverse of a word w = v + (g,): g^-1 after the inverse of v
    inverses = {(): ExprVec.identity(d)}

    def inverse(word):
        vec = inverses.get(word)
        if vec is None:
            i = abs(word[-1]) - 1
            m = group.inverses[i] if word[-1] > 0 else group.generators[i]
            vec = inverses[word] = m.phi.piece("")[1].compose(inverse(word[:-1]))
        return vec

    kernel, linear = [], []
    for el in elements:
        name = word_name(el.word)
        in_kernel = read(
            bundle.base, el.varphi, ExprVec.identity(n), f"{name}: kernel test"
        )
        is_linear = read(
            bundle.total, proj.compose(el.phi), proj, f"{name}: linearity test"
        )
        if in_kernel.is_yes:
            kernel.append(name)
            back = el.phi.compose(inverse(el.word))
            read(bundle.total, back, ExprVec.identity(d), f"kernel word {name}: inverse",
                 f"kernel word {name} is not invertible")
        if is_linear.is_yes:
            linear.append(name)
        decided = not (in_kernel.is_unknown or is_linear.is_unknown)
        if decided and in_kernel.is_yes != is_linear.is_yes:
            side = "kernel without linearity" if in_kernel.is_yes else "linear with moving base"
            failures.append(f"{name}: {side}")
    if failures:
        return Verdict.no(Obstruction("exact-sequence", detail="; ".join(failures)))
    if open_:
        return Verdict.unknown("; ".join(open_))
    return Verdict.yes(
        ChecksCert(
            f"{len(elements)} reduced words",
            (("kernel", tuple(kernel)), ("linear", tuple(linear))),
        ),
        detail=f"kernel = linear part ({len(kernel)} words)",
    )


def drift_group(b):
    # phi moves the base point but varphi claims it stays put; built
    # directly, since bundle_group would refuse the pair
    drift = BundleMorphism(
        smooth_map(b.total, b.total, ["x0 + 1", "x1"]), identity_map(b.base)
    )
    back = BundleMorphism(
        smooth_map(b.total, b.total, ["x0 - 1", "x1"]), identity_map(b.base)
    )
    return FinGenGroup("drift", b, (drift,), (back,))


def identity_group(b):
    ident = BundleMorphism(identity_map(b.total), identity_map(b.base))
    return bundle_group("trivial", b, [(ident, ident)])


def suite_group(seed, tmp_path):
    """The seeded group of the benchmark's suite workload, loaded from the
    fixture file the benchmark writes."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    path = tmp_path / f"suite-{seed}.json"
    block = gen.suite_group(seed)
    path.write_text(json.dumps({"group": block}), encoding="utf-8")
    return load_registry([path]).group(block["name"])


def cross_check_groups(tmp_path):
    reg = load_registry()
    groups = {name: reg.group(name) for name in reg.groups}
    for seed in (0, 7):
        groups[f"suite seed {seed}"] = suite_group(seed, tmp_path)
    groups["cross-swap"] = cross_swap_group(cross_bundle())
    groups["trivial"] = identity_group(line_bundle())
    groups["drift"] = drift_group(line_bundle())
    return groups


class TestExactSequence:
    """The certificate proof, and the word-by-word reference it replaced."""

    def test_scale_translate_kernel_is_the_linear_part(self):
        b = line_bundle()
        verdict = word_by_word_exact_sequence(b, scale_translate_group(b), budget=4)
        assert verdict.is_yes
        words = dict(verdict.certificate.parts)
        assert set(words["kernel"]) == set(words["linear"])
        assert "e" in words["kernel"]
        assert "g0" in words["kernel"]
        assert "g1" not in words["kernel"]
        # a conjugated scaling stays in the kernel
        assert "g1*g0*g1^-1" in words["kernel"]

    def test_cross_swap_kernel(self):
        b = cross_bundle()
        verdict = word_by_word_exact_sequence(b, cross_swap_group(b), budget=3)
        assert verdict.is_yes
        kernel = dict(verdict.certificate.parts)["kernel"]
        assert "g0" not in kernel
        assert "g1" in kernel

    def test_identity_only_group(self):
        b = line_bundle()
        group = identity_group(b)
        verdict = word_by_word_exact_sequence(b, group, budget=3)
        assert verdict.is_yes
        words = dict(verdict.certificate.parts)
        assert words["kernel"] == words["linear"] == ("e",)
        proof = exact_sequence_check(b, group, budget=3)
        assert proof.is_yes
        assert [name for name, _ in proof.certificate.parts] == [
            "generator 0", "inverse 0", "projection"]

    def test_base_map_that_disagrees_with_the_total_map_is_refuted(self):
        b = line_bundle()
        group = drift_group(b)
        verdict = word_by_word_exact_sequence(b, group, budget=1)
        assert verdict.is_no
        assert verdict.obstruction.kind == "exact-sequence"
        assert "g0: kernel without linearity" in verdict.obstruction.detail
        assert "e after g0: component 0 differs at (" in verdict.obstruction.detail
        assert "Fraction(" not in verdict.obstruction.detail

        # the certificate proof refuses the generator's own square
        proof = exact_sequence_check(b, group, budget=1)
        assert proof.is_no
        assert proof.obstruction.kind == "exact-sequence"
        assert proof.obstruction.detail.startswith(
            "generator 0: morphism: square: component 0 differs at (")
        assert "Fraction(" not in proof.obstruction.detail

    def test_uncertified_differences_leave_the_sequence_unknown(self, monkeypatch):
        # separated differences turned uncertified: translations are then
        # neither known to move the base nor known to fix it
        b = line_bundle()
        group = scale_translate_group(b)
        plant_uncertified(monkeypatch)
        verdict = word_by_word_exact_sequence(b, group, budget=2)
        assert verdict.is_unknown
        assert verdict.detail.startswith("g1: kernel test: component 0 not certified equal")
        # the generator certificates are agreements, which the plant leaves
        # alone, and the proof reads no word difference
        assert exact_sequence_check(b, group, budget=2).is_yes

    def test_uncertified_drift_is_unknown_not_refuted(self, monkeypatch):
        b = line_bundle()
        group = drift_group(b)
        plant_uncertified(monkeypatch)
        verdict = word_by_word_exact_sequence(b, group, budget=1)
        assert verdict.is_unknown
        assert "e after g0: component 0 not certified equal" in verdict.detail
        assert "g0: linearity test: component 0 not certified equal" in verdict.detail
        for budget in (1, 4):
            proof = exact_sequence_check(b, group, budget=budget)
            assert proof.is_unknown
            assert proof.detail.startswith("generator 0: square: component 0 not certified equal")

    def test_an_inverse_that_does_not_invert_is_refuted(self):
        b = line_bundle()
        double = BundleMorphism(
            smooth_map(b.total, b.total, ["x0", "2*x1"]), identity_map(b.base)
        )
        group = FinGenGroup("wrong", b, (double,), (double,))
        proof = exact_sequence_check(b, group, budget=2)
        assert proof.is_no
        assert proof.obstruction.detail.startswith(
            "generator 0 does not invert: component 1 differs at (")

    @pytest.mark.parametrize("budget", [1, 2, 3, 4])
    def test_proof_and_word_by_word_reference_agree(self, budget, tmp_path):
        for name, group in cross_check_groups(tmp_path).items():
            b = group.bundle
            proof = exact_sequence_check(b, group, budget=budget)
            reference = word_by_word_exact_sequence(b, group, budget=budget)
            assert proof.status == reference.status, (name, proof, reference)
            if reference.is_yes:
                words = dict(reference.certificate.parts)
                assert words["kernel"] == words["linear"], name
                assert "kernel = linear part" in proof.detail

    @pytest.mark.parametrize("group", ["scale-translate", "axis-swap"])
    def test_the_proof_enumerates_no_word(self, group, monkeypatch, capsys):
        reg = load_registry()
        g = reg.group(group)
        expected = exact_sequence_check(g.bundle, g, budget=4)
        assert expected.is_yes

        def no_words(*args, **kwargs):
            raise AssertionError("exact_sequence_check enumerated words")

        monkeypatch.setattr(autgroups, "enumerate_elements", no_words)
        for budget in (1, 4, 8):
            verdict = exact_sequence_check(g.bundle, g, budget=budget)
            assert verdict == expected
            assert verdict.certificate == expected.certificate
        assert cli_main(["exact-sequence", "line-bundle", "scale-translate",
                         "--budget", "8"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("bundle, group", [("line-bundle", "scale-translate"),
                                               ("cross-bundle", "axis-swap")])
    def test_projecting_first_gives_the_composed_pair(self, bundle, group):
        # the reference's pair loop computes (proj.a).b, so the fibre part
        # of a.b is never built; composition is associative, in canonical
        # form too
        reg = load_registry()
        _, proj = reg.bundle(bundle).projection.piece("")
        short = enumerate_elements(reg.group(group), 2)
        assert len(short) > 1
        for a in short:
            for b in short:
                assert proj.compose(a.phi).compose(b.phi) == proj.compose(a.phi.compose(b.phi))


class TestExactSequenceMemos:
    MEMOS = (expr._witness_expansion,)

    def test_cold_warm_and_after_other_group_give_one_word_list(self):
        reg = load_registry()

        def run(group):
            return [(el.word, el.key()) for el in enumerate_elements(reg.group(group), 4)]

        for memo in self.MEMOS:
            memo.cache_clear()
        cold = run("scale-translate")
        hits = sum(memo.cache_info().hits for memo in self.MEMOS)
        warm = run("scale-translate")
        assert sum(memo.cache_info().hits for memo in self.MEMOS) > hits
        assert run("axis-swap")
        after_other = run("scale-translate")

        assert len(cold) == 153
        assert warm == cold
        assert after_other == cold


class TestVerdictMemos:
    """is_smooth, check_morphism and the bundle construction checks are
    memoised on the objects they certify; a hit must be the verdict a run
    without any of these memos computes."""

    def registries(self, tmp_path):
        path = tmp_path / "quotient-maps.json"
        path.write_text(json.dumps({"maps": [
            {"name": "unfold", "source": "quotient-sign", "target": "r1", "map": ["x0"]},
            {"name": "fold", "source": "quotient-sign", "target": "r1", "map": ["x0^2"]},
        ]}), encoding="utf-8")
        regs = [load_registry([path])]
        for seed in (0, 7):
            suite_group(seed, tmp_path)  # writes suite-SEED.json
            regs.append(load_registry([tmp_path / f"suite-{seed}.json"]))
        return regs

    def test_every_hit_equals_the_unmemoised_verdict(self, tmp_path, monkeypatch):
        budget = DEFAULT_BUDGET
        maps, morphisms, built = [], [], []
        for reg in self.registries(tmp_path):
            maps.extend(reg.maps.values())
            for b in reg.bundles.values():
                maps.extend((b.projection, b.add, b.scale, b.zero))
                built.append(b)
            for group in reg.groups.values():
                for m in group.generators + group.inverses:
                    maps.extend((m.phi, m.varphi))
                    morphisms.append((m, group.bundle))
        smooth = [(is_smooth(f, budget), is_smooth(f, budget)) for f in maps]
        morph = [(check_morphism(m, b, b, budget), check_morphism(m, b, b, budget))
                 for m, b in morphisms]
        valid = [(validate_bundle(b, budget), validate_bundle(b, budget)) for b in built]
        assert all(first is hit for first, hit in smooth + morph + valid)
        assert {v.status for v, _ in smooth} == {"yes", "no"}

        # the same checks with every memo of the three bypassed
        for module in (spaces, bundles):
            monkeypatch.setattr(module, "is_smooth", spaces._is_smooth_uncached)
        assert [hit for _, hit in smooth] == [
            spaces._is_smooth_uncached(f, budget) for f in maps
        ]
        assert [hit for _, hit in morph] == [
            bundles._check_morphism_uncached(m, b, b, budget) for m, b in morphisms
        ]
        assert [hit for _, hit in valid] == [
            all_hold("construction checks replayed", bundles._construction_checks(b, budget, 6))
            for b in built
        ]

    def test_registry_groups_are_certified_once(self, monkeypatch):
        reg = load_registry()
        runs = []
        for name in ("_check_morphism_uncached", "_construction_checks"):
            real = getattr(bundles, name)
            monkeypatch.setattr(
                bundles, name, lambda *a, real=real, name=name: runs.append(name) or real(*a)
            )
        # a yes found at the registry's budget serves every larger budget
        for budget in (DEFAULT_BUDGET, DEFAULT_BUDGET + 1, DEFAULT_BUDGET + 4):
            for group in reg.groups.values():
                assert exact_sequence_check(group.bundle, group, budget).is_yes
            for b in reg.bundles.values():
                assert validate_bundle(b, budget).is_yes
        assert runs == []
        # a smaller budget certifies afresh (exact_sequence_check never
        # searches below DEFAULT_BUDGET, so ask check_morphism directly)
        group = reg.group("scale-translate")
        for m in group.generators:
            assert check_morphism(m, group.bundle, group.bundle, DEFAULT_BUDGET - 1).is_yes
        assert validate_bundle(group.bundle, DEFAULT_BUDGET - 1).is_yes
        assert runs == ["_check_morphism_uncached"] * len(group.generators) + [
            "_construction_checks"]

    def test_an_entry_goes_with_its_target(self):
        # homotopy_to_zero checks a map from the bundle into a quotient it
        # builds for that call; the bundle keeps no entry for it afterwards
        b = load_registry().bundle("line-bundle")
        before = set(b.total._smooth.keys())
        for _ in range(2):
            assert bundles.homotopy_to_zero(b).is_yes
        gc.collect()
        assert set(b.total._smooth.keys()) == before


class TestOrbits:
    def test_translations_act_transitively_on_integer_samples(self):
        b = line_bundle()
        group = scale_translate_group(b)
        points = [(Fraction(k),) for k in range(-2, 3)]
        report = typical_fiber_check(b, group, points=points, word_length=4)
        assert len(report.classes) == 1
        assert report.classes[0].fiber_dim == 1

    def test_cross_origin_is_isolated_by_dimension(self):
        b = cross_bundle()
        group = cross_swap_group(b)
        points = [
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(2), Fraction(0)),
        ]
        report = typical_fiber_check(b, group, points=points, word_length=4)
        assert len(report.classes) > 1
        origin_class = class_of(report, (0, 0))
        assert origin_class.members == ((Fraction(0), Fraction(0)),)
        assert origin_class.fiber_dim == 2
        other = class_of(report, (1, 0))
        assert set(other.members) >= {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
        assert any("dimensions 2 and 1" in why or "dimensions 1 and 2" in why
                   for _, _, why in report.separations)

    def test_empty_group_separates_everything(self):
        b = line_bundle()
        group = bundle_group("empty", b, [])
        points = [(Fraction(0),), (Fraction(1),)]
        report = typical_fiber_check(b, group, points=points)
        assert len(report.classes) == 2


class TestGroupDiffeology:
    def test_discrete_group_admits_only_constants(self):
        b = cross_bundle()
        space = group_diffeology("orbits", b.base, ())
        walk = plot(Domain.full(1), ["x0", "0"])
        assert is_plot(space, walk).is_no
        still = plot(Domain.full(1), ["1", "0"])
        assert is_plot(space, still).is_yes

    def test_translation_family_makes_the_line_standard(self):
        b = line_bundle()
        space = group_diffeology("orbits", b.base, [ExprVec.parse(["x1 + x0"], 2)])
        bent = plot(Domain.full(1), ["x0^3 - x0"])
        assert is_plot(space, bent).is_yes

    def test_aut_diffeology_blocks_paths_through_the_origin(self):
        b = cross_bundle()
        group = cross_swap_group(b)
        space = aut_diffeology(b, group)
        through = plot(Domain.full(1), ["x0", "0", "0", "0"])
        assert is_plot(space, through).is_no
        constant = plot(Domain.full(1), ["0", "0", "1", "0"])
        assert is_plot(space, constant).is_yes

    def test_aut_diffeology_matches_total_space_when_transitive(self):
        b = line_bundle()
        group = scale_translate_group(b)
        space = aut_diffeology(b, group)
        suite = [
            plot(Domain.full(1), ["x0", "x0^2"]),
            plot(Domain.full(2), ["x0", "x0*x1"]),
            plot(Domain.full(1), ["3", "-2"]),
        ]
        for p in suite:
            ours = is_plot(space, p)
            theirs = is_plot(b.total, p)
            assert ours.status == theirs.status


class TestAdditivity:
    def test_linear_flows_add(self):
        space = euclidean_space(2)
        f1 = ExprVec.parse(["x1 + x0*x2", "x2"], 3)
        f2 = ExprVec.parse(["x1", "x2 + x0*x1"], 3)
        points = [(Fraction(1), Fraction(2)), (Fraction(-1), Fraction(3))]
        verdict = g_tangent_additivity(space, [f1, f2], points)
        assert verdict.is_yes
        assert len(verdict.certificate.parts) == 8
        v = family_velocity((f1, f2), (Fraction(1), Fraction(2)))
        assert v == (Fraction(2), Fraction(1))

    def test_identity_family_contributes_nothing(self):
        space = euclidean_space(2)
        f1 = ExprVec.parse(["x1 + x0*x2", "x2"], 3)
        still = ExprVec.parse(["x1", "x2"], 3)
        verdict = g_tangent_additivity(space, [f1, still], [(Fraction(1), Fraction(1))])
        assert verdict.is_yes
        assert family_velocity(still, (Fraction(1), Fraction(1))) == (0, 0)

    def test_families_must_pass_through_identity(self):
        space = euclidean_space(1)
        shifted = ExprVec.parse(["x1 + 1"], 2)
        with pytest.raises(ValueError, match="identity at parameter 0"):
            g_tangent_additivity(space, [shifted], [(Fraction(0),)])


def mat_mul(a, b):
    """The product of two square Fraction matrices, summed entry by entry."""
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n))


# (bundle, basepoint) with fibers of dimension 1 and 2
FRAME_POINTS = [
    (line_bundle, (Fraction(3, 2),)),
    (cross_bundle, (Fraction(0), Fraction(0))),
    (cross_bundle, (Fraction(2), Fraction(0))),
]


@st.composite
def _frame_pairs(draw):
    make, x = draw(st.sampled_from(FRAME_POINTS))
    b = make()
    n = bundles.fiber_at(b, x).dim
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    invertible = square.filter(lambda rows: invert_rational(rows) is not None)
    return b, frame(b, x, draw(invertible)), frame(b, x, draw(invertible))


class TestFrames:
    @settings(max_examples=60)
    @given(_frame_pairs())
    def test_frames_over_one_point_act_freely_and_transitively(self, pair):
        """The identities `frame_bundle_check` relies on: f2 f1^-1 and
        g = f1^-1 f2 are invertible, f1 g = f2, g is the only solution, and
        f -> f1^-1 f sends f1 to the identity."""
        b, f1, f2 = pair
        assert invert_rational(mat_mul(f2.matrix, f1.inverse)) is not None
        g = mat_mul(f1.inverse, f2.matrix)
        assert invert_rational(g) is not None
        assert mat_mul(f1.matrix, g) == f2.matrix
        assert mat_mul(f1.inverse, mat_mul(f1.matrix, g)) == g
        assert mat_mul(f1.inverse, f1.matrix) == _identity(f1.dim)
        report = frame_bundle_check(b, [(f1, f2), (f2, f1)])
        assert report.ok and report.pairs == 2

    def test_scalar_frames_divide(self):
        b = line_bundle()
        f1 = frame(b, (Fraction(0),), [[2]])
        f2 = frame(b, (Fraction(0),), [[6]])
        report = frame_bundle_check(b, [(f1, f2)])
        assert report.ok
        g = Fraction(6, 2)
        assert f1.matrix[0][0] * g == f2.matrix[0][0]

    def test_degenerate_frame_is_rejected(self):
        b = cross_bundle()
        with pytest.raises(ValueError, match="invertible"):
            frame(b, (Fraction(0), Fraction(0)), [[1, 2], [2, 4]])

    def test_random_matrix_frames_pass(self):
        b = cross_bundle()
        rng = random.Random(5)
        x = (Fraction(0), Fraction(0))
        pairs = [(random_frame(b, x, rng), random_frame(b, x, rng)) for _ in range(12)]
        report = frame_bundle_check(b, pairs)
        assert report.ok

    def test_mismatched_basepoints_fail(self):
        b = line_bundle()
        f1 = frame(b, (Fraction(0),), [[1]])
        f2 = frame(b, (Fraction(1),), [[1]])
        report = frame_bundle_check(b, [(f1, f2)])
        assert not report.ok

"""Built-in fixture registry and the JSON fixture file loader."""

import json
from fractions import Fraction

import pytest

from diffeokit.autgroups import exact_sequence_check
from diffeokit.calculus import (
    affine_structure,
    check_connection_form,
    connections_equal,
    translate,
    validate_covariant,
    validate_form,
)
from diffeokit.fixtures import (
    FixtureError,
    builtin_registry,
    default_samples,
    load_file,
    load_registry,
)
from diffeokit.linalg import invert_rational
from diffeokit.spaces import is_plot, is_smooth, is_subduction, plot
from diffeokit.domains import Domain


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


class TestBuiltins:
    def test_documented_names_exist(self, reg):
        assert {"r1", "r2", "cross", "quotient-sign"} <= set(reg.spaces)
        assert {"line-bundle", "cross-bundle", "plane-bundle"} <= set(reg.bundles)
        assert {"scale-translate", "axis-swap"} <= set(reg.groups)
        assert "linear-flow" in reg.flows

    def test_every_form_fixture_validates(self, reg):
        for name, fx in reg.forms.items():
            assert validate_form(fx.form, fx.overlaps).is_yes, name

    def test_every_connection_fixture_validates(self, reg):
        for name, fx in reg.connections.items():
            assert validate_covariant(fx.nabla, fx.overlaps).is_yes, name

    def test_every_affine_fixture_round_trips(self, reg):
        for name, fx in reg.affine.items():
            diff = affine_structure(fx.first, fx.second)
            assert validate_form(diff, fx.overlaps).is_yes, name
            assert connections_equal(translate(fx.second, diff), fx.first), name

    def test_every_frame_model_is_equivariant(self, reg):
        for name, fm in reg.frame_models.items():
            verdict = check_connection_form(fm.theta, fm.plots, fm.samples)
            assert verdict.is_yes, name

    def test_product_projections_are_subductions(self, reg):
        for name in ("product-line-line", "product-cross-line"):
            for side in ("left", "right"):
                assert is_subduction(reg.map(f"{name}-{side}")).is_yes

    def test_maps_are_smooth(self, reg):
        for name, m in reg.maps.items():
            assert is_smooth(m).is_yes, name

    def test_groups_act_on_their_bundles(self, reg):
        for name, group in reg.groups.items():
            verdict = exact_sequence_check(group.bundle, group, budget=2)
            assert verdict.is_yes, name

    def test_point_tables_reference_real_fixtures(self, reg):
        assert set(reg.cone_points) <= set(reg.spaces)
        assert set(reg.frame_points) <= set(reg.bundles)

    def test_unknown_name_lists_alternatives(self, reg):
        with pytest.raises(FixtureError, match="available: .*cross"):
            reg.space("nope")
        with pytest.raises(FixtureError, match="unknown bundle"):
            reg.bundle("r1")

    def test_default_samples_are_invertible(self):
        for k in (1, 2, 3):
            for mat in default_samples(k):
                assert invert_rational(mat) is not None


SAMPLE = {
    "carriers": [{"name": "parabola", "dim": 2, "equations": ["x1 - x0^2"]}],
    "spaces": [
        {
            "name": "parabola",
            "carrier": "parabola",
            "generators": [{"domain": 1, "map": ["x0", "x0^2"]}],
        },
        {
            "name": "half",
            "carrier": 1,
            "generators": [{"domain": {"dim": 1, "boxes": [[["0", None]]]}, "map": ["x0"]}],
            "complete": False,
        },
    ],
    "maps": [{"name": "drop", "source": "parabola", "target": "r1", "map": ["x0"]}],
    "bundle": {
        "name": "loaded-bundle",
        "total": "r2",
        "base": "r1",
        "add": ["x0", "x1 + x3"],
        "scale": ["x1", "x0*x2"],
        "zero": ["x0", "0"],
    },
    "group": {
        "name": "loaded-stretch",
        "bundle": "loaded-bundle",
        "generators": [{"phi": ["x0", "2*x1"], "phi_inverse": ["x0", "x1/2"]}],
        "one_parameter_families": [["x1 + x0"]],
    },
    "form": {
        "name": "loaded-density",
        "space": "r1",
        "degree": 1,
        "per_generator_coefficients": [{"0": "x0^2"}],
    },
    "connection": {
        "name": "loaded-conn",
        "space": "r1",
        "fiber_dim": 1,
        "per_generator_A": [[[["x0"]]]],
    },
    "affine": {"name": "loaded-affine", "first": "loaded-conn", "second": "loaded-conn"},
    "frame_model": {
        "name": "loaded-frames",
        "dim_F": 1,
        "frames": [{"domain": 2, "map": ["x0", "1 + x1^2", "1/(1 + x1^2)"]}],
        "samples": [[["5"]], [["1/7"]]],
    },
}


def write(tmp_path, doc, name="fixtures.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestJsonLoading:
    def test_round_trip(self, tmp_path):
        reg = builtin_registry()
        load_file(reg, write(tmp_path, SAMPLE))
        parabola = reg.space("parabola")
        assert is_plot(parabola, plot(Domain.full(1), ["2*x0", "4*x0^2"])).is_yes
        assert not reg.space("half").generators_complete
        assert reg.map("drop").target is reg.space("r1")
        assert reg.bundle("loaded-bundle").base_dim == 1
        assert len(reg.group("loaded-stretch").families) == 1
        assert validate_form(reg.form("loaded-density").form).is_yes
        assert reg.frame_model("loaded-frames").samples[1] == ((Fraction(1, 7),),)

    def test_cone_and_frame_points_load_as_rational_points(self, tmp_path):
        doc = {
            "space": {"name": "line", "carrier": 1, "generators": [{"domain": 1, "map": ["x0"]}],
                      "cone_points": [["1/2"], [-3]]},
            "bundle": {"name": "line-copy", "total": "r2", "base": "line",
                       "add": ["x0", "x1 + x3"], "scale": ["x1", "x0*x2"],
                       "zero": ["x0", "0"], "frame_points": [[0]]},
        }
        reg = builtin_registry()
        load_file(reg, write(tmp_path, doc))
        assert reg.cone_points["line"] == ((Fraction(1, 2),), (Fraction(-3),))
        assert reg.frame_points["line-copy"] == ((Fraction(0),),)
        # a point off the carrier names the fixture
        doc["space"]["carrier"] = {"dim": 1, "equations": ["x0^2 - x0"]}
        doc["space"]["cone_points"] = [[1], [2]]
        with pytest.raises(FixtureError, match=r"space 'line': 'cone_points' lists \(2\), "
                                               "which is not a point of 'line'"):
            load_file(builtin_registry(), write(tmp_path, doc))

    def test_environment_path_is_searched(self, tmp_path, monkeypatch):
        write(tmp_path, SAMPLE)
        monkeypatch.setenv("DIFFEO_FIXTURE_PATH", str(tmp_path))
        reg = load_registry()
        assert "parabola" in reg.spaces
        monkeypatch.setenv("DIFFEO_FIXTURE_PATH", str(tmp_path / "missing"))
        with pytest.raises(FixtureError, match="not a directory"):
            load_registry()

    def test_invalid_json_is_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(FixtureError, match="invalid JSON"):
            load_file(builtin_registry(), path)

    def test_component_count_mismatch(self, tmp_path):
        doc = {"spaces": [{"name": "thin", "carrier": 2,
                           "generators": [{"domain": 1, "map": ["x0"]}]}]}
        with pytest.raises(FixtureError, match="carrier needs 2"):
            load_file(builtin_registry(), write(tmp_path, doc))

    def test_duplicate_names_are_rejected(self, tmp_path):
        doc = {"spaces": [{"name": "cross", "carrier": 1, "generators": []}]}
        with pytest.raises(FixtureError, match="duplicate space"):
            load_file(builtin_registry(), write(tmp_path, doc))

    def test_unknown_blocks_are_rejected(self, tmp_path):
        with pytest.raises(FixtureError, match="unknown top-level block"):
            load_file(builtin_registry(), write(tmp_path, {"nonsense": []}))
        # no subcommand reads Frölicher spaces, so the loader has no such block
        curves = {"frolicher": [{"name": "c", "carrier": 1, "functions": ["x0^2"]}]}
        with pytest.raises(FixtureError, match="unknown top-level block 'frolicher'"):
            load_file(builtin_registry(), write(tmp_path, curves))

    def test_bundle_violations_surface_as_diagnostics(self, tmp_path):
        doc = {"bundle": {"name": "bad", "total": "r2", "base": "r1",
                          "add": ["x0", "x1 + x3 + 1"],
                          "scale": ["x1", "x0*x2"], "zero": ["x0", "0"]}}
        with pytest.raises(FixtureError, match="fiber-axioms"):
            load_file(builtin_registry(), write(tmp_path, doc))

    def test_repeated_coefficient_key_is_rejected(self, tmp_path):
        # " 0" parses to the same key as "0"; neither value may be dropped
        doc = {"form": {"name": "twice", "space": "r1", "degree": 1,
                        "per_generator_coefficients": [{"0": "x0", " 0": "x0^2"}]}}
        with pytest.raises(FixtureError, match="coefficient keys '0' and ' 0' name the same"):
            load_file(builtin_registry(), write(tmp_path, doc))

    def test_singular_frame_sample_is_rejected(self, tmp_path):
        doc = dict(SAMPLE["frame_model"], samples=[[["0"]]])
        with pytest.raises(FixtureError, match="singular"):
            load_file(builtin_registry(), write(tmp_path, {"frame_model": doc}))

    def test_bad_rational_is_diagnosed(self, tmp_path):
        for value, reason in [("zebra", "Invalid literal for Fraction"), ("1/0", "zero denominator")]:
            doc = {"frame_model": dict(SAMPLE["frame_model"], samples=[[[value]]])}
            with pytest.raises(FixtureError, match=f"bad rational '{value}': {reason}"):
                load_file(builtin_registry(), write(tmp_path, doc))

    @pytest.mark.parametrize(
        "fine, coarse", [(-1, 0), (True, False)], ids=["negative", "bool"]
    )
    def test_overlap_indices_must_name_a_generator(self, tmp_path, fine, coarse):
        # -1 must not wrap to the last generator, nor true/false read as 1/0
        doc = {
            "spaces": [{"name": "twin", "carrier": 1,
                        "generators": [{"domain": 1, "map": ["x0"]},
                                       {"domain": 1, "map": ["x0^3"]}]}],
            "connection": {"name": "twin-conn", "space": "twin",
                           "per_generator_A": [[[["x0"]]], [[["3*x0^5"]]]],
                           "overlaps": [{"fine": fine, "coarse": coarse,
                                         "factor": ["x0^3"]}]},
        }
        with pytest.raises(FixtureError, match="generator index out of range"):
            load_file(builtin_registry(), write(tmp_path, doc))

    @pytest.mark.parametrize("doc, field", [
        ({"carrier": {"name": "c", "dim": True}}, "dimension"),
        ({"space": {"name": "s", "carrier": True}}, "dimension"),
        ({"space": {"name": "s", "carrier": 1,
                    "generators": [{"domain": {"dim": True}, "map": ["x0"]}]}},
         "domain dimension"),
        ({"space": {"name": "s", "carrier": 1,
                    "generators": [{"domain": True, "map": ["x0"]}]}}, "domain dimension"),
        ({"form": dict(SAMPLE["form"], degree=True)}, "degree"),
        ({"form": dict(SAMPLE["form"], value_dim=True)}, "value_dim"),
        ({"connection": dict(SAMPLE["connection"], fiber_dim=True)}, "fiber_dim"),
        ({"frame_model": dict(SAMPLE["frame_model"], dim_F=True)}, "dim_F"),
    ], ids=["carrier-dim", "carrier-int", "domain-dim", "domain-int", "form-degree",
            "form-value-dim", "connection-fiber-dim", "frame-model-dim-f"])
    def test_true_is_not_an_integer(self, tmp_path, doc, field):
        # Python counts true as 1; a fixture must spell the number
        with pytest.raises(FixtureError, match=f"bad {field} True"):
            load_file(builtin_registry(), write(tmp_path, doc))

    def test_loaded_law_violations_stay_check_failures(self, tmp_path):
        # a parseable but incompatible form loads fine and fails validation
        doc = {
            "spaces": [{"name": "twin", "carrier": 1,
                        "generators": [{"domain": 1, "map": ["x0"]},
                                       {"domain": 1, "map": ["x0^3"]}]}],
            "form": {"name": "skewed", "space": "twin", "degree": 1,
                     "per_generator_coefficients": [{"0": "x0^2"}, {"0": "x0^6"}],
                     "overlaps": [{"fine": 1, "coarse": 0, "factor": ["x0^3"]}]},
        }
        reg = builtin_registry()
        load_file(reg, write(tmp_path, doc))
        fx = reg.form("skewed")
        verdict = validate_form(fx.form, fx.overlaps)
        assert verdict.is_no
        assert "pullback mismatch" in verdict.obstruction.detail

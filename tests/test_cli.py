"""Command line driver: subcommands, report formats, exit codes."""

import argparse
import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diffeokit
from diffeokit import (
    autgroups,
    bundles,
    calculus,
    cli,
    domains,
    expr,
    fixtures,
    linalg,
    spaces,
    tangent,
)
from diffeokit.cli import build_parser, main


# public names whose only caller is a numbered claim in test_acceptance.py
ACCEPTANCE_ONLY = {
    "typical_fiber_check": "test 07",
    "aut_diffeology": "test 07",
    "g_tangent_additivity": "test 08",
    "homotopy_to_zero": "test 05",
}


# `cross` moved along psi(x0, x1) = (x0, x1 + x0^2) and a copy of
# `line-bundle`, each with the base points the suite probes on it
POINTS_DOC = {
    "space": {
        "name": "cross-psi", "carrier": {"dim": 2, "equations": ["x0*x1 - x0^3"]},
        "generators": [{"domain": 1, "map": ["x0", "x0^2"]}, {"domain": 1, "map": ["0", "x0"]}],
        "cone_points": [[0, 0]],
    },
    "bundle": {
        "name": "line-copy", "total": "r2", "base": "r1",
        "add": ["x0", "x1 + x3"], "scale": ["x1", "x0*x2"], "zero": ["x0", "0"],
        "frame_points": [["1/2"]],
    },
}

# sha256 of the pinned reports: `all --budget 4 --format json` by seed,
# and `exact-sequence line-bundle scale-translate` by budget
ALL_DIGESTS = {
    "0": "606a4d51dc64c8dd1dbe13b2a603de46d37640f6bd42e3197a60e0e0298c031f",
    "7": "90c4cb7fd92249b22434da71e053d844f640cf587b46daf9e05511d4e11a490d",
}
EXACT_SEQUENCE_DIGESTS = {
    "4": "fc25066be4ca267dcb89708f07684ab39825dc4305750991d7cb4a5b926f817c",
    "5": "8f475b8e1910f2b3157ab7129ea9d118edac4b9ffdf89370e62d9c5987bab4de",
}

# public names that wait for the ROADMAP item named to give them a caller
AWAITING_CALLER = {
    "frame_space": "item 2",
    "EndField": "item 2",
    "EndFieldOps": "item 2",
    "end_field": "item 2",
    "end_field_ops": "item 2",
    "end_value": "item 2",
    "pushforward_space": "item 10",
}
MODULES = (diffeokit, autgroups, bundles, calculus, cli, domains, expr, fixtures, linalg,
           spaces, tangent)

# parameters that no function body under src/ reads, each with the reason
# it stays
UNREAD_PARAMETERS = {
    **dict.fromkeys(
        ["cli._cone_checks(seed)", "cli._connection_laws(budget)", "cli._forms_checks(seed)",
         "cli._affine_checks(seed)"],
        "the Command runner signature: every check runner takes the budget and the seed",
    ),
    **dict.fromkeys(
        [f"spaces.{carrier}.{method}(component)"
         for carrier in ("Carrier", "EuclideanCarrier", "AlgebraicCarrier", "ProductCarrier")
         for method in ("ambient_dim", "equations")],
        "a Carrier method: a union carrier reads the component, a one-part carrier ignores it",
    ),
    "fixtures._load_document.load_carrier(reg)":
        "the loader table calls every loader with the registry and the block",
    "expr.Record.__init_subclass__.values(d)":
        "stands in for operator.itemgetter on a record with no fields",
    **dict.fromkeys(
        ["calculus.validate_covariant(rng)", "calculus.validate_covariant(trials)",
         "autgroups.frame_bundle_check(bundle)"],
        "bench/worker.py passes it; it goes with the benchmark revision of ROADMAP item 6",
    ),
}


def unread_parameters(tree, qualname):
    """'qualname.function(parameter)' for each parameter of a def in tree
    that the def's body never reads.  self and cls are skipped, and so are
    the parameters of dunder methods, whose signatures the data model
    fixes; a def nested in another is named through it."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{qualname}.{node.name}"
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                a = node.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                          if p and p.arg not in ("self", "cls")]
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.update(f"{name}({p})" for p in params if p not in read)
            found |= unread_parameters(node, name)
        else:
            found |= unread_parameters(node, qualname)
    return found


def public_names(module):
    """The module's __all__, or else its top-level definitions and
    assignments whose names do not start with an underscore."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv("DIFFEO_FIXTURE_PATH", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parser_arguments():
    """Each subcommand of the parser, in order, with its positional arguments."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a.dest for a in p._actions if not a.option_strings]
        for name, p in sub.choices.items()
    }


# a frame model with one frame over the line and the default samples
FRAME_MODEL = {"name": "model", "dim_F": 1,
               "frames": [{"domain": 2, "map": ["x0", "1 + x1^2", "1/(1 + x1^2)"]}]}


class TestSubcommands:
    def test_axioms_on_the_cross(self, capsys):
        code, out, _ = run(capsys, "axioms", "cross")
        assert code == 0
        assert "axioms:cross:covering" in out
        assert "axioms:cross:precompose" in out
        assert "axioms:cross:locality" in out

    def test_cone_table_at_the_crossing(self, capsys):
        code, out, _ = run(capsys, "tangent-cone", "cross", "0,0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        verdicts = {c["id"].rsplit(":", 1)[1]: c["verdict"] for c in doc["checks"]}
        assert verdicts["1,0"] == verdicts["0,1"] == "in"
        assert verdicts["-1,0"] == verdicts["0,-1"] == "in"
        assert verdicts["1,1"] == verdicts["1,-1"] == "out"

    def test_cone_away_from_the_crossing(self, capsys):
        code, out, _ = run(capsys, "tangent-cone", "cross", "1,0", "--format", "json")
        assert code == 0
        verdicts = {
            c["id"].rsplit(":", 1)[1]: c["verdict"]
            for c in json.loads(out)["checks"]
        }
        assert verdicts["1,0"] == verdicts["-1,0"] == "in"
        assert verdicts["0,1"] == verdicts["0,-1"] == "out"

    def test_exact_sequence_at_reduced_budget(self, capsys):
        code, out, _ = run(
            capsys, "exact-sequence", "line-bundle", "scale-translate", "--budget", "3"
        )
        assert code == 0
        assert "kernel = linear part" in out

    def test_remaining_subjects_pass(self, capsys):
        for argv in (
            ("smooth", "line-projection"),
            ("subduction", "sign-projection"),
            ("bundle-validate", "plane-bundle"),
            ("frame-check", "line-bundle"),
            ("forms-validate", "line-density"),
            ("forms-validate", "frame-plane"),
            ("connection-validate", "line-connection"),
            ("affine-check", "line-affine"),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert "1 yes" in out, argv

    def test_fixture_files_declare_cone_and_frame_points(self, capsys, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(POINTS_DOC), encoding="utf-8")
        code, out, _ = run(capsys, "all", "--fixtures", str(path), "--format", "json")
        assert code == 0
        verdicts = {c["id"]: c["verdict"] for c in json.loads(out)["checks"]}
        # the lowest-degree form x0*x1 of the moved equation refutes (1, 1)
        assert verdicts["tangent-cone:cross-psi:0,0:1,1"] == "out"
        assert verdicts["tangent-cone:cross-psi:0,0:1,0"] == "in"
        assert verdicts["frame-check:line-copy"] == "yes"
        code, out, _ = run(capsys, "frame-check", "line-copy", "--fixtures", str(path))
        assert code == 0
        assert "1 yes" in out

    def test_unknown_is_reported_without_failing(self, capsys):
        code, out, _ = run(capsys, "subduction", "axis-inclusion")
        assert code == 0
        assert "unknown" in out

    def test_open_bundle_check_is_unknown_not_a_failure(self, capsys):
        # at budget 1 the scaling map's smoothness is left open
        code, out, _ = run(capsys, "bundle-validate", "cross-bundle", "--budget", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("unknown  bundle-validate:cross-bundle")
        assert "- scale-smooth: " in out

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_open_precompositions_are_unknown_not_failures(self, capsys, budget):
        # at small budgets the factor search gives up on some random
        # precompositions; an open sub-check leaves the check unknown
        code, out, _ = run(capsys, "all", "--budget", budget, "--format", "json")
        assert code == 0
        verdicts = {c["id"]: c["verdict"] for c in json.loads(out)["checks"]}
        assert "no" not in verdicts.values()
        assert verdicts["axioms:cross:precompose"] == "unknown"
        assert verdicts["axioms:product-cross-line:precompose"] == "unknown"

    def test_strict_unknown_turns_into_failure(self, capsys):
        code, _, _ = run(capsys, "subduction", "axis-inclusion", "--strict-unknown")
        assert code == 1


class TestExitCodes:
    def test_unknown_fixture_name(self, capsys):
        code, _, err = run(capsys, "axioms", "no-such-space")
        assert code == 2
        assert "unknown space fixture" in err

    def test_basepoint_of_the_wrong_dimension(self, capsys):
        code, _, err = run(capsys, "tangent-cone", "r2", "0")
        assert code == 2
        assert "basepoint has 1 coordinates but the carrier lies in dimension 2" in err

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "report.json"
        code, out, err = run(capsys, "smooth", "line-projection", "--out", str(target))
        assert code == 2
        assert out == ""
        assert f"cannot write {target}" in err

    @pytest.mark.parametrize("value, message", [
        ("0", "argument --budget: must be at least 1"),
        ("-3", "argument --budget: must be at least 1"),
        ("four", "argument --budget: invalid int value: 'four'"),
    ])
    def test_budget_below_one_is_an_argument_error(self, capsys, value, message):
        with pytest.raises(SystemExit) as exit_:
            main(["smooth", "line-projection", "--budget", value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert message in err

    @pytest.mark.parametrize("block, key, point, message", [
        ("space", "cone_points", [1, 2],
         "space 'cross-psi': 'cone_points' lists (1, 2), which is not a point of 'cross-psi'"),
        ("space", "cone_points", [0],
         "space 'cross-psi': 'cone_points' lists (0), which is not a point of 'cross-psi' "
         "(dimension 2)"),
        ("bundle", "frame_points", [0, 0],
         "bundle 'line-copy': 'frame_points' lists (0, 0), which is not a point of 'r1' "
         "(dimension 1)"),
    ], ids=["cone-point-off-the-carrier", "cone-point-dimension", "frame-point-dimension"])
    def test_fixture_point_off_its_space(self, capsys, tmp_path, block, key, point, message):
        doc = dict(POINTS_DOC, **{block: dict(POINTS_DOC[block], **{key: [point]})})
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "all", "--fixtures", str(path))
        assert code == 2
        assert message in err

    def test_malformed_point(self, capsys):
        for point, reason in [
            ("0,zebra", "Invalid literal for Fraction: 'zebra'"),
            ("1/0,0", "zero denominator"),
        ]:
            code, _, err = run(capsys, "tangent-cone", "cross", point)
            assert code == 2
            assert f"bad point {point!r}: {reason}" in err

    def test_group_bundle_mismatch(self, capsys):
        code, _, err = run(capsys, "exact-sequence", "line-bundle", "axis-swap")
        assert code == 2
        assert "acts on bundle" in err

    def test_deeply_nested_group_map_is_read(self, tmp_path):
        deep = "(" * 300 + "x0" + ")" * 300
        doc = {"group": {"name": "deep-shift", "bundle": "line-bundle", "generators": [
            {"phi": [deep + " + 1", "x1"], "varphi": ["x0 + 1"],
             "phi_inverse": ["x0 - 1", "x1"], "varphi_inverse": ["x0 - 1"]}]}}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "diffeokit", "exact-sequence", "line-bundle", "deep-shift",
             "--fixtures", str(path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert "yes      exact-sequence:line-bundle:deep-shift" in done.stdout

    def test_malformed_fixture_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "axioms", "cross", "--fixtures", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_failing_loaded_fixture_exits_one(self, capsys, tmp_path):
        doc = {
            "spaces": [{"name": "twin", "carrier": 1,
                        "generators": [{"domain": 1, "map": ["x0"]},
                                       {"domain": 1, "map": ["x0^3"]}]}],
            "form": {"name": "skewed", "space": "twin", "degree": 1,
                     "per_generator_coefficients": [{"0": "x0^2"}, {"0": "x0^6"}],
                     "overlaps": [{"fine": 1, "coarse": 0, "factor": ["x0^3"]}]},
        }
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "forms-validate", "skewed", "--fixtures", str(path)
        )
        assert code == 1
        assert "pullback mismatch" in out

    def test_map_that_unfolds_a_quotient_is_not_smooth(self, capsys, tmp_path):
        # [1] = [-1] in quotient-sign, but x -> x sends them to 1 and -1
        doc = {"maps": [
            {"name": "unfold", "source": "quotient-sign", "target": "r1", "map": ["x0"]},
            {"name": "fold", "source": "quotient-sign", "target": "r1", "map": ["x0^2"]},
        ]}
        path = tmp_path / "unfold.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "smooth", "unfold", "--fixtures", str(path))
        assert code == 1
        assert "relation: at (-1): (-1) ~ (1) map to (-1) and (1)" in out
        code, out, _ = run(capsys, "smooth", "fold", "--fixtures", str(path))
        assert code == 0
        assert "yes      smooth:fold" in out

    def test_bundle_over_a_quotient_with_an_unfolding_zero_section_is_refused(
        self, capsys, tmp_path
    ):
        # line-bundle's maps over quotient-sign: the zero section [x] -> (x, 0)
        # sends [1] = [-1] to two points
        doc = {"bundles": [{
            "name": "split", "total": "r2", "base": "quotient-sign",
            "add": ["x0", "x1 + x3"], "scale": ["x1", "x0*x2"], "zero": ["x0", "0"],
        }]}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "bundle-validate", "split", "--fixtures", str(path))
        assert code == 2
        assert "bundle 'split': zero-smooth: (-1) ~ (1) map to (-1, 0) and (1, 0)" in err

    def test_refused_group_names_the_failed_law(self, capsys, tmp_path):
        # x0 + x1 moves the base point with the fiber coordinate, so the
        # projection square fails, e.g. at (0, -1)
        doc = {"group": {"name": "bad", "bundle": "line-bundle", "generators": [
            {"phi": ["x0 + x1", "x1"], "phi_inverse": ["x0 - x1", "x1"]}]}}
        path = tmp_path / "group.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "axioms", "r1", "--fixtures", str(path))
        assert code == 2
        assert "generator 0 of bad: " in err
        assert "square" in err
        assert "(0, -1)" in err

    @pytest.mark.parametrize("doc, message", [
        ({"form": {"name": "frame-line", "space": "cross", "degree": 1,
                   "per_generator_coefficients": [{"0": "x0"}, {"0": "x0"}]}},
         "form fixture 'frame-line' clashes with the frame model fixture 'frame-line'"),
        ({"frame_model": dict(FRAME_MODEL, name="line-density")},
         "frame model fixture 'line-density' clashes with the form fixture 'line-density'"),
    ], ids=["form-named-like-a-frame-model", "frame-model-named-like-a-form"])
    def test_a_form_and_a_frame_model_may_not_share_a_name(self, capsys, tmp_path, doc, message):
        # forms-validate and all address both kinds by one name, so a clash
        # would run one fixture twice and drop the other
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        name = next(iter(doc.values()))["name"]
        for argv in (["all"], ["forms-validate", name]):
            code, out, err = run(capsys, *argv, "--fixtures", str(path))
            assert code == 2 and out == ""
            assert err.startswith("fixture error: ") and message in err

    def test_unknown_form_lists_frame_models(self, capsys):
        code, _, err = run(capsys, "forms-validate", "nope")
        assert code == 2
        assert "line-density" in err
        assert "frame-line" in err and "frame-plane" in err

    @pytest.mark.parametrize("texts, shape", [
        (["x0"], "to 1 component(s)"), (["x0", "x0", "x0"], "to 3 component(s)"),
    ], ids=["short", "long"])
    def test_map_of_the_wrong_shape_is_refused(self, capsys, tmp_path, texts, shape):
        doc = {"maps": [{"name": "m", "source": "r1", "target": "r2", "map": texts}]}
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("smooth", "subduction"):
            code, out, err = run(capsys, command, "m", "--fixtures", str(path))
            assert code == 2 and out == ""
            assert f"map 'm': piece ''->'' takes 1 variable(s) {shape}" in err
            assert "the target 2" in err

    def test_true_where_an_integer_is_wanted_is_refused(self, capsys, tmp_path):
        doc = {"spaces": [{"name": "s", "carrier": {"dim": True},
                           "generators": [{"domain": True, "map": ["x0"]}]}],
               "form": {"name": "f", "space": "r1", "degree": True,
                        "per_generator_coefficients": [{"0": "x0"}]}}
        path = tmp_path / "booleans.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command, name in (("axioms", "s"), ("forms-validate", "f")):
            code, _, err = run(capsys, command, name, "--fixtures", str(path))
            assert code == 2
            assert "carrier: bad dimension True" in err

    @pytest.mark.parametrize("doc", [
        {"space": {"name": "s", "carrier": 1, "generators": 5}},
        {"space": {"name": "s", "carrier": 1, "complete": "no"}},
        {"space": {"name": "s", "carrier": 1,
                   "generators": [{"domain": {"dim": 1, "boxes": 5}, "map": ["x0"]}]}},
        {"bundle": {"name": "b", "total": "r2", "base": "r1", "add": ["x0", "x1 + x3"],
                    "scale": ["x1", "x0*x2"], "zero": ["x0", "0"], "pairs_complete": "no"}},
        {"group": {"name": "g", "bundle": "line-bundle", "generators": 5}},
        {"group": {"name": "g", "bundle": "line-bundle", "one_parameter_families": 5}},
        {"form": {"name": "f", "space": "r1", "degree": 1,
                  "per_generator_coefficients": [{"0": "x0"}], "overlaps": 5}},
        *({"frame_model": {"name": "m", "dim_F": 1, "samples": samples,
                           "frames": [{"domain": 2, "map": ["x0", "1 + x1^2", "1/(1 + x1^2)"]}]}}
          for samples in (5, [5], [[5]])),
        *({"connection": {"name": "c", "space": "r1", "per_generator_A": a}}
          for a in ([[5]], [[[5]]], [[[[None]]]])),
    ], ids=["space-generators", "space-complete", "domain-boxes", "bundle-pairs-complete",
            "group-generators", "group-families", "form-overlaps", "frame-samples",
            "frame-sample-matrix", "frame-sample-row", "connection-matrix",
            "connection-row", "connection-entry"])
    def test_malformed_fixture_fields_are_diagnosed(self, capsys, tmp_path, doc):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "axioms", "cross", "--fixtures", str(path))
        assert code == 2
        assert any(line.startswith("fixture error:") for line in err.splitlines())


# one invocation per subcommand (two for forms-validate, one per fixture
# kind) and the fixture field its report must carry
HEADER_CASES = [
    (["axioms", "r1"], "r1"),
    (["smooth", "line-projection"], "line-projection"),
    (["subduction", "sign-projection"], "sign-projection"),
    (["tangent-cone", "cross", "0,0"], "cross"),
    (["bundle-validate", "plane-bundle"], "plane-bundle"),
    (["exact-sequence", "line-bundle", "scale-translate"], "line-bundle/scale-translate"),
    (["frame-check", "line-bundle"], "line-bundle"),
    (["forms-validate", "line-density"], "line-density"),
    (["forms-validate", "frame-plane"], "frame-plane"),
    (["connection-validate", "line-connection"], "line-connection"),
    (["affine-check", "line-affine"], "line-affine"),
    (["all"], "all"),
]


class TestCommandTable:
    def test_every_subcommand_has_a_header_case(self):
        assert {argv[0] for argv, _ in HEADER_CASES} == set(parser_arguments())

    @pytest.mark.parametrize("argv, fixture", HEADER_CASES,
                             ids=[" ".join(argv) for argv, _ in HEADER_CASES])
    def test_report_header_names_the_fixture(self, capsys, argv, fixture):
        # the subject's fixture names joined by "/"; a point is not a fixture
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == f"fixture: {fixture}  budget: 4  seed: 0"
        code, out, _ = run(capsys, *argv, "--format", "json", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert (doc["fixture"], doc["seed"]) == (fixture, 3)

    def test_readme_table_matches_the_parser(self):
        # a new subcommand is documented with the arguments it takes
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        table = text.split("\nSubcommands:\n\n", 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in table.splitlines()[2:]:
            command, arguments = (cell.strip() for cell in line.strip("|").split("|")[:2])
            rows[command.strip("`")] = [] if arguments == "(none)" else arguments.split()
        assert list(rows.items()) == list(parser_arguments().items())

    @pytest.mark.parametrize("extra", [False, True], ids=["built-ins", "with-a-fixture-file"])
    def test_check_ids_in_all_are_unique(self, capsys, tmp_path, extra):
        argv = ["all", "--format", "json"]
        if extra:
            doc = {"space": {"name": "twin", "carrier": 1,
                             "generators": [{"domain": 1, "map": ["x0"]},
                                            {"domain": 1, "map": ["x0^3"]}]},
                   "form": {"name": "twin-density", "space": "twin", "degree": 1,
                            "per_generator_coefficients": [{"0": "1"}, {"0": "3*x0^2"}]},
                   "frame_model": FRAME_MODEL}
            path = tmp_path / "extra.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv += ["--fixtures", str(path)]
        _, out, _ = run(capsys, *argv)
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert len(ids) == len(set(ids))
        assert "forms-validate:frame-line" in ids
        if extra:
            assert {"axioms:twin:covering", "forms-validate:twin-density",
                    "forms-validate:model"} <= set(ids)


def _folded_random_poly(rng, arity, degree):
    """The precompose factor as a fold of `Expr` arithmetic: one constant
    times one variable per draw, summed from zero.  The reference that
    `cli._random_poly`'s term dict must equal."""
    total = expr.Expr.zero(arity)
    for k in range(degree + 1):
        term = expr.Expr.constant(arity, rng.randint(-3, 3))
        for _ in range(k):
            term = term * expr.Expr.variable(arity, rng.randrange(arity))
        total = total + term
    if total.is_zero():
        total = expr.Expr.constant(arity, 1)
    return total


class TestRandomPoly:
    def test_draw_equals_the_expr_fold(self):
        # the same terms in the same dict order, and the same draws taken
        # from the stream, which the next factor of the law reads on from
        for seed in range(200):
            for arity in (1, 2, 3):
                for degree in range(6):
                    fast = random.Random(f"{seed}:{arity}:{degree}")
                    slow = random.Random(f"{seed}:{arity}:{degree}")
                    got = cli._random_poly(fast, arity, degree)
                    want = _folded_random_poly(slow, arity, degree)
                    case = (seed, arity, degree)
                    assert list(got.num.items()) == list(want.num.items()), case
                    assert list(got.den.items()) == list(want.den.items()), case
                    assert got.is_polynomial and want.is_polynomial, case
                    assert fast.getstate() == slow.getstate(), case


class TestReports:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "smooth", "line-projection", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"fixture", "budget", "seed", "checks"}
        assert doc["fixture"] == "line-projection"
        assert doc["budget"] == 4
        entry = doc["checks"][0]
        assert list(entry) == ["id", "anchor", "verdict", "witnesses", "budget", "elapsed"]
        assert entry["elapsed"] is None

    def test_checks_are_sorted_by_id(self, capsys):
        _, out, _ = run(capsys, "tangent-cone", "r2", "0,0", "--format", "json")
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert ids == sorted(ids)

    def test_seeded_reports_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "frame-check", "cross-bundle", "--seed", "5",
                          "--format", "json")
        _, second, _ = run(capsys, "frame-check", "cross-bundle", "--seed", "5",
                           "--format", "json")
        assert first == second

    @pytest.mark.parametrize("seed, digest", sorted(ALL_DIGESTS.items()))
    def test_full_suite_report_bytes_are_pinned(self, capsys, seed, digest):
        # a change that alters any verdict, witness or ordering changes the
        # digest and has to say why
        code, out, _ = run(capsys, "all", "--budget", "4", "--format", "json",
                           "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        cones = [c for c in json.loads(out)["checks"] if c["id"].startswith("tangent-cone:")]
        assert len(cones) == 22
        assert all(c["verdict"] != "unknown" for c in cones)

    @pytest.mark.parametrize("seed, digest", [
        ("0", "3fdaab1f550723fa64f44a6109710a7cb819be72c5bf5b9b44d6f1d0a2407a99"),
        ("7", "6b02754436c3bd2f8047f2a9bd626409bc218e71ed7e15d4d59dcd69d9e6b042"),
    ])
    def test_budget_two_report_bytes_are_pinned(self, capsys, seed, digest):
        # below the factors' degree the precompose laws on `cross` and
        # `product-cross-line` stay unknown and print every drawn factor,
        # so this digest, unlike those at budgets 4 and 6, pins the draw
        code, out, _ = run(capsys, "all", "--budget", "2", "--format", "json",
                           "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        laws = {c["id"]: c for c in json.loads(out)["checks"]
                if c["id"].endswith(":precompose")}
        for name in ("cross", "product-cross-line"):
            law = laws[f"axioms:{name}:precompose"]
            assert law["verdict"] == "unknown"
            assert any(" after (" in w for w in law["witnesses"])

    @pytest.mark.parametrize("seed, digest", [
        ("0", "fd6cd13087345f63a3f38e66c23d883c2d756430d1b0c408cfaa22314b5bb727"),
        ("7", "310824e4a0ac8fe0c1afe6ef287f7485be32d619486f8dc6c2c6d2c7b0f8f9a9"),
    ])
    def test_budget_six_report_bytes_are_pinned(self, capsys, seed, digest):
        # above the registry's budget, verdicts the registry computed serve
        # the larger budget; no report byte may move for it
        code, out, _ = run(capsys, "all", "--budget", "6", "--format", "json",
                           "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_exact_sequence_report_bytes_are_pinned(self, capsys):
        # the proof from the generator, inverse and projection certificates
        code, out, _ = run(capsys, "exact-sequence", "line-bundle", "scale-translate",
                           "--budget", "4")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXACT_SEQUENCE_DIGESTS["4"]

    def test_exact_sequence_report_bytes_are_pinned_at_budget_5(self, capsys):
        # a larger budget only widens the certificate searches, so only the
        # budget line differs from budget 4
        code, out, _ = run(capsys, "exact-sequence", "line-bundle", "scale-translate",
                           "--budget", "5")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXACT_SEQUENCE_DIGESTS["5"]

    @pytest.mark.parametrize("argv, digest", [
        *((["all", "--budget", "4", "--format", "json", "--seed", seed], digest)
          for seed, digest in sorted(ALL_DIGESTS.items())),
        *((["exact-sequence", "line-bundle", "scale-translate", "--budget", budget], digest)
          for budget, digest in sorted(EXACT_SEQUENCE_DIGESTS.items())),
    ], ids=["all-0", "all-7", "exact-sequence-4", "exact-sequence-5"])
    def test_memos_of_one_key_keep_the_pinned_bytes(self, capsys, monkeypatch, argv, digest):
        # the memo bound sets what a verdict costs, never the verdict
        monkeypatch.setattr(spaces, "MEMO_ENTRIES", 1)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_out_writes_the_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "axioms", "r1", "--format", "json",
                           "--out", str(target))
        assert code == 0
        assert "wrote" in out
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["fixture"] == "r1"

    def test_text_report_has_a_summary(self, capsys):
        _, out, _ = run(capsys, "axioms", "r1")
        assert out.startswith("fixture: r1")
        assert "summary:" in out

    def test_package_runs_as_a_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        env.pop("DIFFEO_FIXTURE_PATH", None)
        done = subprocess.run(
            [sys.executable, "-m", "diffeokit", "axioms", "r1", "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["fixture"] == "r1"

    def test_cli_reaches_every_module(self):
        # a module the command line never imports is reached only by tests
        src = Path(__file__).resolve().parent.parent / "src"
        package = src / "diffeokit"
        expected = {f"diffeokit.{p.stem}" for p in package.glob("*.py")
                    if p.stem not in ("__init__", "__main__")}
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, diffeokit.cli; print(' '.join(sorted(sys.modules)))"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert expected - set(done.stdout.split()) == set()

    def test_public_names_are_reached_outside_tests(self):
        # a public name counts as reached when it occurs under src/ or bench/
        # outside its own def/class line, its __all__ entry and import
        # lines, and not only inside definitions that are themselves
        # unreached
        root = Path(__file__).resolve().parent.parent
        checked = {name for module in MODULES for name in public_names(module)}
        # the top-level definitions each name occurs in; None is module level
        owners = {name: set() for name in checked}
        files = sorted((root / "src").rglob("*.py")) + sorted((root / "bench").rglob("*.py"))
        for path in files:
            text = path.read_text(encoding="utf-8")
            imports, owner = set(), {}
            for node in ast.parse(text).body:
                span = range(node.lineno, node.end_lineno + 1)
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    imports.update(span)
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    owner.update(dict.fromkeys(span, node.name))
            for lineno, line in enumerate(text.splitlines(), 1):
                if lineno in imports:
                    continue
                stripped = line.strip()
                for name in checked:
                    if (re.search(rf"\b{name}\b", line)
                            and stripped != f'"{name}",'
                            and not re.match(rf"(def|class) {name}\b", stripped)):
                        owners[name].add(owner.get(lineno))
        reached = set(ACCEPTANCE_ONLY) | set(AWAITING_CALLER)
        grew = True
        while grew:
            grew = False
            for name in checked - reached:
                if any(o not in checked or o in reached for o in owners[name] - {name}):
                    reached.add(name)
                    grew = True
        assert sorted(checked - reached) == []
        # every exemption still names a public name that needs it
        assert set(ACCEPTANCE_ONLY) | set(AWAITING_CALLER) <= checked

    def test_every_parameter_is_read(self):
        # a parameter no body reads decides nothing; each exemption is
        # still needed
        package = Path(__file__).resolve().parent.parent / "src" / "diffeokit"
        unread = set()
        for path in sorted(package.glob("*.py")):
            unread |= unread_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert sorted(unread - set(UNREAD_PARAMETERS)) == []
        assert sorted(set(UNREAD_PARAMETERS) - unread) == []

    def test_timings_flag_adds_elapsed(self, capsys):
        _, out, _ = run(capsys, "smooth", "line-projection", "--timings")
        assert "s)" in out

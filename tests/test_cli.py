"""Command line driver: subcommands, report formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diffeokit.cli import main


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv("DIFFEO_FIXTURE_PATH", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_strict_unknown_turns_into_failure(self, capsys):
        code, _, _ = run(capsys, "subduction", "axis-inclusion", "--strict-unknown")
        assert code == 1


class TestExitCodes:
    def test_unknown_fixture_name(self, capsys):
        code, _, err = run(capsys, "axioms", "no-such-space")
        assert code == 2
        assert "unknown space fixture" in err

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "tangent-cone", "cross", "0,zebra")
        assert code == 2
        assert "bad point" in err

    def test_group_bundle_mismatch(self, capsys):
        code, _, err = run(capsys, "exact-sequence", "line-bundle", "axis-swap")
        assert code == 2
        assert "acts on bundle" in err

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

    def test_unknown_form_lists_frame_models(self, capsys):
        code, _, err = run(capsys, "forms-validate", "nope")
        assert code == 2
        assert "line-density" in err
        assert "frame-line" in err and "frame-plane" in err

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

    @pytest.mark.parametrize("seed, digest", [
        ("0", "cb864d7f11b82efdd95b2dff4f0928b9fc138aae8f1a7a5f2f25f77e5096100f"),
        ("7", "9c0e83fc2ed3602fed806703b1a175ff76e2551aef7441657ed64405df151dff"),
    ])
    def test_full_suite_report_bytes_are_pinned(self, capsys, seed, digest):
        # a change that alters any verdict, witness or ordering changes the
        # digest and has to say why
        code, out, _ = run(capsys, "all", "--budget", "4", "--format", "json",
                           "--seed", seed)
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

    def test_timings_flag_adds_elapsed(self, capsys):
        _, out, _ = run(capsys, "smooth", "line-projection", "--timings")
        assert "s)" in out

"""Tests for the run store, manifest diff/check, and exporters.

Covers manifest construction (schema golden), the store's
save/list/load/prefix semantics, ``diff_manifests``/``check_manifest``
gating rules, the Prometheus text exporter (byte-for-byte golden), and
the CLI verbs end to end: ``verify --save-run/--manifest/--prom-out``
feeding ``runs list|show|diff|check`` across serial, parallel and
``.cat``-model runs.
"""

import copy
import json
import os

import pytest

from repro import ProgramBuilder, verify
from repro.cli import main
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    Observer,
    RunStore,
    build_manifest,
    check_manifest,
    diff_manifests,
    format_check,
    format_diff,
    to_prometheus,
)
from repro.obs.runstore import manifest_run_id

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def sb_program():
    p = ProgramBuilder("SB")
    t0 = p.thread()
    t0.store("x", 1)
    a = t0.load("y")
    t1 = p.thread()
    t1.store("y", 1)
    b = t1.load("x")
    p.observe(a, b)
    return p.build()


def make_manifest(created: float = 1000.0, model: str = "tso") -> dict:
    obs = Observer()
    result = verify(sb_program(), model, observer=obs)
    return build_manifest(
        result,
        obs.metrics_snapshot(),
        command=f"verify SB --model {model}",
        jobs=1,
        created=created,
    )


@pytest.fixture
def store(tmp_path) -> RunStore:
    return RunStore(str(tmp_path / "runs"))


class TestBuildManifest:
    def test_schema_matches_golden(self):
        with open(os.path.join(GOLDEN, "manifest_schema.json")) as fh:
            golden = json.load(fh)
        manifest = make_manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert sorted(manifest) == golden["top"]
        assert sorted(manifest["result"]) == golden["result"]
        assert sorted(manifest["metrics"]) == golden["metrics"]

    def test_json_round_trip(self):
        manifest = make_manifest()
        assert json.loads(json.dumps(manifest)) == manifest

    def test_counts_and_outcomes(self):
        manifest = make_manifest()
        result = manifest["result"]
        assert result["executions"] == 4
        assert result["errors"] == 0
        assert len(result["outcomes"]) == 4
        assert all("=" in key for key in result["outcomes"])

    def test_profiler_metrics_present(self):
        counters = make_manifest(model="rc11")["metrics"]["counters"]
        assert any(k.startswith("relation:") for k in counters)


class TestRunStore:
    def test_save_and_load(self, store):
        manifest = make_manifest()
        path = store.save(manifest)
        assert os.path.isfile(path)
        loaded = store.load(os.path.basename(path)[: -len(".json")])
        assert loaded["result"] == manifest["result"]
        assert loaded["run_id"] == manifest_run_id(manifest)

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "envruns"))
        assert RunStore().root == str(tmp_path / "envruns")

    def test_list_and_latest(self, store):
        assert store.list_runs() == [] and store.latest() is None
        first = store.save(make_manifest(created=1000.0))
        second = store.save(make_manifest(created=2000.0))
        assert first != second
        ids = store.run_ids()
        assert len(ids) == 2 and ids == sorted(ids)
        assert store.latest()["created"] == 2000.0

    def test_prefix_lookup(self, store):
        store.save(make_manifest(created=1000.0))
        run_id = store.run_ids()[0]
        assert store.load(run_id[:12])["run_id"] == run_id
        with pytest.raises(FileNotFoundError):
            store.load("zzzz")

    def test_ambiguous_prefix_rejected(self, store):
        store.save(make_manifest(created=1000.0))
        store.save(make_manifest(created=1001.0))
        prefix = os.path.commonprefix(store.run_ids())
        assert prefix  # same second-resolution timestamp family
        with pytest.raises(ValueError, match="ambiguous"):
            store.load(prefix[:4])

    def test_load_by_path(self, store, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(make_manifest()))
        assert store.load(str(path))["program"] == "SB"

    def test_rejects_non_manifest(self, store, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a run manifest"):
            store.load(str(path))

    def test_rejects_future_schema(self, store, tmp_path):
        manifest = make_manifest()
        manifest["schema"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            store.load(str(path))


class TestDiffAndCheck:
    def test_identical_runs_diff_clean(self):
        manifest = make_manifest()
        diff = diff_manifests(manifest, copy.deepcopy(manifest))
        assert not diff["counts"] and not diff["stats"] and not diff["counters"]
        assert "results identical" in format_diff(diff)

    def test_diff_detects_changes(self):
        a = make_manifest()
        b = copy.deepcopy(a)
        b["result"]["executions"] = 5
        b["result"]["outcomes"]["r9@9=9"] = 1
        b["metrics"]["counters"]["relation:co:memo_hit"] = 999
        diff = diff_manifests(a, b)
        assert diff["counts"]["executions"] == {"old": 4, "new": 5}
        assert "r9@9=9" in diff["outcomes"]["added"]
        assert "relation:co:memo_hit" in diff["counters"]
        text = format_diff(diff)
        assert "executions: 4 -> 5" in text and "+ {r9@9=9}" in text

    def test_check_passes_identical(self):
        manifest = make_manifest()
        violations, warnings = check_manifest(
            copy.deepcopy(manifest), manifest
        )
        assert violations == [] and warnings == []
        assert "check passed" in format_check(violations, warnings)

    def test_check_flags_count_mismatch(self):
        baseline = make_manifest()
        current = copy.deepcopy(baseline)
        current["result"]["executions"] = 3
        current["result"]["outcomes"].pop(
            next(iter(current["result"]["outcomes"]))
        )
        violations, _ = check_manifest(current, baseline)
        assert any("executions" in v for v in violations)
        assert any("outcome lost" in v for v in violations)
        assert "FAILED" in format_check(violations, [])

    def test_check_warns_on_timing_regression(self):
        baseline = make_manifest()
        baseline["result"]["elapsed"] = 1.0
        current = copy.deepcopy(baseline)
        current["result"]["elapsed"] = 2.0
        violations, warnings = check_manifest(current, baseline)
        assert violations == []
        assert any("elapsed regression" in w for w in warnings)
        # below the noise floor nothing fires
        baseline["result"]["elapsed"] = 0.001
        current["result"]["elapsed"] = 0.04
        _, warnings = check_manifest(current, baseline)
        assert warnings == []

    def test_check_flags_baseline_zero_instead_of_passing(self):
        # a ~zero baseline used to make the ratio None and the
        # slowdown gate silently pass; now it warns explicitly
        baseline = make_manifest()
        baseline["result"]["elapsed"] = 0.0
        current = copy.deepcopy(baseline)
        current["result"]["elapsed"] = 3.0
        violations, warnings = check_manifest(current, baseline)
        assert violations == []
        assert any("elapsed baseline-zero" in w for w in warnings)
        assert not any("elapsed regression" in w for w in warnings)

    def test_check_flags_phase_baseline_zero(self):
        baseline = make_manifest()
        baseline["phases"] = {"revisit": {"self": 0.0, "total": 0.0}}
        current = copy.deepcopy(baseline)
        current["phases"] = {"revisit": {"self": 2.0, "total": 2.0}}
        _, warnings = check_manifest(current, baseline)
        assert any("'revisit' baseline-zero" in w for w in warnings)

    def test_baseline_zero_respects_noise_floor(self):
        # both sides under the floor: still silent (scheduling noise)
        baseline = make_manifest()
        baseline["result"]["elapsed"] = 0.0
        current = copy.deepcopy(baseline)
        current["result"]["elapsed"] = 0.04
        _, warnings = check_manifest(current, baseline)
        assert warnings == []

    def test_diff_marks_zero_baseline_ratio(self):
        a = make_manifest()
        a["result"]["elapsed"] = 0.0
        b = copy.deepcopy(a)
        b["result"]["elapsed"] = 1.0
        diff = diff_manifests(a, b)
        assert diff["timing"]["elapsed"]["ratio"] is None
        assert "baseline ~0s: ratio n/a" in format_diff(diff)

    def test_check_warns_on_noisy_fields(self):
        baseline = make_manifest()
        current = copy.deepcopy(baseline)
        current["result"]["duplicates"] = 7
        current["result"]["stats"]["events_added"] += 1
        violations, warnings = check_manifest(current, baseline)
        assert violations == []
        assert any("duplicates" in w for w in warnings)
        assert any("stats.events_added" in w for w in warnings)

    def test_check_rejects_cross_task_comparison(self):
        baseline = make_manifest()
        current = copy.deepcopy(baseline)
        current["model"] = "sc"
        violations, _ = check_manifest(current, baseline)
        assert any("model mismatch" in v for v in violations)


class TestPrometheusExport:
    def test_golden_byte_for_byte(self):
        with open(os.path.join(GOLDEN, "manifest.json")) as fh:
            manifest = json.load(fh)
        with open(os.path.join(GOLDEN, "prometheus.txt")) as fh:
            golden = fh.read()
        assert to_prometheus(manifest) == golden

    def test_label_escaping(self):
        manifest = {
            "program": 'a"b\\c',
            "model": "m\nn",
            "result": {},
            "metrics": {},
            "phases": {},
        }
        text = to_prometheus(manifest)
        assert 'program="a\\"b\\\\c"' in text
        assert 'model="m\\nn"' in text

    def test_real_manifest_exports(self):
        text = to_prometheus(make_manifest())
        assert "repro_executions_total" in text
        assert "repro_phase_calls_total" in text
        assert text.endswith("\n")


CAT_SOURCE = """(* repro: name=cat-porf *)
let rec hb = po | rf | (hb ; hb)
acyclic hb as porf
"""


class TestCliEndToEnd:
    def run_verify(self, runs_dir, *extra):
        return main(
            [
                "verify",
                "SB",
                "--model",
                "tso",
                "--save-run",
                "--runs-dir",
                str(runs_dir),
                *extra,
            ]
        )

    def test_save_list_show_diff_check(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        manifest_path = tmp_path / "m.json"
        prom_path = tmp_path / "m.prom"
        assert (
            self.run_verify(
                runs_dir,
                "--manifest",
                str(manifest_path),
                "--prom-out",
                str(prom_path),
            )
            == 0
        )
        # a second, parallel run of the same task
        assert self.run_verify(runs_dir, "--jobs", "2") == 0
        assert manifest_path.is_file() and prom_path.is_file()
        assert "repro_executions_total" in prom_path.read_text()
        capsys.readouterr()

        assert main(["runs", "list", "--dir", str(runs_dir)]) == 0
        listing = capsys.readouterr().out
        assert listing.count("SB/tso") == 2

        assert main(["runs", "show", "--dir", str(runs_dir)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["result"]["executions"] == 4

        ids = RunStore(str(runs_dir)).run_ids()
        assert (
            main(["runs", "diff", "--dir", str(runs_dir), ids[0], ids[1]])
            == 0
        )
        assert "results identical" in capsys.readouterr().out

        # serial manifest as baseline, latest (parallel) run as current:
        # merged worker metrics must reproduce the serial counts
        assert (
            main(
                [
                    "runs",
                    "check",
                    "--dir",
                    str(runs_dir),
                    "--baseline",
                    str(manifest_path),
                ]
            )
            == 0
        )
        assert "check passed" in capsys.readouterr().out

    def test_check_fails_on_regression_and_warn_only(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        baseline_path = tmp_path / "baseline.json"
        assert self.run_verify(runs_dir, "--manifest", str(baseline_path)) == 0
        baseline = json.loads(baseline_path.read_text())
        baseline["result"]["executions"] = 17
        baseline_path.write_text(json.dumps(baseline))
        capsys.readouterr()
        args = [
            "runs",
            "check",
            "--dir",
            str(runs_dir),
            "--baseline",
            str(baseline_path),
        ]
        assert main(args) == 1
        assert "VIOLATION" in capsys.readouterr().out
        assert main([*args, "--warn-only"]) == 0
        assert "warn-only" in capsys.readouterr().out

    def test_cat_model_manifest_has_memo_attribution(self, tmp_path, capsys):
        cat_path = tmp_path / "porf.cat"
        cat_path.write_text(CAT_SOURCE)
        runs_dir = tmp_path / "runs"
        manifest_path = tmp_path / "cat.json"
        assert (
            main(
                [
                    "verify",
                    "SB",
                    "--model-file",
                    str(cat_path),
                    "--save-run",
                    "--runs-dir",
                    str(runs_dir),
                    "--manifest",
                    str(manifest_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        counters = manifest["metrics"]["counters"]
        assert any(k.startswith("cat:memo_hit:") for k in counters)
        # the cat manifest gates against itself end to end
        store = RunStore(str(runs_dir))
        violations, _ = check_manifest(store.latest(), manifest)
        assert violations == []

"""Executor tests: cache hit/miss, --force, parallel determinism, recovery.

Only cheap registry experiments (table2, fig3, fig6, fig17) run here so
the suite stays fast; the heavy ones are covered by the contract test's
smoke configs and the benches.
"""

import json

import pytest

from repro.harness import EXPERIMENTS, Experiment
from repro.runtime import ExperimentRunner

CHEAP = ("fig17", "fig3", "table2")


def artifact_bytes(runner, name):
    return runner.store.path_for(name).read_bytes()


class TestJobsResolution:
    def test_zero_resolves_to_cpu_count(self, tmp_path):
        import os

        runner = ExperimentRunner(tmp_path, jobs=0)
        assert runner.jobs == (os.cpu_count() or 1)

    def test_positive_jobs_kept(self, tmp_path):
        assert ExperimentRunner(tmp_path, jobs=3).jobs == 3

    def test_negative_jobs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(tmp_path, jobs=-1)


class TestCacheBehavior:
    def test_first_run_misses_second_hits(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=1)
        first = runner.run("fig17")
        assert first.ok and not first.cache_hit and first.duration_s > 0
        second = runner.run("fig17")
        assert second.ok and second.cache_hit and second.duration_s == 0.0
        assert second.result == first.result

    def test_hit_rewrites_byte_identical_artifact(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=1)
        runner.run("fig6")
        before = artifact_bytes(runner, "fig6")
        runner.run("fig6")
        assert artifact_bytes(runner, "fig6") == before

    def test_param_change_misses(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=1)
        runner.run("fig6", {"seed": 0})
        outcome = runner.run("fig6", {"seed": 1})
        assert not outcome.cache_hit

    def test_force_reruns_despite_cache(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=1)
        runner.run("fig17")
        forced = ExperimentRunner(tmp_path, jobs=1, force=True).run("fig17")
        assert forced.ok and not forced.cache_hit

    def test_corrupted_cache_entry_recovers(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=1)
        first = runner.run("fig17")
        path = runner.cache.path_for(first.cache_key)
        path.write_text("not json at all")
        again = ExperimentRunner(tmp_path, jobs=1).run("fig17")
        assert again.ok and not again.cache_hit
        assert again.result == first.result
        # the bad entry was rewritten: a third run hits again
        assert ExperimentRunner(tmp_path, jobs=1).run("fig17").cache_hit

    def test_engine_mode_change_misses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "kernel")
        kernel = ExperimentRunner(tmp_path, jobs=1).run("fig17")
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        fast = ExperimentRunner(tmp_path, jobs=1).run("fig17")
        assert kernel.ok and fast.ok
        assert not fast.cache_hit
        assert fast.cache_key != kernel.cache_key
        # each mode then hits its own entry; unset means fast
        monkeypatch.delenv("REPRO_ENGINE")
        assert ExperimentRunner(tmp_path, jobs=1).run("fig17").cache_hit
        monkeypatch.setenv("REPRO_ENGINE", "kernel")
        assert ExperimentRunner(tmp_path, jobs=1).run("fig17").cache_hit

    def test_no_persistence_without_artifacts_root(self, tmp_path):
        runner = ExperimentRunner(artifacts_root=None)
        outcome = runner.run("fig17")
        assert outcome.ok and outcome.artifact_path is None
        assert runner.cache is None and runner.store is None


class TestParallelism:
    def test_jobs1_and_jobs4_produce_identical_artifacts(self, tmp_path):
        serial = ExperimentRunner(tmp_path / "serial", jobs=1)
        parallel = ExperimentRunner(tmp_path / "parallel", jobs=4)
        s = serial.run_all(only=CHEAP)
        p = parallel.run_all(only=CHEAP)
        assert s.ok and p.ok and s.misses == p.misses == len(CHEAP)
        for name in CHEAP:
            assert artifact_bytes(serial, name) == artifact_bytes(parallel, name)

    def test_outcomes_keep_request_order(self, tmp_path):
        summary = ExperimentRunner(tmp_path, jobs=4).run_many(
            [(name, {}) for name in CHEAP]
        )
        assert [o.experiment for o in summary.outcomes] == list(CHEAP)


class TestRunAll:
    def test_manifest_written_with_timings_and_hits(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=2)
        summary = runner.run_all(only=CHEAP)
        assert summary.manifest_path is not None
        manifest = json.loads(runner.store.manifest_path.read_text())
        assert manifest["jobs"] == 2
        assert manifest["cache"] == {"hits": 0, "misses": 3, "hit_rate": 0.0}
        runs = {r["experiment"]: r for r in manifest["runs"]}
        assert set(runs) == set(CHEAP)
        assert all(r["status"] == "ok" for r in runs.values())
        second = ExperimentRunner(tmp_path, jobs=2).run_all(only=CHEAP)
        assert second.hits == 3 and second.hit_rate == 1.0

    def test_unknown_only_id_raises_before_running(self, tmp_path):
        with pytest.raises(KeyError, match="unknown experiment"):
            ExperimentRunner(tmp_path).run_all(only=["fig99"])

    def test_smoke_uses_cheap_params(self, tmp_path):
        summary = ExperimentRunner(tmp_path).run_all(only=["fig15"], smoke=True)
        assert summary.ok
        assert summary.outcomes[0].params["model"] == "model4"

    def test_smoke_artifacts_do_not_clobber_paper_results(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=1)
        runner.run_all(only=["fig17"])
        before = artifact_bytes(runner, "fig17")
        smoke = ExperimentRunner(tmp_path, jobs=1).run_all(
            only=["fig17"], smoke=True
        )
        assert artifact_bytes(runner, "fig17") == before
        assert smoke.manifest_path == str(tmp_path / "smoke" / "manifest.json")
        assert (tmp_path / "smoke" / "fig17.json").is_file()

    def test_invalid_param_raises_before_running(self, tmp_path):
        with pytest.raises(ValueError, match="no parameter"):
            ExperimentRunner(tmp_path).run_many([("fig6", {"nope": 1})])


class TestSweep:
    def test_grid_expansion_and_sweep_artifact(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=2)
        summary = runner.sweep("fig6", {"seed": [0, 1]})
        assert [o.params["seed"] for o in summary.outcomes] == [0, 1]
        payload = json.loads(runner.store.sweep_path("fig6").read_text())
        assert payload["experiment"] == "fig6"
        assert payload["grid"] == {"seed": [0, 1]}
        assert len(payload["points"]) == 2
        assert all(p["status"] == "ok" for p in payload["points"])

    def test_sweep_does_not_clobber_default_artifact(self, tmp_path):
        runner = ExperimentRunner(tmp_path, jobs=1)
        runner.run("fig6")
        before = artifact_bytes(runner, "fig6")
        runner.sweep("fig6", {"seed": [1, 2]})
        assert artifact_bytes(runner, "fig6") == before

    def test_sweep_points_hit_cache_on_rerun(self, tmp_path):
        ExperimentRunner(tmp_path).sweep("fig6", {"seed": [0, 1]})
        again = ExperimentRunner(tmp_path).sweep("fig6", {"seed": [0, 1]})
        assert again.hits == 2


class TestFailureIsolation:
    @pytest.fixture
    def broken_experiment(self, monkeypatch):
        def explode() -> dict:
            raise RuntimeError("kaboom")

        monkeypatch.setitem(
            EXPERIMENTS,
            "broken",
            Experiment("broken", "Fig. 0", explode, description="always fails"),
        )

    def test_error_becomes_outcome_not_exception(self, tmp_path, broken_experiment):
        summary = ExperimentRunner(tmp_path, jobs=1).run_many(
            [("broken", {}), ("fig17", {})]
        )
        broken, fig17 = summary.outcomes
        assert broken.status == "error" and "kaboom" in broken.error
        assert broken.result is None
        assert fig17.ok  # the failure does not poison the batch
        assert summary.errors == 1 and not summary.ok

    def test_failed_run_is_not_cached(self, tmp_path, broken_experiment):
        runner = ExperimentRunner(tmp_path, jobs=1)
        runner.run("broken")
        assert runner.cache.entry_count() == 0

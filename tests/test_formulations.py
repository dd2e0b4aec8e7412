"""Tests for the first-class Formulation API and formulation-agnostic serving.

Covers the registry contract (dispatch, extension without pipeline edits),
the artifact save→load→serve round-trip for **every** servable formulation
— including exact transductive parity for the value-node formulations and
the UNK vocabulary bucket for never-seen categorical values — plus the
versioned artifact schema (legacy sidecar upgrade, unknown-version
rejection) and the enriched ``/healthz`` payload.
"""

import json

import numpy as np
import pytest

from repro import formulations
from repro.formulations import FittedFormulation, Formulation
from repro.datasets import make_fraud
from repro.pipeline import FORMULATIONS, run_pipeline
from repro.serving import InferenceEngine, ModelArtifact, PredictionServer
from repro.serving.artifact import ARTIFACT_SCHEMA_VERSION

SERVABLE = ("instance", "feature", "multiplex", "hetero", "hypergraph")


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def dataset():
    # Small n keeps every same-value group under the degree cap, so the
    # multiplex value cliques are exact (group-mean) — the regime where
    # served training rows must reproduce transductive logits.
    return make_fraud(n=140, seed=0)


@pytest.fixture(scope="module")
def results(dataset):
    return {
        form: run_pipeline(dataset, formulation=form, max_epochs=8, seed=0)
        for form in SERVABLE
    }


# ----------------------------------------------------------------------
# registry contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_survey_formulations_registered_in_order(self):
        assert FORMULATIONS == (
            "instance", "feature", "multiplex", "hetero", "hypergraph"
        )
        assert formulations.available() == FORMULATIONS

    def test_servable_is_a_capability_not_a_whitelist(self):
        # The formulation × serving matrix is closed: every registered
        # formulation exports a deployable artifact.  Servability stays a
        # per-class capability so plug-ins can still opt out.
        assert formulations.servable() == FORMULATIONS
        assert all(formulations.get(name).servable for name in FORMULATIONS)

    def test_unknown_formulation_lists_choices(self, dataset):
        with pytest.raises(ValueError, match="instance"):
            run_pipeline(dataset, formulation="nope", max_epochs=1)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            formulations.register(formulations.InstanceFormulation())

    def test_new_formulation_runs_through_pipeline_without_edits(self, dataset):
        # The acceptance bar for the registry: a brand-new formulation is
        # dispatchable by run_pipeline with zero pipeline changes.
        class TinyFitted(formulations.instance.FittedInstance):
            name = "tiny-instance"

        class TinyFormulation(formulations.InstanceFormulation):
            name = "tiny-instance"
            fitted_cls = TinyFitted

        formulations.register(TinyFormulation())
        try:
            result = run_pipeline(
                dataset, formulation="tiny-instance", max_epochs=2, seed=0
            )
            assert result.formulation == "tiny-instance"
            assert result.state.fitted.name == "tiny-instance"
        finally:
            formulations.unregister("tiny-instance")


# ----------------------------------------------------------------------
# round-trip + serving over every servable formulation
# ----------------------------------------------------------------------
class TestServableRoundTrip:
    @pytest.mark.parametrize("form", SERVABLE)
    def test_save_load_serve_round_trip(self, form, tmp_path, dataset, results):
        artifact = results[form].export_artifact()
        assert artifact.network == results[form].state.fitted.model_builder
        path = artifact.save(tmp_path / form)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["schema_version"] == ARTIFACT_SCHEMA_VERSION

        loaded = ModelArtifact.load(path)
        assert loaded.formulation == form
        before = InferenceEngine(artifact, cache_size=0).predict_batch(
            dataset.numerical[:6], dataset.categorical[:6]
        )
        after = InferenceEngine(loaded, cache_size=0).predict_batch(
            dataset.numerical[:6], dataset.categorical[:6]
        )
        np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("form", ["multiplex", "hetero", "hypergraph"])
    def test_training_rows_match_transductive_logits(self, form, dataset, results):
        # Value-node serving is exact: a training-table row attaches to the
        # same frozen value nodes / value groups (or, for hypergraph, the
        # same member nodes of its hyperedge) it occupied in the training
        # graph, so served probabilities equal the transductive softmax to
        # float round-off.
        result = results[form]
        artifact = result.export_artifact()
        if form == "multiplex":
            # Exactness holds in the uncapped regime; the artifact says so.
            assert artifact.payload_meta["capped_groups"] == 0
        engine = InferenceEngine(artifact, cache_size=0)
        idx = np.arange(30)
        served = engine.predict_batch(
            dataset.numerical[idx], dataset.categorical[idx]
        )
        transductive = _softmax(result.state.logits()[idx])
        np.testing.assert_allclose(served, transductive, atol=1e-6)

    def test_multiplex_capped_groups_reported_and_still_serve(self, tmp_path):
        # Popular values blow past max_group_degree=30: the training graph
        # samples partners, so served group-mean aggregation is approximate.
        # The artifact must disclose that (capped_groups > 0) and still
        # produce valid predictions for group members.
        big = make_fraud(n=400, num_devices=5, num_merchants=4, seed=1)
        result = run_pipeline(big, formulation="multiplex", max_epochs=3, seed=0)
        artifact = result.export_artifact()
        assert artifact.payload_meta["capped_groups"] > 0
        path = artifact.save(tmp_path / "capped")
        loaded = ModelArtifact.load(path)
        assert (
            loaded.fitted.capped_groups == artifact.payload_meta["capped_groups"]
        )
        engine = InferenceEngine(loaded, cache_size=0)
        probs = engine.predict_batch(big.numerical[:5], big.categorical[:5])
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
        # The group-mean semantics are exactly what the full-graph oracle
        # computes for attached rows, capped groups included.
        oracle = InferenceEngine(loaded, cache_size=0, incremental=False)
        np.testing.assert_allclose(
            probs,
            oracle.predict_batch(big.numerical[:5], big.categorical[:5]),
            atol=1e-8,
        )

    @pytest.mark.parametrize("form", ["multiplex", "hetero", "hypergraph"])
    def test_unseen_value_hits_unk_bucket(self, form, tmp_path, dataset, results):
        path = results[form].export_artifact().save(tmp_path / form)
        engine = InferenceEngine(ModelArtifact.load(path), cache_size=0)
        fitted = engine.artifact.fitted
        if form == "multiplex":
            vocab_sizes = [len(v) for v in fitted.vocabularies]
        categorical = dataset.categorical[:4].copy()
        categorical[:, 0] = 10_000_000  # never seen in any training column
        probs = engine.predict_batch(dataset.numerical[:4], categorical)
        assert engine.stats["unk_values"] == 4
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
        if form == "multiplex":
            # The UNK bucket must not silently grow the vocabulary.
            assert [len(v) for v in fitted.vocabularies] == vocab_sizes

    @pytest.mark.parametrize("form", ["multiplex", "hetero", "hypergraph"])
    def test_missing_categoricals_still_serve(self, form, dataset, results):
        engine = InferenceEngine(results[form].export_artifact(), cache_size=0)
        probs = engine.predict_batch(dataset.numerical[:3])  # no categoricals
        assert probs.shape == (3, dataset.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("form", ["multiplex", "hetero"])
    def test_value_node_formulations_match_full_graph_oracle(
        self, form, dataset, results
    ):
        # The oracle appends the queries to the frozen graph as nodes that
        # only receive edges (multiplex: group-mean rows plus UNK self
        # loops; hetero: value→query edges) and runs the autograd forward;
        # the compiled plan must agree on unseen rows, UNK codes included.
        artifact = results[form].export_artifact()
        rng = np.random.default_rng(7)
        numerical = dataset.numerical[:12] + rng.normal(
            0, 0.3, (12, dataset.num_numerical)
        )
        categorical = dataset.categorical[:12].copy()
        categorical[:3, 0] = 10_000_000
        categorical[3:5, 1] = -1
        oracle = InferenceEngine(artifact, cache_size=0, incremental=False)
        assert not oracle.incremental and not oracle.compiled
        np.testing.assert_allclose(
            InferenceEngine(artifact, cache_size=0).predict_batch(
                numerical, categorical
            ),
            oracle.predict_batch(numerical, categorical),
            atol=1e-8,
        )

    @pytest.mark.parametrize("form", ["multiplex", "hetero", "hypergraph"])
    def test_compiled_plan_keeps_oracle_serving_stats(
        self, form, dataset, results
    ):
        # UNK and attach-edge counters are part of the serving contract:
        # the compiled plan must report what the full-graph oracle reports.
        artifact = results[form].export_artifact()
        categorical = dataset.categorical[:8].copy()
        categorical[:2, 0] = 10_000_000
        categorical[2:4, 1] = -1
        stats = []
        for incremental in (None, False):
            engine = InferenceEngine(
                artifact, cache_size=0, incremental=incremental
            )
            engine.predict_batch(dataset.numerical[:8], categorical)
            stats.append(
                (engine.stats["unk_values"], engine.stats["attach_edges"])
            )
        assert stats[0] == stats[1]
        assert stats[0][0] == 2 and stats[0][1] > 0

    def test_hypergraph_incremental_matches_full_graph_oracle(
        self, dataset, results
    ):
        # Unlike multiplex/hetero, hypergraph keeps a full-graph oracle
        # (queries appended as incidence columns, scored via the model's
        # ordinary spmm forward); the cached-node-state incremental path
        # must agree with it on genuinely unseen rows too.
        artifact = results["hypergraph"].export_artifact()
        rng = np.random.default_rng(7)
        numerical = dataset.numerical[:12] + rng.normal(0, 0.3, (12, dataset.num_numerical))
        categorical = dataset.categorical[:12]
        inc = InferenceEngine(artifact, cache_size=0).predict_batch(
            numerical, categorical
        )
        oracle = InferenceEngine(
            artifact, cache_size=0, incremental=False
        ).predict_batch(numerical, categorical)
        np.testing.assert_allclose(inc, oracle, atol=1e-8)


# ----------------------------------------------------------------------
# artifact schema versioning
# ----------------------------------------------------------------------
class TestArtifactSchema:
    def test_legacy_sidecar_without_schema_version_loads(
        self, tmp_path, dataset, results
    ):
        # Rebuild the v1 on-disk layout: pool:: arrays, format_version key.
        artifact = results["instance"].export_artifact()
        path = artifact.save(tmp_path / "legacy")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        legacy_arrays = {
            (name.replace("form::", "pool::")): value
            for name, value in arrays.items()
        }
        np.savez(path, **legacy_arrays)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        del sidecar["schema_version"]
        del sidecar["formulation_state"]
        sidecar["format_version"] = 1
        path.with_suffix(".json").write_text(json.dumps(sidecar))

        loaded = ModelArtifact.load(path)
        assert loaded.schema_version == 1
        assert loaded.pool_x is not None
        # An explicit "schema_version": 1 is the same supported layout.
        sidecar["schema_version"] = 1
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        assert ModelArtifact.load(path).schema_version == 1
        rows = (dataset.numerical[:5], dataset.categorical[:5])
        np.testing.assert_array_equal(
            InferenceEngine(loaded, cache_size=0).predict_batch(*rows),
            InferenceEngine(artifact, cache_size=0).predict_batch(*rows),
        )

    def test_unknown_schema_version_rejected(self, tmp_path, results):
        path = results["feature"].export_artifact().save(tmp_path / "future")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        sidecar["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="unknown artifact schema"):
            ModelArtifact.load(path)

    def test_legacy_format_version_above_one_rejected(self, tmp_path, results):
        path = results["feature"].export_artifact().save(tmp_path / "odd")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        del sidecar["schema_version"]
        sidecar["format_version"] = 9
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="newer than this library"):
            ModelArtifact.load(path)


# ----------------------------------------------------------------------
# health endpoint
# ----------------------------------------------------------------------
class TestHealthz:
    @pytest.mark.parametrize("form", ["multiplex", "feature"])
    def test_health_reports_formulation_and_schema(self, form, results):
        server = PredictionServer(results[form].export_artifact(), port=0)
        try:
            health = server.health()
        finally:
            server.shutdown()
        assert health["formulation"] == form
        assert health["schema_version"] == ARTIFACT_SCHEMA_VERSION
        if form == "multiplex":
            assert health["pool_rows"] == 140
        else:
            assert health["pool_rows"] is None

    def test_multiplex_serves_over_http(self, dataset, results):
        with PredictionServer(
            results["multiplex"].export_artifact(), port=0
        ) as server:
            payload = server.predict({
                "numerical": dataset.numerical[0].tolist(),
                "categorical": [10_000_000, -1],  # UNK device, missing merchant
            })
        assert payload["rows"] == 1
        assert abs(sum(payload["probabilities"][0]) - 1.0) < 1e-6

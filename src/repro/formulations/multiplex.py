"""Multiplex formulation: one same-feature-value layer per column (TabGNN).

Phases 1+2: every categorical column (and, optionally, every quantile-
binned numerical column) contributes one relation layer connecting
instances that share a value; :class:`~repro.models.TabGNN` encodes each
relation with a GCN and fuses them by attention.

Serving — value-node vocabularies with an UNK bucket
----------------------------------------------------
The fitted formulation freezes, per relation, the **vocabulary** mapping
each observed value to the pool rows possessing it (plus, for binned
columns, the quantile edges that map raw numbers to values).  An unseen
row's value is looked up in the frozen vocabulary and the query aggregates
the cached pool-side conv messages of that group; a *never-seen* value
falls into the UNK bucket — no pool group, the query's own transformed
state flows through instead (exactly the self-loop an isolated training
node has) — so out-of-vocabulary values yield valid predictions without
growing the vocabulary.  Because GCN over an uncapped value clique equals
the group mean, training-table rows served this way reproduce their
transductive logits to round-off (degree-capped groups — the rule's
scalability guard — are served with the same group-mean semantics and may
deviate slightly).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.construction.intrinsic import (
    ValueColumnSpec,
    multiplex_from_dataset,
    value_column_specs,
)
from repro.datasets.preprocessing import TabularPreprocessor
from repro.formulations.base import FittedFormulation, Formulation, RowScorer
from repro.graph.multiplex import MultiplexGraph
from repro.models import TabGNN
from repro.tensor import Tensor

Vocabulary = Dict[int, np.ndarray]  # value code -> pool member row indices


def _build_vocabularies(specs: List[ValueColumnSpec]) -> List[Vocabulary]:
    vocabs: List[Vocabulary] = []
    for spec in specs:
        vocab: Vocabulary = {}
        for value in np.unique(spec.codes):
            if value < 0:
                continue
            vocab[int(value)] = np.nonzero(spec.codes == value)[0].astype(np.int64)
        vocabs.append(vocab)
    return vocabs


class MultiplexScorer(RowScorer):
    """Vocabulary-lookup scoring against cached pool relation messages.

    The default serves the compiled plan, which feeds each query the
    precomputed mean of its value group's cached pool messages.
    ``incremental=False`` is the full-graph autograd oracle: per relation
    the B queries join the pool under the operator
    ``[[Â_pool, 0], [M_q, I_unk]]`` — ``Â_pool`` the trained GCN
    adjacency, ``M_q`` each query's row-mean over its frozen value group,
    ``I_unk`` a self loop where the value is UNK or missing — and TabGNN's
    ordinary forward runs on ``[x_pool; x_query]``.
    """

    def __init__(
        self,
        artifact,
        fitted: "FittedMultiplex",
        incremental: Optional[bool],
        stats: Dict[str, int],
    ) -> None:
        self._artifact = artifact
        self._fitted = fitted
        self._stats = stats
        stats.setdefault("unk_values", 0)
        stats.setdefault("attach_edges", 0)
        self.incremental = True if incremental is None else bool(incremental)
        if self.incremental:
            self.model = artifact.build_model()
            self.pool_messages = self.model.pool_message_states()

    def _attached_operator(
        self, adjacency: sp.csr_matrix, codes: np.ndarray, vocab: Vocabulary
    ) -> sp.csr_matrix:
        """One relation's ``[[Â_pool, 0], [M_q, I_unk]]`` over pool + queries."""
        batch = codes.shape[0]
        member_mean = sp.lil_matrix((batch, adjacency.shape[0]))
        self_loops = np.ones(batch)
        for q, code in enumerate(codes):
            members = vocab.get(int(code)) if code >= 0 else None
            if members is None:
                self._stats["unk_values"] += int(code >= 0)
                continue
            member_mean[q, members] = 1.0 / members.shape[0]
            self_loops[q] = 0.0
            self._stats["attach_edges"] += int(members.shape[0])
        return sp.bmat(
            [[adjacency, None], [member_mean, sp.diags(self_loops)]], format="csr"
        )

    def _forward_full(
        self, features: np.ndarray, codes: List[np.ndarray]
    ) -> np.ndarray:
        """Correctness-oracle path: TabGNN's forward over pool + queries."""
        model = self._artifact.build_model()
        n_pool = model.x.shape[0]
        model.x = Tensor(np.concatenate([model.x.data, features], axis=0))
        model._adjacencies = [
            self._attached_operator(adjacency, rel_codes, vocab)
            for adjacency, rel_codes, vocab in zip(
                model._adjacencies, codes, self._fitted.vocabularies
            )
        ]
        return model().data[n_pool:]

    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        with self.stage("encode"):
            features = self._artifact.preprocessor.transform(numerical, categorical)
        with self.stage("attach"):
            codes = [
                spec.encode(numerical, categorical) for spec in self._fitted.specs
            ]
        if self._compiled is None:
            with self.stage("propagate"):
                return self._forward_full(features, codes)
        # The executor resolves raw value codes against its vocabulary
        # lookups (keeping unk/attach accounting identical to the oracle)
        # and feeds the plan precomputed group means.
        with self.stage("plan_execute"):
            return self._compiled.run(features, codes, self._stats)

    def compile_plan(self):
        if not self.incremental:
            return None  # the full-graph oracle runs on autograd
        from repro.serving.compiled import compile_multiplex

        return compile_multiplex(
            self.model, self._fitted.vocabularies, self.pool_messages
        )


class FittedMultiplex(FittedFormulation):
    name = "multiplex"

    def __init__(
        self,
        graph: MultiplexGraph,
        specs: List[ValueColumnSpec],
        vocabularies: List[Vocabulary],
        preprocessor: TabularPreprocessor,
        config: Dict[str, object],
        capped_groups: int = 0,
    ) -> None:
        super().__init__(config, preprocessor)
        self.graph = graph
        self.specs = list(specs)
        self.vocabularies = list(vocabularies)
        #: value groups whose training cliques were degree-capped by
        #: ``max_group_degree``.  0 ⇒ served training rows reproduce the
        #: transductive logits exactly; > 0 ⇒ members of those groups are
        #: served with group-mean semantics and may deviate slightly.
        self.capped_groups = int(capped_groups)

    def build_model(self, rng, graph=None) -> nn.Module:
        return TabGNN(
            self.graph if graph is None else graph,
            int(self.config["hidden_dim"]),
            int(self.config["out_dim"]),
            rng,
            num_layers=int(self.config.get("num_layers", 2)),
        )

    @property
    def model_builder(self) -> str:
        return "tabgnn"

    @property
    def pool_rows(self) -> Optional[int]:
        return int(self.graph.num_nodes)

    def artifact_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        arrays: Dict[str, np.ndarray] = {
            "x": np.asarray(self.graph.x, dtype=np.float64)
        }
        columns: List[Dict[str, object]] = []
        for i, (spec, vocab) in enumerate(zip(self.specs, self.vocabularies)):
            arrays[f"rel{i}::edge_index"] = self.graph.layer(spec.name).edge_index
            keys = np.array(sorted(vocab), dtype=np.int64)
            members = [vocab[int(k)] for k in keys]
            arrays[f"rel{i}::vocab_keys"] = keys
            arrays[f"rel{i}::vocab_offsets"] = np.cumsum(
                [0] + [m.shape[0] for m in members]
            ).astype(np.int64)
            arrays[f"rel{i}::vocab_members"] = (
                np.concatenate(members) if members else np.zeros(0, np.int64)
            )
            if spec.bin_edges is not None:
                arrays[f"rel{i}::bin_edges"] = np.asarray(
                    spec.bin_edges, dtype=np.float64
                )
            columns.append(spec.to_meta())
        meta = {
            "pool_rows": int(self.graph.num_nodes),
            "columns": columns,
            "capped_groups": self.capped_groups,
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta, config, preprocessor) -> "FittedMultiplex":
        x = np.asarray(arrays["x"], dtype=np.float64)
        specs: List[ValueColumnSpec] = []
        vocabularies: List[Vocabulary] = []
        layers: Dict[str, np.ndarray] = {}
        for i, column in enumerate(meta["columns"]):
            specs.append(ValueColumnSpec.from_meta(
                column, bin_edges=arrays.get(f"rel{i}::bin_edges")
            ))
            keys = arrays[f"rel{i}::vocab_keys"]
            offsets = arrays[f"rel{i}::vocab_offsets"]
            members = arrays[f"rel{i}::vocab_members"].astype(np.int64)
            vocabularies.append({
                int(key): members[offsets[j]:offsets[j + 1]]
                for j, key in enumerate(keys)
            })
            layers[str(column["name"])] = arrays[f"rel{i}::edge_index"]
        graph = MultiplexGraph.from_layers(x.shape[0], layers, x=x)
        return cls(
            graph, specs, vocabularies, preprocessor, config,
            capped_groups=int(meta.get("capped_groups", 0)),
        )

    def make_scorer(self, artifact, incremental, stats) -> MultiplexScorer:
        return MultiplexScorer(artifact, self, incremental, stats)


class MultiplexFormulation(Formulation):
    name = "multiplex"
    fitted_cls = FittedMultiplex

    def fit(self, dataset, train_mask, config) -> FittedMultiplex:
        n_bins = int(config.get("n_bins", 5))
        include_bins = bool(config.get("include_numerical_bins", True))
        cap = config.get("max_group_degree", 30)
        specs = value_column_specs(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins
        )
        graph = multiplex_from_dataset(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins,
            max_group_degree=cap, specs=specs,
        )
        vocabularies = _build_vocabularies(specs)
        capped_groups = 0
        if cap is not None:
            capped_groups = sum(
                int(members.shape[0] - 1 > cap)
                for vocab in vocabularies
                for members in vocab.values()
            )
        # The node features are dataset.to_matrix(); an unmasked onehot fit
        # reproduces that transform exactly for serve-time rows.
        preprocessor = TabularPreprocessor(mode="onehot").fit(dataset)
        return self.fitted_cls(
            graph, specs, vocabularies, preprocessor, config,
            capped_groups=capped_groups,
        )

"""Desk-scale gradient alignment experiments.

A synthetic knowledge base labels queries straight from relation matrices;
each labeled fact is paired with its negation (complement relation, flipped
label).  Two scorers are compared:

* ``mlp``: one-hot head/tail/relation-class inputs plus an explicit negation
  flag bit, a linear embedding, one tanh hidden layer, scalar head.  The
  relation vocabulary is the closed relation set modulo complement, so
  converse relations stay encodable and the whole logical family of a query
  can be scored.  Gradients are analytic reverse-mode (no autodiff), exposed
  per parameter block (embedding, hidden, head) for restricted-gradient
  experiments.
* ``slp_linear``: score is a fixed equivariant feature row dotted with the
  parameters, so the score gradient IS the feature row, and negated queries
  have exactly opposite gradients (cosine exactly -1) while reversed queries
  match exactly (+1).

Each scorer has one forward and one backward pass, shared by scores,
per-query gradients, training and block edits; one table lays out the
parameter blocks for gradients and edits alike.  Training is deterministic
full-batch gradient descent on the logistic loss; runs abort on non-finite
loss with the offending epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import numerics
from .factorize import FactorizedMap, build_slp_map
from .queryspace import LogicalOp, Query, apply_logical
from .relalg import (EntitySet, RelationAlgebra, close_unary,
                     random_base_relations)

# The arrays of each mlp parameter block, in the order the block's gradient
# concatenates them; slp_linear's single vector stands for every block.
_BLOCKS = {"emb": ("emb",), "hidden": ("hidden_w", "hidden_b"),
           "head": ("head_w", "head_b")}
_BLOCKS["all"] = _BLOCKS["emb"] + _BLOCKS["hidden"] + _BLOCKS["head"]
BLOCK_NAMES = tuple(_BLOCKS)


@dataclass(frozen=True)
class SyntheticKB:
    """Labeled base-relation queries plus their negation partners."""

    algebra: RelationAlgebra
    facts: tuple[tuple[Query, int], ...]
    partners: tuple[tuple[Query, int], ...]

    def training_set(self) -> tuple[tuple[Query, int], ...]:
        return self.facts + self.partners


def generate_kb(entity_count: int, base_relations: int, density: float,
                seed: int) -> SyntheticKB:
    """Random relations; degenerate draws get one redraw, then error.
    Facts name a base relation by its closure index, found by the relation, so
    a base relation drawn twice is labeled once."""
    if entity_count < 2:
        raise ValueError("need at least two entities")
    if base_relations < 1:
        raise ValueError("need at least one base relation")
    if not 0.0 < density < 1.0:
        raise ValueError("density must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    relations = random_base_relations(EntitySet.of_size(entity_count), rng,
                                      base_relations, density)
    algebra = close_unary(relations)
    neg = algebra.images[1].tolist()
    index = {rel: i for i, rel in enumerate(algebra.closed)}
    facts = []
    partners = []
    for r_idx in dict.fromkeys(index[rel] for rel in relations):
        for (h, t), held in np.ndenumerate(algebra.closed[r_idx].matrix):
            facts.append((Query(h, r_idx, t), int(held)))
            partners.append((Query(h, neg[r_idx], t), 1 - int(held)))
    return SyntheticKB(algebra, tuple(facts), tuple(partners))


def _relation_classes(algebra: RelationAlgebra) -> tuple[int, dict[int, tuple[int, int]]]:
    """Complement-pair classes, numbered in order of their smaller member.

    Returns the class count and each relation's (class id, negation flag).
    """
    r = np.arange(algebra.size)
    rep = np.minimum(r, algebra.images[1])
    reps = np.unique(rep)
    flags = (rep != r).astype(int)
    codes = zip(np.searchsorted(reps, rep).tolist(), flags.tolist())
    return len(reps), dict(enumerate(codes))


@dataclass(frozen=True, eq=False)
class ScorerModel:
    """Immutable parameter bundle; training returns a new instance."""

    arch: str
    params: dict
    algebra: RelationAlgebra
    rel_coding: dict
    n_classes: int
    feature_map: FactorizedMap | None = None

    @property
    def input_dim(self) -> int:
        n = self.algebra.entity_set.n
        return 2 * n + self.n_classes + 1


def _init_mlp_params(input_dim: int, embed_dim: int, hidden: int,
                     rng) -> dict:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer."""
    def layer(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return {
        "emb": layer((embed_dim, input_dim), input_dim),
        "hidden_w": layer((hidden, embed_dim), embed_dim),
        "hidden_b": layer((hidden,), embed_dim),
        "head_w": layer((hidden,), hidden),
        "head_b": layer((1,), hidden),
    }


def make_mlp(kb: SyntheticKB, hidden: int, embed_dim: int, seed: int) -> ScorerModel:
    if hidden < 1:
        raise ValueError("hidden width must be at least 1")
    if embed_dim < 1:
        raise ValueError("embedding width must be at least 1")
    n_classes, coding = _relation_classes(kb.algebra)
    input_dim = 2 * kb.algebra.entity_set.n + n_classes + 1
    rng = np.random.default_rng(seed)
    params = _init_mlp_params(input_dim, embed_dim, hidden, rng)
    return ScorerModel("mlp", params, kb.algebra, coding, n_classes)


def make_slp_linear(kb: SyntheticKB, context_dim: int, seed: int) -> ScorerModel:
    """Linear scorer over a seeded equivariant feature build of one raw
    sample."""
    fmap = build_slp_map(kb.algebra, context_dim, 1, None, seed)
    rng = np.random.default_rng(seed + 1)
    d = fmap.feature_map.dim
    params = {"theta": rng.uniform(-1.0 / np.sqrt(d), 1.0 / np.sqrt(d), size=d)}
    n_classes, coding = _relation_classes(kb.algebra)
    return ScorerModel("slp_linear", params, kb.algebra, coding, n_classes,
                       feature_map=fmap)


def encode_queries(model: ScorerModel, queries: Sequence[Query]) -> np.ndarray:
    """One-hot (head, tail, relation class) plus the negation flag bit."""
    n = model.algebra.entity_set.n
    x = np.zeros((len(queries), model.input_dim))
    for i, q in enumerate(queries):
        cls, flag = model.rel_coding[q.rel]
        x[i, q.head] = 1.0
        x[i, n + q.tail] = 1.0
        x[i, 2 * n + cls] = 1.0
        x[i, 2 * n + model.n_classes] = float(flag)
    return x


def _inputs(model: ScorerModel, queries: Sequence[Query]) -> np.ndarray:
    """Input rows: one-hot encodings (mlp) or feature rows (slp_linear)."""
    if model.arch == "mlp":
        return encode_queries(model, queries)
    fm = model.feature_map.feature_map
    heads, rels, tails = np.array(queries, dtype=int).reshape(-1, 3).T
    return fm.matrix[fm.index(heads, rels, tails)]


def _forward(model: ScorerModel, params: dict, x: np.ndarray):
    """Scores of the input rows, plus what `_backward` reads."""
    if model.arch == "slp_linear":
        return x @ params["theta"], None
    emb = x @ params["emb"].T
    a = np.tanh(emb @ params["hidden_w"].T + params["hidden_b"])
    return a @ params["head_w"] + params["head_b"][0], (emb, a)


def _backward(model: ScorerModel, params: dict, x: np.ndarray, cache,
              ds: np.ndarray) -> dict:
    """Gradient of sum_i ds[i] * score(x[i]) with respect to each array."""
    if model.arch == "slp_linear":
        return {"theta": x.T @ ds}
    emb, a = cache
    dz = np.outer(ds, params["head_w"]) * (1.0 - a * a)
    return {"emb": (dz @ params["hidden_w"]).T @ x, "hidden_w": dz.T @ emb,
            "hidden_b": dz.sum(axis=0), "head_w": a.T @ ds,
            "head_b": np.array([np.sum(ds)])}


def _block_arrays(model: ScorerModel, block: str) -> tuple[str, ...]:
    """Names of the block's arrays, in the order its gradient is laid out."""
    if block not in _BLOCKS:
        raise ValueError(f"unknown block {block!r}")
    return ("theta",) if model.arch == "slp_linear" else _BLOCKS[block]


def score(model: ScorerModel, q: Query) -> float:
    return float(scores(model, [q])[0])


def scores(model: ScorerModel, queries: Sequence[Query]) -> np.ndarray:
    return _forward(model, model.params, _inputs(model, queries))[0]


def gradient(model: ScorerModel, q: Query, block: str = "head") -> np.ndarray:
    """Analytic score gradient restricted to one parameter block.

    mlp blocks are the `_BLOCKS` arrays flattened and concatenated: 'emb' is
    the embedding matrix, 'hidden' the hidden weights then bias, 'head' the
    head weights then bias, and 'all' the three in that order.  slp_linear
    has a single parameter vector, returned for any block name: the gradient
    is the query's feature row.
    """
    names = _block_arrays(model, block)
    x = _inputs(model, [q])
    _, cache = _forward(model, model.params, x)
    grads = _backward(model, model.params, x, cache, np.ones(1))
    return np.concatenate([grads[k].ravel() for k in names])


@dataclass(frozen=True)
class TrainResult:
    model: ScorerModel
    losses: tuple[float, ...]
    accuracy: float


def train(model: ScorerModel, kb: SyntheticKB, epochs: int,
          lr: float) -> TrainResult:
    """Deterministic full-batch gradient descent on the logistic loss.

    Training continues from the model's current parameters.
    """
    data = kb.training_set()
    x = _inputs(model, [q for q, _ in data])
    y = np.array([1.0 if label else -1.0 for _, label in data])
    params = {k: v.copy() for k, v in model.params.items()}
    losses = []
    for epoch in range(epochs):
        s, cache = _forward(model, params, x)
        margin = y * s
        loss = float(np.mean(np.logaddexp(0.0, -margin)))
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at epoch {epoch}")
        losses.append(loss)
        ds = -y / (1.0 + np.exp(margin)) / len(y)
        grads = _backward(model, params, x, cache, ds)
        params = {k: v - lr * grads[k] for k, v in params.items()}
    s, _ = _forward(model, params, x)
    acc = float(np.mean((s > 0) == (y > 0)))
    return TrainResult(replace(model, params=params), tuple(losses), acc)


@dataclass(frozen=True)
class AlignmentReport:
    """Per-pair negation-gradient cosines on one parameter block."""

    block: str
    arch: str
    cosines: tuple[float, ...]
    mean: float
    std: float
    excluded: int
    bin_edges: tuple[float, ...]
    bin_counts: tuple[int, ...]
    hyperparams: dict

    def histogram_csv(self) -> str:
        lines = ["bin_lo,bin_hi,count"]
        for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:],
                             self.bin_counts):
            lines.append(f"{lo!r},{hi!r},{c}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"block": self.block, "arch": self.arch,
                "mean": self.mean, "std": self.std,
                "excluded": self.excluded,
                "cosines": list(self.cosines),
                "bin_edges": list(self.bin_edges),
                "bin_counts": list(self.bin_counts),
                "hyperparams": self.hyperparams}


def alignment_experiment(model: ScorerModel, kb: SyntheticKB,
                         block: str = "head",
                         hyperparams: dict | None = None) -> AlignmentReport:
    """Cosine between each fact's gradient and its negation partner's.

    Zero-gradient pairs have no defined cosine; they are excluded from the
    mean and counted.  Bins are width 0.05 over [-1, 1].
    """
    cosines = []
    excluded = 0
    for (q, _), (p, _) in zip(kb.facts, kb.partners):
        g_q = gradient(model, q, block)
        g_p = gradient(model, p, block)
        c = numerics.cosine(g_q, g_p)
        if np.isnan(c):
            excluded += 1
        else:
            cosines.append(c)
    edges = np.linspace(-1.0, 1.0, 41)
    counts, _ = np.histogram(cosines, bins=edges)
    arr = np.array(cosines) if cosines else np.zeros(0)
    mean = float(arr.mean()) if arr.size else 0.0
    std = float(arr.std()) if arr.size else 0.0
    return AlignmentReport(
        block=block, arch=model.arch, cosines=tuple(float(c) for c in cosines),
        mean=mean, std=std, excluded=excluded,
        bin_edges=tuple(float(e) for e in edges),
        bin_counts=tuple(int(c) for c in counts),
        hyperparams=dict(hyperparams or {}),
    )


def _apply_block_update(model: ScorerModel, delta: np.ndarray,
                        block: str) -> ScorerModel:
    """A copy of the model with `delta`, laid out as the block's gradient,
    added to the block's arrays."""
    params = {k: v.copy() for k, v in model.params.items()}
    start = 0
    for name in _block_arrays(model, block):
        size = params[name].size
        params[name] = params[name] + delta[start:start + size].reshape(
            params[name].shape)
        start += size
    return replace(model, params=params)


@dataclass(frozen=True)
class EditStepReport:
    query: Query
    eta: float
    block: str
    family_queries: dict
    exact_delta: dict
    first_order_delta: dict


def edit_step(model: ScorerModel, q: Query, eta: float,
              block: str = "head") -> EditStepReport:
    """Move parameters by eta times the query's block gradient.

    Reports exact and first-order score changes across the query's logical
    family.  For slp_linear the two coincide and the negated deltas are exact
    sign flips; for the mlp the gap is second order in eta.
    """
    base_grad = gradient(model, q, block)
    delta = eta * base_grad
    edited = _apply_block_update(model, delta, block)
    family = {op.value: apply_logical(op, q, model.algebra) for op in LogicalOp}
    exact = {}
    first = {}
    for name, member in family.items():
        exact[name] = float(score(edited, member) - score(model, member))
        first[name] = float(np.dot(gradient(model, member, block), delta))
    return EditStepReport(
        query=q, eta=eta, block=block,
        family_queries={k: tuple(v) for k, v in family.items()},
        exact_delta=exact, first_order_delta=first,
    )

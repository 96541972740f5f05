"""Regression random forest built on variance-reduction CART trees.

Determinism contract: per-tree RNG streams derive from (seed, tree index),
and training rows are canonically sorted before fitting, so predictions do
not depend on tree build order or on the row order of the training data.
Each tree is built independently of the others: ``fit`` maps the tree
indices over ``_fork.fork_map``, which builds them in forked worker
processes, one per CPU, or tree by tree in the calling process, and returns
them in index order, so the forest is the same bytes on either path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from ._fork import fork_map

FOREST_FORMAT = "doseuplift-forest/1"


@dataclass(frozen=True)
class RfConfig:
    """Forest hyperparameters. ``max_depth=None`` means unlimited."""

    n_trees: int = 200
    max_depth: int | None = 15
    min_samples_leaf: int = 2
    feature_subsample: str | int = "sqrt"  # "sqrt", "all", or an explicit count
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if isinstance(self.feature_subsample, int) and self.feature_subsample < 1:
            raise ValueError("feature_subsample count must be >= 1")
        if self.feature_subsample not in ("sqrt", "all") and not isinstance(
            self.feature_subsample, int
        ):
            raise ValueError("feature_subsample must be 'sqrt', 'all', or an int")

    def n_split_features(self, n_features: int) -> int:
        if self.feature_subsample == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.feature_subsample == "all":
            return n_features
        return min(int(self.feature_subsample), n_features)


class _Tree:
    """Flat-array CART tree; feature == -1 marks a leaf."""

    # the slots are the keys of a tree in the forest file, in file order
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=float)

    def predict(self, x_mat: np.ndarray) -> np.ndarray:
        nodes = np.zeros(x_mat.shape[0], dtype=np.int32)
        while True:
            feat = self.feature[nodes]
            active = feat >= 0
            if not np.any(active):
                return self.value[nodes]
            rows = np.nonzero(active)[0]
            go_left = x_mat[rows, feat[rows]] <= self.threshold[nodes[rows]]
            nodes[rows] = np.where(
                go_left, self.left[nodes[rows]], self.right[nodes[rows]]
            )

    def predict_grid(self, x_mat: np.ndarray, doses: np.ndarray) -> np.ndarray:
        """Row-major flat predictions of every row at every dose of the sorted
        grid. A state is (row, node, grid range [lo, hi)): a covariate split
        moves it to one child, a dose split cuts its range at the threshold."""
        n, dose_col = x_mat.shape
        rows = np.arange(n)
        nodes = np.zeros(n, dtype=np.int32)
        lo, hi = np.zeros(n, dtype=np.intp), np.full(n, doses.size, dtype=np.intp)
        done = []
        while True:
            feat = self.feature[nodes]
            leaf = feat < 0
            done.append((rows[leaf], lo[leaf], hi[leaf], self.value[nodes[leaf]]))
            if leaf.all():
                break
            rows, nodes, lo, hi, feat = (a[~leaf] for a in (rows, nodes, lo, hi, feat))
            thr = self.threshold[nodes]
            cut = np.clip(np.searchsorted(doses, thr, "right"), lo, hi)
            cov = feat != dose_col
            go_left = x_mat[rows[cov], feat[cov]] <= thr[cov]
            cut[cov] = np.where(go_left, hi[cov], lo[cov])
            rows = np.concatenate([rows, rows])
            nodes = np.concatenate([self.left[nodes], self.right[nodes]])
            lo, hi = np.concatenate([lo, cut]), np.concatenate([cut, hi])
            keep = lo < hi
            rows, nodes, lo, hi = rows[keep], nodes[keep], lo[keep], hi[keep]
        # the leaf ranges of each row tile [0, m): row-major order fills the grid
        rows, lo, hi, value = (np.concatenate(a) for a in zip(*done))
        order = np.argsort(rows * doses.size + lo)
        return np.repeat(value[order], (hi - lo)[order])


def _best_split(x_mat, y, idx, features, min_leaf):
    """Best (feature, threshold, gain) over candidate features, or None.

    All candidates are searched in one pass over a (k, n) array. A stable
    row-wise sort and a sequential row-wise cumsum give each row the same
    bits as a search of that feature alone, so ties resolve as they would
    feature by feature: first maximal position per row, then the first
    feature whose gain is strictly larger.
    """
    n = idx.size
    y_node = y[idx]
    total = y_node.sum()
    total_sq = (y_node * y_node).sum()
    sse_parent = total_sq - total * total / n

    vals = x_mat[idx[None, :], features[:, None]]
    order = vals.argsort(axis=1, kind="stable")
    vs = vals[np.arange(features.size)[:, None], order]
    ys = y_node[order]
    cy = ys.cumsum(axis=1)[:, :-1]
    cy2 = (ys * ys).cumsum(axis=1)[:, :-1]
    # split after position p keeps [0..p] left and [p+1..] right
    left_n = np.arange(1.0, n)
    right_n = n - left_n
    sse_l = cy2 - cy * cy / left_n
    sse_r = (total_sq - cy2) - (total - cy) ** 2 / right_n
    gains = sse_parent - sse_l - sse_r
    valid = (vs[:, :-1] < vs[:, 1:]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    gains[~valid] = -np.inf
    pos = gains.argmax(axis=1)

    best = None
    for i, p in enumerate(pos.tolist()):
        g = float(gains[i, p])
        if g > 1e-12 and (best is None or g > best[2]):
            best = (int(features[i]), 0.5 * (vs[i, p] + vs[i, p + 1]), g)
    return best


def _build_tree(x_mat, y, cfg: RfConfig, rng: np.random.Generator) -> _Tree:
    n, n_features = x_mat.shape
    k_feat = cfg.n_split_features(n_features)
    if cfg.bootstrap:
        sample = rng.integers(0, n, size=n)
    else:
        sample = np.arange(n)

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, sample, 0)]
    while stack:
        node, idx, depth = stack.pop()
        value[node] = float(y[idx].sum() / idx.size)  # bitwise y[idx].mean()
        if (
            (cfg.max_depth is not None and depth >= cfg.max_depth)
            or idx.size < 2 * cfg.min_samples_leaf
        ):
            continue
        cand = np.sort(rng.choice(n_features, size=k_feat, replace=False))
        split = _best_split(x_mat, y, idx, cand, cfg.min_samples_leaf)
        if split is None:
            continue
        f, thr, _ = split
        mask = x_mat[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~mask], depth + 1))
        stack.append((left[node], idx[mask], depth + 1))
    return _Tree(feature, threshold, left, right, value)


def _tree_rng(cfg: RfConfig, t: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, t])


def _tree_arrays(t: int, x_mat, y, cfg: RfConfig) -> tuple:
    """The flat arrays of tree ``t``, which pickle back from a worker."""
    tree = _build_tree(x_mat, y, cfg, _tree_rng(cfg, t))
    return tuple(getattr(tree, name) for name in _Tree.__slots__)


def _canonical_order(x_mat: np.ndarray, y: np.ndarray) -> np.ndarray:
    keys = (y,) + tuple(x_mat[:, j] for j in range(x_mat.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


class RandomForestRegressor:
    """Bagged CART trees with midpoint thresholds and variance-reduction splits."""

    def __init__(self, config: RfConfig):
        self.config = config
        self.trees: list[_Tree] = []
        self.n_features = 0

    def fit(self, x_mat: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        x_mat = np.asarray(x_mat, dtype=float)
        y = np.asarray(y, dtype=float)
        if x_mat.ndim != 2 or x_mat.shape[0] != y.shape[0]:
            raise ValueError("X must be 2-d with one target per row")
        if x_mat.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        order = _canonical_order(x_mat, y)
        x_mat = np.ascontiguousarray(x_mat[order])
        y = y[order]
        self.n_features = x_mat.shape[1]
        arrays = fork_map(_tree_arrays, range(self.config.n_trees), x_mat, y, self.config)
        self.trees = [_Tree(*a) for a in arrays]
        return self

    def _checked_rows(self, x_mat, n_columns: int) -> np.ndarray:
        if not self.trees:
            raise ValueError("forest is not fitted")
        x_mat = np.asarray(x_mat, dtype=float)
        if x_mat.ndim != 2 or x_mat.shape[1] != n_columns:
            raise ValueError(f"expected rows of {n_columns} columns, got shape {x_mat.shape}")
        return x_mat

    def predict(self, x_mat: np.ndarray) -> np.ndarray:
        x_mat = self._checked_rows(x_mat, self.n_features)
        out = np.zeros(x_mat.shape[0])
        for tree in self.trees:
            out += tree.predict(x_mat)
        return out / len(self.trees)

    def predict_grid(self, x_mat: np.ndarray, doses: np.ndarray) -> np.ndarray:
        """(n, m) predictions of every covariate row at every dose; the dose
        is the last fitted feature. Equal to ``predict`` on the n*m batch."""
        x_mat = self._checked_rows(x_mat, self.n_features - 1)
        doses = np.asarray(doses, dtype=float)
        order = np.argsort(doses, kind="stable")
        sorted_doses = doses[order]
        out = np.zeros((x_mat.shape[0], doses.size))
        for tree in self.trees:
            out += tree.predict_grid(x_mat, sorted_doses).reshape(out.shape)
        grid = np.empty_like(out)
        grid[:, order] = out / len(self.trees)
        return grid

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": FOREST_FORMAT,
                "config": asdict(self.config),
                "n_features": self.n_features,
                "trees": [
                    {name: getattr(t, name).tolist() for name in _Tree.__slots__}
                    for t in self.trees
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RandomForestRegressor":
        obj = json.loads(text)
        if obj.get("format") != FOREST_FORMAT:
            raise ValueError("unrecognized forest file format")
        forest = cls(RfConfig(**obj["config"]))
        forest.n_features = obj["n_features"]
        forest.trees = [_Tree(**t) for t in obj["trees"]]
        return forest

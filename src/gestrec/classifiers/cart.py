"""Binary CART trees shared by the tree-ensemble classifiers.

Two builders live here. The classification builder draws candidate
splits at random (attribute subset plus one uniform threshold each) and
keeps the best Gini decrease; it grows nodes until pure or unsplittable
and stores class-probability leaves. The regression builder scans every
feature exactly, maximizing the least-squares gain with midpoint
thresholds, up to a fixed depth; leaf values come from a caller-supplied
function of the leaf's row indices.

The regression builder sorts nothing per node. ``presort`` orders the
rows once per feature with a stable sort, and each child takes its
parent's per-feature order with the other side's rows filtered out.
Filtering keeps relative order, so within a node equal values stay in
ascending row index: exactly the order a stable sort of the node's own
rows gives. Cumulative sums, gains and tie-breaks, and so the trees,
are bit-identical to sorting at every node. A boosting fit shares one
``RegressionTreeBuilder``, and so one ``presort`` and one set of
scratch buffers, across all its trees (the SLIQ pre-sorted attribute
lists, Mehta et al., EDBT 1996).

Prediction routes rows through a ``Forest``: every tree of an ensemble
flattened into preorder arrays. A lone row (the device path: one
recording, one label) decides every node in one comparison and then
hops from node to next node, one entry per tree per step. Two or more
rows are routed in blocks, one gather per step across all trees at
once. Both ensembles predict through it; ``apply_tree`` walks ``Node``
pointers one row at a time and is kept as the reference that the
forest must match bit for bit.

The split predicate is ``x[feature] <= threshold`` goes left, everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Forest",
    "Node",
    "RegressionTreeBuilder",
    "apply_tree",
    "build_random_split_tree",
    "build_regression_tree",
    "presort",
    "tree_depth",
    "node_to_dict",
    "node_from_dict",
]


@dataclass(slots=True)
class Node:
    """Tree node; ``feature < 0`` marks a leaf carrying ``value``."""

    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None
    value: object = None


def apply_tree(node: Node, x: np.ndarray):
    """Route one sample to its leaf and return the leaf value.

    The one-row reference for ``Forest``; the classifiers predict through
    a ``Forest``.
    """
    while node.feature >= 0:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


# Rows routed together by ``Forest.sums``. The routing scratch holds one
# entry per (tree, row) of a block, so its size does not grow with the
# batch: a check that predicts thousands of rows at once would otherwise
# add tens of MB to the peak memory.
ROUTE_BLOCK = 32


class Forest:
    """A list of trees as flat preorder arrays.

    Node ``j`` splits on ``feature[j]`` at ``threshold[j]``; its children
    are ``child[2 * j]`` (left) and ``child[2 * j + 1]`` (right), and
    ``roots[i]`` is the root of tree ``i``. A leaf is its own child on
    both sides, so ``steps`` routing steps (the depth of the deepest leaf)
    park every row at its leaf in every tree. ``value[j]`` is a leaf's
    value: a float, or a class-probability vector. ``left`` and
    ``delta`` (right child minus left child, 0 at a leaf) serve the
    lone-row schedule of ``sums``.
    """

    def __init__(self, trees: list[Node]):
        # Count first, then fill preallocated arrays: per-node Python lists
        # would cost more memory than the arrays themselves.
        n_nodes = steps = 0
        stack = [(root, 0) for root in trees]
        while stack:
            node, depth = stack.pop()
            n_nodes += 1
            if node.feature < 0:
                steps = max(steps, depth)
                leaf = node
            else:
                stack += ((node.left, depth + 1), (node.right, depth + 1))
        self.steps = steps
        self.roots = np.empty(len(trees), dtype=np.intp)
        self.feature = np.zeros(n_nodes, dtype=np.intp)
        self.threshold = np.zeros(n_nodes)
        self.child = np.empty(2 * n_nodes, dtype=np.intp)
        self.value = np.zeros((n_nodes,) + np.shape(leaf.value))
        j = 0
        for i, root in enumerate(trees):
            self.roots[i] = j
            stack = [(root, -1)]  # (node, slot of its index in child)
            while stack:
                node, slot = stack.pop()
                if slot >= 0:
                    self.child[slot] = j
                if node.feature < 0:
                    self.child[2 * j] = self.child[2 * j + 1] = j
                    self.value[j] = node.value
                else:
                    self.feature[j] = node.feature
                    self.threshold[j] = node.threshold
                    stack += ((node.right, 2 * j + 1), (node.left, 2 * j))
                j += 1
        # The lone-row schedule's next node is left + delta * (goes right);
        # a leaf's delta is 0. Half-width indices shrink the memory that
        # deciding every node streams through the cache.
        small = np.int32 if n_nodes <= np.iinfo(np.int32).max else np.intp
        self.left = self.child[0::2].astype(small)
        self.delta = self.child[1::2].astype(small) - self.left

    def sums(self, X: np.ndarray, width: int = 1) -> np.ndarray:
        """Per row of the finite matrix ``X``, the sum of its leaf values in
        tree order, tree ``i`` adding to column ``i % width``.

        The result has shape ``(len(X), width)`` plus the shape of a leaf
        value. With ``width`` equal to the number of trees, it is each
        tree's leaf value.

        Two schedules give the same leaves. A lone row decides every node
        at once, forms each node's next node, and then takes ``steps``
        one-entry-per-tree hops through that array. Two or more rows are
        routed in blocks of ``ROUTE_BLOCK``, one gather per step over
        every (tree, row) pair: deciding every node for every row would
        cost more than following only the visited paths.
        """
        n_trees = self.roots.size
        if n_trees % width:
            raise ValueError(f"{n_trees} trees do not form groups of {width}")
        leaf_shape = self.value.shape[1:]
        if X.shape[0] == 1:
            # X is finite, so ">" is exactly "not <=": True goes right.
            nxt = self.delta * (X[0].take(self.feature) > self.threshold)
            nxt += self.left
            pos = self.roots
            for _ in range(self.steps):
                pos = nxt.take(pos)
            leaves = self.value[pos].reshape((-1, width, 1) + leaf_shape)
            return leaves.cumsum(axis=0)[-1].swapaxes(0, 1)
        out = np.empty((X.shape[0], width) + leaf_shape)
        for start in range(0, X.shape[0], ROUTE_BLOCK):
            rows = X[start : start + ROUTE_BLOCK]
            b = rows.shape[0]
            flat = rows.ravel()
            offsets = np.arange(b) * X.shape[1]
            pos = np.repeat(self.roots[:, None], b, axis=1)  # (tree, row)
            for _ in range(self.steps):
                x = flat.take(self.feature.take(pos) + offsets)
                # X is finite, so ">" is exactly "not <=": True goes right.
                pos = self.child.take(2 * pos + (x > self.threshold.take(pos)))
            leaves = self.value[pos].reshape((-1, width, b) + leaf_shape)
            # cumsum adds in tree order; sum may pair the terms up.
            out[start : start + b] = leaves.cumsum(axis=0)[-1].swapaxes(0, 1)
        return out


def tree_depth(node: Node) -> int:
    if node.feature < 0:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def _gini(counts: np.ndarray, n: int) -> float:
    p = counts / n
    return 1.0 - float(p @ p)


def build_random_split_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    k_features: int,
    min_samples_split: int,
    rng: np.random.Generator,
) -> Node:
    """Grow a fully developed classification tree with randomized splits.

    At each node, ``k_features`` distinct attributes are drawn uniformly
    (constant ones simply yield no candidate), one threshold per
    attribute is drawn uniformly in the node-local [min, max), and the
    candidate with the largest Gini impurity decrease wins; ties keep
    the earliest candidate drawn. Leaves hold probability vectors.

    Parameters
    ----------
    X : (n, d) float array
    y : (n,) int array of class indices in [0, n_classes)
    """
    d = X.shape[1]
    k = min(k_features, d)

    def grow(idx: np.ndarray) -> Node:
        labels = y[idx]
        counts = np.bincount(labels, minlength=n_classes)
        n = idx.size
        if n < min_samples_split or counts.max() == n:
            return Node(value=counts / n)

        parent = _gini(counts, n)
        rows = X[idx]
        best_gain = 0.0
        best: tuple[int, float, np.ndarray] | None = None
        for f in rng.choice(d, size=k, replace=False):
            col = rows[:, f]
            lo = col.min()
            hi = col.max()
            if not lo < hi:
                continue
            thr = rng.uniform(lo, hi)
            if thr >= hi:  # uniform() can round up to hi
                thr = lo
            mask = col <= thr
            n_left = int(mask.sum())
            cl = np.bincount(labels[mask], minlength=n_classes)
            cr = counts - cl
            gain = parent - (
                n_left * _gini(cl, n_left) + (n - n_left) * _gini(cr, n - n_left)
            ) / n
            if gain > best_gain:
                best_gain = gain
                best = (int(f), float(thr), mask)
        if best is None:
            return Node(value=counts / n)
        f, thr, mask = best
        return Node(
            feature=f,
            threshold=thr,
            left=grow(idx[mask]),
            right=grow(idx[~mask]),
        )

    return grow(np.arange(X.shape[0]))


def presort(X: np.ndarray) -> np.ndarray:
    """Stable per-feature sort of the rows of ``X``, shape ``(d, n)``.

    Row ``f`` lists the row indices of ``X`` in ascending order of
    ``X[:, f]``, equal values in ascending row index.
    """
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


class RegressionTreeBuilder:
    """Exact greedy least-squares trees over one training matrix.

    The builder sorts the rows once (``presort``) and allocates its
    scratch buffers once, at the size of the root node; every tree it
    builds, whatever its targets, reuses both. Per node, the gathered
    values, cumulative sums, gains and masks go into views of those
    buffers and the child orders into one buffer per depth; only the
    boolean selection that filters a child's order is a fresh array.
    Fresh ``(d, n)`` temporaries at every node made the allocator hand
    memory back to the system and fault it in again, node after node,
    so a fit's time followed the kernel's page-fault cost.

    Each tree is grown depth-first, so at most one node per depth has
    child orders in use at any time; the children of a node at depth
    ``k`` are written side by side into the buffer of depth ``k + 1``.
    """

    def __init__(self, X: np.ndarray, order: np.ndarray | None = None):
        n, d = X.shape
        self.X = X
        self.order = presort(X) if order is None else order
        # Sorted values are gathered as flat positions into X transposed.
        self._XT = np.ascontiguousarray(X.T).ravel()
        self._offsets = (np.arange(d) * n)[:, None]
        self._counts = np.arange(1, n, dtype=np.float64)
        self._goes_left = np.zeros(n, dtype=bool)
        size = d * n
        self._pos = np.empty(size, dtype=np.intp)
        self._vals = np.empty(size)
        self._rs = np.empty(size)
        self._cs = np.empty(size)
        self._gains = np.empty(size)
        self._ties = np.empty(size, dtype=bool)
        self._kept = np.empty(size, dtype=bool)
        self._child_orders: list[np.ndarray] = []
        self._by_size: dict[int, tuple] = {}

    def _views(self, n: int) -> tuple:
        """The scratch buffers shaped for a node of ``n >= 2`` rows, made
        once per node size."""
        views = self._by_size.get(n)
        if views is None:
            d = self.X.shape[1]
            k, m = d * n, d * (n - 1)
            views = (
                self._pos[:k].reshape(d, n),
                self._vals[:k].reshape(d, n),
                self._rs[:k].reshape(d, n),
                self._cs[:k].reshape(d, n),
                self._gains[:m].reshape(d, n - 1),
                # The gathered targets are spent once summed, so their
                # buffer takes the right-hand gain term.
                self._rs[:m].reshape(d, n - 1),
                self._ties[:m].reshape(d, n - 1),
                self._kept[:k].reshape(d, n),
                self._counts[: n - 1],  # n_left = 1 .. n - 1
                self._counts[n - 2 :: -1],  # n - n_left
            )
            self._by_size[n] = views
        return views

    def _level(self, depth: int) -> np.ndarray:
        while len(self._child_orders) < depth:
            self._child_orders.append(np.empty(self.order.size, dtype=np.intp))
        return self._child_orders[depth - 1]

    def build(
        self,
        r: np.ndarray,
        max_depth: int,
        leaf_value,
        fitted: np.ndarray | None = None,
    ) -> Node:
        """One tree fitted to targets ``r``; see ``build_regression_tree``."""
        r = np.asarray(r, dtype=np.float64)  # the scratch buffers are float64
        X, XT, offsets = self.X, self._XT, self._offsets
        n_rows, d = X.shape
        goes_left = self._goes_left

        def make_leaf(node: Node, idx: np.ndarray) -> None:
            node.value = float(leaf_value(idx))
            if fitted is not None:
                fitted[idx] = node.value

        # Depth-first with an explicit stack: a recursive closure would hold
        # this tree's nodes in a reference cycle until a full collection.
        # Row indices stay ascending in every node.
        root = Node()
        stack = [(root, np.arange(n_rows), self.order, 0)]
        while stack:
            node, idx, node_order, depth = stack.pop()
            n = idx.size
            if depth >= max_depth or n < 2:
                make_leaf(node, idx)
                continue

            pos, sorted_vals, rs, cs, gains, right, ties, kept, n_left, n_right = (
                self._views(n)
            )
            # mode="clip" writes straight into out ("raise" would buffer);
            # every index is in range, so nothing is clipped.
            np.add(node_order, offsets, out=pos)
            XT.take(pos, out=sorted_vals, mode="clip")
            r.take(node_order, out=rs, mode="clip")
            rs.cumsum(axis=1, out=cs)
            total = cs[0, -1]

            # Gain of splitting after sorted position i (n_left = i + 1):
            # sum_L^2/n_L + sum_R^2/n_R - total^2/n, maximized. total is a
            # float64 scalar: its square must not come from an array op, or
            # it can differ by one ulp and flip the sign of a near-zero gain.
            sums_l = cs[:, :-1]
            np.square(sums_l, out=gains)
            gains /= n_left
            np.subtract(total, sums_l, out=right)
            np.square(right, out=right)
            right /= n_right
            gains += right
            gains -= total**2 / n
            np.equal(sorted_vals[:, :-1], sorted_vals[:, 1:], out=ties)
            np.putmask(gains, ties, -np.inf)

            # The first maximum in row-major order: the lowest feature, and
            # within it the smallest split position, among equal gains.
            best = int(gains.argmax())
            if not gains.item(best) > 0.0:
                make_leaf(node, idx)
                continue
            f, i = divmod(best, n - 1)
            v1 = sorted_vals[f, i]
            v2 = sorted_vals[f, i + 1]
            thr = (v1 + v2) / 2.0
            if thr >= v2:  # midpoint rounded up between adjacent floats
                thr = v1
            mask = X[idx, f] <= thr
            n_l = int(mask.sum())
            if depth + 1 < max_depth:
                # Filtering keeps each feature's order, so ties stay in
                # ascending row index, as a stable sort of the child gives.
                goes_left[idx] = mask
                goes_left.take(node_order, out=kept, mode="clip")
                flat, kept_flat = node_order.ravel(), kept.ravel()
                child = self._level(depth + 1)
                left_order = child[: d * n_l].reshape(d, n_l)
                right_order = child[d * n_l : d * n].reshape(d, n - n_l)
                left_order.ravel()[:] = flat[kept_flat]
                np.logical_not(kept_flat, out=kept_flat)
                right_order.ravel()[:] = flat[kept_flat]
            else:
                left_order = right_order = None
            node.feature = f
            node.threshold = float(thr)
            node.left = Node()
            node.right = Node()
            stack.append((node.right, idx[~mask], right_order, depth + 1))
            stack.append((node.left, idx[mask], left_order, depth + 1))
        return root


def build_regression_tree(
    X: np.ndarray,
    r: np.ndarray,
    max_depth: int,
    leaf_value,
    order: np.ndarray | None = None,
    fitted: np.ndarray | None = None,
) -> Node:
    """Grow an exact greedy least-squares regression tree.

    Every feature is scanned in index order; within a feature every
    boundary between distinct consecutive sorted values is scored by the
    squared-error decrease, with the threshold at the midpoint. Ties
    keep the lowest feature index and, within a feature, the smallest
    split position. Nodes with no strictly positive gain, or at
    ``max_depth``, become leaves with value ``leaf_value(row_indices)``,
    the row indices ascending.

    ``order`` is ``presort(X)``. When ``fitted`` is given, each training
    row's leaf value is written to it. To build many trees over the same
    ``X``, make one ``RegressionTreeBuilder`` and call its ``build``.
    """
    return RegressionTreeBuilder(X, order).build(r, max_depth, leaf_value, fitted)


def node_to_dict(node: Node) -> dict:
    """Nested-dict form for model files; leaf values become lists or floats."""
    if node.feature < 0:
        v = node.value
        if isinstance(v, np.ndarray):
            return {"p": [float(x) for x in v]}
        return {"v": float(v)}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": node_to_dict(node.left),
        "r": node_to_dict(node.right),
    }


def node_from_dict(obj: dict) -> Node:
    if "f" in obj:
        return Node(
            feature=int(obj["f"]),
            threshold=float(obj["t"]),
            left=node_from_dict(obj["l"]),
            right=node_from_dict(obj["r"]),
        )
    if "p" in obj:
        return Node(value=np.array(obj["p"], dtype=np.float64))
    return Node(value=float(obj["v"]))

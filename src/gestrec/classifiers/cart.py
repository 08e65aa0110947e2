"""Binary CART trees shared by the tree-ensemble classifiers.

Two builders live here. The classification builder,
``build_random_split_forest``, draws candidate splits at random
(attribute subset plus one uniform threshold each) and keeps the best
Gini decrease; it grows nodes until pure or unsplittable and stores
class-probability leaves. The regression builder,
``RegressionTreeBuilder(X, max_depth).build``, scans every feature
exactly, maximizing the least-squares gain with midpoint thresholds, up
to its depth; each leaf takes one Newton step, the sum of the targets
over the sum of the weights of its rows.

Both make as few numpy calls as they can without changing a tree: a
call costs microseconds whatever the size of a node. The
classification builder grows a whole forest in lockstep, each step
scoring the next node of many trees at once, while each tree's
generator still draws for its own nodes in preorder.

The regression builder sorts nothing per node. ``presort`` orders the
rows once per feature with a stable sort, and each child takes its
parent's per-feature order with the other side's rows filtered out.
Filtering keeps relative order, so within a node equal values stay in
ascending row index: exactly the order a stable sort of the node's own
rows gives. Cumulative sums, gains and tie-breaks, and so the trees,
are bit-identical to sorting at every node. A boosting fit shares one
``RegressionTreeBuilder``, and so one ``presort`` and one set of
scratch buffers, across all its trees (the SLIQ pre-sorted attribute
lists, Mehta et al., EDBT 1996). Each class's tree reuses the tie
masks and child orders of that class's tree one stage earlier wherever
a node holds the same rows (``NodeRows``).

Prediction routes rows through a ``Forest``: every tree of an ensemble
flattened into node arrays, split nodes first and grouped by feature
(QuickScorer, Lucchese et al., SIGIR 2015). Each row, like the device
path's one recording, decides every split node in one comparison and
then hops from node to next node, one entry per tree per step (VPred,
Asadi, Lin and de Vries, IEEE TKDE 26(9), 2014). Both ensembles
predict through it; ``apply_tree`` walks ``Node`` pointers one row at a
time and is kept as the reference that the forest must match bit for
bit.

The split predicate is ``x[feature] <= threshold`` goes left, everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import NumericError

__all__ = [
    "Forest",
    "Node",
    "NodeRows",
    "RegressionTreeBuilder",
    "apply_tree",
    "build_random_split_forest",
    "presort",
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


class Forest:
    """A list of trees as flat node arrays.

    Split nodes hold the ids below ``n_split``, by ascending ``feature``
    and in walk order (tree by tree, preorder) within a feature; the
    leaves follow in walk order. ``counts[f]`` split nodes test feature
    ``f``, so ``np.repeat(x[:counts.size], counts)`` is
    ``x[feature[:n_split]]``. Node ``j`` splits on ``feature[j]`` at
    ``threshold[j]``, with children ``left[j]`` and ``left[j] +
    delta[j]``. A leaf is its own next node (``left[j] == j``,
    ``delta[j] == 0``), so ``steps`` routing steps (the depth of the
    deepest leaf) park a row at its leaf in every tree. ``roots[i]`` is
    the root of tree ``i``; ``value[j]`` is a leaf's value, a float or a
    class-probability vector.
    """

    def __init__(self, trees: list[Node]):
        # Count first, then fill preallocated arrays: per-node Python lists
        # would cost more memory than the arrays themselves.
        n_nodes = steps = 0
        counts = []  # split nodes per feature
        stack = [(root, 0) for root in trees]
        while stack:
            node, depth = stack.pop()
            n_nodes += 1
            if node.feature < 0:
                steps = max(steps, depth)
                leaf = node
            else:
                counts += [0] * (node.feature + 1 - len(counts))
                counts[node.feature] += 1
                stack += ((node.left, depth + 1), (node.right, depth + 1))
        self.steps = steps
        self.counts = np.array(counts, dtype=np.intp)
        next_split = [0, *accumulate(counts)]  # the next id per feature
        next_leaf = self.n_split = next_split[-1]
        self.roots = np.empty(len(trees), dtype=np.intp)
        self.feature = np.zeros(n_nodes, dtype=np.intp)
        self.threshold = np.zeros(n_nodes)
        # Half-width indices shrink the memory a route streams through.
        small = np.int32 if n_nodes <= np.iinfo(np.int32).max else np.intp
        self.left = np.empty(n_nodes, dtype=small)
        self.delta = np.zeros(n_nodes, dtype=small)
        self.value = np.zeros((n_nodes,) + np.shape(leaf.value))
        for i, root in enumerate(trees):
            stack = [(root, -1, False)]  # (node, parent, is right child)
            while stack:
                node, parent, right = stack.pop()
                f = node.feature
                if f < 0:
                    j = next_leaf
                    next_leaf += 1
                    self.left[j] = j
                    self.value[j] = node.value
                else:
                    j = next_split[f]
                    next_split[f] += 1
                    self.feature[j] = f
                    self.threshold[j] = node.threshold
                    stack += ((node.right, j, True), (node.left, j, False))
                # Preorder: a left child gets its id before its sibling.
                if parent < 0:
                    self.roots[i] = j
                elif right:
                    self.delta[parent] = j - self.left[parent]
                else:
                    self.left[parent] = j

    def sums(self, X: np.ndarray, width: int = 1) -> np.ndarray:
        """Per row of the finite matrix ``X``, the sum of its leaf values in
        tree order, tree ``i`` adding to column ``i % width``.

        The result has shape ``(len(X), width)`` plus the shape of a leaf
        value. With ``width`` equal to the number of trees, it is each
        tree's leaf value.

        Each row on its own decides every split node at once, which gives
        each node's next node, and then takes ``steps`` hops through that
        array, one entry per tree. Its scratch, reused row after row, does
        not grow with the batch.
        """
        n_trees = self.roots.size
        if n_trees % width:
            raise ValueError(f"{n_trees} trees do not form groups of {width}")
        s, counts = self.n_split, self.counts
        left, delta, threshold = self.left[:s], self.delta[:s], self.threshold[:s]
        nxt = self.left.copy()  # the leaves stay parked
        out = np.empty((X.shape[0], width) + self.value.shape[1:])
        for x, row in zip(X, out):
            # X is finite, so ">" is exactly "not <=": True goes right.
            nxt[:s] = delta * (np.repeat(x[: counts.size], counts) > threshold) + left
            pos = self.roots
            for _ in range(self.steps):
                pos = nxt.take(pos)
            leaves = self.value[pos].reshape((-1,) + row.shape)
            # cumsum adds in tree order; sum may pair the terms up.
            row[...] = leaves.cumsum(axis=0)[-1]
        return out


# Rows scored together by one step of ``build_random_split_forest``. A
# step's temporaries hold one entry per (row, candidate): with every
# tree's root in one step, a 480-row, 100-tree fit would peak at about
# 9 MB instead of about 1.5 MB.
GROW_BLOCK = 4096


def _dots(p: np.ndarray) -> np.ndarray:
    """``p @ p`` over the last axis of ``p``, stacked over the others.

    Bit-equal to the 1-D ``p @ p`` of each vector: ``(p * p).sum(-1)``
    and ``einsum`` add the squares in another order."""
    return np.matmul(p[..., None, :], p[..., :, None])[..., 0, 0]


def build_random_split_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    k_features: int,
    min_samples_split: int,
    rngs: list[np.random.Generator],
) -> list[Node]:
    """Grow one fully developed classification tree with randomized
    splits per generator in ``rngs``.

    At each node, ``k_features`` distinct attributes are drawn uniformly
    (constant ones simply yield no candidate), one threshold per
    attribute is drawn uniformly in the node-local [min, max), and the
    candidate with the largest Gini impurity decrease wins; ties keep
    the earliest candidate drawn. A node becomes a leaf, holding its
    class-probability vector, when it has fewer than
    ``min_samples_split`` rows, one class, or no candidate with a
    positive decrease.

    The trees grow in lockstep. Each tree keeps a stack of its pending
    nodes, and a step pops the top node of as many trees as fit in
    ``GROW_BLOCK`` rows (at least one tree), then scores all their
    candidates with one numpy call per stage of the work. Only the draws
    and the child bookkeeping are per node. A split pushes its right
    child and then its left, so each generator draws for its tree's
    nodes in preorder, ``rng.choice(d, k, replace=False)`` and then
    ``lo + (hi - lo) * rng.random(m)`` for the ``m`` non-constant
    candidates: the same draws, in the same order, as one recursive
    ``rng.uniform(lo, hi)`` per candidate, so the trees are bit-identical
    to growing them one at a time. A child that must be a leaf is made
    at its parent's step: leaves draw nothing. The row budget bounds a
    step's ``(rows, k)`` temporaries; without it the first step would
    score every tree's root at once.

    Returns the roots, one per generator, in the order of ``rngs``.
    Raises NumericError naming the feature when a drawn feature's node
    range ``hi - lo`` overflows float64, which needs values of both signs
    near the largest float.

    Parameters
    ----------
    X : (n, d) float array
    y : (n,) int array of class indices in [0, n_classes)
    """
    X = np.ascontiguousarray(X)
    n, d = X.shape
    k = min(k_features, d)
    flat = X.ravel()
    cand = np.arange(k) * n_classes

    def is_leaf(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return (sizes < min_samples_split) | (counts.max(axis=-1) == sizes)

    roots = [Node() for _ in rngs]
    counts = np.bincount(y, minlength=n_classes)
    if k == 0 or is_leaf(counts, n):  # no draw would split anything
        for root in roots:
            root.value = counts / n
        return roots
    everything = np.arange(n)
    stacks = [[(root, everything)] for root in roots]
    active = list(range(len(roots)))

    while active:
        batch, sizes, total = [], [], 0
        for t in active:
            node, rows = stacks[t][-1]
            if batch and total + rows.size > GROW_BLOCK:
                break
            stacks[t].pop()
            batch.append((t, node, rows))
            sizes.append(rows.size)
            total += rows.size
        B = len(batch)
        ends = list(accumulate(sizes))
        starts = [0] + ends[:-1]
        size = np.array(sizes)
        seg = np.repeat(np.arange(B), size)
        rows = np.concatenate([r for _, _, r in batch])
        lab = y.take(rows)

        counts = np.bincount(seg * n_classes + lab, minlength=B * n_classes)
        counts = counts.reshape(B, n_classes)
        parent = 1.0 - _dots(counts / size[:, None])

        F = np.array([rngs[t].choice(d, size=k, replace=False) for t, _, _ in batch])
        vals = flat.take(rows[:, None] * d + F.take(seg, axis=0))  # (N, k)
        lo = np.minimum.reduceat(vals, starts, axis=0)
        hi = np.maximum.reduceat(vals, starts, axis=0)
        valid = lo < hi
        with np.errstate(over="ignore"):
            span = hi - lo
        overflow = ~np.isfinite(span)
        if overflow.any():  # where uniform() raises OverflowError
            raise NumericError(f"feature {F[overflow][0]} has a node range "
                               "that overflows float64")
        u = np.zeros((B, k))
        u[valid] = np.concatenate(
            [rngs[t].random(m) for (t, _, _), m in zip(batch, valid.sum(1).tolist())]
        )
        thr = lo + span * u
        thr = np.where(thr >= hi, lo, thr)  # the draw can round up to hi

        # Per (row, candidate): goes left; a constant candidate sends all
        # rows left and is never chosen.
        mask = vals <= thr.take(seg, axis=0)
        keys = (seg * (k * n_classes) + lab)[:, None] + cand
        cl = np.bincount(keys[mask], minlength=B * k * n_classes)
        cl = cl.reshape(B, k, n_classes)
        cr = counts[:, None, :] - cl
        nl = cl.sum(axis=2)
        nr = size[:, None] - nl
        gl = 1.0 - _dots(cl / nl[..., None])
        gr = 1.0 - _dots(cr / np.maximum(nr, 1)[..., None])  # nr = 0: constant
        gain = parent[:, None] - (nl * gl + nr * gr) / size[:, None]
        gain = np.where(valid, gain, -np.inf)
        # argmax keeps the earliest drawn candidate among equal gains.
        best = gain.argmax(axis=1)
        at = np.arange(B), best
        split = (gain[at] > 0.0).tolist()
        goes_left = mask[np.arange(rows.size), best.take(seg)]
        cl, cr, nl, nr = cl[at], cr[at], nl[at], nr[at]
        leaf_l, leaf_r = is_leaf(cl, nl).tolist(), is_leaf(cr, nr).tolist()
        feature, threshold = F[at].tolist(), thr[at].tolist()
        nl, nr = nl.tolist(), nr.tolist()

        for b, (t, node, r) in enumerate(batch):
            if not split[b]:
                node.value = counts[b] / sizes[b]  # a fresh array, not a view
                continue
            node.feature, node.threshold = feature[b], threshold[b]
            node.left, node.right = Node(), Node()
            m = goes_left[starts[b] : ends[b]]
            if leaf_r[b]:
                node.right.value = cr[b] / nr[b]
            else:
                stacks[t].append((node.right, r[~m]))
            if leaf_l[b]:
                node.left.value = cl[b] / nl[b]
            else:
                stacks[t].append((node.left, r[m]))
        active = [t for t in active if stacks[t]]
    return roots


def presort(X: np.ndarray) -> np.ndarray:
    """Stable per-feature sort of the rows of ``X``, shape ``(d, n)``.

    Row ``f`` lists the row indices of ``X`` in ascending order of
    ``X[:, f]``, equal values in ascending row index.
    """
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


class NodeRows:
    """A node's training rows, and what the regression builder derived
    from them alone.

    ``idx`` are the row indices, ascending, and ``order`` their
    per-feature order (``None`` at the depth limit, where nothing is
    split). ``ties`` marks each sorted position whose value equals the
    next one. ``split`` is the last split chosen here, ``(feature,
    position, threshold, left, right)`` with the children's ``NodeRows``.
    None of it depends on the targets: the threshold and the children
    follow from the rows and the chosen ``(feature, position)``.
    """

    __slots__ = ("idx", "order", "ties", "split")

    def __init__(self, idx: np.ndarray, order: np.ndarray | None):
        self.idx = idx
        self.order = order
        self.ties: np.ndarray | None = None
        self.split: tuple | None = None


class RegressionTreeBuilder:
    """Exact greedy least-squares trees of depth at most ``max_depth``
    over one training matrix.

    The builder sorts the rows once (``presort``) and allocates its
    scratch buffers once, at the size of the root node; every tree it
    builds, whatever its targets, reuses both. Per node, the gathered
    values, cumulative sums and gains go into views of those buffers.
    Fresh ``(d, n)`` temporaries at every node made the allocator hand
    memory back to the system and fault it in again, node after node,
    so a fit's time followed the kernel's page-fault cost.

    Successive trees can also share their row sets. ``build`` keeps, per
    node, a ``NodeRows``: the tie mask and the chosen split with its
    children's rows and orders. Given the previous tree's root
    ``NodeRows``, a node whose rows are those of the previous tree's
    node at the same position reuses them. That holds at the root, and
    at a child whenever its parent chose the previous tree's
    ``(feature, position)``. A node that reuses gathers no sorted
    values, compares no neighbours and partitions no orders; it sums its
    targets in the stored order and scores the splits, as every node
    does. Everything reused is a function of the row set, so the trees
    are bit-identical to building each one afresh.
    """

    def __init__(self, X: np.ndarray, max_depth: int):
        n, d = X.shape
        self.X = X
        self.max_depth = max_depth
        # Row orders are most of what the kept NodeRows hold; half-width
        # indices halve that, and take() widens them at no measured cost.
        small = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        self.order = presort(X).astype(small)
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
        self._kept = np.empty(size, dtype=bool)
        self._by_size: dict[int, tuple] = {}

    def rows(self) -> NodeRows:
        """The root's ``NodeRows``: every row, in presorted order."""
        return NodeRows(np.arange(self.X.shape[0]), self.order)

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
                self._kept[:k].reshape(d, n),
                self._counts[: n - 1],  # n_left = 1 .. n - 1
                self._counts[n - 2 :: -1],  # n - n_left
            )
            self._by_size[n] = views
        return views

    def build(
        self, r: np.ndarray, h: np.ndarray, fitted: np.ndarray, rows: NodeRows
    ) -> Node:
        """Grow an exact greedy least-squares regression tree fitted to
        targets ``r``, with Newton leaves weighted by ``h``.

        Every feature is scanned in index order; within a feature every
        boundary between distinct consecutive sorted values is scored by
        the squared-error decrease, with the threshold at the midpoint.
        Ties keep the lowest feature index and, within a feature, the
        smallest split position. Nodes with no strictly positive gain, or
        at ``max_depth``, become leaves with value
        ``sum(r[idx]) / sum(h[idx])`` over their row indices ``idx``,
        ascending, or 0.0 when that weight sum is <= 0; with ``h`` all
        ones, the mean target. Each training row's leaf value is written
        to ``fitted``.

        ``rows`` is the root ``NodeRows`` of an earlier tree of this
        builder, from ``rows()`` at first: the new tree reuses what it
        can and leaves its own in it, for the next tree.
        """
        r = np.asarray(r, dtype=np.float64)  # the scratch buffers are float64
        X, XT, offsets = self.X, self._XT, self._offsets
        n_rows, d = X.shape
        max_depth, goes_left = self.max_depth, self._goes_left

        def make_leaf(node: Node, idx: np.ndarray) -> None:
            weight = h[idx].sum()
            node.value = 0.0 if weight <= 0.0 else float(r[idx].sum() / weight)
            fitted[idx] = node.value

        # Depth-first with an explicit stack: a recursive closure would hold
        # this tree's nodes in a reference cycle until a full collection.
        root = Node()
        stack = [(root, rows, 0)]
        while stack:
            node, here, depth = stack.pop()
            idx = here.idx
            n = idx.size
            if depth >= max_depth or n < 2 or d == 0:  # nothing to split on
                make_leaf(node, idx)
                continue

            pos, sorted_vals, rs, cs, gains, right, kept, n_left, n_right = (
                self._views(n)
            )
            order = here.order
            if here.ties is None:
                # mode="clip" writes straight into out ("raise" would
                # buffer); every index is in range, so nothing is clipped.
                np.add(order, offsets, out=pos)
                XT.take(pos, out=sorted_vals, mode="clip")
                here.ties = sorted_vals[:, :-1] == sorted_vals[:, 1:]
            r.take(order, out=rs, mode="clip")
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
            np.putmask(gains, here.ties, -np.inf)

            # The first maximum in row-major order: the lowest feature, and
            # within it the smallest split position, among equal gains.
            best = int(gains.argmax())
            if not gains.item(best) > 0.0:
                make_leaf(node, idx)
                here.split = None  # keep no rows this tree does not use
                continue
            f, i = divmod(best, n - 1)
            split = here.split
            if split is None or split[0] != f or split[1] != i:
                v1 = XT.item(f * n_rows + order.item(f, i))
                v2 = XT.item(f * n_rows + order.item(f, i + 1))
                thr = (v1 + v2) / 2.0
                if thr >= v2:  # midpoint rounded up between adjacent floats
                    thr = v1
                mask = X[idx, f] <= thr
                left_rows = NodeRows(idx[mask], None)
                right_rows = NodeRows(idx[~mask], None)
                if depth + 1 < max_depth:
                    # Filtering keeps each feature's order, so ties stay in
                    # ascending row index, as a stable sort of the child
                    # gives.
                    goes_left[idx] = mask
                    goes_left.take(order, out=kept, mode="clip")
                    flat, kept_flat = order.ravel(), kept.ravel()
                    left_rows.order = flat[kept_flat].reshape(d, -1)
                    np.logical_not(kept_flat, out=kept_flat)
                    right_rows.order = flat[kept_flat].reshape(d, -1)
                split = here.split = (f, i, thr, left_rows, right_rows)
            node.feature = f
            node.threshold = split[2]
            node.left = Node()
            node.right = Node()
            stack.append((node.right, split[4], depth + 1))
            stack.append((node.left, split[3], depth + 1))
        return root

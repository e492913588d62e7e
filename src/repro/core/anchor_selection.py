"""Selection of the k most similar non-overlapping anchor points.

Given the dissimilarity ``D[j]`` of every candidate pattern to the query
pattern, TKCM must pick ``k`` candidates that (a) are pairwise non-overlapping
(at least ``l`` time points apart) and (b) minimise the *sum* of
dissimilarities (Def. 3).  A greedy pick of the ``k`` individually most
similar non-overlapping patterns does not minimise the sum, which is why the
paper proposes a dynamic program (Eq. 5, Algorithm 1):

``M[i, j]`` is the minimal dissimilarity sum achievable by choosing ``i``
non-overlapping patterns from among the first ``j`` candidates; it is either
``M[i, j-1]`` (skip candidate ``j``) or ``D[j] + M[i-1, j-l]`` (take it and
leave room for ``i-1`` patterns that end at least ``l`` positions earlier).

Both the DP and the greedy strawman are implemented so the ablation benchmark
can quantify the difference.  Candidate indexing follows
:func:`repro.core.pattern.candidate_anchor_indices`: candidate ``j`` (0-based)
is anchored at window index ``l - 1 + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, InsufficientDataError

__all__ = [
    "AnchorSelection",
    "select_anchors_dp",
    "select_anchors_greedy",
    "select_anchors",
]


@dataclass(frozen=True)
class AnchorSelection:
    """Result of an anchor-selection run.

    Attributes
    ----------
    candidate_indices:
        0-based indices (into the ``D`` vector) of the selected candidates,
        in increasing order.
    anchor_indices:
        Corresponding window indices of the anchors
        (``l - 1 + candidate_index``), in increasing order.
    dissimilarities:
        ``D`` values of the selected candidates, aligned with
        ``candidate_indices``.
    total_dissimilarity:
        Sum of the selected dissimilarities (the objective of Def. 3).
    """

    candidate_indices: tuple
    anchor_indices: tuple
    dissimilarities: tuple
    total_dissimilarity: float

    @property
    def k(self) -> int:
        """Number of selected anchors."""
        return len(self.candidate_indices)


def _validate_inputs(dissimilarities: np.ndarray, k: int, pattern_length: int) -> np.ndarray:
    d = np.asarray(dissimilarities, dtype=float).ravel()
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if pattern_length < 1:
        raise ConfigurationError(f"pattern_length must be >= 1, got {pattern_length}")
    # The densest packing of i non-overlapping candidates among the first j
    # spans (i - 1) * l + 1 candidate slots, hence feasibility requires
    # len(d) >= (k - 1) * l + 1.
    if len(d) < (k - 1) * pattern_length + 1:
        raise InsufficientDataError(
            f"cannot select {k} non-overlapping patterns of length {pattern_length} "
            f"from {len(d)} candidates"
        )
    return d


def select_anchors_dp(
    dissimilarities: Sequence[float],
    k: int,
    pattern_length: int,
    bound_hint: Optional[float] = None,
) -> AnchorSelection:
    """Paper's dynamic program (Eq. 5 / Algorithm 1).

    Parameters
    ----------
    dissimilarities:
        Vector ``D`` of candidate dissimilarities, ``D[j]`` for the candidate
        anchored at window index ``l - 1 + j``.
    k:
        Number of anchors to select.
    pattern_length:
        Pattern length ``l``; two selected candidates must differ by at least
        ``l`` in candidate index to be non-overlapping.
    bound_hint:
        Optional *feasible-total* upper bound supplied by the caller: the
        dissimilarity sum, added up in floating point in any order, of
        some feasible (pairwise non-overlapping) selection under **this**
        ``D``.  Streaming callers derive it from the previous tick's
        anchors, which are usually still optimal, so it prunes far harder
        than the cheap chunk bound computed here.  Any such total keeps the
        DP exact (including tie-breaking); an infinite hint is ignored.

    Returns
    -------
    AnchorSelection
        The ``k`` candidates minimising the dissimilarity sum.

    Notes
    -----
    With at least ``_PRUNE_THRESHOLD`` candidates the DP runs only over the
    candidates ``j`` with ``D[j] <= B - S + 4 k eps B``, where ``B`` is the
    bound (the hint, else the chunk bound of :func:`_feasible_total_bound`),
    ``S`` is the sum of the ``k - 1`` smallest entries of ``D`` and ``eps``
    is the machine epsilon.  The result is identical to the dense DP's:

    1. *Keeping the dense DP's selection keeps its result.*  Row ``i`` of
       the DP holds, for every prefix of candidates, the minimum over
       feasible ``i``-selections of their sum added up in index order:
       floating-point addition is monotone, so the minimum commutes with
       adding ``D[j]``.  Over a subset of the candidates those minima can
       only grow.  Let ``j_1 < ... < j_k`` be the dense backtrack's
       selection; each prefix sum it passes through is realised by its own
       members ``j_1 .. j_i``, so if they all survive the pruned DP holds
       the same values there.  At level ``i`` the dense backtrack picks the
       *first* candidate attaining the prefix minimum; every candidate
       before it costs strictly more in the dense DP, hence at least as
       much more in the pruned one, and the surviving ``j_i`` attains the
       same minimum.  So the pruned backtrack picks the same ``j_i`` —
       ties and equal totals included — and moves to the same prefix.
    2. *The filter keeps the dense DP's selection.*  Let ``T`` be that
       selection, ``F`` its total as the DP adds it up and ``u = eps / 2``
       the unit roundoff.  In real arithmetic, for ``j`` in ``T``,
       ``D[j] + S <= sum(T)``: the other ``k - 1`` members of ``T`` sum to
       at least the ``k - 1`` smallest entries.  ``F`` is the minimum over
       feasible selections of their index-order float sum, so ``F`` is at
       most the bound's selection summed in index order; each float sum of
       ``k`` non-negative terms lies within a factor ``(1 +- u)^(k-1)`` of
       the real sum, so ``sum(T) <= B (1 + 3(k - 1)u + O(u^2))``.  The same
       holds for ``S`` as computed (``k - 2`` additions), and ``S <= B``
       up to the same factor.  Hence ``D[j] <= (B - S) + (4k - 5)u B``, and
       the rounded ``B - S`` plus the margin ``4 k eps B = 8 k u B``
       exceeds that after its own two roundings (each at most ``u B``).
       The margin is needed: when the bound *is* the optimum (the usual
       case for a streaming hint) and the optimum holds the ``k - 1``
       smallest entries, ``D[j] = B - S`` exactly in real arithmetic, and
       a rounding the wrong way would drop ``j``.  Infinite entries never
       survive a finite bound, and a finite bound means a finite optimum.
    """
    d = _validate_inputs(dissimilarities, k, pattern_length)
    l = int(pattern_length)
    num_candidates = len(d)

    if num_candidates >= _PRUNE_THRESHOLD:
        if bound_hint is not None and math.isfinite(bound_hint):
            bound = float(bound_hint)
        else:
            bound = _feasible_total_bound(d, k, l)
        if bound is not None and math.isfinite(bound):
            # Any selection holding j costs at least D[j] plus the k - 1
            # smallest entries (see Notes for the proof and the margin).
            smallest = sum(np.partition(d, k - 2)[: k - 1].tolist()) if k > 1 else 0.0
            threshold = bound - smallest + 4 * k * _EPS * bound
            positions = np.flatnonzero(d <= threshold)
            if len(positions) < num_candidates:
                return _select_anchors_dp_pruned(d, positions, k, l)

    # M[i][j]: minimal sum choosing i candidates among the first j (1-based j).
    # Column j = 0 means "no candidates available".  The row-wise recurrence
    # M[i, j] = min(M[i, j-1], D[j] + M[i-1, max(j-l, 0)]) is a running
    # minimum over j, so each row is one vectorised cumulative-minimum pass.
    # The per-row take costs are kept for the backtracking step.  The
    # predecessor lookup max(j - l, 0) clamps the first l candidates to
    # column 0 and shifts the rest, so it is two slice adds instead of a
    # fancy-index gather.
    m = np.empty((k + 1, num_candidates + 1))
    m[0, :] = 0.0
    m[1:, 0] = np.inf
    take = np.empty((k + 1, num_candidates))
    head = min(l, num_candidates)
    for i in range(1, k + 1):
        # Cost of taking candidate j (1-based): D[j] plus the best solution
        # for i-1 candidates among the first max(j-l, 0).
        row = take[i]
        np.add(d[:head], m[i - 1, 0], out=row[:head])
        if num_candidates > l:
            np.add(d[l:], m[i - 1, 1: num_candidates + 1 - l], out=row[l:])
        np.minimum.accumulate(row, out=m[i, 1:])

    total = m[k, num_candidates]
    if not np.isfinite(total):
        raise InsufficientDataError(
            f"no feasible selection of {k} non-overlapping patterns exists"
        )

    # Backtrack from M[k, num_candidates], as in Algorithm 1: walk left while
    # the value equals the cell to the left (candidate skipped), then take.
    # Because each row of M is the running minimum of its take costs, the stop
    # position is exactly the first attainment of the prefix minimum, so the
    # scan collapses to one argmin per selected anchor.
    selected: List[int] = []
    j = num_candidates
    for i in range(k, 0, -1):
        j = int(np.argmin(take[i, :j])) + 1
        selected.append(j - 1)
        j = max(j - l, 0)
    selected.reverse()

    return _build_selection(selected, d, l)


#: Candidate count below which pruning is not worth the bound computation.
_PRUNE_THRESHOLD = 512

_EPS = float(np.finfo(float).eps)


def _feasible_total_bound(d: np.ndarray, k: int, l: int) -> Optional[float]:
    """Total dissimilarity of a cheap feasible selection (an upper bound).

    Splits the candidates into ``k`` equal chunks and takes the minimum of
    each chunk's first ``chunk - l + 1`` entries: chunk ``i``'s pick is at
    most ``i * chunk + chunk - l`` while chunk ``i + 1``'s is at least
    ``(i + 1) * chunk``, so the picks are pairwise at least ``l`` apart —
    a feasible selection, in two vectorised reductions.  Falls back to the
    greedy scan when the chunks are shorter than ``l``, and to ``None`` if no
    feasible greedy solution exists either.
    """
    chunk = len(d) // k
    usable = chunk - l + 1
    if usable >= 1:
        minima = d[: k * chunk].reshape(k, chunk)[:, :usable].min(axis=1)
        total = float(minima.sum())
        if np.isfinite(total):
            return total
    try:
        return select_anchors_greedy(d, k, l).total_dissimilarity
    except InsufficientDataError:
        return None


def _select_anchors_dp_pruned(
    d: np.ndarray, positions: np.ndarray, k: int, l: int
) -> AnchorSelection:
    """The DP of :func:`select_anchors_dp` restricted to surviving candidates.

    ``positions`` holds the original candidate indices (sorted) that passed
    the filter.  The recurrence is the same, with the "first j candidates"
    axis replaced by "first t survivors" and the overlap predecessor
    ``max(j - l, 0)`` replaced by the number of survivors at least ``l``
    positions earlier (one ``searchsorted``).  Why the result equals the
    dense DP's, ties included, is proved in :func:`select_anchors_dp`.
    """
    values = d[positions]
    count = len(values)
    # predecessors[t]: number of survivors with original index <= positions[t] - l.
    predecessors = np.searchsorted(positions, positions - l, side="right")
    m = np.empty((k + 1, count + 1))
    m[0] = 0.0
    m[1:, 0] = np.inf
    take = np.empty((k + 1, count))
    for i in range(1, k + 1):
        np.add(values, m[i - 1].take(predecessors), out=take[i])
        np.minimum.accumulate(take[i], out=m[i, 1:])

    if not m[k, count] < math.inf:
        raise InsufficientDataError(
            f"no feasible selection of {k} non-overlapping patterns exists"
        )

    index, before = positions.tolist(), predecessors.tolist()
    selected: List[int] = []
    t = count
    for i in range(k, 0, -1):
        t = int(take[i, :t].argmin()) + 1
        selected.append(index[t - 1])
        t = before[t - 1]
    selected.reverse()

    return _build_selection(selected, d, l)


def select_anchors_greedy(
    dissimilarities: Sequence[float], k: int, pattern_length: int
) -> AnchorSelection:
    """Greedy strawman: repeatedly take the most similar non-conflicting candidate.

    The paper points out that this does not minimise the dissimilarity sum; it
    is provided for the ablation benchmark and as a cheap fallback.
    """
    d = _validate_inputs(dissimilarities, k, pattern_length)
    l = int(pattern_length)
    order = np.argsort(d, kind="stable")
    selected: List[int] = []
    for j in order:
        if all(abs(int(j) - chosen) >= l for chosen in selected):
            selected.append(int(j))
            if len(selected) == k:
                break
    if len(selected) < k:
        raise InsufficientDataError(
            f"greedy selection found only {len(selected)} of {k} requested "
            "non-overlapping patterns"
        )
    selected.sort()
    return _build_selection(selected, d, l)


def select_anchors_overlapping(
    dissimilarities: Sequence[float], k: int, pattern_length: int
) -> AnchorSelection:
    """Pick the k most similar candidates ignoring the non-overlap constraint.

    Only used by the ablation benchmark that reproduces the paper's argument
    for *why* non-overlapping patterns are required (Sec. 4.1): with overlaps
    allowed the selection collapses onto near-duplicate neighbouring anchors.
    ``pattern_length`` is still needed to map candidate indices to window
    anchor indices.
    """
    d = np.asarray(dissimilarities, dtype=float).ravel()
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if len(d) < k:
        raise InsufficientDataError(f"cannot select {k} patterns from {len(d)} candidates")
    selected = sorted(int(j) for j in np.argsort(d, kind="stable")[:k])
    return _build_selection(selected, d, pattern_length)


def select_anchors(
    dissimilarities: Sequence[float],
    k: int,
    pattern_length: int,
    strategy: str = "dp",
    allow_overlap: bool = False,
    bound_hint: Optional[float] = None,
) -> AnchorSelection:
    """Dispatch to the configured anchor-selection strategy.

    ``bound_hint`` (a feasible-total upper bound, see
    :func:`select_anchors_dp`) only affects the DP strategy's candidate
    pruning — never the selected anchors.
    """
    if allow_overlap:
        return select_anchors_overlapping(dissimilarities, k, pattern_length)
    if strategy == "dp":
        return select_anchors_dp(
            dissimilarities, k, pattern_length, bound_hint=bound_hint
        )
    if strategy == "greedy":
        return select_anchors_greedy(dissimilarities, k, pattern_length)
    raise ConfigurationError(f"unknown anchor selection strategy {strategy!r}")


def _build_selection(selected: List[int], d: np.ndarray, pattern_length: int) -> AnchorSelection:
    anchors = tuple(pattern_length - 1 + j for j in selected)
    dissim = tuple(d[selected].tolist())
    return AnchorSelection(
        candidate_indices=tuple(selected),
        anchor_indices=anchors,
        dissimilarities=dissim,
        total_dissimilarity=float(sum(dissim)),
    )

"""Progression weights over a finite abelian group (paper §III-B and §IV-A).

The paper tracks traversal termination with *progression weights*: the root
traverser carries weight 1; a traverser that spawns ``n`` children divides its
weight among them; a traverser that halts reports its weight as *finished*.
The invariant is::

    sum(active weights) + finished weight == 1

so termination is detected exactly when the finished total reaches 1.

Implementing this with floating point suffers underflow once traversals fan
out millions of ways. The paper instead works in a finite abelian group
``G = Z_{2^64}``: to split a weight ``w`` into two parts, draw ``a`` uniformly
from ``G`` and emit ``(a, w - a)``. Theorem 1 bounds the false-positive
probability of termination detection at ``(n - 1) / |G|`` for ``n`` coalesced
weight reports — about 5.4e-20 per report with 64-bit words.

This module alone fixes the group: every other module reduces, adds and
subtracts weights through the helpers below, so a test can run the whole
engine in a narrower group by patching :data:`WEIGHT_BITS` and
:data:`GROUP_MODULUS` here. It provides:

* :data:`WEIGHT_BITS` — the width of a weight, ``64``.
* :data:`GROUP_MODULUS` — the group order ``2^WEIGHT_BITS``.
* :func:`split_weight` — split a weight into ``n`` uniformly random parts that
  sum to the parent weight (mod :data:`GROUP_MODULUS`).
* :class:`WeightLedger` — the tracker-side accumulator that detects
  termination when the received total equals the root weight.
* :class:`WeightAccumulator` — the worker-side coalescing buffer (paper
  §IV-A(a), "weight coalescing").
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import TerminationError

#: Width of a weight in bits; the group order and every split draw follow it.
WEIGHT_BITS: int = 64

#: Order of the abelian group used for weight arithmetic.
GROUP_MODULUS: int = 1 << WEIGHT_BITS

#: The weight assigned to the root traverser of each (sub)query.
ROOT_WEIGHT: int = 1


def normalize_weight(w: int) -> int:
    """Reduce ``w`` into the canonical range ``[0, GROUP_MODULUS)``."""
    return w % GROUP_MODULUS


def add_weights(a: int, b: int) -> int:
    """Group addition: ``(a + b) mod GROUP_MODULUS``."""
    return (a + b) % GROUP_MODULUS


def sub_weights(a: int, b: int) -> int:
    """Group subtraction: ``(a - b) mod GROUP_MODULUS``."""
    return (a - b) % GROUP_MODULUS


def split_weight(w: int, n: int, rng: random.Random) -> List[int]:
    """Split weight ``w`` into ``n`` parts summing to ``w`` in the group.

    The first ``n - 1`` parts are drawn independently and uniformly from the
    group; the last part is the remainder. This is exactly the scheme of
    paper §IV-A(b): each split is uniform, so any strict-prefix partial sum
    observed by the tracker is uniform over the group, which yields the
    Theorem 1 false-positive bound.

    Args:
        w: parent weight (any integer; reduced mod ``GROUP_MODULUS``).
        n: number of children, ``n >= 1``.
        rng: deterministic random source (one per query for reproducibility).

    Returns:
        List of ``n`` weights whose group sum equals ``w``.
    """
    if n == 1:
        return [w % GROUP_MODULUS]
    if n < 1:
        raise ValueError(f"cannot split weight into {n} parts")
    draw = rng.getrandbits
    parts = [draw(WEIGHT_BITS) for _ in range(n - 1)]
    last = w % GROUP_MODULUS
    for p in parts:
        last = (last - p) % GROUP_MODULUS
    parts.append(last)
    return parts


class WeightLedger:
    """Tracker-side termination detector for one (sub)query.

    The ledger receives finished-weight reports and declares the traversal
    complete when the accumulated group sum equals the root weight. It also
    counts reports so callers can evaluate the Theorem 1 bound.
    """

    def __init__(self, root_weight: int = ROOT_WEIGHT) -> None:
        self._root_weight = normalize_weight(root_weight)
        self._received = 0
        self._report_count = 0
        self._terminated = False

    @property
    def root_weight(self) -> int:
        return self._root_weight

    @property
    def received(self) -> int:
        """Group sum of all finished weights received so far."""
        return self._received

    @property
    def report_count(self) -> int:
        """Number of weight reports received (the ``n`` of Theorem 1)."""
        return self._report_count

    @property
    def terminated(self) -> bool:
        return self._terminated

    def false_positive_bound(self) -> float:
        """Upper bound on P(false-positive termination) per Theorem 1."""
        n = self._report_count
        if n <= 1:
            return 0.0
        return (n - 1) / GROUP_MODULUS

    def report(self, weight: int) -> bool:
        """Record a finished-weight report.

        Returns ``True`` exactly when this report completes the traversal
        (the accumulated sum reaches the root weight).
        """
        if self._terminated:
            raise TerminationError("weight reported after termination")
        self._received = add_weights(self._received, weight)
        self._report_count += 1
        if self._received == self._root_weight:
            self._terminated = True
        return self._terminated

    def reset(self) -> None:
        """Reset the ledger for reuse by a fresh (sub)query."""
        self._received = 0
        self._report_count = 0
        self._terminated = False


class WeightAccumulator:
    """Worker-side coalescing buffer for finished weights (paper §IV-A(a)).

    Finished weights are first accumulated locally; the combined weight is
    flushed to the progress tracker together with the worker's message
    buffer, collapsing many per-traverser reports into one message.
    """

    def __init__(self) -> None:
        self._pending = 0
        self._pending_count = 0
        self._flushes = 0
        self._absorbed = 0

    @property
    def pending(self) -> int:
        """Group sum of weights accumulated since the last flush."""
        return self._pending

    @property
    def pending_count(self) -> int:
        """Number of individual finish events since the last flush."""
        return self._pending_count

    @property
    def flush_count(self) -> int:
        """Total number of flushes performed (== messages to the tracker)."""
        return self._flushes

    @property
    def absorbed_count(self) -> int:
        """Total number of individual finish events ever absorbed."""
        return self._absorbed

    def absorb(self, weight: int) -> None:
        """Add a finished traverser's weight to the local buffer."""
        self._pending = add_weights(self._pending, weight)
        self._pending_count += 1
        self._absorbed += 1

    def absorb_many(self, total: int, count: int) -> None:
        """Absorb ``count`` finish events whose weights sum to ``total``.

        Equivalent to ``count`` :meth:`absorb` calls: addition in the weight
        group is associative, so folding a pre-summed batch yields the same
        pending weight as absorbing each event individually.
        """
        self._pending = add_weights(self._pending, total)
        self._pending_count += count
        self._absorbed += count

    def flush(self) -> Optional[int]:
        """Drain the buffer, returning the combined weight to report.

        Returns ``None`` when there is nothing pending, so callers can skip
        sending an empty tracker message.
        """
        if self._pending_count == 0:
            return None
        combined = self._pending
        self._pending = 0
        self._pending_count = 0
        self._flushes += 1
        return combined

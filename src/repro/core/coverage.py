"""Maintenance of the temporary top-k diversified d-CCs (Sec. IV-A, App. C).

:class:`DiversifiedTopK` implements the paper's ``Update`` procedure
(Fig. 36) together with its two index structures:

* ``M`` — a hash table mapping each covered vertex ``v`` to the ids of the
  result sets containing ``v`` (so ``|Cov(R)| = len(M)``);
* ``H`` — a hash table keyed by the exclusive-coverage count
  ``|Δ(R, C')|``, from which the weakest member ``C*(R)`` (the one that
  exclusively covers the fewest vertices) is retrieved from the bucket
  of the smallest count a held set has — a minimum over at most ``k``
  counts, however many buckets the sets passed through.

The two update rules of Section IV-A:

* **Rule 1** — while fewer than ``k`` sets are held, every candidate is
  admitted;
* **Rule 2** — once full, candidate ``C`` replaces ``C*(R)`` iff
  ``|Cov((R − {C*}) ∪ {C})| >= (1 + 1/k) |Cov(R)|``   (Eq. 1).

The threshold test is done in integer arithmetic (``size * k >= (k + 1) *
cover``) to avoid any floating-point edge cases.

``try_update`` runs in ``O(max(|C|, |C*|))`` as shown in Appendix C.

On a frozen graph, top-down's potential sets are vertex masks,
and :meth:`DiversifiedTopK.gain_size` sizes one against a mask of the
vertices a candidate can gain, rebuilt at most once per accepted update.
"""

import numpy as np

from repro.graph.kernels import is_mask
from repro.utils.errors import ParameterError


class DiversifiedTopK:
    """The temporary result set ``R`` with Update/Size/Delete/Insert.

    Parameters
    ----------
    k:
        Capacity — the number of diversified d-CCs requested.

    Examples
    --------
    >>> top = DiversifiedTopK(2)
    >>> top.try_update(frozenset({1, 2, 3}))
    True
    >>> top.try_update(frozenset({4, 5}))
    True
    >>> top.cover_size
    5
    """

    def __init__(self, k):
        if k < 1:
            raise ParameterError("k must be at least 1, got {}".format(k))
        self.k = k
        self._members = {}
        self._labels = {}
        self._delta = {}
        self._coverers = {}
        self._by_delta = {}
        self._next_id = 0
        self._gainable = None

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._members)

    @property
    def is_full(self):
        """Whether ``|R| == k`` (Rule 2 territory)."""
        return len(self._members) >= self.k

    @property
    def cover_size(self):
        """``|Cov(R)|`` — the number of the distinct covered vertices."""
        return len(self._coverers)

    def cover(self):
        """The cover set ``Cov(R)`` as a new set."""
        return set(self._coverers)

    def sets(self):
        """The current result sets as a list of frozensets."""
        return list(self._members.values())

    def labelled_sets(self):
        """``(label, set)`` pairs; labels are whatever callers attached."""
        return [
            (self._labels[set_id], members)
            for set_id, members in self._members.items()
        ]

    def exclusive_count(self, set_id):
        """``|Δ(R, C')|`` for a member id — its exclusively covered vertices."""
        return self._delta[set_id]

    def weakest(self):
        """``(id, |Δ(R, C*)|)`` of the weakest member; requires non-empty R."""
        if not self._members:
            raise ParameterError("the result set is empty")
        # The non-empty buckets are those of the held sets' deltas: at
        # most k of the keys, however many deltas the sets passed
        # through.  Emptied buckets stay, since a bucket's set object
        # decides its iteration order and with it the tie broken here.
        min_delta = min(self._delta.values())
        set_id = next(iter(self._by_delta[min_delta]))
        return set_id, min_delta

    def min_exclusive(self):
        """``|Δ(R, C*(R))|`` — 0 for an empty result set.

        This quantity appears in the order-based pruning bounds of
        Lemmas 3 and 6.
        """
        if not self._members:
            return 0
        return self.weakest()[1]

    # ------------------------------------------------------------------
    # the Size / Delete / Insert operations of Fig. 36
    # ------------------------------------------------------------------

    def gain_size(self, candidate):
        """``|Cov((R − {C*(R)}) ∪ {candidate})|`` — the Size procedure.

        Decomposes the target cover into the three disjoint parts of the
        appendix: vertices of the candidate outside ``Cov(R)``, candidate
        vertices exclusively covered by ``C*``, and ``Cov(R − {C*})``.
        The candidate is a vertex collection or, over dense ids, a vertex
        mask; a mask's first two parts are one count against
        :meth:`_gainable_mask`.
        """
        if is_mask(candidate):
            if not self._members:
                return int(np.count_nonzero(candidate))
            gained = int(np.count_nonzero(
                candidate & self._gainable_mask(candidate.size)
            ))
            return gained + self.cover_size - self.weakest()[1]
        if not self._members:
            return len(set(candidate))
        weakest_id, weakest_delta = self.weakest()
        gained = 0
        for vertex in candidate:
            owners = self._coverers.get(vertex)
            if owners is None:
                gained += 1
            elif len(owners) == 1 and weakest_id in owners:
                gained += 1
        return gained + self.cover_size - weakest_delta

    def satisfies_replacement(self, candidate_size_or_set):
        """Eq. (1) test: would this candidate (or candidate-size bound) pass?

        Accepts either a vertex collection or an integer upper bound on
        ``|Cov((R − {C*}) ∪ {C})|`` — the pruning lemmas apply the same
        inequality to supersets (``C_L ∩ C^d(G_j)``, ``U_L``), so the
        integer form is what the search algorithms call.
        """
        if isinstance(candidate_size_or_set, int):
            size = candidate_size_or_set
        else:
            size = self.gain_size(candidate_size_or_set)
        return size * self.k >= (self.k + 1) * self.cover_size

    def try_update(self, candidate, label=None):
        """The Update procedure: apply Rule 1 or Rule 2; report acceptance.

        Empty candidates are rejected outright: they can never enlarge the
        cover, and admitting them under Rule 1 would waste result slots the
        approximation argument assumes are usable.
        """
        candidate = frozenset(candidate)
        if not candidate:
            return False
        if not self.is_full:
            # Rule 1 admits duplicates, exactly as the paper states: a
            # full R is what arms the Eq. (1) pruning rules, and duplicate
            # members have delta = 0, so they are the first to be replaced.
            # Result assembly deduplicates the final output.
            self._insert(candidate, label)
            return True
        size = self.gain_size(candidate)
        if size * self.k >= (self.k + 1) * self.cover_size:
            self._delete_weakest()
            self._insert(candidate, label)
            return True
        return False

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _gainable_mask(self, n):
        """The length-``n`` mask of the vertices a candidate can gain.

        A vertex is gainable when no held set covers it or only
        ``C*(R)`` does.  Built on first use after each accepted update
        and reused until the next one.
        """
        gainable = self._gainable
        if gainable is None or gainable.size != n:
            weakest_id = self.weakest()[0]
            coverers = self._coverers
            gainable = np.ones(n, dtype=np.bool_)
            gainable[np.fromiter(coverers, dtype=np.int64,
                                 count=len(coverers))] = False
            exclusive = [vertex for vertex in self._members[weakest_id]
                         if len(coverers[vertex]) == 1]
            gainable[np.fromiter(exclusive, dtype=np.int64,
                                 count=len(exclusive))] = True
            self._gainable = gainable
        return gainable

    def _insert(self, candidate, label):
        self._gainable = None
        set_id = self._next_id
        self._next_id += 1
        self._members[set_id] = candidate
        self._labels[set_id] = label
        delta = 0
        for vertex in candidate:
            owners = self._coverers.get(vertex)
            if owners is None:
                self._coverers[vertex] = {set_id}
                delta += 1
            else:
                if len(owners) == 1:
                    # The sole owner loses exclusivity over this vertex.
                    (other_id,) = owners
                    self._move_delta(other_id, self._delta[other_id] - 1)
                owners.add(set_id)
        self._delta[set_id] = delta
        self._by_delta.setdefault(delta, set()).add(set_id)

    def _delete_weakest(self):
        self._gainable = None
        set_id, delta = self.weakest()
        self._by_delta[delta].discard(set_id)
        members = self._members.pop(set_id)
        self._labels.pop(set_id)
        self._delta.pop(set_id)
        for vertex in members:
            owners = self._coverers[vertex]
            owners.discard(set_id)
            if len(owners) == 1:
                # The survivor now exclusively covers this vertex.
                (other_id,) = owners
                self._move_delta(other_id, self._delta[other_id] + 1)
            elif not owners:
                del self._coverers[vertex]
        return members

    def _move_delta(self, set_id, new_delta):
        old_delta = self._delta[set_id]
        self._by_delta[old_delta].discard(set_id)
        self._by_delta.setdefault(new_delta, set()).add(set_id)
        self._delta[set_id] = new_delta

    # ------------------------------------------------------------------
    # verification (tests call this after every mutation sequence)
    # ------------------------------------------------------------------

    def check_consistency(self):
        """Recompute every index from scratch and compare; raises on drift."""
        cover = set()
        for members in self._members.values():
            cover |= members
        if cover != set(self._coverers):
            raise AssertionError("M is out of sync with the member sets")
        for vertex, owners in self._coverers.items():
            true_owners = {
                set_id
                for set_id, members in self._members.items()
                if vertex in members
            }
            if owners != true_owners:
                raise AssertionError(
                    "M[{!r}] = {} but should be {}".format(vertex, owners, true_owners)
                )
        for set_id, members in self._members.items():
            exclusive = sum(
                1 for vertex in members if len(self._coverers[vertex]) == 1
            )
            if exclusive != self._delta[set_id]:
                raise AssertionError(
                    "delta[{}] = {} but should be {}".format(
                        set_id, self._delta[set_id], exclusive
                    )
                )
            if set_id not in self._by_delta.get(self._delta[set_id], ()):
                raise AssertionError("H bucket missing set {}".format(set_id))
        # weakest() reads the bucket of the smallest held delta, so no
        # bucket may hold a set that left R or moved to another delta.
        for delta, bucket in self._by_delta.items():
            for set_id in bucket:
                if self._delta.get(set_id) != delta:
                    raise AssertionError(
                        "H bucket {} holds stale set {}".format(delta, set_id)
                    )
        return True

    def __repr__(self):
        return "DiversifiedTopK(k={}, held={}, cover={})".format(
            self.k, len(self), self.cover_size
        )

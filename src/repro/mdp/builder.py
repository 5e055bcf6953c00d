"""Incremental MDP construction.

The builder interns state keys, accumulates transitions as flat
coordinate lists, merges duplicate (state, action, next) entries by
summing probabilities (with probability-weighted rewards, the way the
paper's Table 1 merges events that lead to the same state), and
validates row-stochasticity when :meth:`MDPBuilder.build` is called.

``add`` is the hottest pure-Python call in the attack-MDP build (one
call per generated transition, ~180k for the 30,595-state setting-2
model), so it does nothing but append to flat lists; all merging and
matrix assembly happens vectorized in :meth:`MDPBuilder.build` (CSR
construction from COO triplets sums duplicates, ``np.add.at``
accumulates expected rewards).

For lookahead caps well past the paper's ``ad=6`` (hundreds of
thousands of states at ``ad=12``), even one Python
call per transition is too slow; :meth:`MDPBuilder.state_ids` bulk-
interns key sequences and :meth:`MDPBuilder.add_batch` records whole
transition arrays per action, stored as chunks and concatenated once
at :meth:`MDPBuilder.build`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import InvalidTransitionError, MDPError
from repro.mdp.model import MDP, PROB_TOL


class MDPBuilder:
    """Builds an :class:`repro.mdp.model.MDP` incrementally."""

    def __init__(self, actions: Sequence[str],
                 channels: Sequence[str]) -> None:
        if len(set(actions)) != len(actions):
            raise MDPError("duplicate action names")
        if len(set(channels)) != len(channels):
            raise MDPError("duplicate channel names")
        self.actions: List[str] = list(actions)
        self.channels: List[str] = list(channels)
        self._action_index = {a: i for i, a in enumerate(self.actions)}
        self._keys: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        # Flat COO-style triplet lists, one entry per add() call.
        self._src: List[int] = []
        self._act: List[int] = []
        self._dst: List[int] = []
        self._prob: List[float] = []
        # Per-channel expected-reward scatter lists: (state, action,
        # prob * reward) triplets, appended only for nonzero rewards.
        self._rew: Dict[str, Tuple[List[int], List[int], List[float]]] = {
            c: ([], [], []) for c in self.channels}
        # Array chunks appended by add_batch(); concatenated with the
        # flat lists at build() time.
        self._batch: List[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]] = []
        self._rew_batch: Dict[str, List[Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]]] = {
            c: [] for c in self.channels}

    def state_id(self, key: Hashable) -> int:
        """Intern ``key`` and return its state index."""
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._keys)
            self._index[key] = idx
            self._keys.append(key)
        return idx

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    @property
    def n_states(self) -> int:
        """Number of states interned so far."""
        return len(self._keys)

    def add(self, state: Hashable, action: str, next_state: Hashable,
            prob: float, **rewards: float) -> None:
        """Record a transition.

        ``rewards`` are the channel rewards received *if this event
        happens*; the builder converts them to expected rewards when
        multiple events merge.
        """
        if prob < 0 or prob > 1 + PROB_TOL:
            raise InvalidTransitionError(f"probability {prob} out of range")
        if prob == 0:
            return
        a = self._action_index.get(action)
        if a is None:
            raise MDPError(f"unknown action {action!r}")
        s = self.state_id(state)
        t = self.state_id(next_state)
        self._src.append(s)
        self._act.append(a)
        self._dst.append(t)
        self._prob.append(prob)
        if rewards:
            rew = self._rew
            for name, value in rewards.items():
                lists = rew.get(name)
                if lists is None:
                    unknown = sorted(set(rewards) - set(self.channels))
                    raise MDPError(f"unknown reward channels {unknown}")
                if value != 0.0:
                    lists[0].append(s)
                    lists[1].append(a)
                    lists[2].append(prob * value)

    def state_ids(self, keys: Sequence[Hashable]) -> np.ndarray:
        """Bulk-intern a sequence of state keys -> ``(len(keys),)``
        index array (the vectorized companion of :meth:`state_id`)."""
        return np.fromiter((self.state_id(k) for k in keys),
                           dtype=np.intp, count=len(keys))

    def add_batch(self, states, action: str, next_states, probs,
                  **rewards) -> None:
        """Record many transitions of one action at once, array-based.

        This is the path for lookahead caps well past the paper's
        ``ad=6`` (hundreds of thousands of generated transitions),
        where one Python-level :meth:`add` call per transition
        dominates the build.  ``states`` and ``next_states`` are
        pre-interned index arrays (see :meth:`state_ids`), ``probs``
        the per-transition probabilities, and each ``rewards`` entry a
        per-transition reward array for that channel (converted to
        expected rewards exactly like :meth:`add`).  Zero-probability
        entries are dropped, matching the scalar path.
        """
        a = self._action_index.get(action)
        if a is None:
            raise MDPError(f"unknown action {action!r}")
        src = np.asarray(states, dtype=np.intp)
        dst = np.asarray(next_states, dtype=np.intp)
        prob = np.asarray(probs, dtype=float)
        if not (src.shape == dst.shape == prob.shape
                and src.ndim == 1):
            raise MDPError(
                f"add_batch arrays disagree in shape: states "
                f"{src.shape}, next_states {dst.shape}, probs "
                f"{prob.shape}")
        n = len(self._keys)
        for name, arr in (("states", src), ("next_states", dst)):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise MDPError(
                    f"add_batch {name} contains indices outside the "
                    f"{n} interned states; intern keys with "
                    f"state_ids() first")
        if prob.size and (prob.min() < 0 or prob.max() > 1 + PROB_TOL):
            bad = float(prob[(prob < 0)
                             | (prob > 1 + PROB_TOL)][0])
            raise InvalidTransitionError(
                f"probability {bad} out of range")
        keep: Optional[np.ndarray] = None
        if (prob == 0).any():
            keep = prob != 0
            src, dst, prob = src[keep], dst[keep], prob[keep]
        act = np.full(src.shape, a, dtype=np.intp)
        self._batch.append((src, act, dst, prob))
        for name, values in rewards.items():
            chunks = self._rew_batch.get(name)
            if chunks is None:
                unknown = sorted(set(rewards) - set(self.channels))
                raise MDPError(f"unknown reward channels {unknown}")
            vals = np.asarray(values, dtype=float)
            if keep is not None:
                if vals.shape != keep.shape:
                    raise MDPError(
                        f"add_batch reward channel {name!r} has shape "
                        f"{vals.shape}, expected {keep.shape}")
                vals = vals[keep]
            elif vals.shape != src.shape:
                raise MDPError(
                    f"add_batch reward channel {name!r} has shape "
                    f"{vals.shape}, expected {src.shape}")
            nz = vals != 0.0
            if nz.any():
                chunks.append((src[nz], act[nz], prob[nz] * vals[nz]))

    def extend(self, transitions) -> None:
        """Bulk-record an iterable of raw ``(state, action,
        next_state, prob, rewards)`` tuples.

        Equivalent to calling :meth:`add` once per entry but with the
        per-call overhead (argument packing, attribute lookups) hoisted
        out of the loop -- this is the path the attack-MDP build uses
        for its ~180k generated transitions.
        """
        index = self._index
        keys = self._keys
        action_index = self._action_index
        src_append = self._src.append
        act_append = self._act.append
        dst_append = self._dst.append
        prob_append = self._prob.append
        rew = self._rew
        for state, action, next_state, prob, rewards in transitions:
            if prob < 0 or prob > 1 + PROB_TOL:
                raise InvalidTransitionError(
                    f"probability {prob} out of range")
            if prob == 0:
                continue
            a = action_index.get(action)
            if a is None:
                raise MDPError(f"unknown action {action!r}")
            s = index.get(state)
            if s is None:
                s = len(keys)
                index[state] = s
                keys.append(state)
            t = index.get(next_state)
            if t is None:
                t = len(keys)
                index[next_state] = t
                keys.append(next_state)
            src_append(s)
            act_append(a)
            dst_append(t)
            prob_append(prob)
            for name, value in rewards.items():
                lists = rew.get(name)
                if lists is None:
                    unknown = sorted(set(rewards) - set(self.channels))
                    raise MDPError(f"unknown reward channels {unknown}")
                if value != 0.0:
                    lists[0].append(s)
                    lists[1].append(a)
                    lists[2].append(prob * value)

    def build(self, start: Hashable, validate: bool = True) -> MDP:
        """Assemble the MDP.  ``start`` must be an interned state key.

        Row-stochasticity is checked by the assembled
        :class:`~repro.mdp.model.MDP`'s own validator (pass
        ``validate=False`` to skip it, e.g. for deliberately partial
        test fixtures).
        """
        if start not in self._index:
            raise MDPError(f"unknown start state {start!r}")
        src_parts = [np.asarray(self._src, dtype=np.intp)]
        act_parts = [np.asarray(self._act, dtype=np.intp)]
        dst_parts = [np.asarray(self._dst, dtype=np.intp)]
        prob_parts = [np.asarray(self._prob, dtype=float)]
        for b_src, b_act, b_dst, b_prob in self._batch:
            src_parts.append(b_src)
            act_parts.append(b_act)
            dst_parts.append(b_dst)
            prob_parts.append(b_prob)
        src = np.concatenate(src_parts)
        act = np.concatenate(act_parts)
        dst = np.concatenate(dst_parts)
        prob = np.concatenate(prob_parts)
        rew = {}
        for name in self.channels:
            ss, aa, vv = self._rew[name]
            chunks = self._rew_batch[name]
            rew[name] = (
                np.concatenate([np.asarray(ss, dtype=np.intp)]
                               + [c[0] for c in chunks]),
                np.concatenate([np.asarray(aa, dtype=np.intp)]
                               + [c[1] for c in chunks]),
                np.concatenate([np.asarray(vv, dtype=float)]
                               + [c[2] for c in chunks]))
        return assemble_mdp(self._keys, self.actions, src, act, dst,
                            prob, rew, self._index[start],
                            validate=validate)


def assemble_mdp(keys, actions, src, act, dst, prob, rew_scatter,
                 start_index, validate: bool = True) -> MDP:
    """Assemble an :class:`~repro.mdp.model.MDP` from flat COO-style
    arrays.

    Shared by :meth:`MDPBuilder.build` and the vectorized attack-MDP
    fast path.  ``src``/``act``/``dst``/``prob`` are parallel arrays
    (one entry per recorded transition); ``rew_scatter`` maps each
    channel name to ``(state_idx, action_idx, value)`` scatter arrays
    of *expected* (probability-weighted) rewards.
    """
    n = len(keys)
    n_actions = len(actions)
    available = np.zeros((n_actions, n), dtype=bool)
    available[act, src] = True

    rewards = {}
    for name, (ss, aa, vv) in rew_scatter.items():
        arr = np.zeros((n_actions, n))
        if len(ss):
            np.add.at(arr, (aa, ss), vv)
        rewards[name] = arr

    mats: List[sparse.csr_matrix] = []
    for a in range(n_actions):
        mask = act == a
        # The CSR constructor sums duplicate (row, col) entries,
        # which performs the (state, action, next) merge.
        mats.append(sparse.csr_matrix(
            (prob[mask], (src[mask], dst[mask])), shape=(n, n)))
    return MDP(state_keys=keys, actions=actions, transition=mats,
               rewards=rewards, available=available, start=start_index,
               validate=validate)

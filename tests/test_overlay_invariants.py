"""Overlay invariants after any sequence of joins, leaves, link writes and
failures, checked against references built from the graph's text dump."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from lineworld.dynamics import ReplacementPolicy, join, leave
from lineworld.linkgen import InversePowerLaw
from lineworld.overlay import (
    NO_NEIGHBOR,
    OverlayGraph,
    apply_link_failures,
    apply_node_failures,
    build,
)
from oracles import immediate_column, nearest_members, reference_neighbors

N = 24
LINKS = 3


class OverlayMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2 ** 32 - 1), full=st.booleans())
    def start(self, seed, full):
        """A full-line build, or an empty grid grown by joins."""
        self.rng = np.random.default_rng(seed)
        self.churn_only = True
        self.g = build(N, InversePowerLaw(LINKS), self.rng) if full else OverlayGraph(N)

    def _pick(self, candidates: np.ndarray, i: int) -> int:
        return int(candidates[i % candidates.size])

    @precondition(lambda self: not self.g.alive.all())
    @rule(i=st.integers(0, N - 1), policy=st.sampled_from(list(ReplacementPolicy)))
    def join(self, i, policy):
        v = self._pick(np.flatnonzero(~self.g.alive), i)
        sinks, ages = self.g.sinks.copy(), self.g.ages.copy()
        join(self.g, v, LINKS, policy, self.rng)
        # other rows keep their widths; a redirect writes the joiner, freshly
        # stamped, into one real slot of its row (the oldest, under OLDEST)
        others = np.arange(N) != v
        real = sinks != NO_NEIGHBOR
        width = np.count_nonzero(self.g.sinks != NO_NEIGHBOR, axis=1)
        assert (width[others] == real.sum(axis=1)[others]).all()
        w = sinks.shape[1]
        changed = ((self.g.sinks[:, :w] != sinks) | (self.g.ages[:, :w] != ages)) & others[:, None]
        rows, slots = np.nonzero(changed)
        assert np.unique(rows).size == rows.size and real[rows, slots].all()
        assert (self.g.sinks[rows, slots] == v).all()
        assert (self.g.ages[rows, slots] > ages.max(initial=-1)).all()
        if policy is ReplacementPolicy.OLDEST:
            never = np.iinfo(ages.dtype).max
            oldest = np.where(real, ages, never).min(axis=1, initial=never)
            assert (ages[rows, slots] == oldest[rows]).all()

    @precondition(lambda self: self.g.alive.any())
    @rule(i=st.integers(0, N - 1), repair=st.booleans())
    def leave(self, i, repair):
        leave(self.g, self._pick(self.g.live_sorted(), i), repair, self.rng)

    @rule(u=st.integers(0, N - 1), sinks=st.lists(st.integers(0, N - 1), max_size=LINKS + 2))
    def set_links(self, u, sinks):
        self.g.set_links(u, [v for v in sinks if v != u])

    @rule(u=st.integers(0, N - 1), i=st.integers(0, 8), v=st.integers(0, N - 1))
    def replace_link(self, u, i, v):
        k = len(self.g.long_links(u))
        if k and u != v:
            self.g.replace_link(u, i % k, v)

    @rule(p=st.sampled_from([0.0, 0.5, 0.9]))
    def link_failures(self, p):
        apply_link_failures(self.g, p, self.rng)

    @rule(p=st.sampled_from([0.1, 0.3]))
    def node_failures(self, p):
        apply_node_failures(self.g, p, self.rng)
        self.churn_only = False

    @invariant()
    def adjacency_matches_dump(self):
        dump = self.g.dump_text()
        for symmetric in (False, True):
            expect = reference_neighbors(dump, symmetric)
            for u in range(N):
                assert self.g.neighbors(u, symmetric).tolist() == expect[u]

    @invariant()
    def in_neighbors_match_scan(self):
        for u in range(N):
            holders = [h for h in range(N) if u in self.g.long_links(h)]
            assert self.g.in_neighbors(u).tolist() == holders

    @invariant()
    def rows_are_packed_in_range_with_unique_ages(self):
        for u in range(N):
            row = self.g.long_links(u)
            assert all(0 <= v < N for v in row)
            assert (self.g.sinks[u, len(row):] == NO_NEIGHBOR).all()
            ages = self.g.ages[u, :len(row)].tolist()
            assert len(set(ages)) == len(ages)

    @invariant()
    def live_nodes_are_members(self):
        assert not (self.g.alive & ~self.g.member).any()

    @invariant()
    def churn_keeps_members_live(self):
        # only node failures take a member down without taking it off the line
        if self.churn_only:
            assert np.array_equal(self.g.member, self.g.alive)

    @invariant()
    def immediate_sinks_are_nearest_members(self):
        imm = immediate_column(self.g)
        assert all(not imm[u] for u in np.flatnonzero(~self.g.member))
        assert imm == nearest_members(self.g.member)


OverlayMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                            deadline=None)
TestOverlayInvariants = OverlayMachine.TestCase

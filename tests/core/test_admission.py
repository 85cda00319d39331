"""Tests for centralized admission control."""

import random
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.admission import AdmissionController, AdmissionError, Reservation
from repro.experiments.presets import make_topology
from repro.network.routing import RoutingTable
from repro.network.topology import FatTreeSpec, build_fat_tree, paper_topology
from repro.sim import units
from tests.helpers import whole_paths
from tests.network.updown_oracle import OracleRoutingTable


@dataclass(frozen=True)
class FakePath:
    ports: Tuple[int, ...]
    links: Tuple[str, ...]


@whole_paths
def two_parallel_paths(src, dst):
    """Two disjoint candidate paths, as a MIN with two spines offers."""
    return (
        FakePath(ports=(0,), links=(f"{src}-A", f"A-{dst}")),
        FakePath(ports=(1,), links=(f"{src}-B", f"B-{dst}")),
    )


@whole_paths
def single_shared_path(src, dst):
    return (FakePath(ports=(0,), links=("shared",)),)


class TestReservation:
    def test_reserve_returns_a_path(self):
        ctl = AdmissionController(two_parallel_paths, link_capacity=1.0)
        res = ctl.reserve(1, 0, 1, 0.5)
        assert res.flow_id == 1
        assert res.bw_bytes_per_ns == 0.5
        assert ctl.reservation_count == 1

    def test_load_balances_across_candidates(self):
        ctl = AdmissionController(two_parallel_paths, link_capacity=1.0)
        first = ctl.reserve(1, 0, 1, 0.4)
        second = ctl.reserve(2, 0, 1, 0.4)
        assert first.path.links != second.path.links  # spread over both spines

    def test_rejects_when_full(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0)
        ctl.reserve(1, 0, 1, 0.7)
        with pytest.raises(AdmissionError):
            ctl.reserve(2, 0, 1, 0.7)

    def test_accepts_exactly_to_capacity(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0)
        ctl.reserve(1, 0, 1, 0.6)
        ctl.reserve(2, 0, 1, 0.4)  # 100% exactly: allowed at max_utilization=1
        with pytest.raises(AdmissionError):
            ctl.reserve(3, 0, 1, 0.0001)

    def test_max_utilization_ceiling(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0, max_utilization=0.5)
        ctl.reserve(1, 0, 1, 0.5)
        with pytest.raises(AdmissionError):
            ctl.reserve(2, 0, 1, 0.01)

    def test_duplicate_flow_id_rejected(self, make_fabric):
        """No repeated id ever reaches ``reserve``, so it checks for none:
        ``Fabric.open_flow`` takes ids from the ``FlowRegistry``, which
        hands out each once, a refused flow's included."""
        fabric = make_fabric()
        ctl = fabric.admission
        asked = []

        def reserve(flow_id, *args):
            asked.append(flow_id)
            return AdmissionController.reserve(ctl, flow_id, *args)

        ctl.reserve = reserve
        for dst in range(1, 16):
            try:
                fabric.open_flow(0, dst, "multimedia", bw_bytes_per_ns=0.15)
            except AdmissionError:
                pass
        assert len(asked) == 15 and len(set(asked)) == 15
        assert ctl.reservation_count == len(fabric.flows) < 15  # some were refused

    def test_non_positive_bandwidth_rejected(self):
        ctl = AdmissionController(two_parallel_paths, link_capacity=1.0)
        with pytest.raises(ValueError):
            ctl.reserve(1, 0, 1, 0.0)

    def test_no_route_raises(self):
        ctl = AdmissionController(whole_paths(lambda s, d: ()), link_capacity=1.0)
        with pytest.raises(AdmissionError):
            ctl.reserve(1, 0, 1, 0.1)


class TestRelease:
    """A run never retires a flow, so nothing returns bandwidth: a
    reservation holds to the end, and the ledger is the exact integer sum
    of what was admitted."""

    def test_release_returns_bandwidth(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0)
        ctl.reserve(1, 0, 1, 1.0)
        with pytest.raises(AdmissionError):
            ctl.reserve(2, 0, 1, 1.0)  # the first flow still holds the link
        assert ctl.reserved["shared"] == units.bps(1.0)

    def test_release_unknown_flow_raises(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0)
        assert not hasattr(ctl, "release")

    def test_release_clears_float_dust(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0)
        for i in range(10):
            ctl.reserve(i, 0, 1, 0.1)
        assert ctl.reserved["shared"] == 10 * units.bps(0.1) == units.bps(1.0)

    def test_repeated_reserve_release_is_exactly_zero(self):
        # The ledger is integer bytes/second: awkward float rates (1/3
        # B/ns has no finite binary representation) add up exactly -- the
        # sum of the converted rates, not approximately.
        ctl = AdmissionController(single_shared_path, link_capacity=1000.0)
        rates = [units.gbps(8.0) / 3.0, 0.1, 0.2, 1.0 / 7.0]
        for cycle in range(25):
            for i, rate in enumerate(rates):
                ctl.reserve(cycle * len(rates) + i, 0, 1, rate)
            assert ctl.reserved["shared"] == (cycle + 1) * sum(map(units.bps, rates))
        assert ctl.reservation_count == 100

    def test_utilization_query(self):
        ctl = AdmissionController(single_shared_path, link_capacity=2.0)
        ctl.reserve(1, 0, 1, 1.0)
        assert ctl.reserved["shared"] / units.bps(2.0) == pytest.approx(0.5)


class TestBestEffortAssignment:
    def test_assign_path_never_rejects(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0)
        for i in range(50):  # far beyond capacity: best-effort is unregulated
            ctl.assign_path(0, 1, weight=1.0)

    def test_assign_path_balances_by_weight(self):
        ctl = AdmissionController(two_parallel_paths, link_capacity=1.0)
        chosen = [tuple(ctl.assign_path(0, 1, weight=1.0).links) for _ in range(4)]
        # Alternates between the two candidates.
        assert len(set(chosen)) == 2
        assert chosen[0] != chosen[1]

    def test_assignment_does_not_consume_reserved_capacity(self):
        ctl = AdmissionController(single_shared_path, link_capacity=1.0)
        ctl.assign_path(0, 1, weight=100.0)
        ctl.reserve(1, 0, 1, 1.0)  # still fully reservable

    def test_no_route_raises(self):
        ctl = AdmissionController(whole_paths(lambda s, d: ()), link_capacity=1.0)
        with pytest.raises(AdmissionError):
            ctl.assign_path(0, 1)


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            AdmissionController(two_parallel_paths, link_capacity=0.0)

    def test_bad_ceiling(self):
        with pytest.raises(ValueError):
            AdmissionController(two_parallel_paths, link_capacity=1.0, max_utilization=0.0)
        with pytest.raises(ValueError):
            AdmissionController(two_parallel_paths, link_capacity=1.0, max_utilization=1.5)


@st.composite
def _profiles_and_common(draw):
    """Equal-length candidate multisets ``A_k`` and a common multiset ``C``
    of non-negative integers, from a small range so that ties happen."""
    loads = st.integers(0, 6)
    length = draw(st.integers(0, 5))
    one = st.lists(loads, min_size=length, max_size=length)
    candidates = draw(st.lists(one, min_size=1, max_size=8))
    return candidates, draw(st.lists(loads, max_size=4))


class TestSharedLinksDoNotDecide:
    """Why admission may score the ``varying`` links alone."""

    @given(_profiles_and_common())
    def test_common_elements_never_change_the_leximin_winner(self, drawn):
        candidates, common = drawn

        def winner(profiles):
            return profiles.index(min(profiles))  # first index on ties, as admission

        with_common = [sorted(links + common, reverse=True) for links in candidates]
        without = [sorted(links, reverse=True) for links in candidates]
        assert winner(with_common) == winner(without)


@st.composite
def _loaded_candidates(draw):
    """Candidates as lists of integer link loads below 2**50 -- of one
    length or of several, a few values recurring so that whole profiles
    tie -- with a request and a capacity to turn them into utilizations."""
    pool = draw(st.lists(st.integers(0, 2**50 - 1), min_size=1, max_size=4))
    loads = st.one_of(st.sampled_from(pool), st.integers(0, 2**50 - 1), st.integers(0, 6))
    if draw(st.booleans()):
        length = draw(st.integers(0, 5))
        one = st.lists(loads, min_size=length, max_size=length)
    else:
        one = st.lists(loads, max_size=5)
    candidates = draw(st.lists(one, min_size=1, max_size=8))
    return candidates, draw(st.integers(0, 2**50)), draw(st.integers(1, 2**60))


class TestIntegersDecide:
    """Why admission may compare the ledger's integers as they stand:
    below 2**52 the utilizations ``(load + extra) / capacity`` order, and
    tie, exactly as the loads do."""

    @given(_loaded_candidates())
    def test_integer_winner_is_the_float_profiles_winner(self, drawn):
        candidates, extra_bps, capacity_bps = drawn
        paths = tuple(
            FakePath(ports=(k,), links=tuple((k, i) for i in range(len(loads))))
            for k, loads in enumerate(candidates)
        )
        ctl = AdmissionController(whole_paths(lambda s, d: paths), link_capacity=1.0)
        for path, loads in zip(paths, candidates):
            for link, load in zip(path.links, loads):
                ctl.assigned_weight[link] = load
        profiles = [
            sorted([(load + extra_bps) / capacity_bps for load in loads], reverse=True)
            for loads in candidates
        ]
        (winner,) = ctl.assign_path(0, 1).ports
        assert winner == profiles.index(min(profiles))  # first index on ties

    def test_the_bound_is_not_2_to_the_53(self):
        """Past 2**52 two loads one byte/second apart can divide to the
        same float, and the float rule then sees a tie the ledger does not
        have: the bound ``_least_loaded`` states is the one that holds."""
        load, capacity_bps = 5 * 2**50 + 2, 5
        assert load + 1 < 2**53 and load / capacity_bps == (load + 1) / capacity_bps
        below = 2**52 - 2
        assert below / capacity_bps < (below + 1) / capacity_bps


class ReferenceController(AdmissionController):
    """The selection rule as it was before profiles were built in one
    pass: ``_path_profile`` verbatim (per-link capacity lookup, ``bps``
    per link, a generator per candidate), ``min`` over it, and the
    ceiling test through a second profile.  The ledgers are the
    production ones."""

    def __init__(self, candidates, link_capacity, **kwargs):
        super().__init__(candidates, link_capacity, **kwargs)
        self._default_capacity = link_capacity

    def capacity(self, link):
        return self._default_capacity

    def _path_profile(self, path, extra_bw, table):
        extra_bps = units.bps(extra_bw)
        return tuple(
            sorted(
                (
                    (table.get(link, 0) + extra_bps) / units.bps(self.capacity(link))
                    for link in path.links
                ),
                reverse=True,
            )
        )

    def _path_cost(self, path, extra_bw, table):
        profile = self._path_profile(path, extra_bw, table)
        return profile[0] if profile else 0.0

    def reserve(self, flow_id, src, dst, bw_bytes_per_ns):
        if bw_bytes_per_ns <= 0:
            raise ValueError(f"reserved bandwidth must be positive, got {bw_bytes_per_ns}")
        paths = self._candidates(src, dst)
        if not paths:
            raise AdmissionError(f"no route from host {src} to host {dst}")
        best_path = min(
            paths, key=lambda p: self._path_profile(p, bw_bytes_per_ns, self.reserved)
        )
        if self._path_cost(best_path, bw_bytes_per_ns, self.reserved) > self.max_utilization:
            raise AdmissionError(
                f"flow {flow_id} ({src}->{dst}, {bw_bytes_per_ns:.4f} B/ns) rejected: "
                f"all {len(paths)} candidate paths above "
                f"{self.max_utilization:.0%} utilization"
            )
        bw_bps = units.bps(bw_bytes_per_ns)
        for link in best_path.links:
            self.reserved[link] = self.reserved.get(link, 0) + bw_bps
        self.reservation_count += 1
        return Reservation(flow_id, best_path, bw_bytes_per_ns)

    def assign_path(self, src, dst, weight=1.0):
        paths = self._candidates(src, dst)
        if not paths:
            raise AdmissionError(f"no route from host {src} to host {dst}")
        best_path = min(
            paths, key=lambda p: self._path_profile(p, weight, self.assigned_weight)
        )
        weight_bps = units.bps(weight)
        for link in best_path.links:
            self.assigned_weight[link] = self.assigned_weight.get(link, 0) + weight_bps
        return best_path


def _route(path):
    """A route by value: the production and the oracle ``RoutePath`` are
    different classes."""
    return (path.src, path.dst, path.ports, path.links)


def _assert_same_ledger(new, ref):
    """``reserved`` and ``assigned_weight`` are views of the controller's
    per-link cells, and production makes a cell (reading zero) for every
    varying link of a candidate set the first time it scores it, where the
    reference makes one only for a link it writes.  So the two are
    compared per link over the union of the links either side has touched,
    a link one side never saw reading zero -- nothing is filtered out."""
    for ours, theirs in ((new.reserved, ref.reserved), (new.assigned_weight, ref.assigned_weight)):
        for link in ours.keys() | theirs.keys():
            assert ours.get(link, 0) == theirs.get(link, 0), link


def _hot_spot_pair(rng, n_hosts):
    """Hot spots: a few hosts source most of the traffic; half the
    destinations are the next host, so often under the same leaf."""
    n_hot = min(n_hosts // 4, 32)
    src = rng.randrange(n_hot) if rng.random() < 0.7 else rng.randrange(n_hosts)
    dst = rng.choice([h for h in (rng.randrange(n_hosts), (src + 1) % n_hosts) if h != src])
    return src, dst


def _replay_both(new, ref, n_hosts, steps, pick_pair=_hot_spot_pair):
    """Drive ``new`` and ``ref`` through one seeded reserve / assign /
    audit sequence, requiring equal routes, error strings and ledgers at
    every step, and at each audit and at the end that every link's
    reserved bandwidth is exactly the integer sum of the admitted flows
    routed over it."""
    rng = random.Random(14)
    # Awkward rates (no finite binary representation) next to round ones;
    # large enough that a few dozen per host reach the ceiling.
    rates = [1.0 / 3.0, 0.1, 1.0 / 7.0, 0.25, 0.05, 2.0 / 9.0]
    live, rejected, next_id = {}, 0, 0
    for _step in range(steps):
        src, dst = pick_pair(rng, n_hosts)
        roll = rng.random()
        if roll < 0.5:
            rate = rng.choice(rates)
            outcomes = []
            for ctl in (new, ref):
                try:
                    outcomes.append(_route(ctl.reserve(next_id, src, dst, rate).path))
                except AdmissionError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], str):
                rejected += 1
            else:
                live[next_id] = (outcomes[0][3], rate)
            next_id += 1
        elif roll < 0.8:
            weight = rng.choice(rates)
            assert _route(new.assign_path(src, dst, weight)) == _route(
                ref.assign_path(src, dst, weight)
            )
        elif live:
            _assert_ledger_sums(new, live)
        _assert_same_ledger(new, ref)
    assert rejected > 50 and len(live) > 100, "the sequence must reach the ceiling"
    _assert_ledger_sums(new, live)
    _assert_ledger_sums(ref, live)
    assert new.reservation_count == ref.reservation_count == len(live)


def _assert_ledger_sums(ctl, live):
    """Every link reserves exactly the converted rates of the live flows
    ``{flow_id: (links, rate)}`` routed over it, and no other link
    reserves anything."""
    expected = {}
    for links, rate in live.values():
        for link in links:
            expected[link] = expected.get(link, 0) + units.bps(rate)
    assert {link: bw for link, bw in ctl.reserved.items() if bw} == expected


class TestEquivalenceWithReferenceRule:
    """Production selection == the per-link rule it replaced, step by step."""

    @pytest.mark.parametrize("ceiling", [1.0, 0.6])
    def test_seeded_call_sequence_on_paper_candidates(self, ceiling):
        routing = RoutingTable(paper_topology())
        new = AdmissionController(routing, units.gbps(8.0), max_utilization=ceiling)
        ref = ReferenceController(routing, units.gbps(8.0), max_utilization=ceiling)
        _replay_both(new, ref, routing.topo.n_hosts, 4_000)

    @pytest.mark.parametrize(
        "topology",
        [
            pytest.param(lambda: make_topology("scale512"), id="scale512"),
            # five-switch walks: four varying links per candidate, so more
            # than a pair is sorted
            pytest.param(lambda: build_fat_tree(FatTreeSpec(arity=4, levels=3)), id="4-ary-3-tree"),
        ],
    )
    def test_segment_scoring_against_whole_paths_of_the_oracle(self, topology):
        """The reference rule scores whole paths from the per-host-pair
        enumeration; production scores the shared segments and builds
        only the winner."""
        topo = topology()
        new = AdmissionController(RoutingTable(topo), units.gbps(8.0))
        ref = ReferenceController(OracleRoutingTable(topo), units.gbps(8.0))
        _replay_both(new, ref, topo.n_hosts, 2_000)


    def test_same_leaf_pairs_have_nothing_to_score(self):
        """Two hosts under one switch: one candidate, no varying link
        (``varying == ((),)``) -- the ledger is written on the injection
        and delivery links alone, and the ceiling is met there."""
        topo = paper_topology()
        routing = RoutingTable(topo)
        per_leaf = 8
        assert routing.candidates(0, per_leaf - 1).varying == ((),)
        assert len(routing.candidates(0, per_leaf).varying) > 1

        def same_leaf_pair(rng, n_hosts):
            src = rng.randrange(n_hosts)
            dst = src - src % per_leaf + rng.randrange(per_leaf - 1)
            return src, dst + (dst >= src)

        new = AdmissionController(routing, units.gbps(8.0))
        ref = ReferenceController(OracleRoutingTable(topo), units.gbps(8.0))
        _replay_both(new, ref, topo.n_hosts, 3_000, same_leaf_pair)

    def test_walks_of_two_and_four_links_in_one_candidate_set(self):
        """A candidate set whose walks differ in length (a short cut over
        a spine beside detours over a core stage) sorts some profiles by
        hand and some with ``sorted``, and compares a pair with a
        quadruple: same winners as the float rule over the same fakes."""
        n_hosts, per_leaf, n_spines, n_cores = 48, 4, 3, 2

        @dataclass(frozen=True)
        class Walk:
            src: int
            dst: int
            ports: Tuple[int, ...]
            links: Tuple[Tuple[str, int, int], ...]

        def candidates(src, dst):
            a, b = src // per_leaf, dst // per_leaf
            if a == b:
                return (Walk(src, dst, (0,), ()),)
            short = [
                Walk(src, dst, (j,), (("up", a, j), ("down", j, b))) for j in range(n_spines)
            ]
            long = [
                Walk(
                    src,
                    dst,
                    (j, c),
                    (("up", a, j), ("core-up", j, c), ("core-down", c, j), ("down", j, b)),
                )
                for j in range(n_spines)
                for c in range(n_cores)
            ]
            # interleaved, so the first-index tie-break crosses lengths
            return tuple(short[:1] + long[:2] + short[1:] + long[2:])

        lengths = {len(walk.links) for walk in candidates(0, n_hosts - 1)}
        assert lengths == {2, 4}
        new = AdmissionController(whole_paths(candidates), units.gbps(8.0))
        ref = ReferenceController(candidates, units.gbps(8.0))
        _replay_both(new, ref, n_hosts, 4_000)

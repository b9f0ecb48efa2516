"""FairQueue: weighted-fair order, bounded lanes, deadline drops."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.queue import FairQueue, ServingRequest


def _request(request_id, tenant, size=100, arrival=0.0, deadline=math.inf):
    return ServingRequest(
        request_id=request_id,
        tenant=tenant,
        payload=b"x" * size,
        arrival=arrival,
        deadline=deadline,
    )


class TestBasics:
    def test_fifo_within_one_tenant(self):
        queue = FairQueue(capacity=8)
        for i in range(5):
            assert queue.offer(_request(i, "a"))
        order = []
        while queue.depth():
            request, expired = queue.poll(0.0)
            assert expired == []
            order.append(request.request_id)
        assert order == [0, 1, 2, 3, 4]

    def test_depth_and_tenants(self):
        queue = FairQueue(capacity=4)
        queue.offer(_request(0, "a"))
        queue.offer(_request(1, "b"))
        queue.offer(_request(2, "b"))
        assert queue.depth() == 3
        assert queue.depth("b") == 2
        assert queue.depth("missing") == 0
        assert queue.tenants() == ["a", "b"]
        assert len(queue) == 3

    def test_poll_empty(self):
        request, expired = FairQueue().poll(0.0)
        assert request is None and expired == []

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FairQueue(capacity=0)
        with pytest.raises(ValueError):
            FairQueue(weights={"a": 0.0})
        with pytest.raises(ValueError):
            FairQueue(default_weight=-1.0)


class TestWeightedFairness:
    def test_heavier_tenant_served_proportionally_more(self):
        queue = FairQueue(capacity=64, weights={"heavy": 3.0, "light": 1.0})
        for i in range(24):
            queue.offer(_request(i, "heavy" if i % 2 == 0 else "light"))
        first_eight = []
        for __ in range(8):
            request, __expired = queue.poll(0.0)
            first_eight.append(request.tenant)
        # 3:1 weights with equal sizes: the first dequeues skew 3-to-1
        assert first_eight.count("heavy") == 6
        assert first_eight.count("light") == 2

    def test_large_payload_costs_proportionally(self):
        queue = FairQueue(capacity=8)
        queue.offer(_request(0, "bulky", size=4000))
        queue.offer(_request(1, "bulky", size=4000))
        queue.offer(_request(2, "tiny", size=100))
        queue.offer(_request(3, "tiny", size=100))
        order = []
        while queue.depth():
            request, __ = queue.poll(0.0)
            order.append(request.request_id)
        # both tiny requests finish (virtually) before the second bulky one
        assert order.index(3) < order.index(1)

    def test_deterministic_tie_break(self):
        def drain():
            queue = FairQueue(capacity=4)
            for i, tenant in enumerate(["b", "a", "c"]):
                queue.offer(_request(i, tenant, size=100))
            order = []
            while queue.depth():
                request, __ = queue.poll(0.0)
                order.append(request.tenant)
            return order

        # equal tags: ties break by tenant name, then sequence -- a pure
        # function of the offered traffic, not of dict iteration order
        assert drain() == drain() == ["a", "b", "c"]

    def test_idle_tenant_does_not_bank_credit(self):
        queue = FairQueue(capacity=64)
        # tenant a drains 8 requests, advancing virtual time
        for i in range(8):
            queue.offer(_request(i, "a", size=1000))
        for __ in range(8):
            queue.poll(0.0)
        # b arrives late: its tag starts at the current virtual time, not
        # at zero, so idling banked it no credit -- its tag ties with a's
        # next request instead of jumping the whole backlog
        queue.offer(_request(100, "b", size=1000))
        queue.offer(_request(101, "a", size=1000))
        first, __ = queue.poll(0.0)
        second, __ = queue.poll(0.0)
        assert {first.tenant, second.tenant} == {"a", "b"}
        assert first.tenant == "a"  # the tie-break, not a b head start


class TestBoundsAndDeadlines:
    def test_full_lane_rejected(self):
        queue = FairQueue(capacity=2)
        assert queue.offer(_request(0, "a"))
        assert queue.offer(_request(1, "a"))
        assert not queue.offer(_request(2, "a"))
        # other tenants have their own lane
        assert queue.offer(_request(3, "b"))
        # the rejected offer left nothing behind
        assert queue.depth() == 3
        assert queue.depth("a") == 2

    def test_expired_dropped_at_poll(self):
        queue = FairQueue(capacity=8)
        queue.offer(_request(0, "a", deadline=1.0))
        queue.offer(_request(1, "a", deadline=10.0))
        request, expired = queue.poll(5.0)
        assert [r.request_id for r in expired] == [0]
        assert request.request_id == 1
        # one dropped, one handed out: nothing left queued
        assert queue.depth() == 0
        assert queue.poll(5.0) == (None, [])

    def test_all_expired_returns_none(self):
        queue = FairQueue(capacity=8)
        queue.offer(_request(0, "a", deadline=1.0))
        queue.offer(_request(1, "b", deadline=2.0))
        request, expired = queue.poll(99.0)
        assert request is None
        assert {r.request_id for r in expired} == {0, 1}

    def test_deadline_exactly_now_still_served(self):
        queue = FairQueue(capacity=4)
        queue.offer(_request(0, "a", deadline=5.0))
        request, expired = queue.poll(5.0)
        assert request is not None and expired == []


class _ReferenceOrder:
    """The fair order restated: each lane holds ``(tag, tenant, seq,
    request)`` and a poll takes the minimum ``(tag, tenant, seq)`` over the
    lane heads, dropping expired heads without moving virtual time."""

    def __init__(self, capacity, weights):
        self.capacity, self.weights = capacity, weights
        self.lanes = {}
        self.last_tag = {}
        self.virtual = 0.0
        self.seq = 0

    def offer(self, request):
        lane = self.lanes.setdefault(request.tenant, [])
        if len(lane) == self.capacity:
            return False
        start = max(self.virtual, self.last_tag.get(request.tenant, 0.0))
        tag = start + max(1, request.size) / self.weights.get(request.tenant, 1.0)
        self.last_tag[request.tenant] = tag
        lane.append((tag, request.tenant, self.seq, request))
        self.seq += 1
        return True

    def poll(self, now):
        expired = []
        while any(self.lanes.values()):
            heads = [lane[0] for lane in self.lanes.values() if lane]
            tag, tenant, __, request = min(heads, key=lambda entry: entry[:3])
            self.lanes[tenant].pop(0)
            if request.deadline < now:
                expired.append(request)
                continue
            self.virtual = max(self.virtual, tag)
            return request, expired
        return None, expired


_TENANTS = ("a", "b", "c")
_TIMES = st.floats(min_value=0.0, max_value=10.0)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            st.sampled_from(_TENANTS),
            # 0 and 1 byte cost the same; equal sizes make tags tie
            st.sampled_from([0, 1, 100, 100, 250, 4000]),
            st.one_of(st.just(math.inf), _TIMES),
        ),
        st.tuples(st.just("poll"), _TIMES),
        # a request handed out by a poll goes back in (chaos's re-home)
        st.tuples(st.just("reoffer"), st.integers(0, 50)),
    ),
    max_size=60,
)


class TestFairOrderOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        weights=st.dictionaries(
            st.sampled_from(_TENANTS), st.sampled_from([0.5, 1.0, 2.0, 3.0])
        ),
        ops=_OPS,
    )
    def test_dequeue_order_is_the_minimum_over_lane_heads(
        self, capacity, weights, ops
    ):
        queue = FairQueue(capacity=capacity, weights=weights)
        reference = _ReferenceOrder(capacity, weights)
        handed_out = []
        for op in ops:
            if op[0] == "offer":
                __, tenant, size, deadline = op
                request = _request(reference.seq, tenant, size, deadline=deadline)
                assert queue.offer(request) == reference.offer(request)
            elif op[0] == "poll":
                got, got_expired = queue.poll(op[1])
                want, want_expired = reference.poll(op[1])
                assert got is want
                assert [id(r) for r in got_expired] == [id(r) for r in want_expired]
                if got is not None:
                    handed_out.append(got)
            elif handed_out:
                request = handed_out.pop(op[1] % len(handed_out))
                assert queue.offer(request) == reference.offer(request)
                if reference.lanes[request.tenant][-1][3] is request:
                    # a fresh tag and sequence number, not the first visit's
                    fresh = reference.lanes[request.tenant][-1][:3]
                    assert queue._lanes[request.tenant][-1][:3] == fresh
            assert queue.depth() == sum(map(len, reference.lanes.values()))

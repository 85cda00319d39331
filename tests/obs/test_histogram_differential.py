"""Differential proof: :class:`repro.obs.metrics.Histogram`, which reads
``count`` off its buckets and keeps ``min``/``max`` against infinite
sentinels, exports what the per-call bookkeeping it replaced exported
(``tests/obs/reference_histogram.py``, kept as the oracle).

After any sequence of ``observe`` and ``merge`` calls -- integers,
floats and ``±inf``, empty histograms on either side of a merge -- both
must serialize to the same JSON bytes, the form the metrics snapshot
hashes (so ``5`` and ``5.0`` differ, and ``nan`` sums compare equal).
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import SLACK_BUCKETS_NS, Histogram
from tests.obs.reference_histogram import ReferenceHistogram

VALUES = st.one_of(
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf]),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), VALUES),
        st.tuples(st.just("merge"), st.lists(VALUES, max_size=6)),
    ),
    max_size=30,
)


def _pair(values=()):
    new = Histogram("network.host.slack_ns", SLACK_BUCKETS_NS, unit="ns")
    ref = ReferenceHistogram("network.host.slack_ns", SLACK_BUCKETS_NS, unit="ns")
    for value in values:
        new.observe(value)
        ref.observe(value)
    return new, ref


def _same(new, ref):
    assert json.dumps(new.to_dict(), sort_keys=True) == json.dumps(ref.to_dict(), sort_keys=True)
    assert (new.count, new.min, new.max) == (ref.count, ref.min, ref.max)


def test_empty_histogram_reads_none():
    new, ref = _pair()
    assert new.count == 0 and new.min is None and new.max is None and new.mean == 0.0
    _same(new, ref)
    new.merge(_pair()[0])
    ref.merge(_pair()[1])
    _same(new, ref)


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_same_export_as_reference(ops):
    new, ref = _pair()
    for op, arg in ops:
        if op == "observe":
            new.observe(arg)
            ref.observe(arg)
        else:
            other_new, other_ref = _pair(arg)
            new.merge(other_new)
            ref.merge(other_ref)
        _same(new, ref)

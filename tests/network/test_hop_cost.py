"""A cost tripwire for a packet hop that reads no clock.

Every figure the paper draws is a steady-state average over packet hops,
and what a hop costs in CPython is, to first order, how many
Python-level calls it makes: a link transmit, the arbitration that chose
the packet, the queue operations, the credit return, the delivery.  This
runs the Table 1 mix (video compressed 50x) at load 0.9 on ``small``,
seed 1, 50 us of warm-up and a 250 us window, under ``cProfile`` and
divides the profiler-visible calls (Python frames and C functions alike,
fabric construction and traffic setup included) by the link transmits.
The figure is exact at a fixed seed, so a helper called per hop, or a
frame put back between the switch and its link, fails here instead of
waiting for a benchmark.

Measured on CPython 3.11 at commit ``709ea12``: 73.4 calls per transmit
(``advanced-2vc``) and 75.9 (``traditional-2vc``).  With the credit
arithmetic, the serialization time, the head comparisons and the queue
byte accounting done where the hop already is (docs/ARCHITECTURE.md
section 10, "Hot-path call shape"): 61.6 and 63.4.  With a packet's two
ends and every wake-up in fewer frames (a link's re-poll is the
arbitration, one stamp per message, one frame per mint and per delivery
record, the arrival scheduled as the receiver's ``accept``): 49.9 and
52.1.  With a queue's head kept as a ``front`` field, a link that wakes
its sender only while the sender holds a packet for it (``Link.backlog``)
and credit masking by an integer budget: 42.5 and 45.8.  The ceilings are
those figures + 10 %.

:func:`test_packet_ends_call_shape` and :func:`test_arbitration_call_shape`
pin that shape by name, so a per-packet stamp, a second frame per
delivery record, a wrapper around the arbitration, a queue call from the
switch or a masking closure comes back as a named failure;
:func:`test_arbitration_needs_a_backlog` fails if a wake-up reaches an
output with nothing queued for it.  :func:`test_observed_forward_reads_the_front`
holds the observed path to the same rule (a head is a field, read by
everyone), :func:`test_no_queue_defines_a_head_method` keeps a second
definition of the head from coming back beside ``front``, ,
:func:`test_no_queue_keeps_a_byte_ledger` keeps a second ledger of buffer
space from coming back beside the link's credits, and
:func:`test_no_rule_is_restated_beside_its_home` keeps a second packet
constructor, forwarding factory methods or wrapper classes from coming
back beside the rule they restate.
"""

import ast
import cProfile
import importlib
import inspect
import pkgutil
from functools import lru_cache

import pytest

import repro.core
import repro.core.queues
import repro.network.packet
from repro.core.architectures import ARCHITECTURES, Architecture
from repro.experiments.config import ExperimentConfig, scaled_video_mix
from repro.experiments.runner import run_experiment
from repro.network.packet import Packet
from repro.network.switch import Switch
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import PacketTracer
from repro.sim import units
from repro.sim.monitor import Trace


def _config(architecture: str, measure_us: int = 250) -> ExperimentConfig:
    return ExperimentConfig(
        architecture=architecture,
        load=0.9,
        seed=1,
        topology="small",
        warmup_ns=50 * units.US,
        measure_ns=measure_us * units.US,
        mix=scaled_video_mix(0.9, 0.02),
    )


def _key(code):
    """``(file below repro/, qualname)`` of a profiled code object, or None
    for C functions and code outside the package."""
    if isinstance(code, str) or "/repro/" not in code.co_filename:
        return None
    return (code.co_filename.rsplit("/repro/", 1)[1], getattr(code, "co_qualname", code.co_name))


def _every_observer() -> dict:
    """Every observer on, as the ``small_obs`` benchmark workload attaches
    them: registry, head-sampled tracer at rate 1.0, event ring, heartbeat."""
    registry = MetricsRegistry()
    return {
        "metrics": registry,
        "tracer": PacketTracer(policy="head", rate=1.0, capacity=4096, seed=1, metrics=registry),
        "trace": Trace(capacity=65536),
        "heartbeat_ns": 50 * units.US,
    }


@lru_cache(maxsize=4)
def _profiled_run(architecture: str, observed: bool = False):
    """``(transmits, packets, delivered, calls by (file below repro/,
    qualname), total calls, callees by caller)``; cached, so each
    architecture runs once (observed: every observer on, a 50 us window)."""
    profiler = cProfile.Profile()
    if observed:
        config, observers = _config(architecture, measure_us=50), _every_observer()
    else:
        config, observers = _config(architecture), {}
    profiler.enable()
    result = run_experiment(config, **observers)
    profiler.disable()
    calls = {}
    callees = {}
    total = 0
    for entry in profiler.getstats():
        total += entry.callcount
        key = _key(entry.code)
        if key is None:
            continue
        calls[key] = calls.get(key, 0) + entry.callcount
        callees.setdefault(key, set()).update(
            callee for callee in (_key(sub.code) for sub in entry.calls or ()) if callee
        )
    fabric = result.fabric
    transmits = sum(link.packets_carried for link in fabric.links.values())
    packets = sum(host.packets_submitted for host in fabric.hosts)
    delivered = sum(host.packets_received for host in fabric.hosts)
    return transmits, packets, delivered, calls, total, callees


def _calls_per_transmit(architecture: str) -> float:
    transmits, _packets, _delivered, _calls, total, _callees = _profiled_run(architecture)
    assert transmits > 30_000  # enough hops that set-up is a small share of the calls
    return total / transmits


@pytest.mark.parametrize(
    "architecture,ceiling",
    [
        pytest.param("advanced-2vc", 46.8, id="advanced-2vc"),
        pytest.param("traditional-2vc", 50.4, id="traditional-2vc"),
    ],
)
def test_profiler_visible_calls_per_transmit(architecture, ceiling):
    calls = _calls_per_transmit(architecture)
    assert calls <= ceiling, (
        f"{architecture}: {calls:.1f} profiler-visible calls per link transmit, "
        f"ceiling {ceiling}"
    )


@pytest.mark.parametrize("architecture", ["advanced-2vc", "traditional-2vc"])
def test_packet_ends_call_shape(architecture):
    _transmits, packets, delivered, calls, _total, _callees = _profiled_run(architecture)
    messages = calls[("network/host.py", "Host.submit_message")]

    def called(path, *names):
        return sum(calls.get((path, name), 0) for name in names)

    # Source end: one stamp per message, one frame per packet minted.
    assert called("core/deadline.py", "RateBasedStamper.stamp_message") + called(
        "core/deadline.py", "FrameBasedStamper.stamp_message"
    ) == messages
    assert called(
        "core/deadline.py", "DeadlineStamper._advance", "RateBasedStamper.stamp",
        "FrameBasedStamper.stamp", "DeadlineStamper.stamp_message",
    ) == 0
    assert called("network/packet.py", "PacketFactory.mint") == packets
    assert called("network/packet.py", "Packet.__init__") == 0
    # Sink end: the collector's record is the only stats frame per
    # delivered packet (no reservoir fills up in this window).
    recording = {
        name: count
        for (path, name), count in calls.items()
        if path.startswith("stats/") and not name.endswith(("__init__", ".finalize"))
    }
    assert recording == {"MetricsCollector.on_delivery": delivered}
    # Wake-ups: a link's re-poll enters the arbitration or the injection
    # itself, and the arrival is the receiver's accept.
    assert called("network/switch.py", "Switch.pull") == 0
    assert called("network/host.py", "Host.pull", "Host._inject") == 0
    assert called("network/link.py", "Link._deliver", "Link.return_credit") == 0
    assert called("network/fabric.py", "Fabric._dispatch_delivery") == 0


@pytest.mark.parametrize("architecture", ["advanced-2vc", "traditional-2vc"])
def test_arbitration_call_shape(architecture):
    """A head is a field: the switch and the pickers call no queue's
    ``head()``, and credit masking passes a budget, so no ``lambda`` frame
    runs anywhere under the arbitration."""
    *_, callees = _profiled_run(architecture)
    for caller in callees:
        if caller[0] in ("network/switch.py", "core/arbiter.py"):
            heads = {
                callee for callee in callees[caller]
                if callee[0].startswith("core/queues/") and callee[1].endswith(".head")
            }
            assert not heads, f"{caller[1]} calls {sorted(heads)}"
    under = set()
    todo = [("network/switch.py", "Switch._try_output")]
    while todo:
        caller = todo.pop()
        for callee in callees.get(caller, ()):
            if callee not in under:
                under.add(callee)
                todo.append(callee)
    assert ("core/arbiter.py", "EDFPicker.pick" if architecture != "traditional-2vc"
            else "RoundRobinPicker.pick") in under
    assert not [name for _path, name in under if name.endswith("<lambda>")]


@pytest.mark.parametrize("architecture", ["advanced-2vc", "traditional-2vc"])
def test_arbitration_needs_a_backlog(monkeypatch, architecture):
    """``Switch._try_output`` is never entered for an output link whose
    ``backlog`` is 0: a freed link or a returned credit wakes the switch
    only when a VOQ holds a packet for that link."""
    entered = []
    try_output = Switch._try_output

    def spy(self, out_link):
        entered.append(out_link.backlog)
        return try_output(self, out_link)

    # ``accept`` calls ``_try_output``; a link's re-poll calls ``pull``.
    monkeypatch.setattr(Switch, "_try_output", spy)
    monkeypatch.setattr(Switch, "pull", spy)
    run_experiment(_config(architecture, measure_us=50))
    assert len(entered) > 5_000
    assert min(entered) > 0


@pytest.mark.parametrize("architecture", ["advanced-2vc", "traditional-2vc"])
def test_observed_forward_reads_the_front(architecture):
    """With every observer on, ``FabricObserver.forward`` (the order-error
    check per forwarded packet, a function the observer binds in its
    ``__init__``) reads the VOQ's ``front`` and calls nothing in
    ``core/queues/``."""
    *_, callees = _profiled_run(architecture, observed=True)
    forward = ("obs/observer.py", "FabricObserver.__init__.<locals>.forward")
    assert forward in callees, "the observed run forwarded nothing"
    queue_calls = sorted(callee for callee in callees[forward] if callee[0].startswith("core/queues/"))
    assert not queue_calls, f"FabricObserver.forward calls {queue_calls}"


def _modules_holding_queues():
    package = repro.core.queues
    names = [f"{package.__name__}.{info.name}" for info in pkgutil.iter_modules(package.__path__)]
    return [importlib.import_module(name) for name in names + ["repro.network.switch", "repro.analysis.cost"]]


def test_no_queue_defines_a_head_method():
    """A queue's head has one definition, its ``front``: no class in
    ``core/queues/``, ``network/switch.py`` or ``analysis/cost.py``
    defines ``head`` beside it."""
    classes = [
        cls
        for module in _modules_holding_queues()
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    ]
    assert len(classes) >= 8
    assert not [cls.__qualname__ for cls in classes if "head" in vars(cls)]


def test_no_queue_keeps_a_byte_ledger():
    """Buffer space has one ledger, the credits of the link that feeds the
    buffer: no class in ``core/queues/``, ``network/switch.py`` or
    ``analysis/cost.py`` defines or assigns ``used_bytes`` or
    ``capacity_bytes``, and every preset's ``queue_factory`` takes no
    argument (no capacity)."""
    ledger = {"used_bytes", "capacity_bytes"}
    modules = _modules_holding_queues()
    classes = [
        cls
        for module in modules
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    ]
    assert len(classes) >= 8
    assert not [cls.__qualname__ for cls in classes if ledger & set(vars(cls))]
    assigned = [
        f"{module.__name__}:{node.lineno}"
        for module in modules
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Attribute) and node.attr in ledger and isinstance(node.ctx, ast.Store)
    ]
    assert not assigned
    assert len(ARCHITECTURES) >= 5
    takes_arguments = [
        name for name, arch in ARCHITECTURES.items() if inspect.signature(arch.queue_factory).parameters
    ]
    assert not takes_arguments


def test_no_rule_is_restated_beside_its_home():
    """Each model rule has one definition: ``PacketFactory.mint`` is the
    only packet constructor (no ``Packet.__init__``, no module-level uid
    counter), an architecture's queues and pickers come from its two
    factory fields (no forwarding methods), control stamps with
    ``RateBasedStamper`` at the link rate and the eligible-time offset is
    a plain ``FabricParams`` value (no wrapper classes in ``repro.core``)."""
    assert "__init__" not in Packet.__dict__
    assert not [name for name in vars(repro.network.packet) if "uid" in name.lower()]
    assert not {"make_queue", "make_picker"} & set(vars(Architecture))
    assert not {"EligiblePolicy", "ControlStamper"} & {*vars(repro.core), *repro.core.__all__}

"""Layer map: which source file belongs to which layer, and which
function calls the traced run counts.

A layer is a set of source paths under ``src/repro/``.  The traced run
(``cProfile``) gives every function's self time; :func:`reduce_profile`
buckets it by file into the layers below and reads the call counts of
the functions named in :data:`CALL_COUNTS` from the same statistics.
Functions are matched by file and qualified name, so a change that
renames or inlines one moves its count to 0 -- which is the signal a
reader of e.g. ``core.queues.heads_per_grant`` wants.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

#: Exact files first, then directory prefixes; first match wins.  A file
#: of ``repro`` matched by neither (``constants.py``, ``analysis/``) and
#: everything outside ``repro`` (stdlib, builtins such as ``heappush`` or
#: ``deque.append``, the benchmark child itself) is ``other``.
_FILES = {
    "sim/engine.py": "sim.engine",
    "sim/monitor.py": "sim.monitor",
    "core/arbiter.py": "core.arbiter",
    "core/invariants.py": "core.invariants",
    "core/admission.py": "core.admission",
    "network/routing.py": "network.routing",
    "network/topology.py": "network.routing",
    "network/switch.py": "network.switch",
    "network/link.py": "network.link",
    "network/host.py": "network.host",
    "network/packet.py": "network.packet",
}
_PREFIXES = (
    ("sim/", "sim.other"),
    ("core/queues/", "core.queues"),
    ("core/", "core.other"),
    ("network/", "network.fabric"),
    ("traffic/", "traffic"),
    ("stats/", "stats"),
    ("obs/", "obs"),
    ("exec/", "exec"),
    ("experiments/", "experiments"),
)

LAYERS = (
    "sim.engine",
    "sim.monitor",
    "sim.other",
    "core.queues",
    "core.arbiter",
    "core.invariants",
    "core.admission",
    "core.other",
    "network.routing",
    "network.switch",
    "network.link",
    "network.host",
    "network.packet",
    "network.fabric",
    "traffic",
    "stats",
    "obs",
    "exec",
    "experiments",
    "other",
)

_PACKAGE_MARKER = "/src/repro/"


def _relative(filename: str) -> Optional[str]:
    """Path below ``src/repro/``, or None for code outside the package."""
    at = filename.replace("\\", "/").rfind(_PACKAGE_MARKER)
    if at < 0:
        return None
    return filename[at + len(_PACKAGE_MARKER) :]


def layer_of(rel: Optional[str]) -> str:
    """The layer of a path below ``src/repro/`` (None: outside the package)."""
    if rel is None:
        return "other"
    exact = _FILES.get(rel)
    if exact is not None:
        return exact
    for prefix, layer in _PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


#: metric -> (file below src/repro/, qualified names).  A name starting
#: with ``.`` matches any qualified name with that suffix.
CALL_COUNTS = {
    "sim.engine.schedules": (
        "sim/engine.py",
        ("Engine.at", "Engine.after", "Engine.at_cancellable", "Engine.after_cancellable"),
    ),
    # MeteredPicker.pick only forwards to one of these, so it is left out.
    "core.arbiter.picks": ("core/arbiter.py", ("EDFPicker.pick", "RoundRobinPicker.pick")),
    "core.queues.heads": ("core/queues/", (".head",)),
    "core.queues.pushes": ("core/queues/", (".push",)),
    "core.invariants.calls": ("core/invariants.py", ("invariant",)),
    "core.admission.reserves": ("core/admission.py", ("AdmissionController.reserve",)),
    "core.admission.assigns": ("core/admission.py", ("AdmissionController.assign_path",)),
    "network.routing.path_computes": ("network/routing.py", ("compute_updown_paths",)),
    "network.switch.arbitrations": ("network/switch.py", ("Switch._try_output",)),
    "network.host.messages": ("network/host.py", ("Host.submit_message",)),
}

#: metric -> (file, qualified name) whose *cumulative* time is reported.
CUMULATIVE_TIMES = {
    "experiments.topology_s": ("experiments/presets.py", "make_topology"),
    "experiments.fabric_s": ("network/fabric.py", "Fabric.__init__"),
    "experiments.mix_s": ("traffic/mix.py", "build_mix"),
}


def _matches(rel: str, qualname: str, where: str, names: Iterable[str]) -> bool:
    if not (rel == where or (where.endswith("/") and rel.startswith(where))):
        return False
    for name in names:
        if name.startswith("."):
            if qualname.endswith(name):
                return True
        elif qualname == name:
            return True
    return False


def reduce_profile(entries: Iterable[Any]) -> Dict[str, Any]:
    """Reduce ``cProfile.Profile.getstats()`` to layers, counts and times.

    Returns ``{"total_s", "self_s": {layer: s}, "calls": {metric: n},
    "cumulative_s": {metric: s}}``; ``self_s`` sums to ``total_s``.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {metric: 0 for metric in CALL_COUNTS}
    cumulative_s = {metric: 0.0 for metric in CUMULATIVE_TIMES}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a builtin: no file
            self_s["other"] += entry.inlinetime
            continue
        rel = _relative(code.co_filename)
        self_s[layer_of(rel)] += entry.inlinetime
        if rel is None:
            continue
        qualname = getattr(code, "co_qualname", code.co_name)
        for metric, (where, names) in CALL_COUNTS.items():
            if _matches(rel, qualname, where, names):
                calls[metric] += entry.callcount
        for metric, (where, name) in CUMULATIVE_TIMES.items():
            if rel == where and qualname == name:
                cumulative_s[metric] += entry.totaltime
    return {
        "total_s": sum(self_s.values()),
        "self_s": self_s,
        "calls": calls,
        "cumulative_s": cumulative_s,
    }

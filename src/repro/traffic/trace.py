"""Workload trace record & replay.

Two jobs:

1. **Apples-to-apples workloads.**  The paper compares four architectures
   under "the same" traffic; with stochastic generators that is only true
   in distribution.  Recording one run's submissions and replaying the
   trace gives *literally identical* offered traffic to every
   architecture -- the replication tests use this to isolate scheduling
   effects from workload noise.
2. **Real video traces.**  The paper transmits actual MPEG-4 sequences.
   :class:`FrameSizeTrace` loads the standard frame-size-trace format
   (one frame size per line, ``#`` comments -- the layout of the public
   video-trace archives) so users who have such files can drive
   :class:`~repro.traffic.multimedia.VideoStream`-style flows with them
   verbatim; :func:`video_stream_from_trace` wires one up.

Trace files are JSON-lines: a ``{"format", "version"}`` header line, then
one record per submitted message,
``{"t": ns, "src": int, "dst": int, "tclass": str, "bytes": int}``.  Plain
text keeps them diff-able and tool-friendly; gzip transparently supported
by extension.  No flow parameter is recorded, so replay reproduces the
offered messages exactly but not their deadlines (see
:class:`TraceReplaySource`).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, IO, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.flow import FlowKind, FlowState
from repro.network.fabric import Fabric
from repro.sim.rng import local_stream
from repro.traffic.base import TrafficSource

__all__ = [
    "FrameSizeTrace",
    "TraceRecorder",
    "TraceReplaySource",
    "load_trace",
    "video_stream_from_trace",
]

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class TraceRecorder:
    """Records every message submitted to a fabric.

    Install with :meth:`attach` (wraps ``fabric.submit``); write out with
    :meth:`save`, or hand :attr:`records` directly to
    :class:`TraceReplaySource`.
    """

    def __init__(self) -> None:
        #: (time_ns, src, dst, tclass, message_bytes)
        self.records: List[Tuple[int, int, int, str, int]] = []
        self._fabric: Optional[Fabric] = None
        self._original_submit = None

    def attach(self, fabric: Fabric) -> None:
        if self._fabric is not None:
            raise RuntimeError("recorder is already attached")
        self._fabric = fabric
        self._original_submit = fabric.submit

        def recording_submit(flow: FlowState, message_bytes: int) -> None:
            self.records.append(
                (
                    fabric.engine.now,
                    flow.spec.src,
                    flow.spec.dst,
                    flow.spec.tclass,
                    message_bytes,
                )
            )
            self._original_submit(flow, message_bytes)

        fabric.submit = recording_submit  # type: ignore[assignment]

    def detach(self) -> None:
        if self._fabric is not None:
            self._fabric.submit = self._original_submit  # type: ignore[assignment]
            self._fabric = None

    def save(self, path: PathLike) -> None:
        with _open(path, "w") as fh:
            fh.write(json.dumps({"format": "repro-trace", "version": 1}) + "\n")
            for t, src, dst, tclass, nbytes in self.records:
                fh.write(
                    json.dumps(
                        {"t": t, "src": src, "dst": dst, "tclass": tclass, "bytes": nbytes},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def load_trace(path: PathLike) -> List[Tuple[int, int, int, str, int]]:
    """Read a trace file back into (t, src, dst, tclass, bytes) tuples.

    A file that is not a repro trace raises :class:`ValueError` naming the
    file and the line."""
    records: List[Tuple[int, int, int, str, int]] = []
    with _open(path, "r") as fh:
        lineno = 1
        try:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("format") != "repro-trace":
                raise ValueError(f"not a repro trace file (header {header!r})")
            for lineno, line in enumerate(fh, 2):
                rec = json.loads(line)
                records.append((rec["t"], rec["src"], rec["dst"], rec["tclass"], rec["bytes"]))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: record has no {exc} field") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    records.sort(key=lambda r: r[0])
    return records


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class TraceReplaySource(TrafficSource):
    """Replays recorded messages from *one* source host, timestamp-exact.

    The trace holds no flow parameters, so each (destination, class)
    gets a flow with fixed per-class defaults, not the live generators'
    parameters: multimedia a 10 ms frame target (a ``scaled_video_mix``
    at time scale 0.02 uses 200 us), best-effort and background the same
    0.25 B/ns on VC1 (the mix splits their deadline bandwidth 2:1), and
    each control flow a clock of its own (``ControlSource`` shares one
    per host).  Replay thus reproduces the offered messages, not their
    deadlines.  Pass ``flow_params`` to override per class.
    """

    def __init__(
        self,
        fabric: Fabric,
        src: int,
        records: Sequence[Tuple[int, int, int, str, int]],
        *,
        flow_params: Optional[Dict[str, dict]] = None,
    ):
        super().__init__(fabric, src, f"replay@h{src}", local_stream(f"traffic.replay.h{src}"))
        self._records = [r for r in records if r[1] == src]
        self._cursor = 0
        self._flows: Dict[Tuple[int, str], FlowState] = {}
        self._flow_params = flow_params or {}

    def _flow_for(self, dst: int, tclass: str) -> FlowState:
        key = (dst, tclass)
        flow = self._flows.get(key)
        if flow is None:
            params = dict(self._flow_params.get(tclass, {}))
            if not params:
                if tclass == "control":
                    params = {"kind": FlowKind.CONTROL}
                elif tclass == "multimedia":
                    params = {
                        "kind": FlowKind.FRAME,
                        "bw_bytes_per_ns": 0.003,
                        "target_latency_ns": 10_000_000,
                        "smoothing": True,
                    }
                else:
                    params = {"kind": FlowKind.RATE, "bw_bytes_per_ns": 0.25, "vc": 1}
            flow = self.fabric.open_flow(self.src, dst, tclass, **params)
            self._flows[key] = flow
        return flow

    def start(self, at: Optional[int] = None) -> None:
        if not self._records:
            return
        if at is None:
            at = self._records[0][0]
        super().start(max(at, self.engine.now))

    def _emit(self) -> Optional[float]:
        now = self.engine.now
        records = self._records
        while self._cursor < len(records) and records[self._cursor][0] <= now:
            _, _, dst, tclass, nbytes = records[self._cursor]
            self.fabric.submit(self._flow_for(dst, tclass), nbytes)
            self._account(nbytes)
            self._cursor += 1
        if self._cursor >= len(records):
            return None
        return records[self._cursor][0] - now


def replay_all(
    fabric: Fabric,
    records: Sequence[Tuple[int, int, int, str, int]],
    **kwargs,
) -> List[TraceReplaySource]:
    """One replay source per host that appears in the trace."""
    sources = []
    for src in sorted({r[1] for r in records}):
        source = TraceReplaySource(fabric, src, records, **kwargs)
        sources.append(source)
        source.start()
    return sources


# ----------------------------------------------------------------------
# real video frame-size traces
# ----------------------------------------------------------------------
@dataclass
class FrameSizeTrace:
    """Frame sizes of a real video sequence (one size per line format).

    The public video-trace archives distribute MPEG-4 sequences as text
    files with one frame size (bytes or bits) per line; ``#`` starts a
    comment.  ``unit='bits'`` converts on load.
    """

    sizes: Tuple[int, ...]

    @classmethod
    def from_file(cls, path: PathLike, *, unit: str = "bytes") -> "FrameSizeTrace":
        if unit not in ("bytes", "bits"):
            raise ValueError(f"unit must be 'bytes' or 'bits', got {unit!r}")
        sizes: List[int] = []
        with _open(path, "r") as fh:
            for line in fh:
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                # Some archives use "<index> <type> <size>" columns; take
                # the last numeric field.
                value = float(text.split()[-1])
                sizes.append(round(value / 8) if unit == "bits" else round(value))
        if not sizes:
            raise ValueError(f"{path}: no frame sizes found")
        return cls(tuple(sizes))

    @property
    def mean(self) -> float:
        return sum(self.sizes) / len(self.sizes)

    def rate_bytes_per_ns(self, fps: float) -> float:
        """Average bandwidth of the sequence at ``fps`` frames/second."""
        return self.mean * fps / 1e9

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)


class _TraceFrames:
    """Adapter with the GopFrameSizes interface, cycling a real trace."""

    def __init__(self, trace: FrameSizeTrace, start_index: int = 0):
        self._sizes = trace.sizes
        self._index = start_index % len(self._sizes)

    def next_frame(self, _rng) -> int:
        size = self._sizes[self._index]
        self._index = (self._index + 1) % len(self._sizes)
        return size


def video_stream_from_trace(
    fabric: Fabric,
    src: int,
    dst: int,
    trace: FrameSizeTrace,
    *,
    fps: float = 25.0,
    target_latency_ns: int = 10_000_000,
    smoothing: bool = True,
    start_index: int = 0,
    tclass: str = "multimedia",
):
    """A :class:`~repro.traffic.multimedia.VideoStream` that sends the
    real sequence's frames instead of synthetic GoP sizes."""
    from repro.traffic.multimedia import VideoStream

    stream = VideoStream(
        fabric,
        src,
        dst,
        local_stream(f"traffic.video-trace.h{src}.h{dst}", start_index),
        rate_bytes_per_ns=trace.rate_bytes_per_ns(fps),
        fps=fps,
        target_latency_ns=target_latency_ns,
        smoothing=smoothing,
        tclass=tclass,
    )
    stream.frames = _TraceFrames(trace, start_index)  # type: ignore[assignment]
    return stream

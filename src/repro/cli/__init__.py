"""Command-line interface: ``repro-qos`` (or ``python -m repro``).

One module per family of subcommands; its ``register`` builds the parsers
and names each handler with ``set_defaults``:

- :mod:`~repro.cli.run`    -- ``run``: one simulation, per-class QoS
  (``--json``), the observability sinks.
- :mod:`~repro.cli.sweeps` -- ``figure`` (fig2 / fig3 / fig4 as table + CDF
  series, ``--out`` exports), ``claims`` (order-error penalties vs Ideal),
  ``replicate`` (seeds -> means with 95% CIs).
- :mod:`~repro.cli.probes` -- ``cost`` (Section 6), ``utilization`` (hottest
  links, spine fairness), ``profile run|mem`` (the dumps ``lint --profile``
  / ``--memprofile`` rank by), ``list`` (architectures, presets).
- :mod:`~repro.cli.dumps`  -- ``metrics`` (print / diff / validate a ``run
  --metrics-out`` snapshot), ``trace blame|export`` (slack blame, Chrome
  trace from a ``run --trace-spans`` dump).
- :mod:`~repro.cli.lint`   -- ``lint``: simlint (docs/SIMLINT.md).

Every simulating subcommand takes the same flags and gets its points from
one reader, :func:`repro.cli.common.sim_configs`: all of them run the
Table 1 mix with video compressed by ``--time-scale``.

A handler is a generator with one ``yield``.  Everything that can fail on
user input comes before it -- build the configs and the executor, open
every output, load every input -- and :func:`main` reports a failure there
as usage: one line, exit 2, nothing simulated.  After the ``yield`` the
command simulates and prints; an exception there is a bug and stays a
traceback.

Examples::

    repro-qos run --arch advanced-2vc --load 0.8 --topology small
    repro-qos figure fig2 --loads 0.4 0.8 1.0 --topology tiny --out fig2.csv
    repro-qos claims --load 1.0
    repro-qos replicate --arch simple-2vc --seeds 1 2 3 4 5
    repro-qos run --load 1.0 --trace-spans spans.jsonl && \\
        repro-qos trace blame spans.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli import dumps, lint, probes, run, sweeps

__all__ = ["build_parser", "main"]

#: What a handler raises before its ``yield`` for input it cannot use:
#: numbers out of range (``OverflowError``: ``--measure-us inf``), files it
#: cannot open, malformed documents (span record short a field: ``KeyError``).
USAGE_ERRORS = (ValueError, OverflowError, OSError, KeyError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qos",
        description="Deadline-based QoS for high-performance networks (IPPS 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (run, sweeps, probes, dumps, lint):
        module.register(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.handler(args)
    try:
        next(command)
    except USAGE_ERRORS as exc:
        print(f"repro-qos {args.command}: {exc}", file=sys.stderr)
        return 2
    try:
        next(command)
    except StopIteration as done:
        return done.value
    raise AssertionError(f"{args.command} yielded twice")  # pragma: no cover

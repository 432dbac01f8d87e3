"""cProfile helper for the simulator hot path.

Profiles the pinned throughput workloads (``repro.bench.throughput``)
under :mod:`cProfile` and prints a :mod:`pstats` table, so "where does
the hot loop actually spend its time" is one command instead of a
hand-written harness.

Usage::

    python -m repro.bench.profile                    # hot loop
    python -m repro.bench.profile --sort cumtime --limit 40
    python -m repro.bench.profile --invoke           # full invoke path
    python -m repro.bench.profile --out hot.pstats   # for snakeviz etc.

The numbers are wall-clock and machine-dependent — use them to rank
costs, not as a regression bar (that is the throughput gate's job:
``python -m repro.bench.regress --only throughput``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import List, Optional

from .throughput import run_hot_loop_bench, run_invoke_bench

#: pstats sort keys exposed on the CLI.
SORT_KEYS = ("tottime", "cumtime", "ncalls")


def profile_hot_loop(sort: str = "tottime",
                     limit: int = 25,
                     out: Optional[str] = None,
                     stream=None) -> pstats.Stats:
    """Profile the hot-loop bench; print and return stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_hot_loop_bench()
    profiler.disable()
    stream = stream if stream is not None else sys.stdout
    print(f"events={result['events']} "
          f"wall={result['wall_s']:.3f}s "
          f"({result['events_per_sec']:,.0f} ev/s) "
          f"fingerprint={result['fingerprint']}", file=stream)
    stats = pstats.Stats(profiler, stream=stream).sort_stats(sort)
    stats.print_stats(limit)
    if out is not None:
        stats.dump_stats(out)
        print(f"pstats dump written to {out}", file=stream)
    return stats


def profile_invoke(serial: bool = False,
                   sort: str = "tottime",
                   limit: int = 25,
                   out: Optional[str] = None,
                   stream=None) -> pstats.Stats:
    """Profile the full-stack invoke bench; print and return stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_invoke_bench(serial=serial)
    profiler.disable()
    stream = stream if stream is not None else sys.stdout
    print(f"invokes={result['invokes']} batched={result['batched']} "
          f"wall={result['wall_s']:.3f}s "
          f"({result['invokes_per_sec']:,.0f} invokes/s) "
          f"fingerprint={result['fingerprint']}", file=stream)
    stats = pstats.Stats(profiler, stream=stream).sort_stats(sort)
    stats.print_stats(limit)
    if out is not None:
        stats.dump_stats(out)
        print(f"pstats dump written to {out}", file=stream)
    return stats


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 on success."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.profile",
        description=__doc__.split("\n")[0])
    parser.add_argument("--invoke", action="store_true",
                        help="profile the full invoke bench instead of "
                             "the hot loop")
    parser.add_argument("--serial", action="store_true",
                        help="with --invoke: force the serial invoke loop")
    parser.add_argument("--sort", choices=SORT_KEYS, default="tottime",
                        help="pstats sort column (default tottime)")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows to print (default 25)")
    parser.add_argument("--out", default=None,
                        help="also dump binary pstats here")
    args = parser.parse_args(argv)
    if args.limit < 1:
        parser.error("--limit must be >= 1")
    if args.invoke:
        profile_invoke(serial=args.serial, sort=args.sort,
                       limit=args.limit, out=args.out)
    else:
        profile_hot_loop(sort=args.sort, limit=args.limit, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

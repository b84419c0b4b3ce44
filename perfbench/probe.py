"""Core-speed probe: runs beside the worker on the same CPU.

On a shared host the speed of a core moves by up to ±25% within
seconds (other tenants on the sibling hyperthread, memory bandwidth,
frequency), and that moves CPU seconds as much as wall seconds.  This
process times a fixed chunk of interpreter work every ``--every``
seconds on the worker's CPU, so it sees the same slow and fast spells;
``worker.py`` divides each timed section's CPU seconds by the probe's
mean chunk time over that section (see ``worker.slowdown``).

It runs a few per cent of the time, sleeping in between.  It prints
``ready`` once it runs, stops when its stdin closes (the worker ended,
or died) and then prints its samples, one ``<monotonic end> <chunk
CPU seconds>`` line each.

    python3 perfbench/probe.py --cpu 0 --every 0.01
"""

from __future__ import annotations

import argparse
import os
import select
import sys
import time

#: Loop iterations per chunk: about a millisecond of interpreter work.
CHUNK = 8000


def chunk() -> int:
    s = 0
    for i in range(CHUNK):
        s += i * i % 7
    return s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--every", type=float, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    chunk()
    print("ready", flush=True)
    samples = []
    while True:
        t0 = time.process_time()
        chunk()
        samples.append((time.monotonic(), time.process_time() - t0))
        # Readable means EOF: the worker closed our stdin.
        if select.select([sys.stdin], [], [], args.every)[0]:
            break
    sys.stdout.write("".join(f"{t!r} {c!r}\n" for t, c in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())

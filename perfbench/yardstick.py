"""A fixed piece of pure-Python work that measures the host's speed.

The host this benchmark was sized on changes speed by half or more, in
CPU time as in wall time, in spells lasting from seconds to minutes:
back-to-back passes of one workload read 100 and 160 GA generations per
CPU second, and the yardstick took 39 and 24 ms of CPU beside them. The
run loop runs the yardstick after each pass, for about a fifth of the
pass's CPU time, and states its gated figures in the yardstick's terms,
so a change in the host's speed moves both sides of each ratio alike and
cancels, while a change in the program moves only one side.

The yardstick runs in a child process of its own that imports nothing
from the program, so no change to the program can move it. Its mix --
calls, attribute and dict access, small objects, a heap, bytes slicing,
and a little JSON and hashing -- is the simulator's. Run as a script, it
reads a count per line from standard input, runs that many yardsticks
and prints their CPU seconds.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import subprocess
import sys
import time

__all__ = ["NOMINAL_S", "ROUNDS", "Yardstick", "time_yardstick", "yardstick"]

#: Loop rounds in one yardstick.
ROUNDS = 12_000
#: CPU seconds one yardstick takes on the host above in its fast state;
#: ``setup_s`` is stated at this speed.
NOMINAL_S = 0.025


class _Item:
    def __init__(self, key: str, value: int, data: bytes) -> None:
        self.key = key
        self.value = value
        self.data = data

    def weight(self) -> int:
        return self.value * 31 + len(self.data)


def yardstick() -> int:
    """Run the fixed work; returns a checksum of it (always the same)."""
    payload = bytes(range(256)) * 3
    table: dict = {}
    heap: list = []
    total = 0
    for i in range(ROUNDS):
        offset = i % 512
        item = _Item(f"k{i % 97}", i, payload[offset:offset + 64])
        table[item.key] = table.get(item.key, 0) + item.weight()
        heapq.heappush(heap, (item.value % 113, i, item))
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].weight()
        if i % 50 == 0:
            total += len(json.dumps(table)) + hashlib.sha256(item.data).digest()[0]
    return total


def time_yardstick() -> float:
    """CPU seconds one :func:`yardstick` takes, with the collector off."""
    gc.disable()
    start = time.process_time()
    yardstick()
    elapsed = time.process_time() - start
    gc.enable()
    return elapsed


class Yardstick:
    """The child process that times the yardstick on request."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.sample()  # the first run warms the child's caches; not used

    def sample(self, count: int = 1) -> float:
        """CPU seconds of ``count`` yardsticks run back to back, now."""
        self._child.stdin.write(f"{count}\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"the yardstick process exited with {self._child.wait()}")
        return float(line)

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()  # the child exits at end of input
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


if __name__ == "__main__":
    for line in sys.stdin:
        print(repr(sum(time_yardstick() for _ in range(int(line)))), flush=True)

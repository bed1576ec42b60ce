"""A fixed reference load that measures the host's speed, in its own process.

``run.py`` starts this script once per run, on the CPU that runs the passes,
and waits for the line ``ready``.  For every line it then reads on stdin, the
script multiplies a fixed sparse polynomial with Fraction coefficients by
itself and prints the time that took, in seconds.  It stops at end of input.

It imports nothing from krcubic and shares no interpreter, heap or code with
the passes, so a change to the program under test cannot change its time;
only the host's speed does.
"""

import sys
import time
from fractions import Fraction

P = {(i, j, i * j % 3): Fraction(7 * i - 3 * j + 1, j + 2) for i in range(5) for j in range(4)}


def square() -> float:
    """Time one product of a 20-term polynomial in three variables with
    itself (about 1.3 ms on an unloaded host)."""
    start = time.perf_counter()
    product: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, c), x in P.items():
        for (d, e, f), y in P.items():
            key = (a + d, b + e, c + f)
            value = product.get(key, 0) + x * y
            if value:
                product[key] = value
            else:
                product.pop(key, None)
    return time.perf_counter() - start


print("ready", flush=True)
for _ in sys.stdin:
    print(square(), flush=True)

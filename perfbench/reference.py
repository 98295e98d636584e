"""Fixed reference job: the yardstick the CLI jobs' times are divided by.

    python3 perfbench/reference.py

It imports nothing from the package, so no change to the package changes
its time; only the machine does.  Like a CLI job, it is a fresh
interpreter doing exact sparse elimination in pure Python: integer rows
held as dicts, reduced modulo a prime.  It takes about a quarter of a
second, prints nothing, and fails (with a traceback) if its result is
wrong.
"""

import random

N = 700
rng = random.Random(1)
p = 2**31 - 1
rows = [{j: rng.randrange(1, 7)
         for j in rng.sample(range(i, min(N, i + 40)), min(6, N - i))}
        for i in range(N)]
pivots = {}
for r in rows:
    while r:
        c = min(r)
        if c not in pivots:
            pivots[c] = r
            break
        q = pivots[c]
        f = r[c] * pow(q[c], -1, p) % p
        for j, v in q.items():
            w = (r.get(j, 0) - f * v) % p
            if w:
                r[j] = w
            else:
                r.pop(j, None)
assert len(pivots) == 686, len(pivots)

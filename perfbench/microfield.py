"""Untraced field micro-timing: ``microfield.py SEED`` prints one JSON object.

* ``field.<op>.ns``: nanoseconds per call of FieldSpec.add_i / mul_i /
  frob_i / inv_i over a seeded operand stream spanning GF(4), GF(9) and
  GF(25), loop overhead subtracted; median of several repeats.
* ``field.build_s``: seconds to construct FieldSpec for every order from 4
  to 81 (uncached), median of several repeats.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from gqt.field import FieldSpec

CALLS_PER_FIELD = 20000
REPEATS = 7
BUILD_ORDERS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4)]


def _ns_per_call(fn, operands: list, arity: int) -> float:
    perf = time.perf_counter_ns
    t0 = perf()
    if arity == 2:
        for a, b in operands:
            fn(a, b)
    else:
        for a, _ in operands:
            fn(a)
    t1 = perf()
    if arity == 2:
        for a, b in operands:
            pass
    else:
        for a, _ in operands:
            pass
    t2 = perf()
    return ((t1 - t0) - (t2 - t1)) / len(operands)


def main() -> None:
    rng = random.Random(int(sys.argv[1]))
    specs = [FieldSpec(p, 2) for p in (2, 3, 5)]
    streams = [
        (spec, [(rng.randrange(1, spec.order), rng.randrange(1, spec.order)) for _ in range(CALLS_PER_FIELD)])
        for spec in specs
    ]
    out = {}
    for op, arity in (("add_i", 2), ("mul_i", 2), ("frob_i", 1), ("inv_i", 1)):
        per_repeat = []
        for _ in range(REPEATS):
            ns = [_ns_per_call(getattr(spec, op), operands, arity) for spec, operands in streams]
            per_repeat.append(sum(ns) / len(ns))
        out[f"field.{op}.ns"] = statistics.median(per_repeat)
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        for p, k in BUILD_ORDERS:
            FieldSpec(p, k)
        builds.append(time.perf_counter() - t0)
    out["field.build_s"] = statistics.median(builds)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

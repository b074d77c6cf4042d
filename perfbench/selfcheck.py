"""The benchmark's own checks: ``python3 perfbench/selfcheck.py [--workloads W ...]``.

Run from the root of a gqt checkout.  Exits non-zero on the first failure.

1. Every oracle accepts a genuine job output and rejects each corrupted
   copy of it.
2. ``BENCHMARK.json`` names exactly the workloads and metrics run.py emits.
3. Two traced runs (``run.py --trace 1``) with the same seed report
   identical ``.calls`` counts, for each workload named.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Job, JobResult  # noqa: E402

ORACLE_FAILURES = (oracle.OracleError, KeyError, TypeError, ValueError)


def _json_edit(edit):
    def corrupt(stdout: str) -> str:
        doc = json.loads(stdout)
        edit(doc)
        return json.dumps(doc, indent=2)
    return corrupt


def _flip(coeffs: list, p: int) -> list:
    return [(coeffs[0] + 1) % p] + coeffs[1:]


def _drop_point(doc):
    doc["points"].pop()
    doc["num_points"] -= 1


def _move_point(doc):
    doc["points"][3][2] = _flip(doc["points"][3][2], doc["field"]["p"])


def _drop_line(doc):
    doc["lines"].pop()
    doc["num_lines"] -= 1


def _csv_drop_row(stdout: str) -> str:
    lines = stdout.splitlines(keepends=True)
    return "".join(lines[:5] + lines[6:])


def _csv_move_point(stdout: str) -> str:
    lines = stdout.splitlines(keepends=True)
    lines[4] = lines[4].replace('"1,0', '"0,1', 1) if '"1,0' in lines[4] else lines[4].replace('"0,1', '"1,0', 1)
    return "".join(lines)


def _set(path: list, value):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return _json_edit(edit)


def _add_mismatch(doc):
    doc["witnesses"].append({"state": [[1, 0], [0, 0], [0, 0], [0, 0]], "failure": "Mismatch"})
    doc["successes"] -= 1
    doc["degenerate_count"] += 1


def _shift_count(doc):
    doc["counts"]["Independent"] -= 1
    doc["counts"]["ZeroState"] += 1


CORRUPTIONS = {
    "enumerate": [_json_edit(_drop_point), _json_edit(_move_point), _json_edit(_drop_line),
                  _set(["field", "modulus"], lambda m: [(m[0] + 1) % 2] + m[1:])],
    "enumerate_csv": [_csv_drop_row, _csv_move_point],
    "verify": [_set(["unitary_escapes"], 1), _set(["one_or_all", "passed"], False),
               _set(["point_degrees"], lambda d: [d[0] + 1]),
               _set(["one_or_all", "pairs_checked"], lambda n: n + 1)],
    "roundtrip": [_set(["successes"], lambda n: n - 1), _json_edit(_add_mismatch)],
    "teleport": [_set(["final_state"], lambda s: [s[1], s[0]] if s[0] != s[1] else [s[0], [1, 1]])],
    "sdc": [_set(["classical_message"], lambda m: "11" if m != "11" else "00")],
    "field": [_set(["analysis", "norm", "coeffs"], lambda c: _flip(c, 3)),
              _set(["analysis", "conjugate", "coeffs"], lambda c: [c[0], (c[1] + 1) % 3])],
    "theory": [_set(["subfield_order"], 9), _set(["field", "modulus"], [2, 0, 1])],
    "scan": [_json_edit(_shift_count)],
    "geocode_encode": [_set(["transmitted_ok"], False),
                       _set(["ciphertext", "points", 0, 0], lambda c: _flip(c, 2))],
    "geocode_decode": [_set(["recovered_point", 1], lambda c: _flip(c, 2))],
}


def genuine_outputs(client: "run.Client") -> list:
    """(job, result) for a cli-mix rotation that includes decode, plus CSV and roundtrip jobs."""
    F2 = oracle.RefField(2, 2)
    extra = [
        Job("enumerate_csv", ["kernel", "enumerate", "--p", "2", "--csv", "--deterministic"],
            lambda res: oracle.check_enumerate_csv(res.stdout, F2)),
        Job("roundtrip", ["geocode", "roundtrip", "--p", "2", "--trials", "40", "--seed", "3", "--deterministic"],
            lambda res: oracle.check_roundtrip(res.stdout, F2, 40)),
    ]
    for seed in range(20):
        pairs = []
        rotation = WORKLOADS["cli-mix"].rotation(random.Random(seed))
        try:
            job = next(rotation)
            while True:
                res = client.run_job(job)
                pairs.append((job, res))
                job = rotation.send(res)
        except StopIteration:
            pass
        if any(job.kind == "geocode_decode" for job, _ in pairs):
            return pairs + [(job, client.run_job(job)) for job in extra]
    raise SystemExit("no cli-mix seed below 20 produced a decodable state")


def check_oracles() -> None:
    client = run.Client(run.Launcher())
    try:
        pairs = genuine_outputs(client)
    finally:
        client.launcher.close()
    failures = [r for r in client.records if r["failure"]]
    if failures:
        raise SystemExit(f"genuine output rejected: {failures[0]}")
    rejected = 0
    for job, res in pairs:
        for corrupt in CORRUPTIONS[job.kind]:
            bad = JobResult(res.wall_s, res.rss_kb, res.exit_code, corrupt(res.stdout), res.stderr)
            if bad.stdout == res.stdout:
                raise SystemExit(f"corruption {corrupt.__name__} left {job.key} unchanged")
            try:
                job.check(bad)
            except ORACLE_FAILURES:
                rejected += 1
                continue
            raise SystemExit(f"oracle for {job.kind} accepted a corrupted output ({job.key})")
    kinds = {job.kind for job, _ in pairs}
    if kinds != set(CORRUPTIONS):
        raise SystemExit(f"job kinds without a corruption test: {set(CORRUPTIONS) ^ kinds}")
    print(f"oracles: {len(pairs)} genuine outputs accepted, {rejected} corrupted copies rejected")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if names != set(WORKLOADS) or e2e != run.END_TO_END or layers != run.PER_LAYER:
        raise SystemExit("BENCHMARK.json disagrees with the workloads or metrics run.py emits")
    print(f"BENCHMARK.json: {len(names)} workloads, {len(e2e)} end-to-end and {len(layers)} per-layer metrics")


def traced_calls(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"], capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run of {workload} was not correct:\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    run.OUT_DIR.mkdir(exist_ok=True)
    check_oracles()
    check_benchmark_json()
    for workload in args.workloads:
        first, second = traced_calls(workload, args.seed), traced_calls(workload, args.seed)
        if first != second:
            diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
            raise SystemExit(f"{workload}: .calls counts differ between two traced runs: {diff}")
        print(f"{workload}: {len(first)} .calls counts identical across two traced runs")
    print("selfcheck passed")


if __name__ == "__main__":
    main()

"""gqt benchmark: closed-loop CLI jobs with oracle checks, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; jobs import gqt from ``src/``.

``--trace 0`` (end-to-end): one client runs the workload's rotation of
``python -m gqt.cli`` jobs one at a time, each in a fresh subprocess, for
about S seconds in whole rotations, and checks every output against
``oracle``.  ``setup_s`` is timed in separate fresh interpreters, five
before the jobs and one after each rotation.  ``job_rel.p50`` is the median
over jobs of the job's wall time divided by the mean wall time of
``reference.py`` timed just before and just after it, which cancels most of
the host's speed drift (see reference.py).  Raw wall times, the tail and
per-kind medians are printed and kept in the results file.

``--trace 1`` (per layer): one untraced pass of the rotation, then the same
jobs under ``tracer.py``; both must print byte-identical output.  A
workload's own jobs do not reach every layer, so every workload except
cli-mix also traces one cli-mix rotation (which reaches them all) and adds
it to the per-layer figures.  The cli-mix rotation is then traced a second
time and its call counts must repeat exactly.  Field micro-timing runs
untraced in its own interpreter.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Per-job detail (digests, per-kind medians, run metadata) goes to
``.bench_results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_results"
JOB_TIMEOUT_S = 150  # seconds; a job killed at this limit counts as failed
SETUP_REPEATS = 5
REFERENCE_EVERY_S = 2.0  # untraced runs time reference.py at least this often
INTERPRETER_REPEATS = 5

sys.path.insert(0, str(HERE))
from oracle import OracleError  # noqa: E402
from workloads import WORKLOADS, Job, JobResult  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("job_rel.p50", "ratio"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit); values come from layer_metrics()
PER_LAYER = (
    [(f"field.{op}.calls", "count") for op in ("add_i", "mul_i", "pow_i", "frob_i", "inv_i")]
    + [("field.spec_eq.calls", "count"), ("field.parse.calls", "count"), ("field.element_new.calls", "count"),
       ("field.self_s", "s"), ("field.build_s", "s")]
    + [(f"field.{op}.ns", "ns") for op in ("add_i", "mul_i", "frob_i", "inv_i")]
    + [("linalg.vector_new.calls", "count"), ("linalg.matrix_new.calls", "count")]
    + [(f"linalg.{s}.{m}", u) for s in ("evaluate", "matmul", "tensor", "rref", "random_unitary")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("kernel.enumerate_kernel.calls", "count"), ("kernel.enumerate_kernel.s", "s"),
       ("kernel.enumerate_kernel.self_s", "s"), ("kernel.projective_point.calls", "count"),
       ("kernel.lines_per_span", "ratio"), ("kernel.points_per_ray", "ratio"),
       ("kernel.verify_one_or_all.s", "s"), ("kernel.hermitian_curve.s", "s"), ("kernel.polar_point.s", "s")]
    + [("protocols.sdc_encode.calls", "count"), ("protocols.sdc_encode.self_s", "s"),
       ("protocols.sdc_decode.calls", "count"), ("protocols.sdc_decode.self_s", "s"),
       ("protocols.bell_basis.calls", "count"), ("protocols.teleport.s", "s")]
    + [("geocode.agree_parameters.s", "s")]
    + [(f"geocode.{s}.ms_per_state", "ms") for s in ("geo_encode", "geo_transmit", "geo_decode")]
    + [("geocode.degenerate_ratio", "ratio")]
    + [("nogo.classify.calls", "count"), ("nogo.classify.self_s", "s"), ("nogo.f2_special_case.s", "s")]
    + [("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("cli.parse_s", "s"), ("cli.run.self_s", "s"),
       ("cli.emit_s", "s")]
)


# --- subprocesses ---------------------------------------------------------------

class Launcher:
    """Client side of launcher.py: spawns jobs from a process with a small RSS."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "launcher.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, cmd: list) -> JobResult:
        """Run cmd to completion; wall time from spawn to exit, max RSS via wait4."""
        out_path, err_path = OUT_DIR / "job.stdout", OUT_DIR / "job.stderr"
        req = {"argv": cmd, "env": self.env, "stdout": str(out_path), "stderr": str(err_path),
               "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return JobResult(reply["wall_s"], reply["maxrss_kb"], reply["exit_code"],
                         out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        for path in (OUT_DIR / "job.stdout", OUT_DIR / "job.stderr"):
            path.unlink(missing_ok=True)


# --- jobs ---------------------------------------------------------------------------

class Client:
    """Runs jobs one at a time and keeps a record of each."""

    def __init__(self, launcher: Launcher, reference_every_s: float = None):
        self.launcher = launcher
        self.records: list = []
        self.digests: dict = {}
        self.reference_every_s = reference_every_s
        self.references: list = []  # (perf_counter at start, wall seconds) of reference.py

    def time_reference(self, force: bool = False) -> None:
        """Run reference.py if forced or if its latest timing is stale."""
        now = time.perf_counter()
        if force or not self.references or now - self.references[-1][0] >= self.reference_every_s:
            res = self.launcher.spawn([sys.executable, str(HERE / "reference.py")])
            if res.exit_code != 0:
                raise RuntimeError(f"reference.py failed: {res.stderr.strip()}")
            self.references.append((now, res.wall_s))

    def run_job(self, job: Job, trace_path: Path = None) -> JobResult:
        if trace_path is None:
            cmd = [sys.executable, "-m", "gqt.cli", *job.argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *job.argv]
        if self.reference_every_s:
            self.time_reference()
        res = self.launcher.spawn(cmd)
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        reason = None
        if "Traceback" in res.stderr:
            reason = "traceback: " + res.stderr.strip().splitlines()[-1]
        elif res.exit_code not in job.ok_exits:
            reason = f"exit code {res.exit_code}"
        elif self.digests.setdefault(job.key, digest) != digest:
            reason = "output differs from an earlier run of the same argv"
        else:
            try:
                job.check(res)
            except (OracleError, KeyError, TypeError, ValueError) as exc:
                reason = f"oracle: {type(exc).__name__}: {exc}"
        self.records.append({
            "kind": job.kind, "argv": job.argv, "traced": trace_path is not None,
            "wall_s": res.wall_s, "reference": len(self.references) - 1, "rss_kb": res.rss_kb, "exit_code": res.exit_code,
            "sha256": digest, "rate": job.rate, "failure": reason,
        })
        return res

    def run_rotation(self, rotation, trace_dir: Path = None) -> list:
        """Run one rotation; returns its records (with per-job traces when traced)."""
        first = len(self.records)
        try:
            job = next(rotation)
            while True:
                trace_path = None if trace_dir is None else trace_dir / f"trace-{len(self.records)}.json"
                res = self.run_job(job, trace_path)
                if trace_path is not None:
                    self.records[-1]["trace"] = summarize_trace(trace_path)
                job = rotation.send(res)
        except StopIteration:
            pass
        return self.records[first:]


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def job_figures(records: list) -> dict:
    """Per-kind medians and throughput, as named in the results file."""
    by_kind: dict = {}
    rates: dict = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["wall_s"])
        if r["rate"]:
            name, items = r["rate"]
            rates.setdefault(name, []).append(items / r["wall_s"])
    out = {f"{k}_s.p50": {"value": statistics.median(v), "unit": "s", "samples": len(v)}
           for k, v in sorted(by_kind.items())}
    out.update({k: {"value": statistics.median(v), "unit": "1/s", "samples": len(v)} for k, v in rates.items()})
    return out


# --- runs ------------------------------------------------------------------------------

def run_untraced(client: Client, workload, seed: int, seconds: float) -> tuple:
    setup_cmd = [sys.executable, "-c", workload.setup]
    setup = [client.launcher.spawn(setup_cmd) for _ in range(SETUP_REPEATS)]
    rng = random.Random(seed)
    start = time.perf_counter()
    last = 0.0
    # Whole rotations, stopping where the run ends closest to the budget.
    # One more set-up sample after each rotation spreads set-up timing over
    # the run instead of one moment of the host's varying speed.
    while not client.records or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        client.run_rotation(workload.rotation(rng))
        setup.append(client.launcher.spawn(setup_cmd))
        last = time.perf_counter() - t0
    client.time_reference(force=True)
    refs = [w for _, w in client.references]
    # each job against the mean of the reference timings just before and after it
    rel = [r["wall_s"] * 2 / (refs[r["reference"]] + refs[r["reference"] + 1]) for r in client.records]
    walls = [r["wall_s"] for r in client.records]
    metrics = {
        "setup_s": statistics.median(r.wall_s for r in setup),
        "job_rel.p50": statistics.median(rel),
        "peak_rss_mb": max(r["rss_kb"] for r in client.records) / 1024,
    }
    figures = {
        "job_s.p50": {"value": statistics.median(walls), "unit": "s", "samples": len(walls)},
        "job_s.p90": {"value": percentile(walls, 90), "unit": "s", "samples": len(walls)},
        "reference_s.p50": {"value": statistics.median(refs), "unit": "s", "samples": len(refs)},
    }
    figures.update(job_figures(client.records))
    extra = {"jobs": len(walls), "setup_samples": len(setup), "figures": figures}
    setup_ok = all(r.exit_code == 0 for r in setup)
    return metrics, extra, [] if setup_ok else ["set-up interpreter failed"]


def _add_span(table: dict, name: str, calls: int, ns: int, self_ns: int, errors: dict) -> None:
    agg = table.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "errors": {}})
    agg["calls"] += calls
    agg["ns"] += ns
    agg["self_ns"] += self_ns
    for err, n in errors.items():
        agg["errors"][err] = agg["errors"].get(err, 0) + n


def summarize_trace(path: Path) -> dict:
    """Per-span-name calls, total and self time; counts; field time."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    finally:
        path.unlink(missing_ok=True)
    names = doc["names"]
    spans: dict = {}
    field_ns = doc["top_field_ns"]
    for nid, start, end, _parent, self_ns, f_ns, error in doc["spans"]:
        _add_span(spans, names[nid], 1, end - start, self_ns, {error: 1} if error else {})
        field_ns += f_ns
    return {"spans": spans, "counts": doc["counts"], "field_ns": field_ns,
            "import_ns": doc["import_ns"], "kernel_shape": doc["kernel_shape"]}


def call_counts(trace: dict) -> dict:
    counts = dict(trace.get("counts", {}))
    counts.update({f"span:{k}": v["calls"] for k, v in trace.get("spans", {}).items()})
    return counts


def layer_metrics(traces: list, micro: dict, interpreter_s: float) -> dict:
    spans: dict = {}
    counts: dict = {}
    shape = {"points": 0, "lines": 0, "collinear_pairs": 0}
    field_ns = 0
    for t in traces:
        for name, agg in t["spans"].items():
            _add_span(spans, name, agg["calls"], agg["ns"], agg["self_ns"], agg["errors"])
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for key in shape:
            shape[key] += t["kernel_shape"][key]
        field_ns += t["field_ns"]

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "errors": {}})

    def per_state_ms(name: str) -> float:
        s = span(name)
        return s["ns"] / s["calls"] / 1e6 if s["calls"] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for op in ("add_i", "mul_i", "pow_i", "frob_i", "inv_i", "spec_eq", "parse", "element_new"):
        out[f"field.{op}.calls"] = counts.get(f"field.{op}", 0)
    out["field.self_s"] = field_ns / 1e9
    out.update(micro)
    for name in ("linalg.vector_new", "linalg.matrix_new", "kernel.projective_point"):
        out[f"{name}.calls"] = counts.get(name, 0)
    for name in ("linalg.evaluate", "linalg.matmul", "linalg.tensor", "linalg.rref", "linalg.random_unitary",
                 "kernel.enumerate_kernel", "protocols.sdc_encode", "protocols.sdc_decode",
                 "protocols.bell_basis", "nogo.classify"):
        out[f"{name}.calls"] = span(name)["calls"]
        out[f"{name}.self_s"] = span(name)["self_ns"] / 1e9
    for name in ("kernel.enumerate_kernel", "kernel.verify_one_or_all", "kernel.hermitian_curve",
                 "kernel.polar_point", "protocols.teleport", "geocode.agree_parameters", "nogo.f2_special_case"):
        out[f"{name}.s"] = span(name)["ns"] / 1e9
    out["kernel.lines_per_span"] = ratio(shape["lines"], shape["collinear_pairs"])
    out["kernel.points_per_ray"] = ratio(shape["points"], counts.get("kernel.ray", 0))
    for name in ("geo_encode", "geo_transmit", "geo_decode"):
        out[f"geocode.{name}.ms_per_state"] = per_state_ms(f"geocode.{name}")
    encode = span("geocode.geo_encode")
    out["geocode.degenerate_ratio"] = ratio(encode["errors"].get("DegenerateSpanError", 0), encode["calls"])
    out["cli.interpreter_s"] = interpreter_s
    out["cli.import_s"] = statistics.median(t["import_ns"] for t in traces) / 1e9
    out["cli.parse_s"] = span("cli.parse")["ns"] / 1e9
    out["cli.run.self_s"] = span("cli.run")["self_ns"] / 1e9
    out["cli.emit_s"] = span("cli.emit")["ns"] / 1e9
    return {name: out[name] for name, _ in PER_LAYER}


def run_traced(client: Client, workload, seed: int) -> tuple:
    problems = []
    untraced = client.run_rotation(workload.rotation(random.Random(seed)))
    traced = client.run_rotation(workload.rotation(random.Random(seed)), OUT_DIR)
    if [r["sha256"] for r in untraced] != [r["sha256"] for r in traced]:
        problems.append("traced output differs from untraced output")
    cli_mix = traced
    if workload.name != "cli-mix":  # the only rotation that reaches every layer
        cli_mix = client.run_rotation(WORKLOADS["cli-mix"].rotation(random.Random(seed)), OUT_DIR)
    repeat = client.run_rotation(WORKLOADS["cli-mix"].rotation(random.Random(seed)), OUT_DIR)
    if [call_counts(r["trace"]) for r in cli_mix] != [call_counts(r["trace"]) for r in repeat]:
        problems.append("call counts differ between two traced runs of the same seed")
    layer_records = traced if cli_mix is traced else traced + cli_mix

    micro_run = client.launcher.spawn([sys.executable, str(HERE / "microfield.py"), str(seed)])
    try:
        micro = json.loads(micro_run.stdout)
    except ValueError:
        micro = {}
    if micro_run.exit_code != 0 or not micro:
        problems.append("field micro-timing failed")
    bare = [client.launcher.spawn([sys.executable, "-c", "pass"]) for _ in range(INTERPRETER_REPEATS)]
    if any(r.exit_code != 0 for r in bare):
        problems.append("bare interpreter failed")
    if not all(r["trace"] for r in layer_records):
        problems.append("a traced job wrote no trace")
    metrics = {}
    if not problems:
        metrics = layer_metrics([r["trace"] for r in layer_records], micro,
                                statistics.median(r.wall_s for r in bare))
    extra = {"tracing_overhead_s": sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in untraced),
             "untraced_s": sum(r["wall_s"] for r in untraced),
             "per_job_calls": [{"argv": r["argv"], "calls": call_counts(r["trace"])} for r in layer_records]}
    return metrics, extra, problems


# --- entry point -----------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gqt" / "cli.py").is_file():
        print(f"gqt sources not found under {ROOT / 'src'}; run from the root of a gqt checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "git_commit": git_commit(), "loadavg_before": os.getloadavg(),
    }
    client = Client(Launcher(), None if args.trace else REFERENCE_EVERY_S)
    try:
        if args.trace:
            values, extra, problems = run_traced(client, workload, args.seed)
            units = PER_LAYER
        else:
            values, extra, problems = run_untraced(client, workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        client.launcher.close()
    meta["loadavg_after"] = os.getloadavg()

    failed = [r for r in client.records if r["failure"]]
    attempted = len(client.records)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units if name in values}
    correct = not failed and not problems and len(metrics) == len(units)
    results = {"meta": meta, "metrics": metrics, "extra": extra, "problems": problems,
               "fail_ratio": len(failed) / attempted, "jobs": client.records}
    results_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1, default=str))

    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    for name, fig in extra.get("figures", {}).items():
        print(f"{name} = {fig['value']} {fig['unit']} (n={fig['samples']})")
    if "tracing_overhead_s" in extra:
        print(f"tracing overhead = {extra['tracing_overhead_s']:.3f} s over {extra['untraced_s']:.3f} s untraced")
    print(f"fail_ratio = {len(failed)}/{attempted}")
    for r in failed:
        print(f"FAILED {' '.join(r['argv'])}: {r['failure']}")
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed) + len(problems),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

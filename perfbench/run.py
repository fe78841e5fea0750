"""traceweight benchmark: the `brute`, `sweep` and `setup` workloads.

    python3 perfbench/run.py --workload brute --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each workload is a closed loop with one client: cases run back to back,
each in a fresh interpreter (so no exp/log table, field or plan cache
built by an earlier case speeds up a later one), with at most 2 engine
workers and BLAS threads pinned to 1.  verify, witness and refusal cases
run `python -m traceweight.cli` as a user would; the set-up grid and the
exponential sums run perfbench/probe.py, which calls the modules' public
functions.  Every output is checked (workloads.py).

--trace 0 measures the end-to-end metrics.  A pass over the cases is
repeated while it fits in --seconds (at least once) and each metric is
the median over passes.  --trace 1 makes one untraced pass, the same pass
with spans recorded around the calls into each layer (tracer.py), and the
1-worker baseline for engine.speedup_2w; it reports the per-layer
metrics and writes every span to .perfbench-out/.

Stdout ends with one JSON line: correct, attempted, failed, metrics.
The exit status is 0 only when every output was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer
import workloads
from workloads import Case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
RUN_LIMIT_S = 165.0   # no case starts, and none runs on, past this point of a run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "oracle_s": "s", "forms_per_s": "1/s",
             "refusal_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    case: Case
    start: float
    end: float
    rc: int
    doc: dict            # the CLI report, or the probe's result
    probe: dict | None   # the whole probe record (spans, counts, clock marks)
    error: str | None

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.outcomes: list[Outcome] = []
        self.timeouts = 0   # passes cut short by the run's time limit
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update({var: "1" for var in THREAD_VARS})
        self.env = env

    def run(self, case: Case, trace: bool = False) -> Outcome:
        probe_only = case.kind in ("grid", "expsum")   # no CLI command does these
        probe = trace or probe_only
        if probe:
            mode = list(case.argv) if probe_only else ["cli", *case.argv]
            argv = [sys.executable, str(HERE / "probe.py")] + (["--trace"] if trace else []) + mode
        else:
            argv = [sys.executable, "-m", "traceweight.cli", *case.argv]
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - start))
            timed_out = False
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            timed_out = True
        end = time.monotonic()
        rc, doc, record, error = proc.returncode, {}, None, None
        try:
            if probe:
                record = json.loads(out.strip().splitlines()[-1])
                doc = record["result"]
                if not probe_only:
                    rc = doc["rc"]
                    doc = json.loads(doc["stdout"])
            else:
                doc = json.loads(out)
        except (ValueError, IndexError, KeyError):
            error = f"unreadable output (exit {proc.returncode}): {err.strip()[-300:]}"
        if timed_out:
            error = "killed at the run's time limit"
        if error is None:
            error = workloads.CHECKS[case.kind](case, rc, doc)
        outcome = Outcome(case, start, end, rc, doc, record, error)
        self.outcomes.append(outcome)
        status = "ok" if error is None else f"FAILED: {error}"
        print(f"  {case.name:<44} {outcome.wall:8.3f} s  {'traced ' if trace else ''}{status}",
              flush=True)
        return outcome

    def run_pass(self, cases: list[Case], trace: bool = False):
        start = time.monotonic()
        outs = []
        for case in cases:
            if time.monotonic() >= self.deadline:
                raise TimeoutError("run time limit reached before the pass ended")
            outs.append(self.run(case, trace))
        return time.monotonic() - start, outs


# ---------------------------------------------------------------------------
# end-to-end metrics


def _median(values):
    return statistics.median(values) if values else None


def pass_figures(workload: str, wall: float, outs: list[Outcome]) -> dict:
    """The metrics one pass gives; the setup_s samples are pooled per run."""
    good = [o for o in outs if o.error is None]
    refusals = [o.wall for o in good if o.case.kind == "refusal"]
    fig = {"wall_s": wall, "refusal_s": sum(refusals) / len(refusals) if refusals else None}
    if workload == "setup":
        # sums, not medians: the machine's speed flips between a fast and a
        # slow state, and the median of a few samples jumps between the two
        grid = [o.doc["setup_s"] for o in good if o.case.kind == "grid"]
        fig["setup_samples"] = [sum(grid)] if grid else []
        expsum = [o.doc["expsum_s"] for o in good if o.case.kind == "expsum"]
        if expsum:
            fig["oracle_s"] = sum(expsum) / len(expsum)
            fig["forms_per_s"] = workloads.EXPSUM_FORMS * len(expsum) / sum(expsum)
    else:
        verify = [o for o in good if o.case.kind == "verify"]
        oracle = sum(o.doc["runtime_seconds"] for o in verify)
        fig["setup_samples"] = [o.wall - o.doc["runtime_seconds"] for o in verify]
        if verify and oracle > 0:
            fig["oracle_s"] = oracle
            fig["forms_per_s"] = sum(o.case.forms for o in verify) / oracle
    return fig


def end_to_end(passes: list[dict]) -> dict:
    metrics = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "setup_s": _median([s for p in passes for s in p["setup_samples"]]),
    }
    for name in ("oracle_s", "forms_per_s", "refusal_s"):
        metrics[name] = _median([p[name] for p in passes if p.get(name) is not None])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {name: value for name, value in metrics.items() if value is not None}


def ns_per_model_op(outs: list[Outcome]) -> dict:
    """Oracle seconds per unit of the budget model (brute_work or
    rank_sweep_work, the report's work_count), per q class, in ns."""
    time_by_q: dict[int, float] = {}
    work_by_q: dict[int, int] = {}
    for o in outs:
        if o.case.kind == "verify" and o.error is None:
            time_by_q[o.case.q] = time_by_q.get(o.case.q, 0.0) + o.doc["runtime_seconds"]
            work_by_q[o.case.q] = work_by_q.get(o.case.q, 0) + o.doc["work_count"]
    return {f"engine.ns_per_model_op.q{q}":
            1e9 * time_by_q[q] / work_by_q[q] if work_by_q.get(q) else 0.0
            for q in (2, 3, 4)}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass


def case_spans(o: Outcome) -> list[list]:
    """The probe's spans plus interpreter start-up and exit, measured from
    the parent's spawn and reap times on the same monotonic clock."""
    rec = o.probe
    spans = [["python.startup", o.start, rec["t_start"], -1]]
    spans += [[name, s, e, parent + 1 if parent >= 0 else -1]
              for name, s, e, parent in rec["spans"]]
    spans.append(["python.exit", rec["t_end"], o.end, -1])
    return spans


def per_layer(traced_wall: float, untraced_wall: float, traced: list[Outcome],
              untraced: list[Outcome], speedup: list[Outcome]) -> tuple[dict, list]:
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    coverage = []
    overhead = 0.0
    matches = sweep_forms = 0
    for o in traced:
        if o.error is not None:
            continue
        spans = case_spans(o)
        own = tracer.self_times(spans)
        for name, value in own.items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, *_ in spans:
            calls[name] = calls.get(name, 0) + 1
        for name, value in o.probe["counts"].items():
            counts[name] = counts.get(name, 0) + value
        if o.case.kind in ("verify", "refusal"):
            overhead += o.wall - tracer.totals(spans).get("engine.verify", 0.0)
        coverage.append((o.case.name, o.wall, sum(own.values())))
        if o.case.kind == "verify":
            if o.doc["oracle_kind"] == "brute":
                matches += o.doc["work_count"]
            else:
                sweep_forms += o.case.forms
    s = lambda *names: sum(selfs.get(n, 0.0) for n in names)  # noqa: E731
    brute_s, rank_s = s("engine.brute_distribution"), s("engine.measure_rank_counts")
    one, two = (speedup + [None, None])[:2]
    metrics = {
        "fields.modulus_s": s("fields.find_primitive_modulus"),
        "fields.make_field_s": s("fields.make_field"),
        "fields.tables_s": s("fields.require_tables"),
        "fields.fields_built": calls.get("fields.find_primitive_modulus", 0),
        "codes.build_code_s": s("codes.build_code"),
        "quadforms.expsum_s": s("quadforms.big_T", "quadforms.s_histogram",
                                "quadforms.r_histogram"),
        "quadforms.forms": calls.get("quadforms.s_histogram", 0),
        "spectra.predict_s": s("spectra.predict"),
        "spectra.assemble_s": s("spectra.assemble_distribution"),
        "hermitian.witness_s": s("hermitian.cayley_spectrum", "hermitian.rank1_count",
                                 "hermitian.verify_isomorphism"),
        "hermitian.matrices": counts.get("hermitian.matrices", 0),
        "engine.brute_s": brute_s,
        "engine.brute_matches": matches,
        "engine.brute_matches_per_s": matches / brute_s if brute_s else 0.0,
        "engine.rank_counts_s": rank_s,
        "engine.sweep_forms_per_s": sweep_forms / rank_s if rank_s else 0.0,
        "engine.epsilon_check_s": s("engine.rank_sweep"),
        "engine.speedup_2w": (one.doc["runtime_seconds"] / two.doc["runtime_seconds"]
                              if one and two and one.error is None and two.error is None
                              else 0.0),
        **ns_per_model_op(untraced),
        "cli.import_s": s("cli.import"),
        "cli.overhead_s": overhead,
        "python.startup_exit_s": s("python.startup", "python.exit"),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_max": max(
            ((wall - covered) / wall for _, wall, covered in coverage), default=0.0),
    }
    return metrics, coverage


PER_LAYER_UNITS = {
    "fields.fields_built": "count", "quadforms.forms": "count",
    "hermitian.matrices": "count", "engine.brute_matches": "count",
    "engine.brute_matches_per_s": "1/s", "engine.sweep_forms_per_s": "1/s",
    "engine.speedup_2w": "ratio", "engine.ns_per_model_op.q2": "ns",
    "engine.ns_per_model_op.q3": "ns", "engine.ns_per_model_op.q4": "ns",
    "trace.unattributed_max": "ratio",
}


# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "loadavg_at_start": list(os.getloadavg())}


def print_table(title: str, metrics: dict, units: dict):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units.get(name, 's')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("brute", "sweep", "setup"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "traceweight" / "cli.py").is_file():
        print(f"no traceweight sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    runner = Runner(started + RUN_LIMIT_S)
    info = machine()
    print("machine:", json.dumps(info))
    cases = workloads.cases_for(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} cases per pass, "
          f"closed loop, 1 client, {workloads.WORKERS} engine workers")
    passes: list[dict] = []
    try:
        wall, outs = runner.run_pass(cases)
        passes.append(pass_figures(args.workload, wall, outs))
        if args.trace:
            traced_wall, traced = runner.run_pass(cases, trace=True)
            speedup = [runner.run(c) for c in workloads.speedup_cases(args.workload, args.seed)]
        else:
            want = max(1, round(args.seconds / wall))
            while len(passes) < want and time.monotonic() + wall < runner.deadline:
                passes.append(pass_figures(args.workload, *runner.run_pass(cases)))
    except TimeoutError as exc:
        print(f"FAILED: {exc}", flush=True)
        runner.timeouts += 1

    attempted = len(runner.outcomes) + runner.timeouts
    failed = sum(o.error is not None for o in runner.outcomes) + runner.timeouts
    e2e = end_to_end(passes) if passes else {}
    print_table(f"end-to-end ({len(passes)} pass(es), median):", e2e, E2E_UNITS)
    print(f"  {'failed_ratio':<30} {failed / attempted:>16.6g} ({failed} of {attempted} cases)")
    if args.trace and failed == 0:
        metrics, coverage = per_layer(traced_wall, wall, traced, outs, speedup)
        print_table("per-layer (traced pass):", metrics, PER_LAYER_UNITS)
        print("self-time sum vs traced wall, per case:")
        for name, case_wall, covered in coverage:
            print(f"  {name:<44} wall {case_wall:8.3f} s  self-time sum {covered:8.3f} s "
                  f"({100 * covered / case_wall:5.1f} %)")
        for o in speedup:
            print(f"  speedup baseline {o.case.name}: oracle {o.doc['runtime_seconds']} s")
        OUT_DIR.mkdir(exist_ok=True)
        record = {"machine": info, "workload": args.workload, "seed": args.seed,
                  "untraced_wall_s": wall, "traced_wall_s": traced_wall,
                  "end_to_end": e2e, "per_layer": metrics,
                  "speedup_baseline": [[o.case.name, o.doc.get("runtime_seconds")]
                                       for o in speedup],
                  "cases": [{"name": o.case.name, "wall_s": o.wall,
                             "spans": case_spans(o)} for o in traced]}
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
        reported = {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "s")}
                    for k, v in metrics.items()}
    else:
        reported = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

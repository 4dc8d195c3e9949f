"""Benchmark: one workload through ``simplexledger ingest`` and ``run``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quartet-spill --seed 1 --seconds 20 --trace 0

Inputs are generated from the seed by ``workloads.py``.  Every command runs in
its own fresh child process, closed-loop, one at a time, on one thread.  With
``--trace 0`` the end-to-end metrics are measured: after one untimed
``ingest``, ``ingest`` runs five times (set-up); after one untimed ``run``,
``run`` repeats until ``--seconds`` of it have passed.  Times are the
children's own CPU seconds.  With ``--trace 1`` the per-layer metrics come
from two traced ``ingest`` and two traced ``run`` children (``tracer.py``),
with one untraced ``run`` between the traced ones as the base of the tracing
overhead.  Every ``run`` child's ledger CSVs are compared with the reference
from ``refledger.py``.  The last line of standard output is a JSON object
with the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from refledger import reference_csv
from workloads import WORKLOADS, Workload, generate, write_corpus, write_ontology

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
# CPU seconds of one calibrate.py child on a quiet host (the machine in the
# README); times are reported at that speed.
CALIBRATION_S = 0.6
TRACED_INGESTS = 2
# Children still running this long after the start are killed, so that the
# benchmark ends within 180 s.
DEADLINE_S = 170.0

# Per-layer metric -> (span name, "total" | "self" | "calls").
SPAN_METRICS = {
    "ontology.load_s": ("ontology.load", "total"),
    "corpus.ingest_tsv_s": ("corpus.ingest_tsv", "total"),
    "corpus.save_store_s": ("corpus.save_store", "total"),
    "cli.ingest_self_s": ("cli.ingest", "self"),
    "corpus.load_store_s": ("corpus.load_store", "total"),
    "corpus.digest_s": ("corpus.digest", "total"),
    "corpus.digest_calls": ("corpus.digest", "calls"),
    "corpus.max_keyword_id_s": ("corpus.max_keyword_id", "total"),
    "corpus.records_in_s": ("corpus.records_in", "total"),
    "corpus.records_in_calls": ("corpus.records_in", "calls"),
    "ledger.tabulate_s": ("ledger.tabulate", "total"),
    "ledger.debut_years_s": ("ledger.debut_years", "total"),
    "ledger.tabulate_self_s": ("ledger.tabulate", "self"),
    "metrics.build_s": ("metrics.build", "total"),
    "metrics.csv_s": ("metrics.csv", "total"),
    "fitting.fit_s": ("fitting.fit", "total"),
    "fitting.fit_calls": ("fitting.fit", "calls"),
    "plots.svg_s": ("plots.svg", "total"),
    "plots.svg_calls": ("plots.svg", "calls"),
    "cli.run_self_s": ("cli.run", "self"),
}
# Metrics taken from the traced ingest; all others from the traced run.
INGEST_METRICS = (
    "ontology.load_s",
    "corpus.ingest_tsv_s",
    "corpus.save_store_s",
    "cli.ingest_self_s",
    "corpus.store_bytes",
)
# Counts that must repeat exactly between the two traced runs of one seed.
# ``ledger.emissions`` is not among them: it is counted from the inputs.
REPEATABLE = (
    "ledger.new_keys",
    "ledger.read_bytes",
    "ledger.write_bytes",
    "corpus.digest_calls",
    "corpus.records_in_calls",
    "corpus.store_bytes",
)
# Every metric's unit, as BENCHMARK.json gives it.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


@dataclass
class Child:
    """One finished child process and what it left behind."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    errors: list[str] = field(default_factory=list)
    spans: dict = field(default_factory=lambda: {"spans": [], "missing": {}})
    store: Path | None = None
    spill_bytes: int = 0


class Bench:
    """Runs children one at a time, each in a fresh directory, and keeps them.

    Children are started by ``launcher.py`` so that their ``ru_maxrss`` is
    their own and not this process's.
    """

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.children: list[Child] = []
        self.env = {k: v for k, v in os.environ.items() if k != "SLEDGER_TMP"}
        self.env["PYTHONPATH"] = str(root / "src")
        # One thread per child, as ``--threads 1`` asks: OpenBLAS would
        # otherwise start a thread per core at import.
        self.env["OPENBLAS_NUM_THREADS"] = self.env["OMP_NUM_THREADS"] = "1"
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def _launch(self, argv: list[str], run_dir: Path) -> tuple[dict, str]:
        """Run ``argv`` to completion; the launcher's reply and the output."""
        tmp = run_dir / "tmp"
        tmp.mkdir(parents=True)
        request = {
            "argv": argv,
            "env": dict(self.env, TMPDIR=str(tmp)),
            "cwd": str(self.root),
            "log": str(run_dir / "child.log"),
            "timeout": max(1.0, self.deadline - time.monotonic()),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply, (run_dir / "child.log").read_text(errors="replace")

    def calibrate(self) -> float:
        """CPU seconds of one ``calibrate.py`` child."""
        scratch = self.work / "calibrate"
        reply, output = self._launch(
            [sys.executable, str(HERE / "calibrate.py"), str(scratch)], scratch
        )
        shutil.rmtree(scratch)
        if reply["exit"] != 0:
            raise RuntimeError(f"calibrate.py failed: {output[-2000:]}")
        return reply["cpu_s"]

    def _spawn(self, cli_args: list[str], run_dir: Path, traced: bool) -> tuple[Child, str]:
        spans_path = run_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "simplexledger.cli", *cli_args]
        reply, output = self._launch(argv, run_dir)
        child = Child(reply["wall_s"], reply["cpu_s"], reply["maxrss_kib"] / 1024)
        tmp = run_dir / "tmp"
        if reply["exit"] != 0:
            child.errors.append(f"exit code {reply['exit']}: {output[-2000:]}")
        leaked = [p.name for p in tmp.iterdir() if p.name.startswith("sledger-")]
        if leaked:
            child.errors.append(f"left behind in the temp dir: {leaked}")
        if traced and spans_path.exists():
            child.spans = json.loads(spans_path.read_text())
        self.children.append(child)
        return child, output

    def ingest(self, inputs: dict[str, Path], articles: int, traced: bool) -> Child:
        run_dir = self.work / f"{len(self.children):02d}-ingest"
        store = run_dir / "corpus.bin"
        cli_args = [
            "ingest",
            "--ontology", str(inputs["ontology"]),
            "--input", str(inputs["corpus"]),
            "--output", str(store),
        ]
        child, output = self._spawn(cli_args, run_dir, traced)
        if f"accepted {articles} articles" not in output:
            child.errors.append(f"ingest did not accept all {articles} articles")
        child.store = store
        return child

    def run(self, store: Path, workload: Workload, references: dict[str, str], traced: bool) -> Child:
        run_dir = self.work / f"{len(self.children):02d}-run"
        out = run_dir / "out"
        cli_args = ["run", "--store", str(store), *workload.run_args(), "--out", str(out)]
        child, _ = self._spawn(cli_args, run_dir, traced)
        if not child.errors:
            child.errors += check_outputs(out, references)
        child.spill_bytes = sum(
            p.stat().st_size for p in (out / "spill").rglob("*") if p.is_file()
        )
        shutil.rmtree(run_dir)
        return child


def check_outputs(out: Path, references: dict[str, str]) -> list[str]:
    """Errors in a finished run: manifest status and every ledger CSV."""
    try:
        status = json.loads((out / "run_manifest.json").read_text()).get("status")
    except (OSError, ValueError) as exc:
        return [f"unreadable run manifest: {exc}"]
    errors = []
    if status != "complete":
        errors.append(f"run manifest status is {status!r}")
    for name, expected in references.items():
        path = out / name
        if not path.is_file():
            errors.append(f"missing {name}")
        elif path.read_text() != expected:
            errors.append(f"{name} differs from the reference ledger")
    return errors


def span_metrics(spans: list, missing: set[str] = frozenset()) -> dict[str, float]:
    """Per-layer totals, call counts and self times from one child's spans.

    Metrics of a span in ``missing`` (its wrapped name no longer exists) are
    left out.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered: dict[int, float] = {}
    for span_id, parent, name, start, end, extra in spans:
        duration = (end - start) / 1e9
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        covered[parent] = covered.get(parent, 0.0) + duration
    self_time: dict[str, float] = {}
    for span_id, parent, name, start, end, extra in spans:
        duration = (end - start) / 1e9 - covered.get(span_id, 0.0)
        self_time[name] = self_time.get(name, 0.0) + duration
    sources = {"total": total, "self": self_time, "calls": calls}
    out = {
        metric: sources[kind].get(name, 0)
        for metric, (name, kind) in SPAN_METRICS.items()
        if name not in missing
    }
    if "ledger.tabulate" not in missing:
        for key in ("read_bytes", "write_bytes", "new_keys"):
            out[f"ledger.{key}"] = sum(span[5].get(key, 0) for span in spans)
    return out


def median(values: list) -> float:
    """The median; a count that repeats exactly stays a whole number."""
    if len(set(values)) == 1:
        return values[0]
    return statistics.median(values)


def describe(name: str, values: list[float], unit_name: str) -> str:
    return (
        f"{name:20s} median {median(values):.6g} {unit_name}  "
        f"min {min(values):.6g}  max {max(values):.6g}  n {len(values)}"
    )


def measure(bench, workload, inputs, articles, references, emissions, seconds):
    """End-to-end metrics with tracing off.

    Every timed child follows a ``calibrate.py`` child, and its CPU time is
    scaled by ``CALIBRATION_S`` / the median calibration CPU time of its
    phase: the host's speed drifts by tens of percent over minutes, in CPU
    time as well as in wall time, and the scaling removes much of that drift.
    """
    # The first ingest is untimed: it reads the freshly written inputs and
    # loads the interpreter's modules into the page cache.
    bench.ingest(inputs, articles, traced=False)
    setups, setup_cal = [], []
    for _ in range(SETUP_REPEATS):
        setup_cal.append(bench.calibrate())
        setups.append(bench.ingest(inputs, articles, traced=False))
    store = setups[-1].store
    # One untimed run first, so that every timed run finds the store and the
    # interpreter's modules in the page cache.
    bench.run(store, workload, references, traced=False)
    runs: list[Child] = []
    run_cal: list[float] = []
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        run_cal.append(bench.calibrate())
        runs.append(bench.run(store, workload, references, traced=False))
        now = time.monotonic()
        if now - start >= seconds or bench.deadline - now < 2 * (now - pair_start):
            break
    run_cpu = [c.cpu_s for c in runs]
    setup_cpu = [c.cpu_s for c in setups]
    cpu_s = median(run_cpu) * CALIBRATION_S / median(run_cal)
    metrics = {
        "cpu_s": cpu_s,
        "emissions_per_cpu_s": emissions / cpu_s,
        "setup_s": median(setup_cpu) * CALIBRATION_S / median(setup_cal),
        "peak_rss_mib": median([c.rss_mib for c in runs]),
        "setup_peak_rss_mib": median([c.rss_mib for c in setups]),
    }
    lines = [f"{name:20s} {value:.6g} {UNITS[name]}" for name, value in metrics.items()]
    # The samples behind the metrics.  Wall times are not metrics: on a shared
    # host they also count the time other tenants hold the processor (steal).
    lines += [
        "samples:",
        describe("run_cpu_raw_s", run_cpu, "s"),
        describe("run_calibration_s", run_cal, "s"),
        describe("setup_cpu_raw_s", setup_cpu, "s"),
        describe("setup_calibration_s", setup_cal, "s"),
        describe("peak_rss_mib", [c.rss_mib for c in runs], "MiB"),
        describe("setup_peak_rss_mib", [c.rss_mib for c in setups], "MiB"),
        describe("wall_s", [c.wall_s for c in runs], "s"),
        describe("setup_wall_s", [c.wall_s for c in setups], "s"),
    ]
    return metrics, lines, []


def trace(bench, workload, inputs, articles, references, emissions, seconds):
    """Per-layer metrics from traced children, and the tracing overhead."""
    ingests = [bench.ingest(inputs, articles, traced=True) for _ in range(TRACED_INGESTS)]
    store = ingests[-1].store
    # The untraced base runs between the traced runs, so that a drift in
    # machine speed moves both sides of the overhead ratio alike.
    runs = [bench.run(store, workload, references, traced=True)]
    base = bench.run(store, workload, references, traced=False)
    runs.append(bench.run(store, workload, references, traced=True))

    missing: dict[str, str] = {}
    for c in ingests + runs:
        missing.update(c.spans["missing"])
    missing_spans = set(missing.values())
    samples = []
    for ingest, run in zip(ingests, runs):
        m = span_metrics(run.spans["spans"], missing_spans)
        ingest_layer = span_metrics(ingest.spans["spans"], missing_spans)
        ingest_layer["corpus.store_bytes"] = ingest.store.stat().st_size if ingest.store.exists() else 0
        m.update({name: ingest_layer[name] for name in INGEST_METRICS if name in ingest_layer})
        m["ledger.emissions"] = emissions
        new_keys = m.get("ledger.new_keys")
        if new_keys is not None:
            m["ledger.novelty_ratio"] = new_keys / emissions
            m["ledger.read_amp"] = m["ledger.read_bytes"] / (8 * new_keys) if new_keys else 0.0
            m["ledger.write_amp"] = m["ledger.write_bytes"] / (8 * new_keys) if new_keys else 0.0
        m["ledger.spill_dir_bytes"] = run.spill_bytes
        m["trace.overhead_ratio"] = run.cpu_s / base.cpu_s
        samples.append(m)

    metrics = {name: median([m[name] for m in samples]) for name in sorted(samples[0])}
    lines = [f"{name:26s} {value:.6g} {UNITS[name]}" for name, value in metrics.items()]
    lines += [
        f"MISSING {label}: the wrapped public name no longer exists; no {span} metrics"
        for label, span in sorted(missing.items())
    ]
    errors = [f"wrapped public name {label} no longer exists" for label in sorted(missing)]
    errors += [
        f"{name} differs between traced runs: {[m[name] for m in samples]}"
        for name in REPEATABLE
        if name in metrics and len({m[name] for m in samples}) != 1
    ]
    return metrics, lines, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "simplexledger" / "cli.py").is_file():
        print("no simplexledger sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_root = root / ".perfbench_work"
    work = work_root / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = None
    try:
        corpus = generate(workload.shape, args.seed, workload.name)
        inputs = {"ontology": work / "ontology.tsv", "corpus": work / "corpus.tsv"}
        write_ontology(corpus.vocab, inputs["ontology"])
        write_corpus(corpus, inputs["corpus"])
        emissions = sum(corpus.emissions(k, r) for k, r in workload.pairs())
        if workload.expected_emissions not in (None, emissions):
            raise RuntimeError(
                f"{workload.name} must emit {workload.expected_emissions} keys, got {emissions}"
            )
        references = {
            f"ledger_k{k}_{r}.csv": reference_csv(corpus, k, r) for k, r in workload.pairs()
        }
        articles = len(corpus.years)
        del corpus

        bench = Bench(root, work, deadline)
        collect = trace if args.trace else measure
        metrics, lines, errors = collect(
            bench, workload, inputs, articles, references, emissions, args.seconds
        )
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failed = sum(1 for c in bench.children if c.errors)
    attempted = len(bench.children)
    print(f"workload {workload.name}  seed {args.seed}  emissions {emissions}  trace {args.trace}")
    for line in lines:
        print(line)
    print(f"fail_ratio           {failed / attempted:.6g} 1  ({failed} of {attempted} children failed)")
    for error in [e for c in bench.children for e in c.errors] + errors:
        print(f"FAILED: {error}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

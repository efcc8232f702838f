"""icbound benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: solve-large, solve-small, certify,
lattice (see BENCHMARK.json for why each exists). The benchmark writes its
inputs from the seed, sets up several times and reports the median
(setup_s), then makes a fixed number of passes over the workload's
operations: --seconds divided by the time one pass took at the commit that
defined the benchmark. One operation starts only when the previous one has
returned. Every operation is a call of `icbound.cli.main([...])` or
of a public icbound function, and every output is checked.

--trace 0 reports the end-to-end metrics. --trace 1 runs an untraced, a traced
and another untraced pass over the same inputs and reports the per-layer
metrics of the traced pass plus the tracing overhead; traced numbers never feed an
end-to-end metric. The last stdout line is the JSON result; a fuller record
(run metadata, pivot path, failures, spans) goes to perfbench/out/.
--reduced shrinks every workload for the self-check (selfcheck.py).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Per-layer metrics: ".s" is busy time, ".self_s" busy time minus child
# spans, ".calls" a call count. Each entry is (metric prefix, dotted names
# to wrap, aggregate only, metrics reported). Names are wrapped where their
# caller looks them up; functions called ~10^5 times per pass only count.
_K = "icbound.kernels."
LAYERS = [
    ("kernels.pivot_update", [_K + "pivot_update"], False, (".s", ".calls")),
    ("kernels.btran_dense", [_K + "btran_dense"], False, (".s", ".calls")),
    ("kernels.ftran_sparse", [_K + "ftran_sparse"], False, (".s", ".calls")),
    ("kernels.price_columns", [_K + "price_columns"], False, (".s", ".calls")),
    ("kernels.gfp_rref", [_K + "gfp_rref"], False, (".s", ".calls")),
    ("simplex.solve_standard_form", ["icbound.lp.solve_standard_form"], False, (".self_s",)),
    ("lp.build_problem", ["icbound.cli.build_problem"], False, (".s",)),
    ("lp.solve_problem", ["icbound.cli.solve_problem"], False, (".self_s",)),
    ("certificate.verify_certificate",
     ["icbound.cli.verify_certificate", "icbound.certificate.verify_certificate"], False,
     (".self_s", ".calls")),
    ("certificate.combine_certificates", ["icbound.cli.combine_certificates"], False, (".self_s",)),
    ("formats.certificate_to_json", ["icbound.cli.certificate_to_json"], False, (".s",)),
    ("formats.certificate_from_json", ["icbound.cli.certificate_from_json"], False, (".s",)),
    ("formats.instance_to_json", ["icbound.cli.instance_to_json"], False, (".s",)),
    ("formats.instance_from_json", ["icbound.cli.instance_from_json"], False, (".s",)),
    ("formats.dump_json", ["icbound.cli.dump_json"], False, (".s",)),
    ("formats.load_json", ["icbound.cli.load_json"], False, (".s",)),
    ("instance.lex_product", ["icbound.instance.IndexCodingInstance.lex_product"], False, (".s",)),
    ("instance.closure", ["icbound.instance.IndexCodingInstance.closure"], True, (".s", ".calls")),
    ("groundset.SetVector.add", ["icbound.groundset.SetVector.__add__"], True, (".s", ".calls")),
    ("groundset.LatticeHom.apply", ["icbound.groundset.LatticeHom.apply"], True, (".s", ".calls")),
    ("groundset.GroundSet.mask_of", ["icbound.groundset.GroundSet.mask_of"], True, (".s",)),
    ("schema.row_vector",
     ["icbound.schema.SubmodSchema.row_vector", "icbound.schema.HomExtSchema.row_vector"], True,
     (".s", ".calls")),
    ("matroid.rank_from_matrix", ["icbound.formats.rank_from_matrix", "icbound.rank_from_matrix"],
     False, (".s",)),
    ("matroid.to_index_coding", ["icbound.cli.to_index_coding"], False, (".s",)),
    ("matroid.check_axioms", ["icbound.matroid.Matroid.check_axioms"], False, (".s",)),
    ("gf.EchelonBasis.add", ["icbound.gf.EchelonBasis.add"], True, (".s", ".calls")),
    ("gf.EchelonBasis.copy", ["icbound.gf.EchelonBasis.copy"], True, (".s", ".calls")),
    ("gf.Gf2Basis.add", ["icbound.gf.Gf2Basis.add"], True, (".s", ".calls")),
    ("tighten.dimension_vector", ["icbound.dimension_vector"], False, (".s",)),
    ("lincode.min_scalar_linear_rate", ["icbound.cli.min_scalar_linear_rate"], False, (".s",)),
    ("lincode.is_valid_code", ["icbound.lincode.is_valid_code"], True, (".calls",)),
    ("lincode.underrep_check", ["icbound.underrep_check"], False, (".s",)),
    ("lincode.code_entropy_vector", ["icbound.code_entropy_vector"], False, (".s",)),
    ("cli.main", ["icbound.cli.main"], False, (".self_s",)),
]
_SUFFIX_UNITS = {".s": "s", ".self_s": "s", ".calls": "count"}
COUNTERS = {
    "simplex.iterations": "count",
    "kernels.price_columns.per_iter": "calls/iter",
    "lp.rows": "count",
    "lp.cols": "count",
    "certificate.x_entries": "count",
    "certificate.y_entries": "count",
    "formats.bytes_written": "B",
    "trace.overhead_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    units = {prefix + sfx: _SUFFIX_UNITS[sfx] for prefix, _, _, sfxs in LAYERS for sfx in sfxs}
    units.update(COUNTERS)
    return units


class Recorder:
    """Counters fed by wrapper hooks, and the per-instance pivot-path record."""

    def __init__(self):
        self.current: Optional[str] = None
        self.pivot: Dict[str, dict] = {}
        self.unstable: List[str] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def on_solve(self, args, kwargs, sol) -> None:
        self.counts["simplex.iterations"] += sol.iterations
        if self.current is None:
            return
        entry = {"b": None if sol.value is None else str(sol.value), "iterations": sol.iterations}
        seen = self.pivot.setdefault(self.current, entry)
        if seen != entry and self.current not in self.unstable:
            self.unstable.append(self.current)

    def on_build(self, args, kwargs, problem) -> None:
        self.counts["lp.rows"] += problem.lp.nrows
        self.counts["lp.cols"] += len(problem.lp.cols_idx)

    def on_verify(self, args, kwargs, value) -> None:
        cert = args[2] if len(args) > 2 else kwargs["cert"]
        self.counts["certificate.x_entries"] += len(cert.x)
        self.counts["certificate.y_entries"] += len(cert.y)

    def on_dump(self, args, kwargs, text) -> None:
        path = args[1] if len(args) > 1 else kwargs.get("path")
        if path is not None:
            self.counts["formats.bytes_written"] += len(text.encode("utf-8")) + 1


def probes(recorder: Recorder, timing: bool):
    from tracing import Probe

    hooks = {
        "icbound.cli.solve_problem": recorder.on_solve,
        "icbound.cli.build_problem": recorder.on_build,
        "icbound.cli.verify_certificate": recorder.on_verify,
        "icbound.certificate.verify_certificate": recorder.on_verify,
        "icbound.cli.dump_json": recorder.on_dump,
    }
    if not timing:
        return [Probe("icbound.cli.solve_problem", hook=recorder.on_solve)]
    return [Probe(target, prefix, aggregate, hooks.get(target))
            for prefix, targets, aggregate, _ in LAYERS for target in targets]


def fresh_import():
    """Import icbound from scratch, so each set-up repetition pays for it."""
    for name in [m for m in sys.modules if m == "icbound" or m.startswith("icbound.")]:
        del sys.modules[name]
    icb = importlib.import_module("icbound")
    importlib.import_module("icbound.cli")
    return icb


def run_metadata() -> dict:
    def backend(module: str) -> str:
        try:
            return importlib.import_module(module).BACKEND
        except (ImportError, AttributeError):
            return "absent"

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "python": platform.python_version(),
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "kernels_backend": backend("icbound.kernels"),
        "rational_backend": backend("icbound.rational"),
    }


class Runner:
    def __init__(self, args, workload, recorder: Recorder):
        self.args = args
        self.setup_fn, self.chains_fn, self.nominal_pass_s = workload
        self.recorder = recorder
        self.op_times: List[float] = []
        self.by_op: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: List[dict] = []
        self.ctx = None

    def cli(self, argv: List[str]):
        from workloads import Outcome

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = sys.modules["icbound.cli"].main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return Outcome(rc=rc if isinstance(rc, int) else 1, out=out.getvalue())

    def setup(self, base: Path):
        from workloads import Context

        times = []
        for rep in range(2 if self.args.reduced else SETUP_REPS):
            workdir = base / f"setup{rep}"
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            icb = fresh_import()
            ctx = Context(workdir, random.Random(f"{self.args.workload}:{self.args.seed}"),
                          self.args.reduced, icb)
            self.setup_fn(ctx)
            times.append(time.perf_counter() - start)
            if self.ctx is not None:
                shutil.rmtree(self.ctx.workdir)
            self.ctx = ctx
        return statistics.median(times)

    def run_pass(self, index: int) -> float:
        chains = self.chains_fn(self.ctx, self.cli)
        random.Random(f"{self.args.seed}:{index}").shuffle(chains)
        start = time.perf_counter()
        for chain in chains:
            for op in chain:
                self.attempted += 1
                reason = self.attempt(op)
                if reason is not None:
                    self.failures.append({"op": op.label, "reason": reason[:500]})
        return time.perf_counter() - start

    def attempt(self, op) -> Optional[str]:
        """Run and time one operation, then check it; returns why it failed.

        The result goes out of scope on return, so one operation's output
        never inflates the next one's memory peak.
        """
        from workloads import Outcome

        self.recorder.current = op.record
        try:
            t0 = time.perf_counter()
            res = self.cli(op.argv) if op.argv is not None else Outcome(value=op.call())
            elapsed = time.perf_counter() - t0
            self.op_times.append(elapsed)
            self.by_op.setdefault(op.label, []).append(elapsed)
            self.recorder.current = None
            return op.check(res)
        except Exception as exc:  # a failed operation is counted, not fatal
            return f"raised {type(exc).__name__}: {exc}"
        finally:
            self.recorder.current = None


def tail_of(samples: List[float]):
    """(value, percentile, count): the highest percentile with at least ten
    samples above it, never below the median; the median when there are
    fewer than 21 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    p50 = statistics.median(ordered)
    if n < 21:
        return p50, 50.0, n
    return max(p50, ordered[n - 11]), 100.0 * (n - 10) / n, n


def pivot_changes(recorder: Recorder, expected: dict) -> List[str]:
    reference = {e["name"]: e for e in expected["pool"]}
    reference.update(expected["fixed"])
    changed = []
    for name, seen in sorted(recorder.pivot.items()):
        ref = reference.get(name)
        if ref is None:
            continue
        if seen["iterations"] != ref["iterations"] or seen["b"] != ref["b"]:
            changed.append(f"{name}: b {ref['b']} -> {seen['b']}, "
                           f"iterations {ref['iterations']} -> {seen['iterations']}")
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icbound" / "__init__.py").is_file() or not (
            ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no icbound source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    base = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    recorder = Recorder()
    runner = Runner(args, workloads.WORKLOADS[args.workload], recorder)
    try:
        setup_s = runner.setup(base)
        meta = run_metadata()

        def untraced_pass(index: int) -> float:
            plain = Tracer(timing=False)
            plain.install(probes(recorder, timing=False))
            try:
                return runner.run_pass(index)
            finally:
                plain.uninstall()

        passes = 1 if args.trace else max(1, int(args.seconds // runner.nominal_pass_s))
        pass_times = [untraced_pass(index) for index in range(passes)]

        tracer = None
        if args.trace:
            # The traced pass sits between two untraced ones; the overhead is
            # taken against their mean, so warm-up and drift of the machine's
            # speed over the run cancel rather than land in it.
            tracer = Tracer(timing=True)
            recorder.counts = dict.fromkeys(COUNTERS, 0)
            tracer.install(probes(recorder, timing=True))
            try:
                traced_s = runner.run_pass(0)
            finally:
                tracer.uninstall()
            counts = recorder.counts
            recorder.counts = dict.fromkeys(COUNTERS, 0)
            pass_times.append(untraced_pass(0))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    wall_s = statistics.median(pass_times)
    tail, tail_q, n_ops = tail_of(runner.op_times)
    failed = len(runner.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reduced": args.reduced,
        "meta": meta,
        "passes": len(pass_times),
        "op_s_by_label": runner.by_op,
        "pass_s": pass_times,
        "op_samples": n_ops,
        "op_tail_percentile": round(tail_q, 2),
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures,
        "pivot_path": recorder.pivot,
        "pivot_changed": pivot_changes(recorder, workloads.EXPECTED),
        "pivot_unstable": recorder.unstable,
    }
    if args.trace:
        units = per_layer_units()
        metrics = {}
        for prefix, _, _, suffixes in LAYERS:
            totals = tracer.totals.get(prefix)
            for sfx in suffixes:
                if totals is None:
                    value = 0
                elif sfx == ".s":
                    value = totals.busy_ns / 1e9
                elif sfx == ".self_s":
                    value = tracer.self_seconds_from_spans(prefix)
                else:
                    value = totals.calls
                metrics[prefix + sfx] = value
        price = tracer.totals.get("kernels.price_columns")
        counts["kernels.price_columns.per_iter"] = (
            price.calls / counts["simplex.iterations"] if price and counts["simplex.iterations"]
            else 0)
        counts["trace.overhead_s"] = traced_s - statistics.mean(pass_times)
        metrics.update(counts)
        report["absent"] = tracer.absent
        report["untraced_pass_s"] = pass_times
        report["traced_pass_s"] = traced_s
    else:
        units = END_TO_END
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_s.p50": statistics.median(runner.op_times),
            "op_s.tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - report["fail_frac"],
        }
    report["metrics"] = metrics

    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.span_records()) + "\n")

    print(f"icbound perfbench  workload={args.workload} seed={args.seed} trace={args.trace}"
          f"  python {meta['python']}  rev {meta['git_rev'][:12]}  nproc {meta['nproc']}"
          f"  kernels={meta['kernels_backend']} rational={meta['rational_backend']}")
    if (meta["kernels_backend"], meta["rational_backend"]) != ("pure", "fractions"):
        print("WARNING: backends differ from the pure/fractions reference; do not compare "
              "these numbers with a pure run")
    print(f"passes {len(pass_times)}, operations {runner.attempted}, failed {failed}"
          f" (fail_frac {report['fail_frac']:.4f}), op_s.tail is p{tail_q:.1f} of {n_ops} samples")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    for line in report["pivot_changed"]:
        print(f"pivot path changed: {line}")
    for name in recorder.unstable:
        print(f"pivot path differs between passes: {name}")
    for name in report.get("absent", []):
        print(f"absent (not traced): {name}")
    for fail in runner.failures[:20]:
        print(f"FAILED {fail['op']}: {fail['reason']}")
    result = {
        "correct": failed == 0 and not recorder.unstable,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

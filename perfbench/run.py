"""The qgelfand benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload claims|spectral|lattice --seed N \
        --seconds S --trace 0|1

Commands run in-process through ``qgelfand.cli.main(args,
standalone_mode=False)``, one at a time (one client), over a cycle of input
files generated from the seed.  Whole cycles repeat until the next one would
end after S seconds of command time, and at least until 100 commands have
run, so that ten command times lie beyond the 90th percentile.  Every report
is checked against perfbench/expected.json.

Command times are reported at a fixed host speed: a fixed piece of work,
the reference, is timed between commands, and each command time is scaled
by a fixed nominal time over the median reference time around it.
The raw times are printed beside them and kept in the details file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a traced pass and
an untraced pass over the same cycle, S/2 seconds each, and prints the
per-layer metrics, per traced cycle.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Details (environment,
failures, the spans of a traced run) go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MIN_COMMANDS = 100
SETUP_PROBES = 8  # set-ups in fresh processes, besides the run's own
PROBE_TIMEOUT_S = 120
# one client runs one command at a time.  A second OpenBLAS thread busy-waits
# on the other core; on a shared two-core machine that made the spectral
# throughput spread five times wider across runs (0.10 against 0.02 over
# five seeds), so the benchmark pins one.
BLAS_THREADS = 1
# the shared host's speed wanders by up to 1.8x over minutes, so ten runs of
# the same code spread wider than a 25% bound.  A fixed piece of work, the
# reference, is timed every REF_EVERY_S of command time; a command is scaled
# by REF_NOMINAL_S over the median reference time within REF_WINDOW_S of it.
REF_EVERY_S = 0.1
REF_WINDOW_S = 5.0
REF_NOMINAL_S = 2.0e-3  # the reference's time at the reference host speed
REF_ROUNDS = 30


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads():
    """Pin BLAS/OpenMP to BLAS_THREADS threads; must run before numpy is
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def setup(workload: str, seed: int, workdir: Path, smoke: bool = False):
    """Import the package, write the seeded inputs and run one untimed
    warm-up command.  Returns (seconds, cli main, cycle)."""
    t0 = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qgelfand.cli

    if not Path(qgelfand.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qgelfand imported from outside {src}")
    from perfbench import workloads

    cycle = workloads.build(workload, seed, workdir, smoke)
    code, error = invoke(qgelfand.cli.main, cycle[0].argv)
    if code != 0:
        raise RuntimeError(f"warm-up {cycle[0].name} failed: code {code}, {error}")
    return perf_counter() - t0, qgelfand.cli.main, cycle


@functools.cache
def _reference_operand():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))


def reference() -> float:
    """Time REF_ROUNDS rounds of a 3x3 Hermitian eigendecomposition and the
    spectral norm of its residual: small-matrix numpy calls, whose time is
    mostly the interpreter and numpy's dispatch.  Of the references tried it
    followed the host best on all three workloads (see README.md).  The
    collector is off while it runs, so the program's heap cannot change its
    time."""
    import numpy as np

    a = _reference_operand()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REF_ROUNDS):
            h = a @ a.conj().T
            w, v = np.linalg.eigh(h)
            np.linalg.norm(h - (v * w) @ v.conj().T, 2)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _threads() -> int:
    return len(os.listdir("/proc/self/task"))


def invoke(main, argv) -> tuple[int | None, str | None]:
    """Run one CLI command; (exit code, exception text if it raised)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rv = main(list(argv), standalone_mode=False)
        return (rv or 0), None
    except SystemExit as exc:
        return (0 if exc.code is None else exc.code), None
    except Exception as exc:  # a crash is a failed command, not a failed run
        return None, repr(exc)


class Pass:
    """Whole cycles of the closed loop, with per-command times and checks.

    The pass's time is the sum of its command times; what runs between
    commands (checks, set-up probes, the reference) is outside it.  A thread
    that a command leaves running would slow the reference and so speed up
    the scaled times; it fails the cycle."""

    def __init__(self, main, cycle, expected, tracer=None):
        self.main, self.cycle, self.expected = main, cycle, expected
        self.tracer = tracer
        self.durations: list[float] = []
        self.starts: list[float] = []  # command-time position of each command
        self.refs: list[tuple[float, float]] = []  # (position, reference seconds)
        self.failures: list[tuple[str, str]] = []
        self.identical = 0
        self.bytes_out = 0

    def run(self, seconds: float, min_commands: int, probe=None):
        """Repeat the cycle for about ``seconds`` of command time.  When
        ``probe`` is given, call it SETUP_PROBES times, evenly over the pass
        and between commands, and return its results with the command time
        at which each ran; the remainder run after the pass if it ends
        early."""
        from perfbench import checks

        call = self.main
        if self.tracer is not None:
            from perfbench.tracing import ROOT as ROOT_SPAN
            call = self.tracer.wrap(ROOT_SPAN, self.main)
        probed = []
        elapsed = 0.0
        threads = _threads()
        reference()  # warm
        while True:
            results = []
            for cmd in self.cycle:
                if probe is not None and len(probed) < SETUP_PROBES and (
                        elapsed >= len(probed) * seconds / SETUP_PROBES):
                    probed.append((elapsed, probe()))
                if not self.refs or elapsed >= self.refs[-1][0] + REF_EVERY_S:
                    self.refs.append((elapsed, reference()))
                if self.tracer is not None:
                    self.tracer.cycle = self.cycles
                    self.tracer.start_command(len(self.durations))
                t0 = perf_counter()
                results.append(invoke(call, cmd.argv))
                dt = perf_counter() - t0
                self.durations.append(dt)
                self.starts.append(elapsed)
                elapsed += dt
            # checks read the reports between cycles, outside the timed loop
            for cmd, (code, error) in zip(self.cycle, results):
                ok, identical, reason = checks.check(cmd, code, error, self.expected)
                self.identical += identical
                if not ok:
                    self.failures.append((cmd.name, reason))
                if cmd.out.exists():
                    self.bytes_out += cmd.out.stat().st_size
            if _threads() > threads:
                self.failures.append(("cycle", f"{_threads()} threads after it, {threads} before"))
            if len(self.durations) >= min_commands and elapsed + elapsed / self.cycles > seconds:
                break
        self.refs.append((elapsed, reference()))
        while probe is not None and len(probed) < SETUP_PROBES:
            probed.append((elapsed, probe()))
        return probed

    @property
    def cycles(self) -> int:
        return len(self.durations) // len(self.cycle)

    @property
    def seconds(self) -> float:
        return sum(self.durations)

    def factors(self, spans) -> list[float]:
        """For each (start, end) span of command time, REF_NOMINAL_S over
        the median reference time from REF_WINDOW_S before the start to
        REF_WINDOW_S after the end.  A reference is taken at most
        REF_EVERY_S before each command, so the window is never empty."""
        pos = [p for p, _ in self.refs]
        ref = [r for _, r in self.refs]
        return [REF_NOMINAL_S / statistics.median(
                    ref[bisect.bisect_left(pos, a - REF_WINDOW_S):
                        bisect.bisect_right(pos, b + REF_WINDOW_S)])
                for a, b in spans]

    def scaled(self) -> list[float]:
        """Command times at the reference host speed."""
        spans = [(t0, t0 + d) for t0, d in zip(self.starts, self.durations)]
        return [d * f for d, f in zip(self.durations, self.factors(spans))]

    @property
    def cmds_per_s(self) -> float:
        """Commands completed per second over the whole timed pass, at the
        reference host speed."""
        return len(self.durations) / sum(self.scaled())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads(np) -> int | str:
    """Thread count reported by the OpenBLAS bundled with numpy."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "blas": vendor, "blas_threads": _blas_threads(np),
            "nproc": _nproc(), "commit": _git_commit(), "machine": platform.machine()}


def _probe_setup(args) -> float:
    """Set up once in a fresh interpreter and return its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"] + ["--smoke"] * args.smoke
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("claims", "spectral", "lattice"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs and a single cycle; for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qgelfand" / "cli.py").is_file():
        print(f"error: no qgelfand sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_threads()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, workdir, args.smoke)[0])
            return 0
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    own_setup, cli_main, cycle = setup(args.workload, args.seed, workdir, args.smoke)
    setup_samples = [(0.0, own_setup)]  # (command time it ran at, seconds)
    from perfbench import checks
    from perfbench.tracing import ROOT_GAP_TOL_S, Tracer

    expected = checks.load_expected()[args.workload]
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = Pass(cli_main, cycle, expected, tracer)
        try:
            traced.run(args.seconds / 2, 1)
        finally:
            tracer.uninstall()
        plain = Pass(cli_main, cycle, expected)
        plain.run(args.seconds / 2, 1)
        passes = [traced, plain]
        layer, facts = tracer.reduce(traced.cycles, traced.durations)
        metrics = dict(layer)
        metrics["cli.bytes_out"] = traced.bytes_out / traced.cycles
        metrics["cli.reports_identical"] = traced.identical / traced.cycles
        metrics["trace.cmds_per_s"] = traced.cmds_per_s
        metrics["trace.overhead_ratio"] = plain.cmds_per_s / traced.cmds_per_s
        trace_ok = not (facts["orphan_spans"] or facts["misnested_spans"]
                        or facts["root_mismatches"]
                        or facts["root_gap_median_s"] > ROOT_GAP_TOL_S)
        tag = f"{args.workload}-seed{args.seed}"
        tracer.write_spans(OUT_DIR / f"spans-{tag}.jsonl")
        print("trace " + json.dumps(facts, sort_keys=True))
    else:
        main_pass = Pass(cli_main, cycle, expected)
        # set-up is timed in fresh processes spread over the pass, so that
        # setup_s samples the same stretch of machine time as the commands
        setup_samples += main_pass.run(args.seconds, 1 if args.smoke else MIN_COMMANDS,
                                       probe=lambda: _probe_setup(args))
        passes = [main_pass]
        d = main_pass.scaled()
        setups = main_pass.factors((t, t) for t, _ in setup_samples)
        metrics = {
            "setup_s": statistics.median(s * f for (_, s), f in zip(setup_samples, setups)),
            "cmds_per_s": main_pass.cmds_per_s,
            "cmd_s_p50": statistics.median(d),
            "cmd_s_p90": _p90(d),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        trace_ok = True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    attempted = sum(len(p.durations) for p in passes)
    failures = [f for p in passes for f in p.failures]
    raw = []
    for p in passes:
        raw.append({"setup_s": statistics.median(s for _, s in setup_samples),
                    "cmds_per_s": len(p.durations) / p.seconds,
                    "cmd_s_p50": statistics.median(p.durations),
                    "cmd_s_p90": _p90(p.durations),
                    "reference_s_p50": statistics.median(r for _, r in p.refs),
                    "references": len(p.refs)})
        print(f"pass: {len(p.durations)} commands in {p.seconds:.3f} s over "
              f"{p.cycles} cycles of {len(cycle)}; {len(p.failures)} failed; "
              f"{p.identical} reports identical to their recorded digest")
        print("raw " + " ".join(f"{k} {v:.6g}" for k, v in raw[-1].items())
              + f" (reference nominal {REF_NOMINAL_S:g} s)")
    for name, reason in failures[:10]:
        print(f"FAILED {name}: {reason}")
    result = {
        "correct": not failures and trace_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if not args.trace:
        for k, m in result["metrics"].items():
            print(f"{k} {m['value']:.6g} {m['unit']}")
        print(f"error_rate {len(failures) / attempted:.6g} ratio "
              f"({len(failures)} of {attempted} commands; cmd_s_p90 over "
              f"{len(passes[0].durations)} samples)")
    detail = {"env": env, "setup_samples_s": setup_samples, "failures": failures,
              "raw": raw, "result": result}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())

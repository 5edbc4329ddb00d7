"""qdarwin benchmark: exact curves, finite-statistics estimation, state builds.

Run from the repository root:

    python3 perfbench/run.py --workload curve-weighted --seed 1 --seconds 15 --trace 0

Each workload is a closed loop: one caller in one process starts the next
operation ("op") when the previous one returns, until --seconds have passed.
Every op's output is checked; the last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics".  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced.  With
--trace 1 they are the per-layer ones: ops alternate between untraced and
traced (wrappers from tracer.py), the per-layer numbers are medians over the
traced ops, and trace.overhead_frac compares the two halves.  A record of
the environment, every op's time and output, and (traced) every span goes
to perfbench/out/.

Times are rescaled to a reference host speed.  On a shared 2-core KVM
guest the same op ran up to 1.7x slower for seconds to minutes at a time,
whatever the code did.  A fixed probe (no qdarwin code) is timed between
ops and read as a slowdown factor, its wall time over its reference time.
Each workload uses the probe closest to its op: small SVDs for the curves,
SVDs plus interpreted arithmetic for estimation (and set-up), state-vector
copies for the build.  Each op's wall time is divided by the mean factor
of the probes just before and just after it; the raw wall times are kept in
the record.  Without this, 10-s runs of one workload on different seeds
spread by up to ~0.29 (quartile distance over median).

BLAS is pinned to one thread: on the same host two threads made a curve
with n_env = 12 slower (9.6-11.7 s against 8.0 s), not faster.  The
package is imported from src/ of this checkout; without it the benchmark
exits non-zero and prints no result.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from math import pi
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"

SETUP_REPEATS = 7  # set-up processes per run; setup_s is their median
# probe wall times that define the reference host speed (fast state, 2-core Xeon host)
SVD_PROBE_REF_S = 0.0095
HOST_PROBE_REF_S = 0.0225
STATE_PROBE_REF_S = 0.021
SHOTS = 100_000
CURVE_N_ENV = 10
CURVE_THETAS = {"curve-stabilizer": "pi", "curve-weighted": "pi/3"}
CURVE_TOL = 1e-9
ESTIMATES = {
    # workload: (named state, pipeline, bootstrap replicas, expected curve)
    "estimate-closed-form": ("star-experimental", "closed_form", 500, (1.0, 1.0, 2.0)),
    "estimate-reconstruction": ("diamond-canonical", "reconstruction", 100, (1 / 3, 5 / 3, 2.0)),
}
ESTIMATE_TOL = 0.05  # bits, the acceptance-suite tolerance
LOWSHOT_SHOTS, LOWSHOT_REPLICAS = 30, 500
BUILD_N_ENV, BUILD_PHI, BUILD_THETA = 19, pi / 2, pi / 3
BUILD_SAMPLES = 64  # basis indices whose amplitude is checked per build
BUILD_TOL = 1e-9
WORKLOADS = (*CURVE_THETAS, *ESTIMATES, "build")
HOST_LIMITS = (
    "Shared 2-core KVM guest: contention from other tenants slowed whole ops "
    "by up to 1.7x for seconds to minutes (CPU time tracked wall time), hence "
    "the probe rescaling. No hardware counters; CPU frequency, affinity and "
    "huge pages are left as found. The 24-qubit cap is not exercised: one "
    "24-qubit build takes ~30 s and ~1 GB, beyond a run's time and memory."
)


def _use_checkout_sources() -> None:
    """Import qdarwin from src/ of this checkout, never an installed copy."""
    if not (SRC / "qdarwin" / "__init__.py").is_file():
        sys.exit(f"error: no qdarwin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdarwin

    if Path(qdarwin.__file__).resolve().parent != SRC / "qdarwin":
        sys.exit(f"error: imported qdarwin from {qdarwin.__file__}, not {SRC}")


_use_checkout_sources()
import numpy as np  # noqa: E402  (after the BLAS pin)

import qdarwin.cli  # noqa: E402
from qdarwin import graphstate, measurement  # noqa: E402


# -- host probes ----------------------------------------------------------------
# Timed between ops to rescale op times to a reference host speed; a workload
# uses the probe whose bottleneck resembles its op's.

_PROBE_RNG = np.random.default_rng(20180305)
_PROBE_MATRICES = [
    _PROBE_RNG.standard_normal((32, 64)) + 1j * _PROBE_RNG.standard_normal((32, 64)) for _ in range(20)
]


def _probe_svds() -> None:
    for _ in range(3):
        for matrix in _PROBE_MATRICES:
            np.linalg.svd(matrix, compute_uv=False)


def svd_probe() -> float:
    """Slowdown factor of small SVDs, the entropy kernel of the curves."""
    start = time.perf_counter()
    _probe_svds()
    return (time.perf_counter() - start) / SVD_PROBE_REF_S


def host_probe() -> float:
    """Slowdown factor of small SVDs plus interpreted arithmetic, the mix of
    the estimation loops and of set-up."""
    start = time.perf_counter()
    _probe_svds()
    total = 0
    for k in range(200_000):
        total += k * k % 7
    return (time.perf_counter() - start) / HOST_PROBE_REF_S


def state_probe(buffer: np.ndarray) -> float:
    """Slowdown factor of copies, strided updates and norms of a state-sized
    vector, the array traffic of a gate-by-gate build."""
    start = time.perf_counter()
    for _ in range(3):
        copy = buffer.copy()
        copy[::4] *= 1j
        float(np.sum(np.abs(copy) ** 2))
    return (time.perf_counter() - start) / STATE_PROBE_REF_S


# -- workloads ---------------------------------------------------------------
# Each workload's constructor is its set-up (input construction plus a
# warm-up call of every entry point on a tiny input, so lazy caches fill);
# op(i) runs and times one operation and returns (seconds, output, problems).
# probe() is the host probe timed between ops.


class Curve:
    """`qdarwin curve` on an 11-qubit diamond, entered through the CLI so a
    backend chosen from the graph spec is reachable without editing this."""

    probe = staticmethod(svd_probe)

    def __init__(self, name: str, seed: int) -> None:
        self.out = OUT_DIR / f"{name}.json"
        self.argv = self._argv(CURVE_N_ENV, CURVE_THETAS[name], self.out)
        self.reference = json.loads((BENCH_DIR / "reference.json").read_text())[name]
        warm = self._argv(3, CURVE_THETAS[name], OUT_DIR / f"{name}-warmup.json")
        if qdarwin.cli.run(warm) != 0:
            raise RuntimeError("warm-up curve failed")

    @staticmethod
    def _argv(n_env: int, theta: str, out: Path) -> list[str]:
        return [
            "curve", "--family", "diamond", "--n-env", str(n_env), "--phi", "pi",
            "--theta", theta, "--system", "1", "--out", str(out), "--timestamp", "pinned",
        ]

    def op(self, i: int):
        start = time.perf_counter()
        code = qdarwin.cli.run(self.argv)
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"qdarwin curve exited with {code}")
        curve = json.loads(self.out.read_text())
        return seconds, [p["mean_mi"] for p in curve["points"]], check_curve(curve, self.reference)


def check_curve(curve: dict, reference: dict) -> list[str]:
    problems = []
    if abs(curve["system_entropy"] - reference["system_entropy"]) > CURVE_TOL:
        problems.append(f"H_S {curve['system_entropy']!r} != {reference['system_entropy']!r}")
    if len(curve["points"]) != len(reference["points"]):
        return problems + ["wrong number of curve points"]
    for got, want in zip(curve["points"], reference["points"]):
        if got["n_fragments"] != want["n_fragments"]:
            problems.append(f"delta {want['delta']}: {got['n_fragments']} fragments")
        for key in ("mean_mi", "min_mi", "max_mi"):
            if abs(got[key] - want[key]) > CURVE_TOL:
                problems.append(f"delta {want['delta']} {key}: {got[key]!r} != {want[key]!r}")
    endpoint = curve["points"][-1]["mean_mi"]
    if abs(endpoint - 2 * curve["system_entropy"]) > CURVE_TOL:
        problems.append(f"endpoint {endpoint!r} != 2 H_S")
    return problems


class Estimate:
    """One seeded experiment: sample every setting, estimate, bootstrap."""

    probe = staticmethod(host_probe)

    def __init__(self, name: str, seed: int) -> None:
        named, self.pipeline, self.replicas, self.expected = ESTIMATES[name]
        self.state = graphstate.named_state(named)
        self.seed = seed
        # two replicas at least: with one, np.std(ddof=1) gives a NaN stderr
        warm = measurement.RunConfig(SHOTS, seed, 2)
        measurement.estimate_mi_curve(self.state, 1, warm, self.pipeline)

    def op(self, i: int):
        cfg = measurement.RunConfig(SHOTS, self.seed * 100_000 + i, self.replicas)
        start = time.perf_counter()
        curve = measurement.estimate_mi_curve(self.state, 1, cfg, self.pipeline)
        seconds = time.perf_counter() - start
        problems = []
        for point, want in zip(curve.points, self.expected):
            if abs(point.mean_mi - want) > ESTIMATE_TOL:
                problems.append(f"delta {point.delta}: {point.mean_mi!r} not within {ESTIMATE_TOL} of {want!r}")
            if point.stderr is None or not math.isfinite(point.stderr):
                problems.append(f"delta {point.delta}: stderr {point.stderr!r}")
        output = [[p.mean_mi, p.stderr] for p in curve.points]
        return seconds, output, problems


def lowshot_probe(seed: int) -> dict:
    """Reconstruction on diamond-canonical at 30 shots per setting: does it
    return a curve or raise?  Untimed; today the bootstrap aborts."""
    cfg = measurement.RunConfig(LOWSHOT_SHOTS, seed, LOWSHOT_REPLICAS)
    try:
        measurement.estimate_mi_curve(graphstate.named_state("diamond-canonical"), 1, cfg, "reconstruction")
    except Exception as exc:  # the probe reports any failure instead of stopping the run
        return {"failed": 1.0, "error": repr(exc)}
    return {"failed": 0.0, "error": None}


class Build:
    """A 20-qubit weighted diamond built gate by gate, then by Ising
    evolution with rates -phase for t = 1; both must give the same state."""

    def __init__(self, name: str, seed: int) -> None:
        self.spec = graphstate.diamond_spec(BUILD_N_ENV, BUILD_PHI, BUILD_THETA)
        self.n = self.spec.n_qubits
        self.couplings = {(j, k): -phase for j, k, phase in self.spec.edges}
        self.seed = seed
        self.buffer = np.ones(2**self.n, dtype=complex)
        small = graphstate.diamond_spec(3, BUILD_PHI, BUILD_THETA)
        graphstate.build_graph_state(small)
        graphstate.evolve_ising(small.n_qubits, {(j, k): -p for j, k, p in small.edges}, 1.0)

    def probe(self) -> float:
        # the build moves whole state vectors through memory and slows less
        # than the SVD and interpreter mix when the host is contended
        return state_probe(self.buffer)

    def op(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        indices = [0, 2**self.n - 1] + [int(x) for x in rng.integers(0, 2**self.n, BUILD_SAMPLES - 2)]
        start = time.perf_counter()
        state = graphstate.build_graph_state(self.spec)
        seconds = time.perf_counter() - start
        norms, problems = self.check(state, indices, "build_graph_state")
        del state
        start = time.perf_counter()
        state = graphstate.evolve_ising(self.n, self.couplings, 1.0)
        seconds += time.perf_counter() - start
        norm, more = self.check(state, indices, "evolve_ising")
        return seconds, {"norms": [norms, norm], "amplitudes_checked": len(indices)}, problems + more

    def check(self, state, indices: list[int], label: str) -> tuple[float, list[str]]:
        """Norm, and amplitudes against phases summed from the edge list."""
        amps = state.amplitudes
        problems = []
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > BUILD_TOL:
            problems.append(f"{label}: norm {norm!r}")
        scale = 1.0 / math.sqrt(2**self.n)
        for index in indices:
            bits = [(index >> (self.n - q)) & 1 for q in range(self.n + 1)]
            phase = sum(p for j, k, p in self.spec.edges if bits[j] and bits[k])
            if abs(complex(amps[index]) - scale * cmath.exp(1j * phase)) > BUILD_TOL:
                problems.append(f"{label}: amplitude {index} is {complex(amps[index])!r}")
        return norm, problems


def make_workload(name: str, seed: int):
    if name in CURVE_THETAS:
        return Curve(name, seed)
    if name in ESTIMATES:
        return Estimate(name, seed)
    return Build(name, seed)


# -- measurement ---------------------------------------------------------------


def timed_loop(workload, seconds: float, recorder) -> list[dict]:
    """Closed loop for `seconds`; with a recorder every odd op is traced.
    A failed op keeps the wall time it took to fail.  The host probe runs
    between ops, outside the timed span of each."""
    records = []
    probe = workload.probe()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline or (recorder and i < 2):
        traced = recorder is not None and i % 2 == 1
        record = {"op": i, "traced": traced}
        start = time.perf_counter()
        try:
            if traced:
                elapsed, output, problems = recorder.call(i, lambda: workload.op(i))
            else:
                elapsed, output, problems = workload.op(i)
            record.update(seconds=elapsed, output=output, problems=problems)
        except Exception:  # a failed op is counted, recorded and the loop goes on
            record.update(seconds=time.perf_counter() - start, problems=[traceback.format_exc()])
        record["ok"] = not record["problems"]
        next_probe = workload.probe()
        record["slowdown"] = (probe + next_probe) / 2
        record["scaled_s"] = record["seconds"] / record["slowdown"]
        probe = next_probe
        records.append(record)
        i += 1
    return records


def setup_seconds(name: str, seed: int) -> list[dict]:
    """Seconds from spawning a fresh process to the end of its import, set-up
    and warm-up, which it reports on stdout; each rescaled by the host probes
    run just before and after it."""
    samples = []
    probe = host_probe()
    for _ in range(SETUP_REPEATS):
        start = time.time()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=170, stdout=subprocess.PIPE, text=True,
        )
        seconds = float(child.stdout.split()[-1]) - start
        next_probe = host_probe()
        samples.append({"seconds": seconds, "scaled_s": seconds * 2 / (probe + next_probe)})
        probe = next_probe
    return samples


def median_seconds(records: list[dict], traced: bool, key: str = "scaled_s") -> float:
    """Median time of the correct ops (of all ops when none was correct)."""
    side = [r for r in records if r["traced"] == traced]
    return statistics.median([r[key] for r in side if r["ok"]] or [r[key] for r in side])


def layer_metrics(names: list[str], records: list[dict], recorder, workload: str, lowshot) -> dict:
    """Per-layer values: medians over the traced, correct ops."""
    per_op = recorder.per_op()
    rows = [per_op.get(r["op"], {}) for r in records if r["traced"] and r["ok"]] or [{}]

    def field(span: str, key: str):
        return lambda row: row.get(span, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return lambda row: scale * num(row) / den(row) if den(row) else 0.0

    _, pipeline, replicas, _ = ESTIMATES.get(workload, (None, None, 1, None))

    def replica_s(row):
        """Bootstrap time per replica: the counts-to-curve call minus the
        point estimate's correlator table (its point curve included)."""
        return (
            field("measurement.mi_curve_from_counts", "total_s")(row)
            - field("measurement.estimate_correlators", "total_s")(row)
        ) / replicas

    derived = {
        "build.bytes_computed": field("qcore.StateVector", "amount"),
        "darwinism.fragments_per_s": ratio(
            field("darwinism.mutual_information", "calls"), field("darwinism.mi_curve", "total_s")
        ),
        "qcore.subsystem_entropy.per_call_us": ratio(
            field("qcore.subsystem_entropy", "self_s"), field("qcore.subsystem_entropy", "calls"), 1e6
        ),
        f"measurement.replica_s.{pipeline}": replica_s,
    }
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = median_seconds(records, True) / median_seconds(records, False) - 1.0
        elif name == "measurement.lowshot_failed":
            out[name] = lowshot["failed"] if lowshot else 0.0
        else:
            span, _, key = name.rpartition(".")
            value = derived.get(name) or field(span, key)  # replica_s of the other pipeline: 0
            out[name] = float(statistics.median(value(row) for row in rows))
    return out


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
        "loop": "closed, one caller in one process",
        "limits": HOST_LIMITS,
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    workload = make_workload(args.workload, args.seed)
    if args.setup_only:
        # wall clock, comparable across processes; teardown is not set-up
        print(repr(time.time()), flush=True)
        os._exit(0)

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
    records = timed_loop(workload, args.seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lowshot = lowshot_probe(args.seed) if args.workload == "estimate-reconstruction" else None

    failed = sum(not r["ok"] for r in records)
    untraced = [r for r in records if not r["traced"]]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        section = spec["per_layer"]
        values = layer_metrics([m["name"] for m in section], records, recorder, args.workload, lowshot)
        recorder.write_csv(OUT_DIR / f"{stem}-spans.csv")
        setup = None
    else:
        section = spec["end_to_end"]
        setup = setup_seconds(args.workload, args.seed)
        values = {
            "op_s": median_seconds(records, False),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(s["scaled_s"] for s in setup),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_s_samples": setup,
        "ops": records,
        "op_s_samples": sum(r["ok"] for r in untraced),
        "op_wall_s_median": median_seconds(records, False, "seconds"),
        "lowshot_probe": lowshot,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for r in records:
        if not r["ok"]:
            print(f"op {r['op']} failed: {r['problems']}", file=sys.stderr)
    print(f"{args.workload}: {len(records)} ops ({len(untraced)} untraced), {failed} failed; record in {OUT_DIR}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

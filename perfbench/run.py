#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `insomnia` batch simulator.

Run from the repository root:

    python3 perfbench/run.py --workload office-day --seed 2011 --seconds 20 --trace 0

`--trace 0` times the release CLI on the workload (closed loop, one client:
invocations run back to back until `--seconds` have passed, at least one)
plus the workload's world set-up, checks every result record, and prints
the end-to-end metrics. `--trace 1` runs the CLI once plain and once with
`--telemetry`, then the traced replay (`perfbench/tracer`), checks that the
replay's counters equal the CLI sidecar's, and prints the per-layer
metrics. The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.

Exit codes: 0 all outputs correct; 1 a result record was missing or wrong,
or the replay disagreed with the CLI (the result line is still printed);
2 the checkout cannot be built, or a tool (the tracer included) failed
(nothing printed on stdout).
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# The seed reference.json was made for (the scenarios' default seed).
REFERENCE_SEED = 2011
TRACER_MANIFEST = HERE / "tracer" / "Cargo.toml"

# Each workload: the `insomnia run` flags (shared with the tracer), the
# thread budget, and whether the run checkpoints. Why each was chosen is
# in README.md.
WORKLOADS = {
    "office-day": {
        "args": ["--scenario", "paper-default", "--quick",
                 "--schemes", "no-sleep,soi,bh2,multi-doze,adaptive-soi"],
        "threads": 1,
        "checkpoint": False,
    },
    "metro-stream": {
        "args": ["--scenario", "dense-metro", "--set", "n_clients=25600",
                 "--set", "n_aps=3200", "--set", "shards=16",
                 "--set", "horizon_hours=9.0", "--schemes", "soi,bh2,multi-doze"],
        "threads": 2,
        "checkpoint": True,
    },
    "optimal-morning": {
        "args": ["--scenario", "paper-default", "--set", "n_clients=52224",
                 "--set", "n_aps=7680", "--set", "shards=192",
                 "--set", "horizon_hours=9.5", "--set", "sample_period_s=60.0",
                 "--set", "repetitions=1",
                 "--schemes", "optimal"],
        "threads": 2,
        "checkpoint": False,
    },
    "giga-setup": {
        "args": ["--scenario", "giga-metro", "--set", "n_clients=640000",
                 "--set", "n_aps=80000", "--set", "shards=128",
                 "--set", "horizon_hours=0.5", "--schemes", "soi"],
        "threads": 2,
        "checkpoint": False,
    },
}

# Every run ends within 180 s; the build before it is not counted.
RUN_DEADLINE_S = 170.0

# Counters that depend on how arrivals reach the driver (stream, replay
# cache or slice) or on recovery, not on the simulated model.
PATH_COUNTERS = {"stream_refills", "merge_pops", "proto_cache_builds",
                 "proto_cache_hits", "tasks_retried", "faults_injected",
                 "tasks_resumed"}
SCHEMES = ["no-sleep", "soi", "bh2", "multi-doze", "adaptive-soi"]


class SetupError(Exception):
    """The checkout cannot be built or a tool failed outside the workload."""


def die_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def run_timed(cmd, log_path, deadline):
    """Runs `cmd` to completion; returns (exit code, wall s, cpu s, peak RSS MiB).

    CPU and peak RSS come from the child's own rusage (wait4); the child is
    killed if it outlives `deadline` or this process is interrupted.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise SetupError(f"{cmd[0]} ran past the {RUN_DEADLINE_S:.0f} s run limit")
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def run_capture(cmd, deadline):
    """Runs a helper to completion and returns its stdout (nonzero exit fails)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as e:
        proc.kill()
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise SetupError(f"{cmd[0]} ran past the {RUN_DEADLINE_S:.0f} s run limit")
        raise
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(cmd[:2])} exited {proc.returncode}: "
                         f"{err.decode(errors='replace').strip()[-2000:]}")
    return out.decode()


def build(env):
    """Builds the release CLI and the tracer; build time enters no metric."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "scenarios").is_dir():
        raise SetupError(f"{ROOT} is not an insomnia checkout (no Cargo.toml / crates)")
    for cmd in (["cargo", "build", "--release", "--offline", "--quiet",
                 "-p", "insomnia-scenarios", "--bin", "insomnia"],
                ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", str(TRACER_MANIFEST)]):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise SetupError(f"{' '.join(cmd)} failed:\n"
                             f"{proc.stderr.decode(errors='replace')[-4000:]}")
    release = Path(env["CARGO_TARGET_DIR"]) / "release"
    return release / "insomnia", release / "perfbench-tracer"


def provenance(seed, threads):
    """What a result was measured on, recorded with every result."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    # The checkout the benchmark runs in may not be a git repository, so
    # the source tree is identified by a digest of the files that build.
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "src"):
        sources += sorted(p for p in (ROOT / top).rglob("*")
                          if p.is_file() and (p.suffix == ".rs" or p.name == "Cargo.toml"))
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "rustc": rustc,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": threads,
        "seed": seed,
    }


class JobChecker:
    """Counts job records (one JSONL line each) that are missing or wrong.

    A seed with a stored reference (reference.json, made on the seed commit)
    is checked record by record against its digests. Any other seed is
    checked against the first run of that seed in this checkout, and every
    record is also checked for the expected scenario, scheme order and
    population.
    """

    def __init__(self, name, spec, seed, work):
        args = spec["args"]
        self.schemes = args[args.index("--schemes") + 1].split(",")
        self.scenario = args[args.index("--scenario") + 1]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = refs.get(name, {}).get(str(seed))
        # A stored first run holds only for the workload definition it ran.
        self.shape = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:12]
        self.first_path = work / f"first-{name}-{self.shape}-{seed}.jsonl"
        self.n_flows = None

    def digests_of(self, lines):
        return [hashlib.sha256(line).hexdigest() for line in lines]

    def check(self, jsonl_path, exit_code):
        """Checks one CLI run's JSONL; returns the world's flow count or None."""
        expected = len(self.schemes)
        self.attempted += expected
        lines = jsonl_path.read_bytes().splitlines() if jsonl_path.is_file() else []
        if exit_code != 0:
            self.failed += expected
            self.problems.append(f"insomnia exited {exit_code}; all {expected} jobs count as failed")
            return None
        if len(lines) != expected:
            self.problems.append(f"{len(lines)} records, expected {expected}")
        if self.reference is not None:
            want = self.reference
        elif self.first_path.is_file():
            want = self.digests_of(self.first_path.read_bytes().splitlines())
        else:
            want = None
        got = self.digests_of(lines)
        bad = 0
        for k, scheme in enumerate(self.schemes):
            if k >= len(lines):
                bad += 1
                continue
            problem = self.record_problem(lines[k], scheme)
            if problem is None and want is not None and (k >= len(want) or got[k] != want[k]):
                problem = "differs from the reference" if self.reference else \
                    "differs from this seed's first run"
            if problem:
                bad += 1
                self.problems.append(f"job {k} ({scheme}): {problem}")
        self.failed += bad
        if bad == 0 and want is None and len(lines) == expected:
            self.first_path.write_bytes(jsonl_path.read_bytes())
        return self.n_flows if bad == 0 else None

    def record_problem(self, line, scheme):
        try:
            rec = json.loads(line)
        except ValueError:
            return "not JSON"
        if rec.get("scenario") != self.scenario or rec.get("scheme") != scheme:
            return f"is {rec.get('scenario')}/{rec.get('scheme')}"
        if rec.get("seed_index") != 0 or not rec.get("n_flows"):
            return "bad seed_index or n_flows"
        if self.n_flows is None:
            self.n_flows = rec["n_flows"]
        elif rec["n_flows"] != self.n_flows:
            return "n_flows differs across schemes of one world"
        if not (rec.get("energy_kwh", 0) > 0 and 0 <= rec.get("completed_frac", -1) <= 1):
            return "energy or completed fraction out of range"
        return None


def cli_command(insomnia, spec, seed, out, checkpoint, telemetry=None):
    cmd = [str(insomnia), "run", *spec["args"], "--set", f"seed={seed}",
           "--threads", str(spec["threads"]), "--quiet", "--out", str(out)]
    if spec["checkpoint"]:
        cmd += ["--checkpoint", str(checkpoint)]
    if telemetry is not None:
        cmd += ["--telemetry", str(telemetry)]
    return cmd


def tracer_args(spec, seed):
    return [*spec["args"], "--set", f"seed={seed}", "--threads", str(spec["threads"])]


def value(v, unit):
    return {"value": v, "unit": unit}


def check_reference_seed(name, spec, insomnia, work, checker, deadline):
    """Runs the workload once, untimed, at the reference seed, so that the
    program's output is checked against the seed commit's digests.

    A binary that passed once in this checkout is not run again: its output
    changes only with the binary or the workload, and every run still checks
    its own seed against that seed's first run."""
    ref = JobChecker(name, spec, REFERENCE_SEED, work)
    if ref.reference is None:
        return
    key = hashlib.sha256(insomnia.read_bytes() + json.dumps(ref.reference).encode())
    passed = work / f"passed-{name}-{ref.shape}-{key.hexdigest()[:16]}"
    if passed.is_file():
        return
    out = work / f"{name}.ref.jsonl"
    out.unlink(missing_ok=True)
    code, _, _, _ = run_timed(
        cli_command(insomnia, spec, REFERENCE_SEED, out, work / f"{name}.ckpt"),
        work / f"{name}.stderr.log", deadline)
    ref.check(out, code)
    checker.attempted += ref.attempted
    checker.failed += ref.failed
    checker.problems += [f"seed {REFERENCE_SEED}: {p}" for p in ref.problems]
    if ref.failed == 0 and not ref.problems:
        passed.touch()


def measure_e2e(name, spec, seed, seconds, insomnia, tracer, work, checker, deadline):
    if seed != REFERENCE_SEED:
        check_reference_seed(name, spec, insomnia, work, checker, deadline)
    # The tracer repeats the set-up pass until its median is steady.
    setup = json.loads(run_capture(
        [str(tracer), "setup", *tracer_args(spec, seed)], deadline))
    passes = setup["setup_s"]
    world_flows = setup["world_flows"]

    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        out = work / f"{name}.jsonl"
        out.unlink(missing_ok=True)
        code, wall, cpu, rss = run_timed(
            cli_command(insomnia, spec, seed, out, work / f"{name}.ckpt"),
            work / f"{name}.stderr.log", deadline)
        n_flows = checker.check(out, code)
        if n_flows is not None and n_flows != world_flows:
            checker.failed += len(checker.schemes)
            checker.problems.append(
                f"JSONL n_flows {n_flows} != world set-up flow count {world_flows}")
        runs.append((wall, cpu, rss))
    med = statistics.median
    return {
        "wall_s": value(med(r[0] for r in runs), "s"),
        "flows_per_s": value(med(world_flows / r[0] for r in runs), "flows/s"),
        "cpu_s": value(med(r[1] for r in runs), "s"),
        "setup_s": value(med(passes), "s"),
        "peak_rss_mib": value(med(r[2] for r in runs), "MiB"),
    }, {"invocations": len(runs), "setup_passes": len(passes), "world_flows": world_flows}


def tail_percentile(samples):
    """The task time with exactly ten tasks above it: the highest percentile
    with at least ten samples beyond it (the median below twenty tasks)."""
    if len(samples) < 20:
        return statistics.median(samples)
    return sorted(samples)[len(samples) - 11]


def fidelity_problems(replay, sidecar_path, profile_totals):
    """Compares the replay's counters with the CLI telemetry sidecar."""
    problems = []
    jobs = {}
    for line in sidecar_path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("type") == "job":
            jobs[rec["scheme"]] = rec["counters"]

    def diff(label, want, got):
        for key in sorted((set(want) | set(got)) - PATH_COUNTERS):
            if want.get(key, 0) != got.get(key, 0):
                problems.append(f"{label} {key}: CLI {want.get(key, 0)} != replay {got.get(key, 0)}")

    for scheme, counters in replay["per_scheme"].items():
        if scheme not in jobs:
            problems.append(f"sidecar has no job record for {scheme}")
            continue
        diff(scheme, jobs[scheme], counters)
    replayed = replay["totals"]
    totals = profile_totals["counters"]
    diff("total", totals, replayed["counters"])
    for key in ("jobs", "tasks", "events", "flows"):
        if profile_totals[key] != replayed[key]:
            problems.append(f"total {key}: CLI {profile_totals[key]} != replay {replayed[key]}")
    # Without the cross-scheme prototype cache every CLI task drains a
    # fresh stream to the end, exactly like the replay's drains. (Optimal
    # reads arrivals only as far as its last re-solve needs.)
    if not totals.get("proto_cache_builds") and not totals.get("optimal_solves"):
        fresh = replay["traffic"]
        for key, got in (("stream_refills", fresh["refills"]), ("merge_pops", fresh["merge_pops"])):
            if totals.get(key, 0) != got:
                problems.append(f"total {key}: CLI {totals.get(key, 0)} != fresh streams {got}")
    return problems


def measure_layers(name, spec, seed, insomnia, tracer, work, checker, deadline):
    out = work / f"{name}.jsonl"
    out.unlink(missing_ok=True)
    code, e2e_wall, _, _ = run_timed(
        cli_command(insomnia, spec, seed, out, work / f"{name}.ckpt"),
        work / f"{name}.stderr.log", deadline)
    checker.check(out, code)

    sidecar = work / f"{name}.telemetry.jsonl"
    out.unlink(missing_ok=True)
    code, _, _, _ = run_timed(
        cli_command(insomnia, spec, seed, out, work / f"{name}.ckpt", telemetry=sidecar),
        work / f"{name}.stderr.log", deadline)
    checker.check(out, code)
    profile = json.loads(run_capture(
        [str(insomnia), "profile", "--counters", str(sidecar)], deadline))

    cmd = [str(tracer), "replay", "--spans", str(work / f"{name}.spans.jsonl"),
           *tracer_args(spec, seed)]
    if spec["checkpoint"]:
        cmd += ["--checkpoint", str(work / f"{name}.replay.ckpt")]
    start = time.perf_counter()
    replay = json.loads(run_capture(cmd, deadline))
    traced_wall = time.perf_counter() - start
    checker.problems += fidelity_problems(replay, sidecar, profile)

    c = replay["totals"]["counters"]
    tr = replay["traffic"]
    drv = replay["driver"]
    opt = replay["optimal"]
    ckpt = replay["checkpoint"] or {"write_ms": 0.0, "load_ms": 0.0, "bytes": 0}
    tasks = replay["task_ms"]
    per_s = lambda n, ms: n / (ms / 1e3) if ms > 0 else 0.0
    metrics = {
        "traffic.setup_ms": value(tr["setup_ms"], "ms"),
        "traffic.setup_flows_per_s": value(per_s(tr["flows"], tr["setup_ms"]), "flows/s"),
        "traffic.drain_ms": value(tr["drain_ms"], "ms"),
        "traffic.drain_flows_per_s": value(per_s(tr["flows"], tr["drain_ms"]), "flows/s"),
        "traffic.refills": value(tr["refills"], "count"),
        "traffic.merge_pops": value(tr["merge_pops"], "count"),
        "wireless.topology_ms": value(replay["wireless"]["topology_ms"], "ms"),
    }
    for scheme in SCHEMES:
        metrics[f"driver.loop_ms.{scheme}"] = value(drv["loop_ms"].get(scheme, 0.0), "ms")
    metrics |= {
        "driver.events": value(drv["events"], "count"),
        "driver.events_per_s": value(per_s(drv["events"], drv["ms"]), "events/s"),
        "driver.bh2_tick_share": value(drv["bh2_ticks"] / drv["events"] if drv["events"] else 0.0,
                                       "ratio"),
        "simcore.heap_pushes": value(c["heap_pushes"], "count"),
        "simcore.peak_heap": value(c["peak_heap"], "count"),
        "simcore.cancel_ratio": value(
            (c["cancelled_departures"] + c["cancelled_idle_checks"]
             + c.get("cancelled_doze_ticks", 0)) / c["heap_pushes"] if c["heap_pushes"] else 0.0,
            "ratio"),
        "access.wake_dones": value(c["wake_dones"], "count"),
        "access.idle_checks": value(c["idle_checks"], "count"),
        "access.doze_ticks": value(c.get("doze_ticks", 0), "count"),
        "optimal.run_ms": value(opt["run_ms"], "ms"),
        "optimal.solves": value(opt["solves"], "count"),
        "optimal.ms_per_solve": value(opt["run_ms"] / opt["solves"] if opt["solves"] else 0.0,
                                      "ms"),
        "fold.absorb_ms": value(replay["fold"]["absorb_ms"], "ms"),
        "batch.efficiency": value(replay["busy_ms"] / 1e3 / (spec["threads"] * e2e_wall),
                                  "ratio"),
        "batch.task_ms.p50": value(statistics.median(tasks), "ms"),
        "batch.task_ms.ptail": value(tail_percentile(tasks), "ms"),
        "batch.tasks": value(len(tasks), "count"),
        "checkpoint.write_ms": value(ckpt["write_ms"], "ms"),
        "checkpoint.load_ms": value(ckpt["load_ms"], "ms"),
        "checkpoint.bytes": value(ckpt["bytes"], "bytes"),
        "trace_overhead_s": value(traced_wall - e2e_wall, "s"),
    }
    return metrics, {"e2e_wall_s": e2e_wall, "traced_wall_s": traced_wall}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's result digests in perfbench/reference.json")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, die_on_signal)
    signal.signal(signal.SIGINT, die_on_signal)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str((ROOT / env["CARGO_TARGET_DIR"]).resolve())
    work = Path(env["CARGO_TARGET_DIR"]) / "perfbench"
    spec = WORKLOADS[args.workload]
    try:
        insomnia, tracer = build(env)
        work.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + RUN_DEADLINE_S
        checker = JobChecker(args.workload, spec, args.seed, work)
        if args.record_reference:
            checker.reference = None
            checker.first_path.unlink(missing_ok=True)
        if args.trace:
            metrics, info = measure_layers(args.workload, spec, args.seed, insomnia, tracer,
                                           work, checker, deadline)
        else:
            metrics, info = measure_e2e(args.workload, spec, args.seed, args.seconds, insomnia,
                                        tracer, work, checker, deadline)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    correct = checker.failed == 0 and not checker.problems
    if args.record_reference and correct:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        lines = checker.first_path.read_bytes().splitlines()
        refs.setdefault(args.workload, {})[str(args.seed)] = checker.digests_of(lines)
        REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    for problem in checker.problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"jobs_failed_ratio: {checker.failed / max(checker.attempted, 1):.6g} ratio "
          f"({checker.failed} of {checker.attempted} jobs)")
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": provenance(args.seed, spec["threads"]),
                      "workload": args.workload}))
    print(json.dumps({"correct": correct, "attempted": max(checker.attempted, 1),
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

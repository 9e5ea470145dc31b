#!/usr/bin/env python3
"""cisa benchmark: cold campaign, warm figure suite, routed serve.

    python3 perfbench/run.py --workload campaign_cold --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a cisa source tree. The first run builds the
library, the figure benches, the service binaries and pb_driver into
.bench_build/ (Release). Every run works in its own temporary
directory there: its own slab store, its own socket paths.

--trace 0 measures the workload and prints its end-to-end metrics;
--trace 1 runs the traced per-layer profile instead (see README.md).
The last stdout line is one JSON object: correct, attempted, failed,
metrics. A copy, with the host it ran on, lands in
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
DRIVER = CMAKE_DIR / "pb_driver"
TOOLS = CMAKE_DIR / "cisa" / "tools"
BENCHES = CMAKE_DIR / "cisa" / "bench"
EXPECTED = HERE / "expected"

sys.path.insert(0, str(HERE))
import stats  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
THREADS = min(NPROC, 4)
CONNECTIONS = THREADS  # serve_warm's closed-loop clients
SETUP_REPEATS = 15     # process launches per run for setup_s
MIN_CAMPAIGNS = 3      # cold campaigns per run, so wall_s is a median
FLEET_STARTS = 7       # fleet starts per serve run for setup_s
BLOCK = 1000           # serve requests per wall_s block
SHORT_S = 1.0          # figure pipelines shorter than this run
SHORT_REPEATS = 3      # this many times per pass, timed by their median
WINDOW_S = 2.0         # serve metrics are medians over windows this long
RUN_DEADLINE_S = 170   # kill everything still running after this


class BenchError(Exception):
    """The benchmark itself cannot run (not a program failure)."""


# ------------------------------------------------------------------
# Processes
# ------------------------------------------------------------------

_live = set()
_live_lock = threading.Lock()


class Proc:
    """A child with files for stdout/stderr, reaped with wait4 so its
    peak RSS is known."""

    def __init__(self, name, cmd, env, cwd):
        self.name = name
        self.out = Path(cwd) / f"{name}.out"
        self.err = Path(cwd) / f"{name}.err"
        with open(self.out, "wb") as o, open(self.err, "wb") as e:
            self.t0_ns = time.monotonic_ns()
            self.p = subprocess.Popen([str(c) for c in cmd], env=env,
                                      cwd=cwd, stdout=o, stderr=e)
        self.wall_s = None
        self.rc = None
        self.maxrss_mb = None
        with _live_lock:
            _live.add(self)

    def wait(self):
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
            self.rc = os.waitstatus_to_exitcode(status)
            self.maxrss_mb = ru.ru_maxrss / 1024.0
        except ChildProcessError:  # already reaped by Popen.poll()
            self.rc = self.p.returncode
            self.maxrss_mb = 0.0
        self.wall_s = (time.monotonic_ns() - self.t0_ns) * 1e-9
        self.p.returncode = self.rc
        with _live_lock:
            _live.discard(self)
        return self.rc

    def stop(self):
        if self.rc is None:
            try:
                self.p.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            self.wait()

    def json(self):
        """The child's last stdout line, parsed (None if absent)."""
        lines = self.out.read_text(errors="replace").strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except ValueError:
            return None


def run(name, cmd, env, cwd):
    p = Proc(name, cmd, env, cwd)
    p.wait()
    return p


def kill_all(reap):
    """SIGKILL every child still running; with @p reap, also wait for
    each (the watchdog thread leaves that to the thread waiting)."""
    with _live_lock:
        procs = list(_live)
    for p in procs:
        try:
            p.p.kill()
        except ProcessLookupError:
            pass
        if reap:
            p.wait()


def watchdog():
    t = threading.Timer(RUN_DEADLINE_S, kill_all, args=(False,))
    t.daemon = True
    t.start()
    return t


# ------------------------------------------------------------------
# Build and host
# ------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        raise BenchError(f"no cisa source tree at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(CMAKE_DIR), "-j", str(NPROC),
         "--target", "perfbench_all"],
    ]
    with open(log, "ab") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace")[-3000:]
                raise BenchError(f"build failed:\n{tail}")


def source_digest():
    """sha256 over the program's source files (the checkout need not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "bench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def host_info(env):
    flags = set()
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags") and not flags:
                flags = set(line.split(":", 1)[1].split())
            if line.startswith("model name") and not model:
                model = line.split(":", 1)[1].strip()
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        rev = r.stdout.strip() or None
    knobs = json.loads(subprocess.run(
        [str(DRIVER), "host"], env=env, capture_output=True,
        text=True, check=True).stdout.splitlines()[-1])
    return {
        "nproc": NPROC,
        "cpu": model,
        "avx512_flags": sorted(f for f in flags if f.startswith("avx512")),
        "avx512_kernel_usable": bool(knobs["avx512_kernel_usable"]),
        "CISA_THREADS": THREADS,
        "build_type": "Release",
        "git_rev": rev,
        "source_digest": source_digest(),
        "CISA_SIM_UOPS": int(knobs["sim_uops"]),
        "CISA_SIM_WARMUP": int(knobs["sim_warmup"]),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat. Steal is
    time the hypervisor ran something else on this host's vCPUs."""
    try:
        f = [int(x) for x in
             Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (f[7] if len(f) > 7 else 0), sum(f)


def child_env(run_dir):
    """The environment every program under test gets: no inherited
    CISA_* knob, a private slab store and cache home."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CISA_")}
    env["CISA_THREADS"] = str(THREADS)
    env["CISA_DSE_CACHE"] = str(Path(run_dir) / "dse.bin")
    env["XDG_CACHE_HOME"] = str(Path(run_dir) / "xdg")
    return env


# ------------------------------------------------------------------
# Expected outputs
# ------------------------------------------------------------------

def expected_digests():
    return json.loads((EXPECTED / "slab_digests.json").read_text())


def digest_failures(digests):
    """Slabs whose digest differs from the kept one."""
    want = expected_digests()["digests"]
    if not digests:
        return len(want)
    return sum(a != b for a, b in zip(digests, want))


def figure_names():
    return sorted(p.stem for p in (EXPECTED / "figures").glob("*.txt"))


def canonical(name, text):
    """Figure stdout without its wall-clock rows: sec3_codegen_stats'
    per-pass timing section varies run to run by design."""
    if name != "sec3_codegen_stats":
        return text
    out, skip = [], False
    for line in text.splitlines(keepends=True):
        if line.startswith("=="):
            skip = "wall clock" in line
        if not skip:
            out.append(line)
    return "".join(out)


def filled_store(env, run_dir):
    """Put a store holding all 29 slabs at the run's CISA_DSE_CACHE and
    return how many of its slabs differ from the kept digests. The
    store is filled once per build of pb_driver (keyed by its hash)
    and copied for each run, so no run writes to another's store."""
    key = hashlib.sha256(DRIVER.read_bytes()).hexdigest()[:16]
    store = BUILD / "store" / f"{key}.bin"
    if not store.exists():
        store.parent.mkdir(exist_ok=True)
        fill_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="fill"))
        fenv = dict(env, CISA_DSE_CACHE=str(fill_dir / "dse.bin"))
        p = run("fill", [DRIVER, "campaign", "0"], fenv, fill_dir)
        if p.rc != 0:
            raise BenchError(f"filling the store failed: rc {p.rc}")
        tmp = store.with_suffix(f".tmp{os.getpid()}")
        shutil.copyfile(fill_dir / "dse.bin", tmp)
        os.replace(tmp, store)
    shutil.copyfile(store, env["CISA_DSE_CACHE"])
    ready = run("check", [DRIVER, "ready"], env, run_dir)
    return digest_failures((ready.json() or {}).get("digests"))


def setup_launches(cmd, env, run_dir, fresh_store):
    """Median seconds from launching @p cmd until it reports ready,
    over SETUP_REPEATS launches; also the last launch's output."""
    times, last = [], None
    for i in range(SETUP_REPEATS):
        e = env
        if fresh_store:
            e = dict(env, CISA_DSE_CACHE=str(run_dir / f"setup{i}.bin"))
        p = run(f"setup{i}", cmd, e, run_dir)
        last = p.json()
        if p.rc != 0 or not last:
            raise BenchError(f"{cmd[1]} launch failed: rc {p.rc}")
        times.append((last["ready_ns"] - p.t0_ns) * 1e-9)
    return statistics.median(times), last


# ------------------------------------------------------------------
# Workloads
# ------------------------------------------------------------------

def per_op(ops_s, total_s):
    """rps, p50_us and p99_us of a list of per-op seconds."""
    us = [t * 1e6 for t in ops_s]
    p, tail = stats.tail(us)
    return {"rps": len(us) / total_s, "p50_us": statistics.median(us),
            "p99_us": tail}, p


def campaign_cold(seed, seconds, run_dir, env):
    setup, _ = setup_launches([DRIVER, "campaign", "--setup-only"], env,
                              run_dir, fresh_store=True)
    walls, slabs, rss = [], [], []
    attempted = failed = 0
    t0 = time.monotonic()
    rep = 0
    while rep < MIN_CAMPAIGNS or time.monotonic() - t0 < seconds:
        e = dict(env, CISA_DSE_CACHE=str(run_dir / f"cold{rep}.bin"))
        p = run(f"cold{rep}", [DRIVER, "campaign", str(seed + rep)], e,
                run_dir)
        out = p.json() if p.rc == 0 else None
        attempted += 29
        if not out:
            failed += 29
            break
        failed += digest_failures(out["digests"])
        walls.append(out["wall_s"])
        slabs.extend(t * 1e-6 for t in out["slab_us"])
        rss.append(p.maxrss_mb)
        rep += 1
    if not walls:
        return attempted, failed, None, {}
    m, tail_p = per_op(slabs, sum(walls))
    m.update(wall_s=statistics.median(walls), setup_s=setup,
             peak_rss_mb=statistics.median(rss))
    return attempted, failed, m, {
        "campaigns": len(walls), "campaign_wall_s": walls,
        "slabs": len(slabs), "p99_us_is_percentile": tail_p}


def figures_warm(seed, seconds, run_dir, env):
    failed = filled_store(env, run_dir)
    setup, _ = setup_launches([DRIVER, "ready"], env, run_dir,
                              fresh_store=False)
    names = figure_names()
    order = sorted(names, key=lambda n: hashlib.sha256(
        f"{seed}:{n}".encode()).hexdigest())
    attempted = 29
    passes, ops, rss, mismatched = [], [], [], []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        pipeline_s = {}
        peak = 0.0
        for n in order:
            want = canonical(
                n, (EXPECTED / "figures" / f"{n}.txt").read_text())
            times = []
            while not times or (times[0] < SHORT_S and
                                len(times) < SHORT_REPEATS):
                p = run(n, [BENCHES / n], env, run_dir)
                attempted += 1
                got = p.out.read_text(errors="replace")
                if p.rc != 0 or canonical(n, got) != want:
                    failed += 1
                    mismatched.append(n)
                times.append(p.wall_s)
                peak = max(peak, p.maxrss_mb)
            pipeline_s[n] = statistics.median(times)
        # The pass time is the sum of the pipelines' times, so the
        # repeats of the short ones add no work to it.
        passes.append(sum(pipeline_s.values()))
        ops.extend(pipeline_s.values())
        rss.append(peak)
    m, tail_p = per_op(ops, sum(passes))
    m.update(wall_s=statistics.median(passes), setup_s=setup,
             peak_rss_mb=statistics.median(rss))
    return attempted, failed, m, {
        "passes": len(passes), "pass_wall_s": passes,
        "pipeline_s": pipeline_s, "mismatched": mismatched,
        "p99_us_is_percentile": tail_p}


class Fleet:
    """Two cisa_serve workers sharing the run's store behind one
    cisa_router, on UNIX sockets in the run directory."""

    WORKERS = ["./w0.sock", "./w1.sock"]
    ROUTER = "./r.sock"

    def __init__(self, env, run_dir, tag):
        self.run_dir = Path(run_dir)
        for s in self.WORKERS + [self.ROUTER]:
            (self.run_dir / s).unlink(missing_ok=True)
        self.t0_ns = time.monotonic_ns()
        self.procs = [Proc(f"{tag}w{i}", [TOOLS / "cisa_serve",
                                           "--address", a], env, run_dir)
                      for i, a in enumerate(self.WORKERS)]
        deadline = time.monotonic() + 30
        while not all((self.run_dir / a).exists() for a in self.WORKERS):
            if time.monotonic() > deadline or \
                    any(p.p.poll() is not None for p in self.procs):
                self.stop()
                raise BenchError("cisa_serve workers did not start")
            time.sleep(0.0005)
        cmd = [TOOLS / "cisa_router", "--address", self.ROUTER]
        for a in self.WORKERS:
            cmd += ["--worker", a]
        self.procs.append(Proc(f"{tag}router", cmd, env, run_dir))
        probe = run(f"{tag}probe",
                    [DRIVER, "probe"] + self.WORKERS + [self.ROUTER],
                    env, run_dir)
        if probe.rc != 0:
            self.stop()
            raise BenchError("the serve fleet did not answer")
        self.setup_s = (probe.json()["ready_ns"] - self.t0_ns) * 1e-9

    def stop(self):
        for p in reversed(self.procs):
            p.stop()
        return max(p.maxrss_mb for p in self.procs)


def serve_warm(seed, seconds, run_dir, env):
    bad_slabs = filled_store(env, run_dir)
    setups = []
    for i in range(FLEET_STARTS):
        fleet = Fleet(env, run_dir, f"f{i}")
        setups.append(fleet.setup_s)
        if i + 1 < FLEET_STARTS:
            fleet.stop()
    try:
        load = run("load", [DRIVER, "load", Fleet.ROUTER, str(CONNECTIONS),
                            str(seconds), str(seed)], env, run_dir)
    finally:
        rss = fleet.stop()
    out = load.json() if load.rc == 0 else None
    if not out:
        raise BenchError(f"serve load client failed: rc {load.rc}")
    # Medians over fixed windows: a burst of contention from outside
    # the benchmark moves a few windows, not the run's figure.
    n_win = max(1, round(seconds / WINDOW_S))
    width_us = seconds * 1e6 / n_win
    wins = [[] for _ in range(n_win)]
    for lat, end in zip(out["lat_us"], out["end_us"]):
        if end < n_win * width_us:
            wins[int(end // width_us)].append(lat)
    wins = [w for w in wins if w]
    m = {"setup_s": statistics.median(setups), "peak_rss_mb": rss}
    tails = [stats.tail(w) for w in wins]
    if wins:
        rps = statistics.median(len(w) * 1e6 / width_us for w in wins)
        m.update(rps=rps, wall_s=BLOCK / rps,
                 p50_us=statistics.median(
                     statistics.median(w) for w in wins),
                 p99_us=statistics.median(t[1] for t in tails))
    attempted = int(out["attempted"]) + 29
    return attempted, int(out["failed"]) + bad_slabs, m, {
        "requests_ok": len(out["lat_us"]),
        "connections": out["connections"], "windows": len(wins),
        "window_rps": [len(w) * 1e6 / width_us for w in wins],
        "fleet_starts_s": setups,
        "cache_hit_share": out.get("cache_hit_share"),
        "first_error": out["first_error"],
        "p99_us_is_percentile": min((t[0] for t in tails), default=None)}


def traced(workload, seed, run_dir, env, per_layer):
    """The per-layer profile: spans around calls into each module.
    Campaign stages run at one thread; the rest runs at THREADS
    against a fleet on the run's filled store."""
    bad_slabs = filled_store(env, run_dir)
    stages = run("stages", [DRIVER, "stages", run_dir / "stages.spans"],
                 dict(env, CISA_THREADS="1"), run_dir)
    fleet = Fleet(env, run_dir, "t")
    try:
        layers = run("layers", [DRIVER, "layers", Fleet.WORKERS[0],
                                Fleet.ROUTER, str(seed),
                                run_dir / "layers.spans"], env, run_dir)
    finally:
        fleet.stop()
    outs = [p.json() if p.rc == 0 else None for p in (stages, layers)]
    if not all(outs):
        raise BenchError(f"pb_driver profile failed: rc "
                         f"{stages.rc}, {layers.rc}")
    out = {**outs[0], **outs[1]}
    out["common.pool_speedup"] = \
        out["explore.slab_1t_s"] / out["explore.slab_nt_s"]
    m = {k: out[k] for k in per_layer if k in out}
    extra = {k: v for k, v in out.items() if k not in m}
    for part in ("stages", "layers"):
        keep = BUILD / "results" / f"spans-{workload}-seed{seed}-{part}.json"
        shutil.copyfile(run_dir / f"{part}.spans", keep)
        extra[f"spans_{part}"] = str(keep.relative_to(ROOT))
    attempted = sum(int(o["attempted"]) for o in outs) + 29
    failed = sum(int(o["failed"]) for o in outs) + bad_slabs
    return attempted, failed, m, extra


WORKLOADS = {
    "campaign_cold": campaign_cold,
    "figures_warm": figures_warm,
    "serve_warm": serve_warm,
}


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so the cleanup below still stops
    # every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        e2e, per_layer = declared()
        build()
        (BUILD / "results").mkdir(exist_ok=True)
        (BUILD / "runs").mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(dir=BUILD / "runs",
                                        prefix=f"{args.workload}-"))
        dog = watchdog()
        try:
            env = child_env(run_dir)
            host = host_info(env)
            steal0, total0 = cpu_ticks()
            if args.trace:
                units = per_layer
                attempted, failed, m, extra = traced(
                    args.workload, args.seed, run_dir, env, per_layer)
            else:
                units = e2e
                attempted, failed, m, extra = WORKLOADS[args.workload](
                    args.seed, args.seconds, run_dir, env)
            steal1, total1 = cpu_ticks()
            host["cpu_steal_share"] = \
                (steal1 - steal0) / max(total1 - total0, 1)
        finally:
            dog.cancel()
            kill_all(reap=True)
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    m = m or {}
    missing = [k for k in units if k not in m]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {k: {"value": m[k], "unit": u}
                    for k, u in units.items() if k in m},
    }
    record = {"schema": 1, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "missing_metrics": missing,
              "details": extra, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # allow_nan=False: NaN or Infinity would make the file invalid JSON.
    text = json.dumps(record, indent=1, sort_keys=True, allow_nan=False)
    (BUILD / "results" / name).write_text(text + "\n")
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

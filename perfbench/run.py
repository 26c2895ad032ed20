#!/usr/bin/env python3
"""The repository benchmark.  See README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the daemon and the
in-process helper with dune, generates the workload's databases and request
bodies from the seed, checks every answer against an in-process reference,
and prints the metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, and a
Chrome trace_event file is written under perfbench/_out/.  Exits nonzero
when an answer is wrong, an operation fails, or the run cannot be made.
"""

import argparse
import array
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import benchlib as bl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
CLI = os.path.join(ROOT, "_build", "default", "bin", "consensus_cli.exe")
HELPER = os.path.join(ROOT, "_build", "default", "perfbench", "helper.exe")

# The load generator never exceeds the reference box's core count: one
# closed-loop client thread and one connection per core (see README.md).
LOAD_THREADS = 2
SETUP_SPAWNS = 9  # set-ups per run; setup_s is their median
WARMUP_S = 1.0
EXIT_TIMEOUT_S = 30.0
# On serve-hot, p99_ms is the median of the p99s of ten consecutive chunks
# of the window's requests: the sub-millisecond tail of the cached path
# drifts with the daemon's heap over a run, and the median is steadier.
# Each chunk must hold the 1000 samples a p99 needs.
P99_CHUNKS = {"serve-hot": 10, "serve-cold": 1, "serve-mixed": 1}
MAX_TRACE_OPS = 20000

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics: (name, unit, end-to-end metric it should move,
# workload it moves on, workload it is bypassed on).  Each reads 0 on the
# workloads that do not reach its layer.
PER_LAYER = [
    ("expose.frontend_ms", "ms", "p50_ms ops_per_s", "serve-hot", "serve-cold"),
    ("expose.connects_per_op", "count", "ops_per_s", "serve-hot", "lineage"),
    ("protocol.parse_us", "us", "p50_ms", "serve-hot serve-cold", "lineage"),
    ("protocol.encode_us", "us", "p50_ms", "serve-hot serve-cold", "lineage"),
    ("scheduler.queue_wait_ms.p50", "ms", "p99_ms", "serve-mixed", "serve-hot"),
    ("scheduler.queue_wait_ms.p99", "ms", "p99_ms", "serve-mixed", "serve-hot"),
    ("scheduler.rejected", "count", "p99_ms", "serve-mixed", "serve-hot"),
    ("cache.hit_ratio", "ratio", "p50_ms", "serve-hot", "serve-cold"),
    ("cache.lookups_per_op", "count", "p50_ms", "serve-hot", "serve-cold"),
    ("api.run_ms.world", "ms", "ops_per_s p50_ms", "serve-cold", "serve-hot"),
    ("api.run_ms.topk", "ms", "ops_per_s p50_ms", "serve-cold", "serve-hot"),
    ("api.run_ms.rank", "ms", "ops_per_s p50_ms", "serve-cold", "serve-hot"),
    ("api.run_ms.aggregate", "ms", "ops_per_s p50_ms", "serve-cold", "serve-hot"),
    ("api.run_ms.cluster", "ms", "ops_per_s p50_ms", "serve-cold", "serve-hot"),
    ("anxor.genfunc_s_per_op", "s", "ops_per_s", "serve-cold", "serve-hot"),
    ("anxor.gf_nodes_per_op", "count", "ops_per_s", "serve-cold", "serve-hot"),
    ("anxor.rank_dist_s_per_op", "s", "ops_per_s", "serve-cold", "serve-hot"),
    ("matching.hungarian_s_per_op", "s", "ops_per_s", "serve-cold", "serve-hot"),
    ("matching.mcf_s_per_op", "s", "ops_per_s", "serve-cold", "serve-hot"),
    ("matching.mcf_augmentations_per_op", "count", "ops_per_s", "serve-cold",
     "serve-hot"),
    ("engine.queue_wait_ms", "ms", "ops_per_s p99_ms", "serve-cold serve-mixed",
     "lineage"),
    ("engine.worker_chunk_frac", "ratio", "ops_per_s", "serve-cold", "lineage"),
    ("engine.stage_wall_s.kendall_joints", "s", "ops_per_s", "serve-cold",
     "lineage"),
    ("engine.stage_wall_s.full_rank_dist", "s", "ops_per_s", "serve-cold",
     "lineage"),
    ("engine.stage_wall_s.footrule_cost", "s", "ops_per_s", "serve-cold",
     "lineage"),
    ("runtime.gc_pause_ms_per_op", "ms", "p99_ms", "serve-hot serve-cold serve-mixed",
     "lineage"),
    ("runtime.gc_pause_ms.p99", "ms", "p99_ms", "serve-hot serve-cold serve-mixed",
     "lineage"),
    ("pdb.probability_us", "us", "ops_per_s", "lineage", "serve-hot"),
    ("pdb.readonce_hit_ratio", "ratio", "ops_per_s", "lineage", "serve-hot"),
    ("pdb.expansions_per_op", "count", "ops_per_s", "lineage", "serve-hot"),
    ("textio.load_db_s", "s", "setup_s", "serve-hot serve-cold serve-mixed",
     "lineage"),
    ("mixed.heavy_ops_per_s", "1/s", "ops_per_s", "serve-mixed", "serve-hot"),
    ("mixed.heavy_p50_ms", "ms", "p50_ms", "serve-mixed", "serve-hot"),
    ("trace.overhead_pct", "%", "ops_per_s", "every workload", "-"),
]

UNITS = dict([(n, u) for n, u in END_TO_END] + [(m[0], m[1]) for m in PER_LAYER])
LAYER_MAP = {name: {"moves": moves, "on": on, "bypass": bypass}
             for name, _, moves, on, bypass in PER_LAYER}

# ---------- workload inputs ----------

# The E27 shapes: cheap once the shared cache holds their intermediates.
HOT_SHAPES = [
    "topk k=2 metric=footrule",
    "topk k=4 metric=footrule",
    "topk k=8 metric=footrule",
    "topk k=2 metric=symdiff",
    "topk k=4 metric=symdiff",
    "topk k=8 metric=symdiff",
    "topk k=2 metric=intersection",
    "world metric=symdiff",
    "rank metric=footrule",
]

# Every family, sent with cache=false so each request runs its kernels.
COLD_SHAPES = [
    "topk k=5 metric=symdiff flavor=mean",
    "topk k=5 metric=symdiff flavor=median",
    "topk k=5 metric=footrule",
    "topk k=5 metric=intersection",
    "topk k=5 metric=kendall",
    "world metric=symdiff",
    "world metric=jaccard flavor=median",
    "rank metric=footrule",
    "rank metric=kendall",
    "cluster trials=4",
]
HOT_KEYS = 14
# Kernel work varies with the database drawn, so the cold class spreads it
# over several databases and matrices to keep a run's cost seed-independent.
# At least 17 keys: up to 16, a Kendall ranking runs the exact Kemeny DP.
COLD_KEYS = (17, 20) * 6
AGG_MATRICES, AGG_ROWS, AGG_GROUPS = 6, 200, 16


class BenchError(Exception):
    pass


def bid_db_lines(rng, n):
    """A BID database in the text format: 1, 2 or 3 alternatives per key,
    pairwise-distinct scores, a share of keys certainly present.  The
    alternative counts are a fixed multiset in seeded order, so a database's
    size, and with it the kernels' work, does not vary with the seed."""
    counts = [1 + i % 3 for i in range(n)]
    rng.shuffle(counts)
    scores = iter(rng.sample(range(1, 100 * sum(counts)), sum(counts)))
    lines = []
    for key, c in enumerate(counts, 1):
        raw = [0.05 + rng.random() for _ in range(c)]
        budget = 0.999 if rng.random() < 0.2 else 0.2 + 0.75 * rng.random()
        alts = " ".join("%.6f:%d" % (r / sum(raw) * budget, next(scores))
                        for r in raw)
        lines.append("%d %s" % (key, alts))
    return lines


def matrix_lines(rng, rows, groups):
    """A row-stochastic tuple x group matrix: each row spreads 1..4 parts of
    10000 over Zipf-favoured groups, so rows sum to exactly 1."""
    weights = [1.0 / (g + 1) for g in range(groups)]
    lines = []
    for _ in range(rows):
        k = 1 + rng.randrange(4)
        support = []
        while len(support) < k:
            g = rng.choices(range(groups), weights)[0]
            if g not in support:
                support.append(g)
        cuts = sorted(rng.sample(range(1, 10000), k - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [10000])]
        row = ["0"] * groups
        for g, part in zip(support, parts):
            row[g] = "%.4f" % (part / 10000.0)
        lines.append(" ".join(row))
    return lines


def request(rid, db, body, seed, cache):
    params = "db=%s&seed=%d" % (db, seed) + ("" if cache else "&cache=false")
    return {"id": rid, "db": db, "body": body.encode(), "seed": seed,
            "cache": cache, "path": "/query?" + params}


def serve_inputs(workload, seed, workdir):
    """Databases, request classes and the per-connection class plan of a
    serve workload, written under `workdir` for the daemon and the helper."""
    rng = random.Random(seed)
    dbs, classes = {}, {}
    if workload in ("serve-hot", "serve-mixed"):
        dbs["hot"] = bid_db_lines(rng, HOT_KEYS)
        classes["hot"] = [request("h%d" % i, "hot", s + "\n", seed, True)
                          for i, s in enumerate(HOT_SHAPES)]
    if workload in ("serve-cold", "serve-mixed"):
        cold = []
        for j, n in enumerate(COLD_KEYS):
            name = "c%d" % j
            dbs[name] = bid_db_lines(rng, n)
            cold += [request("%s-%d" % (name, i), name, s + "\n", seed, False)
                     for i, s in enumerate(COLD_SHAPES)]
        for j in range(AGG_MATRICES):
            matrix = matrix_lines(rng, AGG_ROWS, AGG_GROUPS)
            cold.append(request("agg%d" % j, "c0", "aggregate flavor=median\n"
                                + "\n".join(matrix) + "\n", seed, False))
        classes["cold"] = cold
    for reqs in classes.values():
        rng.shuffle(reqs)
    db_paths = {}
    with open(os.path.join(workdir, "dbs.tsv"), "w") as f:
        for name, lines in dbs.items():
            db_paths[name] = os.path.join(workdir, name + ".db")
            with open(db_paths[name], "w") as g:
                g.write("\n".join(lines) + "\n")
            f.write("%s\t%s\n" % (name, db_paths[name]))
    with open(os.path.join(workdir, "requests.tsv"), "w") as f:
        for reqs in classes.values():
            for r in reqs:
                with open(os.path.join(workdir, r["id"] + ".body"), "wb") as g:
                    g.write(r["body"])
                f.write("%s\t%s\t%d\t%s\t%s.body\n" % (
                    r["id"], r["db"], r["seed"], str(r["cache"]).lower(), r["id"]))
    plan = {"serve-hot": ["hot", "hot"], "serve-cold": ["cold", "cold"],
            "serve-mixed": ["hot", "cold"]}[workload]
    return db_paths, classes, plan


# ---------- processes ----------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))
            and os.path.isfile(os.path.join(ROOT, "bin", "consensus_cli.ml"))):
        raise BenchError("not run from a source checkout of the repository "
                         "(dune-project, lib/ and bin/ are needed): %s" % ROOT)
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./bin/consensus_cli.exe",
                        "./perfbench/helper.exe"], cwd=ROOT, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise BenchError("build failed")


def run_helper(args, timeout):
    r = subprocess.run([HELPER] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        raise BenchError("helper %s failed: %s" % (args[0], r.stderr.decode()))


class Daemon:
    """`consensus serve --port 0 --db NAME=FILE ...` with default flags.  Its
    stderr (banner and access log) goes to a file, so the daemon can never
    block on a full pipe."""

    def __init__(self, db_paths, log_path):
        args = [CLI, "serve", "--port", "0"]
        for name, path in db_paths.items():
            args += ["--db", "%s=%s" % (name, path)]
        self.log_path = log_path
        self.log = open(log_path, "wb")
        t0 = time.perf_counter()
        # Run in the work directory: the runtime-events ring file the daemon
        # creates there outlives a killed daemon.
        self.proc = subprocess.Popen(args, cwd=os.path.dirname(log_path),
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            self.port = self._wait_banner(t0 + 30)
            self.client = bl.Client(self.port)
            while self.client.request("GET", "/healthz")[0] != 200:
                if time.perf_counter() > t0 + 30:
                    raise BenchError("daemon never reported healthy")
                time.sleep(0.0002)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.kill()
            raise

    def _wait_banner(self, deadline):
        marker = b"listening on "
        while True:
            with open(self.log_path, "rb") as f:
                text = f.read()
            i = text.find(marker)
            if i >= 0 and b"\n" in text[i:]:
                line = text[i + len(marker):text.index(b"\n", i)]
                return int(line.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                raise BenchError("daemon exited during start-up: %s"
                                 % text.decode(errors="replace"))
            if time.perf_counter() > deadline:
                raise BenchError("daemon printed no banner")
            time.sleep(0.0002)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def metrics(self):
        status, body = self.client.request("GET", "/metrics")
        if status != 200:
            raise BenchError("GET /metrics: status %d" % status)
        return bl.parse_exposition(body.decode())

    def quit(self):
        """GET /quit and require exit status 0; on a timeout, kill it."""
        self.client.request("GET", "/quit")
        try:
            rc = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not exit after /quit")
        finally:
            self.log.close()
        if rc != 0:
            raise BenchError("daemon exited with status %d" % rc)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# ---------- load generation ----------

def drive(port, plan, classes, refs, seconds, traced):
    """Closed loop for `seconds`: connection i (one thread each; the main
    thread is connection 0) sends its next request of class plan[i] as soon
    as the previous answer arrived.  Returns (ops per connection, window
    start ns, connections opened)."""
    results = [None] * len(plan)
    clients = [bl.Client(port) for _ in plan]
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)

    def conn(i):
        reqs = classes[plan[i]]
        k = i * len(reqs) // len(plan)
        client, ops = clients[i], []
        while time.perf_counter_ns() < deadline:
            r = reqs[k % len(reqs)]
            k += 1
            t0 = time.perf_counter_ns()
            status, body = client.request("POST", r["path"], r["body"])
            t1 = time.perf_counter_ns()
            op = {"req": r, "conn": i, "t0": t0, "t1": t1, "status": status,
                  "ok": status == 200 and bl.answer_matches(body, refs[r["id"]])}
            if traced:
                op["request"] = bl.request_id(body)
            ops.append(op)
        results[i] = ops

    threads = [threading.Thread(target=conn, args=(i,)) for i in range(1, len(plan))]
    assert len(threads) + 1 <= LOAD_THREADS
    for t in threads:
        t.start()
    conn(0)
    for t in threads:
        t.join()
    return results, start, sum(c.connects for c in clients)


def class_stats(ops_by_conn, plan, cls, start, seconds):
    """Throughput (median over the window's slices of correct completions
    per second) and sorted latencies (ms) of one class."""
    ops = [op for i, conn_ops in enumerate(ops_by_conn) if plan[i] == cls
           for op in conn_ops]
    rate = bl.slice_rate([op["t1"] for op in ops if op["ok"]], start,
                         int(seconds * 1e9))
    lat = sorted((op["t1"] - op["t0"]) / 1e6 for op in ops)
    return rate, lat


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# ---------- serve workloads ----------

def run_serve(workload, seed, seconds, trace, workdir):
    db_paths, classes, plan = serve_inputs(workload, seed, workdir)
    primary = plan[0]
    run_helper(["replay", workdir], timeout=120)
    with open(os.path.join(workdir, "replay.json")) as f:
        replay = json.load(f)
    refs = {r["id"]: r["answer"].encode() for r in replay["requests"]}
    daemons = []
    try:
        setups = []
        for i in range(SETUP_SPAWNS):
            d = Daemon(db_paths, os.path.join(workdir, "daemon-%d.log" % i))
            daemons.append(d)
            setups.append(d.setup_s)
            if i < SETUP_SPAWNS - 1:
                d.quit()
        daemon = daemons[-1]
        # Warm-up, checked but not measured: one pass over every cached
        # request (so serve-hot measures a filled cache), then the loop.
        warm = []
        for r in (r for reqs in classes.values() for r in reqs if r["cache"]):
            status, body = daemon.client.request("POST", r["path"], r["body"])
            warm.append({"ok": status == 200
                         and bl.answer_matches(body, refs[r["id"]])})
        warm_ops, _, _ = drive(daemon.port, plan, classes, refs, WARMUP_S, False)
        warm += [op for ops in warm_ops for op in ops]
        # A traced run spends half its window untraced, for the overhead.
        window_s = seconds / 2 if trace else seconds
        if trace:
            untraced, u_start, _ = drive(daemon.port, plan, classes, refs,
                                         window_s, False)
            before = daemon.metrics()
        window, start, connects = drive(daemon.port, plan, classes, refs,
                                        window_s, trace)
        if trace:
            after = daemon.metrics()
        peak_rss = daemon.peak_rss_mb()
        daemon.quit()
    finally:
        for d in daemons:
            d.kill()
    ops = [op for conn_ops in window for op in conn_ops]
    attempted = len(warm) + len(ops)
    failed = sum(not op["ok"] for op in warm + ops)
    if trace:
        attempted += sum(len(o) for o in untraced)
        failed += sum(not op["ok"] for o in untraced for op in o)
    rate, lat = class_stats(window, plan, primary, start, window_s)
    if not trace:
        p50 = bl.percentile(lat, 50)
        in_order = sorted((op["t1"], (op["t1"] - op["t0"]) / 1e6)
                          for conn_ops in window for op in conn_ops
                          if plan[op["conn"]] == primary)
        p99 = bl.chunk_percentile([v for _, v in in_order], P99_CHUNKS[workload], 99)
        if p99 is None:
            raise BenchError("%d samples cannot support p99_ms over %d chunks"
                             % (len(lat), P99_CHUNKS[workload]))
        metrics = {"setup_s": statistics.median(setups), "ops_per_s": rate,
                   "p50_ms": p50, "p99_ms": p99, "peak_rss_mb": peak_rss}
        samples = {"setup_s": len(setups), "ops_per_s": len(lat),
                   "p50_ms": len(lat), "p99_ms": len(lat), "peak_rss_mb": 1}
        if workload == "serve-mixed":
            # The heavy connection, printed for the reader; its gated
            # figures are the per-layer mixed.heavy_* of a traced run.
            heavy_rate, heavy_lat = class_stats(window, plan, "cold", start, window_s)
            print("%-36s %14.6f %-5s n=%d" % ("heavy_ops_per_s", heavy_rate, "1/s",
                                              len(heavy_lat)))
            print("%-36s %14.6f %-5s n=%d" % ("heavy_p50_ms",
                                              bl.percentile(heavy_lat, 50), "ms",
                                              len(heavy_lat)))
        return metrics, attempted, failed, samples
    with open(daemon.log_path) as f:
        events = bl.parse_access_log(f)
    u_rate, _ = class_stats(untraced, plan, primary, u_start, window_s)
    metrics = serve_layers(workload, plan, primary, window, start, window_s,
                           connects, before, after, events, replay, u_rate, rate)
    write_trace(workload, seed, window, events, replay["spans"], metrics)
    samples = {"window_ops": len(ops), "replayed_requests": len(replay["requests"])}
    return metrics, attempted, failed, samples


def serve_layers(workload, plan, primary, window, start, window_s, connects,
                 before, after, events, replay, untraced_rate, traced_rate):
    ops = [op for conn_ops in window for op in conn_ops]
    n = len(ops)
    pairs, unmatched = bl.join_access(ops, events)
    if unmatched:
        raise BenchError("%d responses have no access-log line" % unmatched)
    prim_pairs = [(op, ev) for op, ev in pairs if plan[op["conn"]] == primary]
    d = lambda name: bl.delta(before, after, name)
    by_id = {r["id"]: r for r in replay["requests"]}
    m = {}
    m["expose.frontend_ms"] = median_or_zero(
        [(op["t1"] - op["t0"]) / 1e6 - ev["queue_wait_ms"] - ev["run_ms"]
         for op, ev in prim_pairs])
    m["expose.connects_per_op"] = connects / n
    m["protocol.parse_us"] = statistics.mean(by_id[op["req"]["id"]]["parse_us"] for op in ops)
    m["protocol.encode_us"] = statistics.mean(by_id[op["req"]["id"]]["encode_us"] for op in ops)
    qw = sorted(ev["queue_wait_ms"] for _, ev in prim_pairs)
    m["scheduler.queue_wait_ms.p50"] = median_or_zero(qw)
    m["scheduler.queue_wait_ms.p99"] = bl.tail(qw, 99)
    m["scheduler.rejected"] = d("serve_rejected_total")
    hits = sum(ev["cache_hits"] for _, ev in pairs)
    lookups = hits + sum(ev["cache_misses"] for _, ev in pairs)
    m["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["cache.lookups_per_op"] = lookups / n
    for fam in ("world", "topk", "rank", "aggregate", "cluster"):
        m["api.run_ms." + fam] = median_or_zero(
            [ev["run_ms"] for _, ev in pairs if ev["family"].split("-")[0] == fam])
    m["anxor.genfunc_s_per_op"] = d("anxor_genfunc_seconds_sum") / n
    m["anxor.gf_nodes_per_op"] = d("anxor_gf_nodes_total") / n
    m["anxor.rank_dist_s_per_op"] = d("anxor_rank_dist_seconds_sum") / n
    m["matching.hungarian_s_per_op"] = d("matching_hungarian_seconds_sum") / n
    m["matching.mcf_s_per_op"] = d("matching_min_cost_flow_seconds_sum") / n
    m["matching.mcf_augmentations_per_op"] = d("matching_mcf_augmentations_total") / n
    chunks = d("engine_queue_wait_seconds_count")
    m["engine.queue_wait_ms"] = (1000 * d("engine_queue_wait_seconds_sum") / chunks
                                 if chunks else 0.0)
    m["engine.worker_chunk_frac"] = replay["pool"]["worker_chunk_frac"]
    replayed = len(replay["requests"])
    for name, *_ in PER_LAYER:
        if name.startswith("engine.stage_wall_s."):
            stage = name[len("engine.stage_wall_s."):]
            m[name] = replay["pool"]["stage_wall_s"].get(stage, 0.0) / replayed
    m["runtime.gc_pause_ms_per_op"] = 1000 * d("gc_pause_seconds_sum") / n
    m["runtime.gc_pause_ms.p99"] = bl.tail(sorted(ev["gc_pause_ms"] for _, ev in pairs), 99)
    probs = d("pdb_inference_probability_seconds_count")
    m["pdb.probability_us"] = (1e6 * d("pdb_inference_probability_seconds_sum") / probs
                               if probs else 0.0)
    inf = replay["inference"]
    ro = inf["readonce_hits"] + inf["readonce_misses"]
    m["pdb.readonce_hit_ratio"] = inf["readonce_hits"] / ro if ro else 0.0
    m["pdb.expansions_per_op"] = inf["expansions"] / replayed
    m["textio.load_db_s"] = replay["load_db_s"]
    if workload == "serve-mixed":
        heavy_rate, heavy_lat = class_stats(window, plan, "cold", start,
                                              window_s)
        m["mixed.heavy_ops_per_s"] = heavy_rate
        m["mixed.heavy_p50_ms"] = bl.percentile(heavy_lat, 50) or 0.0
    else:
        m["mixed.heavy_ops_per_s"] = m["mixed.heavy_p50_ms"] = 0.0
    m["trace.overhead_pct"] = 100 * (untraced_rate - traced_rate) / untraced_rate
    return m


def write_trace(workload, seed, window, events, replay_spans, metrics):
    """Chrome trace_event file: one span per client request, the daemon's
    queue-wait and run spans rebuilt from its access-log line, and the
    in-process replay's per-layer spans.  All on CLOCK_MONOTONIC."""
    wall_minus_mono_ns = time.time_ns() - time.perf_counter_ns()
    trace = []
    ops = sorted((op for conn_ops in window for op in conn_ops),
                 key=lambda op: op["t0"])[:MAX_TRACE_OPS]
    for op in ops:
        rid = op["request"]
        trace.append({"name": "client.request", "ph": "X", "pid": "client",
                      "tid": op["conn"], "ts": op["t0"] / 1e3,
                      "dur": (op["t1"] - op["t0"]) / 1e3,
                      "args": {"request": rid, "query": op["req"]["id"],
                               "status": op["status"]}})
        ev = events.get(rid)
        if ev is None:
            continue
        run_end_us = (ev["ts"] * 1e9 - wall_minus_mono_ns) / 1e3
        run_start_us = run_end_us - ev["run_ms"] * 1e3
        for name, ts, dur in (
                ("daemon.queue_wait", run_start_us - ev["queue_wait_ms"] * 1e3,
                 ev["queue_wait_ms"] * 1e3),
                ("daemon.run", run_start_us, ev["run_ms"] * 1e3)):
            trace.append({"name": name, "ph": "X", "pid": "daemon",
                          "tid": op["conn"], "ts": ts, "dur": dur,
                          "args": {"request": rid, "parent": "client.request"}})
    for s in replay_spans:
        trace.append({"name": s["name"], "ph": "X", "pid": "replay", "tid": 0,
                      "ts": s["start_ns"] / 1e3,
                      "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                      "args": {"request": s["request"], "parent": s["parent"]}})
    path = os.path.join(OUT, "trace-%s-%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms",
                   "otherData": {"per_layer": metrics, "layer_map": LAYER_MAP}}, f)
    sys.stderr.write("trace written to %s\n" % os.path.relpath(path, ROOT))


# ---------- the lineage workload ----------

def run_lineage(seed, seconds, trace, workdir):
    out = os.path.join(workdir, "lineage.json")
    run_helper(["lineage", "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "1" if trace else "0", "--out", out],
               timeout=seconds + 120)
    with open(out) as f:
        r = json.load(f)
    lat = array.array("i")
    with open(out + ".lat", "rb") as f:
        lat.frombytes(f.read())
    lat_ms = sorted(x / 1e6 for x in lat)
    phases = r["phases"]
    rate = lambda p: (statistics.median(p["slice_ops"])
                      / (p["seconds"] / len(p["slice_ops"])))
    if not trace:
        p50, p99 = bl.percentile(lat_ms, 50), bl.percentile(lat_ms, 99)
        if p99 is None:
            raise BenchError("%d samples cannot support p99_ms" % len(lat_ms))
        u = phases["untraced"]
        metrics = {"setup_s": statistics.median(r["setup_s"]),
                   "ops_per_s": rate(u),
                   "p50_ms": p50, "p99_ms": p99,
                   "peak_rss_mb": r["vmhwm_kb"] / 1024.0}
        samples = {"setup_s": len(r["setup_s"]), "ops_per_s": r["ops"],
                   "p50_ms": r["ops"], "p99_ms": r["ops"], "peak_rss_mb": 1}
        return metrics, r["ops"], r["failed"], samples
    m = {name: 0.0 for name, *_ in PER_LAYER}
    m["pdb.probability_us"] = 1000 * bl.percentile(lat_ms, 50)
    ro = r["readonce_hits"] + r["readonce_misses"]
    m["pdb.readonce_hit_ratio"] = r["readonce_hits"] / ro if ro else 0.0
    m["pdb.expansions_per_op"] = r["expansions"] / r["ops"]
    u, t = rate(phases["untraced"]), rate(phases["traced"])
    m["trace.overhead_pct"] = 100 * (u - t) / u
    spans = r["spans"][:MAX_TRACE_OPS]
    path = os.path.join(OUT, "trace-lineage-%d.json" % seed)
    with open(path, "w") as f:
        json.dump({"traceEvents": [
            {"name": s["name"], "ph": "X", "pid": "lineage", "tid": 0,
             "ts": s["start_ns"] / 1e3, "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
             "args": {"request": s["request"]}} for s in spans],
            "displayTimeUnit": "ms",
            "otherData": {"per_layer": m, "layer_map": LAYER_MAP}}, f)
    sys.stderr.write("trace written to %s\n" % os.path.relpath(path, ROOT))
    return m, r["ops"], r["failed"], {"window_ops": r["ops"], "cases": r["cases"]}


# ---------- run conditions and output ----------

def source_digest():
    """SHA-256 over the program's sources (the checkout may not be a git
    repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return r.stdout.decode().strip() or None


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def ocaml_version():
    r = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return r.stdout.decode().strip() or None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


WORKLOADS = ("serve-hot", "serve-cold", "serve-mixed", "lineage")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = args.trace == 1
    # SIGTERM unwinds through the finally blocks that stop the daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        build()
        steal0, total0 = cpu_ticks()
        workdir = os.path.join(OUT, "%s-%d" % (args.workload, args.seed))
        os.makedirs(workdir, exist_ok=True)
        if args.workload == "lineage":
            metrics, attempted, failed, samples = run_lineage(
                args.seed, args.seconds, trace, workdir)
        else:
            metrics, attempted, failed, samples = run_serve(
                args.workload, args.seed, args.seconds, trace, workdir)
        declared = declared_metrics(trace)
        if declared is not None and declared != set(metrics):
            raise BenchError("metrics %s differ from BENCHMARK.json"
                             % sorted(declared ^ set(metrics)))
        steal1, total1 = cpu_ticks()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "ocaml": ocaml_version(),
        "load_threads": LOAD_THREADS if args.workload != "lineage" else 1,
        "load_connections": LOAD_THREADS if args.workload != "lineage" else 0,
        "samples": samples,
        # CPU time the hypervisor gave to other guests during the run: a
        # high figure marks a run slowed from outside the program.
        "host_steal_pct": 100.0 * (steal1 - steal0) / max(1, total1 - total0),
    }
    for name, value in metrics.items():
        n = samples.get(name)
        print("%-36s %14.6f %-5s%s" % (name, value, UNITS[name],
                                       "" if n is None else " n=%d" % n))
    print("error_rate %.6f (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    print("conditions " + json.dumps(conditions, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": UNITS[k]}
                                  for k, v in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

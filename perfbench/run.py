"""corpusprep benchmark: ``corpusprep run`` end to end on a seeded corpus.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 38 --trace 0

Each iteration starts a fresh process that calls ``cli.main(["run", ...])``
on the generated corpus, then a second fresh process that reads every shard
back through ``read_tfrecords``.  Iterations repeat until ``--seconds``
have passed; each metric is the median over the iterations.  Every
iteration's outputs are checked (exit code, read-back record count, artifact
digest); a failed check counts the iteration as failed.

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer metrics of traced runs, alternated with untraced runs to measure
the tracing overhead.  The last line of standard output is the result
object; the lines before it are information about the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import unicodedata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import corpus  # noqa: E402

SETUP_SAMPLES = 3
SETUP_SAMPLES_PER_ITERATION = 2
SELF_SUM_TOLERANCE = 0.05
DEADLINE_S = 170.0  # every child is stopped by then, so a run ends within 180 s

# Per workload: merges above the alphabet floor, duplication, shards, pool
# workers, and read-back passes per timed read-back (a pass over clean's few
# records takes a quarter second, too short to time steadily on a shared core).
JOBS = {
    "clean": {"merges": 4, "dupe_factor": 1, "shards": 1, "workers": 1, "passes": 4},
    "vocab": {"merges": 60, "dupe_factor": 1, "shards": 1, "workers": 1, "passes": 2},
    "examples": {"merges": 40, "dupe_factor": 5, "shards": 4, "workers": 2, "passes": 1},
}


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class Child:
    """Starts measured child processes with the checkout's sources on the path.

    A child still running at ``deadline`` (a ``time.perf_counter`` value) is
    killed and counts as failed, so the whole benchmark ends in bounded time.
    """

    def __init__(self, cwd: str, deadline: float):
        self.cwd = cwd
        self.deadline = deadline
        # bytecode is cached, as for an installed package, but outside the sources
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def __call__(self, *args: str) -> dict:
        # its own process group, so a timeout also stops the pool workers
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=self.cwd,
            env=self.env,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"exit": "timeout"}
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"exit": proc.returncode if proc.returncode else -1}
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return {"exit": "no result line"}
        result.setdefault("exit", 0)
        return result


def workers_for(workload: str) -> int:
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count() or 1
    return min(JOBS[workload]["workers"], available)


def write_job(work: str, workload: str, seed: int) -> dict:
    """Generate the corpus and the run config; returns the corpus shares."""
    seed_dir = os.path.join(SRC, "corpusprep", "data", "langseed")
    records, shares = corpus.generate(workload, seed, seed_dir)
    corpus.write_jsonl(records, os.path.join(work, "corpus.jsonl"))
    job = JOBS[workload]
    vocab_size = corpus.alphabet_bound(seed_dir) + job["merges"]
    with open(os.path.join(work, "job.conf"), "w", encoding="utf-8") as out:
        out.write(
            "[input]\npath = corpus.jsonl\nformat = json-lines\n\n"
            "[output]\ndir = out\n\n"
            f"[vocab]\nvocab_size = {vocab_size}\n\n"
            f"[examples]\nmax_seq_length = 128\ndupe_factor = {job['dupe_factor']}\n"
            f"shards = {job['shards']}\nseed = 12345\n"
        )
    return shares


def read_report(work: str) -> dict:
    """The summary and artifacts records of out/report.jsonl."""
    out = {}
    with open(os.path.join(work, "out", "report.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["type"] in ("summary", "artifacts"):
                out[record["type"]] = record
    return out


def artifact_digest(work: str, artifacts: dict) -> str:
    """sha256 over cleaned, drops, vocab, merges, every shard and the report."""
    names = [artifacts["cleaned"], artifacts["drops"], artifacts["vocab"], artifacts["merges"]]
    names += list(artifacts["shards"]) + [artifacts["report"]]
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(work, name), "rb") as handle:
            data = handle.read()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def digest_errors(digest: str, expected: dict) -> list:
    return [
        f"digest {digest[:16]} differs from the {name} digest {want[:16]}"
        for name, want in expected.items()
        if digest != want
    ]


def drop_counts(work: str, artifacts: dict) -> dict:
    counts: dict = {}
    with open(os.path.join(work, artifacts["drops"]), encoding="utf-8") as handle:
        for line in handle:
            stage = json.loads(line)["stage"]
            counts[stage] = counts.get(stage, 0) + 1
    return counts


def word_types(work: str, artifacts: dict) -> int:
    types = set()
    with open(os.path.join(work, artifacts["cleaned"]), encoding="utf-8") as handle:
        for line in handle:
            types.update(unicodedata.normalize("NFKC", json.loads(line)["text"]).split())
    return len(types)


def load_pins() -> dict:
    path = os.path.join(HERE, "pinned.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Iteration:
    """One pipeline run plus its read-back, with the output checks applied."""

    def __init__(self, child: Child, workload: str, expected: dict):
        self.work = child.cwd
        self.workload = workload
        self.child = child
        self.expected = expected  # name -> digest every run must reproduce

    def __call__(self, workers: int, traced: bool = False) -> dict:
        shutil.rmtree(os.path.join(self.work, "out"), ignore_errors=True)
        flag = ["--trace"] if traced else []
        run = self.child("run", *flag, "--", "run", "--config", "job.conf", "--workers", str(workers))
        result = {"run": run, "errors": []}
        if run["exit"] != 0:
            result["errors"].append(f"run exited {run['exit']}")
            return result
        try:
            self._check(result, traced)
        except (OSError, ValueError, KeyError) as exc:
            result["errors"].append(f"artifacts unreadable: {exc!r}")
        return result

    def _check(self, result: dict, traced: bool) -> None:
        run = result["run"]
        flag = ["--trace"] if traced else []
        report = read_report(self.work)
        artifacts = report["artifacts"]
        passes = 1 if traced else JOBS[self.workload]["passes"]
        back = self.child("readback", *flag, str(passes), *artifacts["shards"])
        if back["exit"] != 0:
            result["errors"].append(f"readback exited {back['exit']}")
            return
        if back["records"] != report["summary"]["instances"]:
            result["errors"].append(
                f"read back {back['records']} records, report says {report['summary']['instances']}"
            )
        result["digest"] = digest = artifact_digest(self.work, artifacts)
        result["errors"] += digest_errors(digest, self.expected)
        if traced:
            spans = run["trace"]["spans"]
            covered = sum(stat[1] for stat in spans.values())
            if abs(covered - run["wall_s"]) > SELF_SUM_TOLERANCE * run["wall_s"]:
                result["errors"].append(f"layer self times sum to {covered:.3f}s of {run['wall_s']:.3f}s")
            result["drops"] = drop_counts(self.work, artifacts)
            result["word_types"] = word_types(self.work, artifacts)
        # every measurement is in: the iteration counts even if a check failed
        result.update(readback=back, report=report, measured=True)


def layer_metrics(it: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    trace = it["run"]["trace"]
    spans, counts, peaks = trace["spans"], trace["counts"], trace["peak_mb"]
    back = it["readback"]["trace"]["spans"]

    def self_s(name, source=spans):
        return source.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    drops = it["drops"]
    detect_calls = calls("langid.detect")
    dedup_calls = calls("cleaning.dedup")
    layers = {}
    for name, stat in spans.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + stat[1]
    metrics = {
        "langid.detect_s": self_s("langid.detect"),
        "langid.detect_calls": detect_calls,
        "langid.kept_ratio": 1.0 - drops.get("langfilter", 0) / detect_calls if detect_calls else 1.0,
        "cleaning.strip_s": self_s("cleaning.strip"),
        "cleaning.strip_calls": calls("cleaning.strip"),
        "cleaning.dedup_s": self_s("cleaning.dedup"),
        "cleaning.dedup_calls": dedup_calls,
        "cleaning.heuristics_s": self_s("cleaning.heuristics"),
        "cleaning.heuristics_calls": calls("cleaning.heuristics"),
        "cleaning.kept_ratio": (
            1.0 - (drops.get("dedup", 0) + drops.get("heuristics", 0)) / dedup_calls
            if dedup_calls else 1.0
        ),
        "truecase.lexicon_s": self_s("truecase.lexicon"),
        "truecase.apply_s": self_s("truecase.apply"),
        "ingest.read_s": self_s("ingest.read"),
        "ingest.write_s": self_s("ingest.write"),
        "pipeline.self_s": layers.get("pipeline", 0.0),
        "pipeline.drops": sum(drops.values()),
        "bpe.train_s": self_s("bpe.train"),
        "bpe.merges": counts.get("bpe.merges", 0),
        "bpe.word_types": it["word_types"],
        "bpe.train_peak_rss_mb": peaks.get("bpe.train", 0.0),
        "bpe.encode_s": self_s("bpe.encode"),
        "bpe.encode_calls": calls("bpe.encode"),
        "pretrain.tokenize_s": self_s("pretrain.tokenize"),
        "pretrain.tokenize_peak_rss_mb": peaks.get("pretrain.tokenize", 0.0),
        "pretrain.instances_s": self_s("pretrain.instances"),
        "pretrain.instances": counts.get("pretrain.instances", 0),
        "pretrain.serialize_s": self_s("pretrain.serialize"),
        "pretrain.payload_s": self_s("pretrain.payload"),
        "tfrecord.frame_s": self_s("tfrecord.frame"),
        "pretrain.write_s": self_s("pretrain.write"),
        "tfrecord.bytes_written": counts.get("tfrecord.bytes_written", 0),
        "tfrecord.read_s": self_s("tfrecord.read", back),
        "tfrecord.parse_s": self_s("tfrecord.parse", back),
        "tfrecord.records_read": it["readback"]["records"],
    }
    for layer in ("cli", "ingest", "cleaning", "langid", "truecase", "bpe", "pretrain", "tfrecord"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    metrics["trace.wall_s"] = it["run"]["wall_s"]
    return metrics


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def src_lines() -> int:
    package = os.path.join(SRC, "corpusprep")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(JOBS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "corpusprep", "cli.py")):
        print(f"corpusprep sources not found under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    shares = write_job(work, args.workload, args.seed)
    child = Child(work, deadline=time.perf_counter() + DEADLINE_S)
    if child("setup")["exit"] != 0:  # also fills the bytecode cache before timing
        print("importing corpusprep failed", file=sys.stderr)
        return 2

    setup_samples = []

    def sample_setup(count):
        if args.trace:
            return
        for _ in range(count):
            sample = child("setup")
            if sample["exit"] == 0:
                setup_samples.append(sample["setup_s"])

    sample_setup(SETUP_SAMPLES)

    expected = {}
    pinned = load_pins().get(args.workload, {}).get(str(args.seed))
    if pinned:
        expected["pinned"] = pinned
    iteration = Iteration(child, args.workload, expected)
    workers = workers_for(args.workload)
    attempted = failed = 0
    errors = []

    def record(it, name="first run"):
        """Count the iteration; the first good one of ``name`` sets that digest."""
        nonlocal attempted, failed
        attempted += 1
        if it["errors"]:
            failed += 1
            errors.extend(it["errors"])
        elif name not in iteration.expected:
            iteration.expected[name] = it["digest"]
        return it

    if workers > 1:
        # byte-identity across worker counts: every later run must match this one
        record(iteration(1), "--workers 1 run")

    # iterate while the next one, as long as the last, still ends in time
    plain, traced = [], []
    start = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() + last <= start + args.seconds:
        began = time.perf_counter()
        plain.append(record(iteration(workers)))
        if args.trace:
            traced.append(record(iteration(workers, traced=True)))
        # spread over the run, setup samples see the same machine as the iterations
        sample_setup(SETUP_SAMPLES_PER_ITERATION)
        last = time.perf_counter() - began

    # a run with wrong artifacts is still measured; `correct` reports the failure
    good = [it for it in plain if it.get("measured")]
    good_traced = [it for it in traced if it.get("measured")]
    if not good or (args.trace and not good_traced) or (not args.trace and not setup_samples):
        print("no iteration could be measured: " + "; ".join(errors[:5]), file=sys.stderr)
        return 1

    samples = {
        "wall_s": [it["run"]["wall_s"] for it in good],
        "cpu_s": [it["run"]["cpu_s"] for it in good],
        "peak_rss_mb": [it["run"]["peak_rss_mb"] for it in good],
        "readback_s": [it["readback"]["readback_s"] for it in good],
        "readback_rss_mb": [it["readback"]["readback_rss_mb"] for it in good],
    }
    if args.trace:
        per_layer = [layer_metrics(it) for it in good_traced]
        values = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
        values["trace.overhead_pct"] = 100.0 * (
            values["trace.wall_s"] / statistics.median(samples["wall_s"]) - 1.0
        )
        units = declared_units("per_layer")
    else:
        samples["setup_s"] = setup_samples
        values = {name: statistics.median(v) for name, v in samples.items()}
        units = declared_units("end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus": shares,
        "samples": {name: len(v) for name, v in samples.items()},
        "quartiles": {name: quartiles(v) for name, v in samples.items() if v},
        "digest": good[0]["digest"],
        "instances": good[0]["report"]["summary"]["instances"],
        "workers": workers,
        "src_corpusprep_lines": src_lines(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "errors": errors[:10],
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

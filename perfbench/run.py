"""fibsite benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the command fails (exit 2, no result) when it is absent.
Setup (import plus seeded instance generation) runs SETUPS times and reports
the median as ``setup_s``; the last setup's instances are kept, pickled, and
every check unpickles a fresh copy outside its timing, so no pass profits
from caches an earlier pass filled on its input.  The loop then runs whole passes over
the workload's slots, sending one check at a time, until ``--seconds`` have
passed.  Each slot's latency is the median over the passes it ran, and
``checks_per_s`` is the slot count over the sum of those medians.

Times are reported at reference speed.  On a shared host the speed of one
vCPU swings by tens of percent for seconds to minutes, which moves every
time alike.  So a fixed pure-Python reference unit (`reference_unit`, which
allocates nothing the garbage collector tracks and calls nothing in the
package) is timed just before every check, and each check's time is scaled
by REFERENCE_S over the reference time next to it.  A setup lasts too long
for one reference beside it to stand for it, so setup times are scaled by
the median of every reference unit of the run, including blocks timed
before each setup.  A change to the package moves the scaled times as it
moves the raw ones; a slower host moves both the time and its reference.
The raw figures are printed beside the result; per-layer times are raw.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes for the same time and prints the per-layer
metrics (see tracer.py); its spans of the first traced pass are written to
``perfbench/out/``.  On DEFAULT_SEED every check's result digest must equal
the one recorded in digests.json; on every seed each check's own verdict
must pass.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pickle
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLES = ROOT / "bundles"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUPS = 3
# The reference unit's time on a 2 vCPU virtual machine with Python 3.11.7,
# so that scaled times there read as milliseconds and seconds.
REFERENCE_S = 1.9e-3
REFERENCE_STEPS = 10_000
REFERENCE_TABLE = tuple((i * 7919) % 1009 for i in range(1024))
SETUP_REFERENCES = 21
TAIL_BEYOND = 10
MODULES = ("fincat", "site", "fibred", "sset", "hocopb", "cohom", "sampling", "cli")


class MissingSource(RuntimeError):
    """The checkout has no src/fibsite to benchmark."""


class NoChecks(RuntimeError):
    """The workload produced no check to run; that is an error, never a pass."""


def load_library() -> SimpleNamespace:
    """A fresh import of every fibsite module (earlier imports are dropped)."""
    if not (SRC / "fibsite" / "__init__.py").is_file():
        raise MissingSource(f"no package at {SRC / 'fibsite'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fibsite" or n.startswith("fibsite.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"fibsite.{m}") for m in MODULES})
    if Path(lib.fincat.__file__).resolve().parent != (SRC / "fibsite").resolve():
        raise MissingSource(f"fibsite was imported from {lib.fincat.__file__}")
    return lib


def reference_unit() -> float:
    """Seconds taken by a fixed loop of integer arithmetic and tuple lookups."""
    t0 = perf_counter()
    table, s = REFERENCE_TABLE, 0
    for i in range(REFERENCE_STEPS):
        s = (s + table[(i * 31 + s) & 1023]) % 1_000_003
    return perf_counter() - t0


def setup(workload: str, seed: int):
    """(median raw setup time over SETUPS setups, reference unit times taken
    before each setup, library, pickled slots)."""
    times, references = [], []
    for _ in range(SETUPS):
        references += [reference_unit() for _ in range(SETUP_REFERENCES)]
        t0 = perf_counter()
        lib = load_library()
        slots = workloads.generate(lib, workload, seed, BUNDLES)
        times.append(perf_counter() - t0)
    blobs = [(kind, pickle.dumps(x, protocol=pickle.HIGHEST_PROTOCOL)) for kind, x in slots]
    return statistics.median(times), references, lib, blobs


@dataclass
class Outcome:
    latency: float
    reference: float
    ok: bool
    digest: str | None
    error: str | None = None


def digest_of(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pass(lib, blobs, trace=None) -> list[Outcome]:
    """One check per slot, in order, each after a reference unit; a check
    that raises is a failed check."""
    out = []
    for slot, (kind, blob) in enumerate(blobs):
        x = pickle.loads(blob)
        if trace is not None:
            trace.check = slot
        reference = reference_unit()
        t0 = perf_counter()
        try:
            ok, result = workloads.run_check(lib, kind, x)
        except Exception:  # the run must go on; the failure is counted and shown
            latency = perf_counter() - t0
            out.append(Outcome(latency, reference, False, None, traceback.format_exc()))
            continue
        latency = perf_counter() - t0
        out.append(Outcome(latency, reference, bool(ok), digest_of(result)))
    return out


def judge(passes: list[list[Outcome]], recorded: list[str] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): a check fails if it raised, if its own
    verdict is false, or if its digest differs from the recorded one or from
    the same slot's digest in the first pass."""
    attempted = failed = 0
    problems: list[str] = []
    first = passes[0] if passes else []
    if recorded is not None and len(recorded) != len(first):
        problems.append(f"{len(recorded)} recorded digests for {len(first)} slots")
    for p in passes:
        for slot, o in enumerate(p):
            attempted += 1
            bad = None
            if o.error is not None:
                bad = o.error.strip().splitlines()[-1]
            elif not o.ok:
                bad = "the check's own verdict is false"
            elif o.digest != first[slot].digest:
                bad = "result differs from the first pass"
            elif recorded is not None and (slot >= len(recorded) or o.digest != recorded[slot]):
                bad = "result digest differs from the recorded one"
            if bad:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"slot {slot}: {bad}")
    return attempted, failed, problems


def slot_latencies(passes: list[list[Outcome]], scaled: bool = True) -> list[float]:
    """Each slot's median latency over the passes, scaled to reference speed
    by the reference unit timed just before it, or raw."""
    def time(o: Outcome) -> float:
        return o.latency * REFERENCE_S / o.reference if scaled else o.latency

    return [statistics.median(time(p[slot]) for p in passes) for slot in range(len(passes[0]))]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND values beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s: float, setup_references: list[float]) -> tuple[dict, list[str]]:
    lat = slot_latencies(passes)
    tail_s, pct = tail(lat)
    raw = slot_latencies(passes, scaled=False)
    reference = statistics.median(setup_references + [o.reference for p in passes for o in p])
    metrics = {
        "checks_per_s": (len(lat) / sum(lat), "1/s"),
        "check_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "check_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s * REFERENCE_S / reference, "s"),
    }
    notes = [
        f"check_tail_ms is p{pct:.1f} over {len(lat)} checks, each the median of {len(passes)} passes",
        f"setup_s is the median of {SETUPS} setups",
        f"reference unit: median {reference * 1e3:.4f} ms here,"
        f" {REFERENCE_S * 1e3:.4f} ms at reference speed",
        f"raw: checks_per_s {len(raw) / sum(raw):.6g}, check_p50_ms {statistics.median(raw) * 1e3:.6g},"
        f" check_tail_ms {tail(raw)[0] * 1e3:.6g}, setup_s {setup_s:.6g}",
    ]
    return metrics, notes


def per_layer(untraced, traced, snapshots, t) -> tuple[dict, list[str]]:
    walls_u = [sum(o.latency for o in p) for p in untraced]
    walls_t = [sum(o.latency for o in p) for p in traced]
    pass_s = statistics.median(walls_t)
    first = snapshots[0]
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(s["self_s"].get(layer, 0.0) for s in snapshots), "s")
        metrics[f"{layer}.calls"] = (first["calls"].get(layer, 0), "count")
    for name in tracer.COUNTER_NAMES:
        metrics[name] = (first["counters"].get(name, 0), "bytes" if name.endswith("_bytes") else "count")
    metrics["trace.pass_s"] = (pass_s, "s")
    metrics["trace.overhead_pct"] = ((pass_s / statistics.median(walls_u) - 1.0) * 100.0, "%")
    notes = [f"{len(traced)} traced and {len(untraced)} untraced passes; self_s is seconds per pass"]
    notes += [f"trace target missing: {name}" for name in t.missing]
    notes += [f"counter failed on {name} ({n} calls)" for name, n in sorted(t.counter_errors.items())]
    if any(s["counters"] != first["counters"] or s["calls"] != first["calls"] for s in snapshots):
        notes.append("WARNING: counters or call counts differ between traced passes")
    for layer in tracer.LAYERS:
        share = 100.0 * metrics[f"{layer}.self_s"][0] / pass_s if pass_s else 0.0
        notes.append(f"  {layer:9s} {share:5.1f}% of a traced pass, {metrics[f'{layer}.calls'][0]} calls")
    return metrics, notes


def write_spans(workload: str, seed: int, t, spans: list[tuple]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    t0 = min((s[1] for s in spans), default=0.0)
    doc = {
        "targets": t.names,
        "fields": ["target", "start_us", "end_us", "parent", "check"],
        "spans": [[s[0], round((s[1] - t0) * 1e6), round((s[2] - t0) * 1e6), s[3], s[4]] for s in spans],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool):
    setup_s, setup_references, lib, blobs = setup(workload, seed)
    if not blobs:
        raise NoChecks(f"workload {workload} generated no checks")
    deadline = perf_counter() + seconds
    untraced, traced, snapshots, spans = [], [], [], []
    t = tracer.Tracer() if trace else None
    while True:
        untraced.append(run_pass(lib, blobs))
        if t is not None:
            t.reset()
            t.install()
            try:
                traced.append(run_pass(lib, blobs, t))
            finally:
                t.uninstall()
            snapshots.append({"self_s": dict(t.self_s), "calls": dict(t.calls), "counters": dict(t.counters)})
            if not spans:
                spans = list(t.spans)
        if perf_counter() >= deadline:
            break
    if trace:
        metrics, notes = per_layer(untraced, traced, snapshots, t)
        notes.append(f"spans written to {write_spans(workload, seed, t, spans).relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(untraced, setup_s, setup_references)
    return untraced + traced, metrics, notes


def load_digests(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text())[workload]


def record_digests(workload: str) -> None:
    _setup_s, _references, lib, blobs = setup(workload, DEFAULT_SEED)
    outcomes = run_pass(lib, blobs)
    bad = [slot for slot, o in enumerate(outcomes) if not o.ok]
    if bad:
        raise SystemExit(f"refusing to record: slots {bad} failed their own verdict")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[workload] = [o.digest for o in outcomes]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(outcomes)} digests for {workload}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help=f"store the result digests of seed {DEFAULT_SEED} and exit")
    args = p.parse_args(argv)
    try:
        if args.record_digests:
            record_digests(args.workload)
            return 0
        recorded = load_digests(args.workload, args.seed)
        passes, metrics, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSource as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NoChecks as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted, failed, problems = judge(passes, recorded)
    correct = failed == 0 and not problems
    print(f"workload {args.workload}, seed {args.seed}: {attempted} checks, {failed} failed"
          + ("" if recorded is None else ", digests compared with digests.json"))
    if not args.trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    metrics.pop("failed_ratio", None)
    for line in notes + problems:
        print(f"  {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

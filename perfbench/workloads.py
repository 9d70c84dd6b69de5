"""One benchmark process: set up a workload, run it as a closed loop, check
its outputs.

    PYTHONPATH=src python3 perfbench/workloads.py --workload catalog --seed 1 --seconds 10

`perfbench/run.py` starts this script in fresh processes and reports what it
prints.  The last line of stdout is a JSON object.  Set-up and every timed
unit are timed at a reference speed (see `speed.py`).  With `--setup-only` the
process stops after set-up; with `--trace 1` it runs the workload once
untraced, again with spans around every module's public functions (see
`tracing.py`), and once more counting field multiplications and inversions.

Each workload is a fixed unit of work run through the entry points users
call; units run one after another in this one thread until `--seconds` have
passed.  Unit i takes its master seed from (workload, seed, i).  Before the
timed units, one unit runs at the fixed reference seed: its report digest is
compared with the stored one, and it warms up the process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Sampler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE_FILE = HERE / "reference_digests.json"

# One entry per per-layer metric: (name, unit), as listed in BENCHMARK.json.
PER_LAYER = (
    ("transport.derive_rng.calls", "count"),
    ("transport.derive_rng.self_s", "s"),
    ("transport.execute.self_s", "s"),
    ("transport.Engine.send_round.calls", "count"),
    ("transport.Engine.send_round.self_s", "s"),
    ("transport.Engine.send_public.self_s", "s"),
    ("transport.Engine.emit_detect.calls", "count"),
    ("game.trial_seed.self_s", "s"),
    ("game.play_game.self_s", "s"),
    ("game.play_game.p50_us", "us"),
    ("game.play_game.p99_us", "us"),
    ("game.play_game.samples", "count"),
    ("game.outcome_of.self_s", "s"),
    ("game.utilities_of.self_s", "s"),
    ("game.run_trials.self_s", "s"),
    ("game.nash_catalog_check.self_s", "s"),
    ("game.strategy.observe_and_tamper.self_s", "s"),
    ("game.strategy.final_guess.self_s", "s"),
    ("protocols.encode.calls", "count"),
    ("protocols.encode.self_s", "s"),
    ("protocols.decode.self_s", "s"),
    ("protocols.mismatch_lists.calls", "count"),
    ("protocols.mismatch_lists.self_s", "s"),
    ("hashing.HashFunction.evaluate.calls", "count"),
    ("hashing.HashFunction.evaluate.self_s", "s"),
    ("hashing.HashFamilySpec.sample.calls", "count"),
    ("hashing.offset_collision_prob_exhaustive.self_s", "s"),
    ("sharing.shamir_share.calls", "count"),
    ("sharing.shamir_share.self_s", "s"),
    ("sharing.shamir_reconstruct.calls", "count"),
    ("sharing.shamir_reconstruct.self_s", "s"),
    ("sharing.rs_reconstruct.calls", "count"),
    ("sharing.rs_reconstruct.self_s", "s"),
    ("sharing.rs_reconstruct.fail_frac", "frac"),
    ("sharing.rs_reconstruct_bruteforce.calls", "count"),
    ("sharing.robust_share.self_s", "s"),
    ("sharing.robust_reconstruct.self_s", "s"),
    ("field.interpolate.calls", "count"),
    ("field.interpolate.self_s", "s"),
    ("field.mul_int.calls", "count"),
    ("field.inv_int.calls", "count"),
    ("field.FieldSpec.build_s", "s"),
    ("privacy.amd_failure_max.self_s", "s"),
    ("privacy.shamir_privacy_distance.self_s", "s"),
    ("privacy.rss_view_distance.self_s", "s"),
    ("privacy.ciss_view_distance.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("cli.check_tag_budget.self_s", "s"),
    ("cli.cmd.self_s", "s"),
    ("trace_overhead_frac", "frac"),
)


def unit_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`rsmt <argv>` in this process; returns (exit code, stdout)."""
    import rsmt.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rsmt.cli.main(argv)
    return code, buf.getvalue()


def report_digest(text: str) -> str:
    """SHA-256 of a report with its `# config` header line removed."""
    kept = [line for line in text.splitlines() if not line.startswith("# config ")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@dataclass
class UnitResult:
    ops: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""


class SjstSweep:
    """`rsmt sweep` of SJST(k=8, l=8) over n in {3, 8, 16}, one adversary
    substituting shares on channels {1, 2}."""

    name = "sjst_sweep"
    seeded = True

    def setup(self) -> None:
        from rsmt.cli import load_config, protocol_from_json

        self.path = str(CONFIGS / "sjst_sweep.json")
        config = load_config(self.path, argparse.Namespace())
        self.ell = config.protocol.ell
        self.values = [int(v) for v in config.sweep["values"]]
        self.trials = config.trials
        for n in self.values:
            protocol_from_json(dict(config.raw["protocol"], n=n))

    def unit(self, master_seed: int) -> UnitResult:
        planned = len(self.values) * self.trials
        try:
            code, text = run_cli(["sweep", "--config", self.path, "--seed", str(master_seed)])
        except Exception as exc:  # a raising unit fails every trial in it
            return UnitResult(planned, planned, [f"sweep raised {exc!r}"])
        out = UnitResult(0, digest=report_digest(text))
        if code != 0:
            out.problems.append(f"sweep exit code {code}, expected 0")
        rows = csv_rows(text)
        if [int(r["value"]) for r in rows] != self.values:
            out.problems.append(f"sweep rows {[r.get('value') for r in rows]} != {self.values}")
        for r in rows:
            n, trials = int(r["value"]), int(r["trials"])
            out.ops += trials
            # Test 05's bound on undetected wrong output, plus 3 sigma.
            bound = (n - 1) * 2.0 ** (1 - self.ell)
            limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
            wrong = 1.0 - float(r["suc_rate"])
            if wrong > limit:
                out.problems.append(f"n={n}: wrong-output rate {wrong:.6f} > {limit:.6f}")
        return out


class P3Wide:
    """`run_trials` on P3(n=16, GF(2^16), d=1, l=16): a malicious slot on
    channels {1..4} runs each P3 catalog attack in turn, a passive rational
    slot owns channel 5.  Non-delivery counts as a failed trial, because P3
    promises delivery whenever at most t = 5 channels are tampered."""

    name = "p3_wide"
    seeded = True
    trials = 20

    def setup(self) -> None:
        from rsmt.field import FieldSpec
        from rsmt.game.attacks import PassiveGuess, catalog_for
        from rsmt.game.utility import witness_table
        from rsmt.protocols import CissProtocol
        from rsmt.transport import CorruptionProfile

        self.protocol = CissProtocol("P3", 16, FieldSpec.binary(16), 1, 16)
        self.profile = CorruptionProfile(
            {1: frozenset({1, 2, 3, 4}), 2: frozenset({5})}, malicious_id=1
        )
        self.table = witness_table(self.protocol.message_space_size())
        self.passive = PassiveGuess(self.protocol)
        self.attacks = [(e.name, e.factory(self.protocol)) for e in catalog_for("P3")]

    def unit(self, master_seed: int) -> UnitResult:
        from rsmt.game.play import run_trials

        out = UnitResult(0)
        counts = []
        for name, strategy in self.attacks:
            t = self.trials
            out.ops += t
            seed = unit_seed(name, master_seed, 0)
            try:
                stats = run_trials(self.protocol, self.profile, {1: strategy, 2: self.passive},
                                   self.table, t, seed)
            except Exception as exc:
                out.failed += t
                out.problems.append(f"{name}: run_trials raised {exc!r}")
                continue
            suc = round(stats.suc_rate * t)
            out.failed += t - suc
            counts.append([name, t, suc,
                           *(round(stats.guess_rate[j] * t) for j in (1, 2)),
                           *(round(stats.detect_rate[j] * t) for j in (1, 2))])
        out.digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
        return out


# Catalog flags the passive profile must show.  The five detecting protocols
# keep passive an equilibrium; the detection-free STRAWMAN loses to every
# attack that replaces both owned shares (tests 07 and 08).
STRAWMAN_FLAGS = {"block-channel": 1, "share-substitution": 1, "swap-half": 1}


class Catalog:
    """`rsmt simulate` (full attack catalog plus passive baseline) on the
    acceptance configurations of tests 07 and 08."""

    name = "catalog"
    seeded = True
    configs = ("sjst", "rss", "p1", "p2", "p3", "strawman")

    def setup(self) -> None:
        from rsmt.cli import load_config
        from rsmt.game.attacks import catalog_for

        self.paths = {}
        self.planned = {}
        for label in self.configs:
            path = str(CONFIGS / f"catalog_{label}.json")
            config = load_config(path, argparse.Namespace())
            cells = len(catalog_for(config.protocol.variant)) * len(config.profile.adversary_ids)
            self.paths[label] = path
            self.planned[label] = (cells, config.trials)

    def unit(self, master_seed: int) -> UnitResult:
        out = UnitResult(0)
        texts = []
        for label, path in self.paths.items():
            cells, trials = self.planned[label]
            try:
                code, text = run_cli(["simulate", "--config", path, "--seed", str(master_seed)])
            except Exception as exc:
                out.ops += (cells + 1) * trials
                out.failed += (cells + 1) * trials
                out.problems.append(f"{label}: simulate raised {exc!r}")
                continue
            texts.append(text)
            rows = csv_rows(text)
            out.ops += trials  # passive baseline
            expected_code = 0
            for r in rows:
                out.ops += int(r["trials"])
                want = STRAWMAN_FLAGS.get(r["attack"], 0) if label == "strawman" else 0
                expected_code = max(expected_code, 2 * want)
                if int(r["flag"]) != want:
                    out.failed += int(r["trials"])
                    out.problems.append(f"{label}:{r['attack']} flag {r['flag']}, expected {want}")
            if len(rows) != cells:
                out.problems.append(f"{label}: {len(rows)} catalog rows, expected {cells}")
            if code != expected_code:
                out.problems.append(f"{label}: exit code {code}, expected {expected_code}")
        out.digest = report_digest("\n".join(texts))
        return out


VERIFY_LINE = re.compile(r"^(?P<name>[^:]+): observed=(?P<observed>\S+) bound=.* "
                         r"\[(?P<status>pass|FAIL)\]$")
VERIFY_EXACT = {
    "amd-failure(q=5,d=1)": "2/5",
    "amd-failure(q=7,d=1)": "2/7",
    "shamir-privacy(GF5,t=2,n=4)": "0",
    "rss-view(n=3,GF4,t=2)": "0",
    "minority-view(n=3,GF5,l=2)": "0",
}
VERIFY_HASH_CHECKS = 6
VERIFY_CHECKS = VERIFY_HASH_CHECKS + len(VERIFY_EXACT)


class Verify:
    """`rsmt verify`: exhaustive checks; one operation per check line."""

    name = "verify"
    seeded = False

    def setup(self) -> None:
        from rsmt.field import FieldSpec
        from rsmt.hashing import HashFamilySpec

        for p in (5, 7):
            FieldSpec.prime(p)
        FieldSpec.binary(2)
        for ell in (1, 2, 3):
            HashFamilySpec(3, ell)

    def unit(self, master_seed: int) -> UnitResult:
        try:
            code, text = run_cli(["verify"])
        except Exception as exc:
            return UnitResult(VERIFY_CHECKS, VERIFY_CHECKS, [f"verify raised {exc!r}"])
        out = UnitResult(0, digest=report_digest(text))
        if code != 0:
            out.problems.append(f"verify exit code {code}, expected 0")
        checks = [m for m in map(VERIFY_LINE.match, text.splitlines()) if m]
        out.ops = max(len(checks), VERIFY_CHECKS)
        out.failed = sum(m["status"] == "FAIL" for m in checks) + out.ops - len(checks)
        observed = {m["name"]: m["observed"] for m in checks}
        for name, want in VERIFY_EXACT.items():
            if observed.get(name) != want:
                out.problems.append(f"{name}: observed {observed.get(name)}, expected {want}")
        hash_ok = [m for m in checks if m["name"].startswith("hash-") and m["status"] == "pass"]
        if len(hash_ok) != VERIFY_HASH_CHECKS:
            out.problems.append(f"{len(hash_ok)} hash checks passed, expected {VERIFY_HASH_CHECKS}")
        if out.failed:
            out.problems.append(f"{out.failed} verify checks failed")
        return out


WORKLOADS = {w.name: w for w in (SjstSweep, P3Wide, Catalog, Verify)}


@dataclass
class Pass:
    """Units run back to back: per-unit wall time, results and seeds, and
    with `sampled` each unit's time at the reference speed."""

    sampled: bool = False
    seeds: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    results: list[UnitResult] = field(default_factory=list)

    def run(self, wl, seed: int) -> None:
        start = time.perf_counter()
        if self.sampled:
            with Sampler() as sampler:
                result = wl.unit(seed)
            self.ref_times.append(sampler.reference_s)
        else:
            result = wl.unit(seed)
        self.times.append(time.perf_counter() - start)
        self.seeds.append(seed)
        self.results.append(result)

    @property
    def digests(self) -> list[str]:
        return [r.digest for r in self.results]


def timed_pass(wl, seed: int, seconds: float, sampled: bool) -> Pass:
    """Closed loop: unit i+1 starts when unit i ends, until `seconds` pass."""
    out = Pass(sampled)
    deadline = time.perf_counter() + seconds
    while not out.times or time.perf_counter() < deadline:
        out.run(wl, unit_seed(wl.name, seed, len(out.times)))
    return out


def summarize(passes: list[Pass], timed: Pass, reference: UnitResult, wl, stored) -> dict:
    results = [r for p in passes for r in p.results]
    want = stored["digests"].get(wl.name)
    unit_ops = [r.ops for r in timed.results]
    problems = list(dict.fromkeys(p for r in results for p in r.problems))
    return {
        "units": len(timed.times),
        "unit_wall_s": timed.times,
        "unit_s": timed.ref_times,
        "ops_per_s": [o / t for o, t in zip(unit_ops, timed.ref_times)],
        "attempted": sum(r.ops for r in results),
        "failed": sum(r.failed for r in results),
        "problems": problems,
        "reference": {
            "rng_stream": stored["rng_stream"],
            "master_seed": stored["master_seed"] if wl.seeded else None,
            "digest": reference.digest,
            "stored": want,
            "match": reference.digest == want,
        },
    }


def per_unit_median(snapshots: list[dict], key: str) -> float:
    """Median over units of a key's self time added during that unit."""
    values = []
    prev: dict = {}
    for snap in snapshots:
        values.append(snap.get(key, (0, 0.0))[1] - prev.get(key, (0, 0.0))[1])
        prev = snap
    return statistics.median(values) if values else 0.0


def percentile_us(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in microseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))] * 1e6


def trace_metrics(tracer, counter, snapshots, build_s, overhead) -> dict[str, float]:
    first = snapshots[0] if snapshots else {}
    lat = tracer.latencies["game.play_game"]
    rs_calls = tracer.calls.get("sharing.rs_reconstruct", 0)
    special = {
        "game.play_game.p50_us": percentile_us(lat, 0.50),
        "game.play_game.p99_us": percentile_us(lat, 0.99),
        "game.play_game.samples": len(lat),
        "sharing.rs_reconstruct.fail_frac":
            tracer.fails.get("sharing.rs_reconstruct", 0) / rs_calls if rs_calls else 0.0,
        "field.mul_int.calls": counter.calls.get("field.mul_int", 0),
        "field.inv_int.calls": counter.calls.get("field.inv_int", 0),
        "field.FieldSpec.build_s": build_s,
        "trace_overhead_frac": overhead,
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".calls"):
            metrics[name] = first.get(name[: -len(".calls")], (0, 0.0))[0]
        elif name.endswith(".self_s"):
            metrics[name] = per_unit_median(snapshots, name[: -len(".self_s")])
        else:
            raise KeyError(name)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    tracer, build_timer = Tracer(), Tracer()
    # The traced run reports no set-up time; unsampled, its table-build span
    # holds no kernel calls.
    sampler = Sampler()
    with contextlib.nullcontext() if args.trace else sampler:
        import rsmt
        import rsmt.cli  # noqa: F401  (set-up time includes importing the CLI)

        if args.trace:
            build_timer.install_build_timer()
        wl = WORKLOADS[args.workload]()
        wl.setup()
    setup_wall_s = time.perf_counter() - started
    restored = build_timer.uninstall()
    out = {"workload": wl.name, "rsmt_version": getattr(rsmt, "__version__", "unknown"),
           "setup_wall_s": setup_wall_s}
    if not args.trace:
        out["setup_s"] = sampler.reference_s
    if args.setup_only:
        print(json.dumps(out))
        return 0

    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        stored = json.load(fh)
    passes = []
    if wl.seeded:
        reference = Pass()
        reference.run(wl, stored["master_seed"])
        passes.append(reference)
    # The traced run compares wall times of traced and untraced units, so
    # neither is sampled there.
    timed = timed_pass(wl, args.seed, args.seconds / 3 if args.trace else args.seconds,
                       sampled=not args.trace)
    passes.append(timed)
    # An unseeded workload's every unit is the reference unit.
    ref_result = passes[0].results[0]

    if args.trace:
        traced = Pass()
        snapshots = []
        tracer.install_spans()
        for seed in timed.seeds:
            traced.run(wl, seed)
            snapshots.append(tracer.snapshot())
        restored &= tracer.uninstall()
        counter = Tracer()
        counter.install_counters()
        counted = Pass()
        counted.run(wl, timed.seeds[0])
        restored &= counter.uninstall()
        passes += [traced, counted]
        overhead = min(traced.times) / min(timed.times) - 1.0
        self_check = traced.digests == timed.digests and counted.digests == timed.digests[:1]
        out["trace"] = {
            "metrics": trace_metrics(tracer, counter, snapshots,
                                     build_timer.self_s.get("field.FieldSpec.build", 0.0),
                                     overhead),
            "traced_units": len(traced.times),
            "digests_equal": self_check,
            "restored": restored,
            "missing": sorted(set(tracer.missing + counter.missing + build_timer.missing)),
        }
    out.update(summarize(passes, timed, ref_result, wl, stored))
    out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

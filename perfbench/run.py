"""Host-time benchmark of the HAMSTER reproduction, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sor-jiajia-4 --seed 0 --seconds 16 --trace 0

Every sample is one simulation in a fresh, single-threaded Python process
(``perfbench/sample.py``). With ``--trace 0`` the run prints the
end-to-end metrics, each the median over the run's first ``SAMPLES``
timed samples: ``host_s`` (built platform to merged, verified results),
``setup_s`` (process start, before ``import repro``, to ``config.build()``
returning; five set-up-only samples join these) and ``peak_rss_mb``.
``host_s`` and ``setup_s`` are scaled to a reference machine speed by a
fixed probe (``calibrate.py``): ``setup_s`` by the probes its process
runs just before and just after set-up, ``host_s`` block by block by short
probes between blocks of about 0.04 s of the run. The wall seconds are
printed too. With ``--trace 1`` it prints the per-layer metrics (in wall seconds) of one
traced sample, one critical-path pass and the untraced samples.

Every simulation is checked: it must not raise, the app's verification
must pass, and its virtual result (per-phase virtual seconds) must equal
the one recorded in ``expected.json`` for the workload and seed, or, for a
seed with no recorded result, the result of the run's first sample. The
traced sample must also match the untraced one in its event count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import OBS_LAYERS, PER_LAYER, SELF_TIME_METRICS, UNITS  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, expected_phases,  # noqa: E402
                       load_expected)

#: set-up-only samples per run, on top of the set-up of every timed sample
SETUP_SAMPLES = 5
#: probe time (``calibrate.probe``) of the reference machine that
#: ``host_s`` and ``setup_s`` are scaled to
PROBE_REF_S = 0.010
#: timed samples the end-to-end metrics are estimated from: the same count
#: on every commit, so a faster one gets no lower ``host_s`` from more
#: samples. A run takes at least these, and more only while ``--seconds``
#: lasts; the extra samples are checked, but no metric uses them.
SAMPLES = 8
#: every sample must finish inside this many seconds of the run's start
DEADLINE_S = 170.0

END_TO_END = (("host_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Sampler:
    """Runs samples in fresh processes and checks every simulation."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.t0 = time.perf_counter()
        self.expected = expected_phases(load_expected(), workload, seed)
        self.reference: Optional[dict] = None  # first untraced result
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_ENGINE_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"  # one thread per sample process
        self.env = env

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "sample.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} sample exceeded {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError):
            return {"error": f"{mode} sample exited {proc.returncode} "
                             f"without a result: {proc.stderr.strip()[-2000:]}"}
        if proc.returncode != 0 and "error" not in out:
            out["error"] = f"{mode} sample exited {proc.returncode}"
        return out

    def simulate(self, mode: str) -> dict:
        """One simulation sample, counted and checked."""
        self.attempted += 1
        out = self.spawn(mode)
        problem = self.check(mode, out)
        if problem:
            self.failed += 1
            self.errors.append(f"{mode}: {problem}")
            out["error"] = problem
        return out

    def check(self, mode: str, out: dict) -> Optional[str]:
        if "error" in out:
            return out["error"]
        if not out["verified"]:
            return "the app's verification failed"
        if mode == "traced" and not out["restored"]:
            return "a layer wrapper was left installed"
        if self.expected is not None and out["phases"] != self.expected:
            return (f"virtual result {out['phases']} differs from the "
                    f"recorded {self.expected}")
        if self.reference is None:
            if mode == "run":
                self.reference = out
            return None
        if out["phases"] != self.reference["phases"]:
            return (f"virtual result {out['phases']} differs from the "
                    f"untraced {self.reference['phases']}")
        if mode in ("run", "traced") and out["events"] != self.reference["events"]:
            return (f"{out['events']} events, the untraced run had "
                    f"{self.reference['events']}")
        return None


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed(runs: List[dict]) -> List[dict]:
    """The samples the metrics are estimated from: the first SAMPLES that
    passed their checks."""
    return [r for r in runs if "error" not in r][:SAMPLES]


def scaled_host_s(run: dict) -> float:
    """A timed sample's host seconds at the reference speed: each block
    scaled by the mean of the two probes either side of it."""
    p = run["probes"]
    return sum(b * 2.0 * PROBE_REF_S / (p[i] + p[i + 1])
               for i, b in enumerate(run["blocks"]))


def measure(sampler: Sampler, seconds: float) -> List[dict]:
    """Untraced samples for ``seconds``, and at least SAMPLES; the loop
    stops once another sample would end more than half a sample past the
    window."""
    runs: List[dict] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        runs.append(sampler.simulate("run"))
        last = time.perf_counter() - t
        if "error" in runs[-1]:
            return runs
        if len(runs) >= SAMPLES and \
                time.perf_counter() - start + last / 2 >= seconds:
            return runs


def end_to_end(sampler: Sampler, runs: List[dict]) -> Dict[str, float]:
    ok = timed(runs)
    setups = [(r["setup_s"], r["probe_s"]) for r in ok]
    for _ in range(SETUP_SAMPLES):
        out = sampler.spawn("setup")
        if "error" in out:
            sampler.errors.append(f"setup: {out['error']}")
            break
        setups.append((out["setup_s"], out["probe_s"]))
    # Seconds on a machine whose probe takes PROBE_REF_S. A shared host's
    # speed can change by 1.7 times within seconds, so each reading is
    # scaled by a probe taken next to it.
    hosts = [scaled_host_s(r) for r in ok]
    walls = [r["host_s"] for r in ok]
    setup_scaled = [t * PROBE_REF_S / p for t, p in setups]
    print(f"samples: {len(runs)} runs, the first {len(ok)} timed; "
          f"{len(setups)} set-ups")
    print("host_s samples (wall): " + " ".join(f"{t:.4f}" for t in walls))
    print("host_s samples (scaled): " + " ".join(f"{t:.4f}" for t in hosts))
    print("setup_s samples (wall): " + " ".join(f"{t:.4f}" for t, _ in setups))
    print(f"wall seconds: host_s median {_median(walls)}, setup_s median "
          f"{_median([t for t, _ in setups])}")
    return {"host_s": _median(hosts), "setup_s": _median(setup_scaled),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok])}


def per_layer(sampler: Sampler, runs: List[dict]) -> Dict[str, float]:
    untraced = _median([r["host_s"] for r in timed(runs)])
    traced = sampler.simulate("traced")
    cp = sampler.simulate("cp")
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    if "error" not in traced:
        values.update(traced["layers"])
        values["bench.tracing_overhead_s"] = traced["host_s"] - untraced
        if traced["missing"]:
            print("missing layer boundaries: " + ", ".join(traced["missing"]))
        events = traced["layers"]["sim.engine.events"]
        values["sim.engine.us_per_event"] = untraced * 1e6 / events if events else 0.0
        shares = {name: values[name] for name in SELF_TIME_METRICS}
        total = sum(shares.values())
        print(f"traced run: {traced['host_s']:.3f} s (untraced "
              f"{untraced:.3f} s); self time by layer:")
        for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<24s} {value:9.4f} s  {100.0 * value / total:5.1f} %")
        obs = sum(values[f"{layer}.self_s"] for layer in OBS_LAYERS)
        print(f"  {'(obs subscribers total)':<24s} {obs:9.4f} s")
    if "error" not in cp:
        for category, value in cp["cp"].items():
            values[f"cp.{category}_vs"] = value
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {os.path.join(ROOT, 'src')}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    sampler = Sampler(args.workload, args.seed)
    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name}: {wl.label} at scale {wl.scale} on {wl.preset}"
          f"{' with observers' if wl.observed else ''}, seed {args.seed}")
    print("virtual result check: " + (
        "recorded value" if sampler.expected is not None
        else "no recorded value for this seed; samples must agree"))
    runs = measure(sampler, args.seconds)
    if args.trace:
        values = per_layer(sampler, runs)
        units = UNITS
    else:
        values = end_to_end(sampler, runs)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_frac = {sampler.failed / sampler.attempted} "
          f"({sampler.failed} of {sampler.attempted} simulations)")
    for err in sampler.errors:
        print(f"FAILED {err}")
    correct = sampler.failed == 0 and not sampler.errors
    print(json.dumps({"correct": correct, "attempted": sampler.attempted,
                      "failed": sampler.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One sample of the benchmark: one simulation in this fresh process.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/sample.py --workload NAME --seed N --mode MODE

Modes: ``setup`` (import and build only), ``run`` (the untraced, timed
simulation), ``cp`` (one run with span recording on, for the critical-path
breakdown) and ``traced`` (the run with layer wrappers installed). The
last line of standard output is one JSON object.
"""

import argparse
import functools
import json
import resource
import sys
import time
import traceback
from typing import List

from calibrate import probe, quick_probe

#: dispatched events between two looks at the block clock
HOOK_EVENTS = 16
#: wall seconds of one timed block of a ``run`` sample
BLOCK_S = 0.04


class BlockClock:
    """Engine host hook that cuts a run into blocks of about BLOCK_S wall
    seconds, with a short speed probe before the first block and after
    each one. The probes' time is left out of the blocks."""

    def __init__(self) -> None:
        self.blocks: List[float] = []
        self.probes: List[float] = [quick_probe()]
        self.start = time.perf_counter()

    def __call__(self, engine=None) -> None:
        if time.perf_counter() - self.start >= BLOCK_S:
            self.close()

    def close(self) -> None:
        """End the current block."""
        self.blocks.append(time.perf_counter() - self.start)
        self.probes.append(quick_probe())
        self.start = time.perf_counter()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(merged, plat) -> dict:
    return {"phases": dict(merged.phases), "verified": bool(merged.verified),
            "events": plat.engine.events_executed}


def sample(wl, seed: int, mode: str, t_start: float = None) -> dict:
    """One sample of the :class:`workloads.Workload` ``wl``; set-up is
    timed from ``t_start`` (default: now), which must precede the first
    ``import repro`` of the process."""
    if t_start is None:
        t_start = time.perf_counter()
    tracer = installation = None
    if mode == "traced":
        from layertrace import LayerTracer, install

        tracer = LayerTracer()
        installation = install(tracer)

    from repro.apps import get_app
    from repro.apps.common import merge_rank_results
    from repro.models.jiajia_api import JiaJiaApi

    app_fn = get_app(wl.app())
    params = wl.params(seed)
    plat = wl.cluster_config(observe=(mode == "cp")).build()
    out = {"setup_s": time.perf_counter() - t_start,
           "probe_after_setup_s": probe()}
    if mode == "setup":
        return out

    if tracer is not None:
        tracer.vclock = lambda: plat.engine.now
        tracer.reset()  # spans recorded while building are not the run's
        app_fn = tracer.wrap("apps", app_fn)
        tracer.enter("bench")
    clock = None
    if mode == "run":
        clock = BlockClock()
        plat.engine.set_host_hook(clock, HOOK_EVENTS)
    t0 = time.perf_counter()
    per_rank = JiaJiaApi(plat.hamster).run(functools.partial(app_fn, **params))
    merged = merge_rank_results(per_rank)
    out["host_s"] = time.perf_counter() - t0
    if clock is not None:
        clock.close()
        out["host_s"] = sum(clock.blocks)
        out["blocks"], out["probes"] = clock.blocks, clock.probes
    out.update(_result(merged, plat))

    if tracer is not None:
        from layers import traced_metrics

        tracer.exit()
        installation.restore()
        out["layers"] = traced_metrics(tracer, plat)
        out["missing"] = installation.missing
        out["restored"] = installation.restored()
    elif mode == "cp":
        from repro.obs import critical_path_report

        out["cp"] = critical_path_report(plat).totals()
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "cp", "traced"),
                    required=True)
    args = ap.parse_args(argv)
    from workloads import WORKLOADS

    probe_s = probe()  # machine speed, before the set-up clock starts
    try:
        out = sample(WORKLOADS[args.workload], args.seed, args.mode,
                     t_start=time.perf_counter())
        # the speed during set-up: the mean of the probes either side of it
        out["probe_s"] = (probe_s + out.pop("probe_after_setup_s")) / 2
    except Exception:  # noqa: BLE001 - reported to the parent as a failure
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

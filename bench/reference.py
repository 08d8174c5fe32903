"""Re-measure the reference failure rates that the band checks use.

    python3 bench/reference.py > bench/reference.json

Pools root seeds 1000-1009, each with the workload's own trials and
cycles, and prints the JSON document that checks.reference reads.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

SEEDS = range(1000, 1010)


def pooled(m, configs, trials) -> dict:
    out = {}
    for label, cfg in configs:
        failures = sum(m.memsim.monte_carlo(cfg, trials, seed).failures
                       for seed in SEEDS)
        total = trials * len(SEEDS)
        out[label] = {"failure_rate": failures / total, "failures": failures,
                      "trials": total}
    return out


def main() -> int:
    m = run.namespace(run.import_faultmem())
    sys.path.insert(0, str(run.BENCH_DIR))
    import workloads

    large = workloads.LargeCached(m, 0, None)
    large.setup()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
        paired = workloads.PairedTk(m, 0, work)
        paired.setup()
    cfg = paired.cfg
    paired_configs = [(d, m.memsim.RunConfig(cfg.graph, d, cfg.fault_model,
                                             paired.CYCLES, profile=cfg.profile))
                      for d in paired.DECODERS]
    doc = {
        "about": "Failure rates measured at the commit that added the "
                 "benchmark, pooled over root seeds 1000-1009 with each "
                 "workload's trials and cycles.",
        large.name: pooled(m, large.configs, large.TRIALS),
        paired.name: pooled(m, paired_configs, paired.TRIALS),
    }
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

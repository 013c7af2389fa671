#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Runs every workload at toy scale with and without the traced run and
asserts that every named metric is printed with its unit and that no
operation failed. Then feeds the correctness gate a deliberately wrong
reference verdict line and asserts that the check operations are counted
as failed, which proves the gate can fail. Takes about a minute after the
first build.
"""

import sys

import run

TOY_SCALE = 0.01


def expect(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def main():
    run.build(["scoded", "e2e_helper", "e2e_spawn"])
    for workload in sorted(run.WORKLOADS):
        for trace, units in ((0, run.E2E_UNITS), (1, run.LAYER_UNITS)):
            result, fingerprint = run.run_benchmark(workload, seed=1, seconds=0.1, trace=trace,
                                                    scale=TOY_SCALE)
            label = "%s trace=%d" % (workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   label + ": result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   label + ": %d ops attempted, none failed %s"
                   % (result["attempted"], fingerprint["failures"]))
            metrics = result["metrics"]
            expect(set(metrics) == set(units), label + ": every metric is printed")
            expect(all(metrics[name]["unit"] == unit for name, unit in units.items()),
                   label + ": every metric carries its unit")
            for key in ("nproc", "cpu_model", "simd_tier", "build_type", "scoded_version",
                        "threads", "seed", "fixtures"):
                expect(key in fingerprint, label + ": fingerprint records " + key)

    result, fingerprint = run.run_benchmark("small", seed=1, seconds=0.1, trace=0,
                                            scale=TOY_SCALE, corrupt_reference=True)
    runs = run.WORKLOADS["small"]["check_reps"] * fingerprint["rounds_timed"]
    expect(not result["correct"], "a wrong reference line makes the run incorrect")
    expect(result["failed"] == 3 * runs and
           all(f.startswith("check_") for f in fingerprint["failures"]),
           "each of the 3 check ops fails in each of its %d runs, nothing else fails "
           "(failed = %d)" % (runs, result["failed"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

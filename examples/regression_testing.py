#!/usr/bin/env python3
"""Use case: regression testing a recorder (paper §3.1, Charlie).

Charlie develops a provenance recorder and wants to document its level of
completeness to skeptical users.  He stores each benchmark's target graph
(as Datalog) and re-runs the suite whenever the recorder changes; graph
isomorphism flags differences.  Expected changes replace the baseline;
unexpected ones are investigated as bugs.

Here the "system change" is SPADE's versioning flag being turned on —
write benchmarks gain a version-chain edge, which the regression check
flags immediately.
"""

import tempfile

from repro import PipelineConfig, ProvMark
from repro.api import BenchmarkService, RunRequest
from repro.capture.spade import SpadeCapture, SpadeConfig
from repro.core.regression import RegressionStore

BENCHMARKS = ("open", "read", "write", "rename", "unlink")


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        store = RegressionStore(root)

        service = BenchmarkService()

        print("Step 1: record baselines with the current SPADE build")
        for name in BENCHMARKS:
            result = service.run(
                RunRequest(benchmark=name, tool="spade", seed=99)
            ).result
            report = store.check_and_update(result)
            print(f"  {name:<8} {report.status}")

        print("\nStep 2: re-run unchanged — everything should be stable")
        for name in BENCHMARKS:
            result = service.run(  # different seed!
                RunRequest(benchmark=name, tool="spade", seed=1234)
            ).result
            report = store.check(result)
            print(f"  {name:<8} {report.status}")

        print("\nStep 3: 'upgrade' SPADE (enable artifact versioning) and re-run")
        # A hand-configured capture goes straight to the pipeline
        # driver; the declarative API deliberately does not cover it.
        upgraded = ProvMark(
            capture=SpadeCapture(SpadeConfig(versioning=True)),
            config=PipelineConfig(tool="spade", seed=7),
        )
        changed = []
        for name in BENCHMARKS:
            report = store.check(upgraded.run_benchmark(name))
            flag = f"  <- investigate: {report.detail}" if report.changed else ""
            print(f"  {name:<8} {report.status}{flag}")
            if report.changed:
                changed.append(name)

        print(
            f"\nCharlie's verdict: {', '.join(changed)} changed shape after "
            "the upgrade.\nThe change is expected (versioning adds "
            "WasDerivedFrom chains), so the new\ngraphs replace the stored "
            "baselines (paper §3.1)."
        )
        for name in changed:
            store.check_and_update(upgraded.run_benchmark(name), accept_changes=True)
        final = store.check(upgraded.run_benchmark(changed[0])) if changed else None
        if final:
            print(f"After accepting: {changed[0]} is {final.status}.")


if __name__ == "__main__":
    main()

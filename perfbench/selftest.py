"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload's run emits exactly the metrics BENCHMARK.json
names (and prints the other named metrics), that corrupted outputs and
raising operations are counted as failed without stopping the run, and that
a traced run's counts repeat exactly for a fixed seed. Exits 0 when all pass.
"""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import run


def _run_tiny(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_emitted_metrics(harness):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(harness.WORKLOADS), listed
    for kind, units, extra in (("end_to_end", run.END_TO_END, run.END_TO_END_EXTRA),
                               ("per_layer", run.PER_LAYER, run.PER_LAYER_EXTRA)):
        assert {m["name"]: m["unit"] for m in spec[kind]} == units, kind
        trace = int(kind == "per_layer")
        for workload in harness.WORKLOADS:
            result, text = _run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(units), (workload, kind)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name]
                assert isinstance(metric["value"], (int, float)), (workload, name)
                if kind == "end_to_end":
                    assert metric["value"] > 0, (workload, name)
            for name in list(units) + list(extra):
                assert f"  {name} " in text, (workload, name)


def check_failures_are_counted(harness):
    manycut = harness.WORKLOADS["grid-manycut"]
    inst = manycut.make_inputs(0, True, run.OUT_DIR)[0]
    good = manycut.run_op(inst)
    assert not harness.check_partition(inst.graph, good)
    blocks = [b.copy() for b in good.blocks]
    blocks[0] = blocks[0][1:]
    for bad in (dataclasses.replace(good, blocks=blocks),
                dataclasses.replace(good, cut_weight=good.cut_weight * 1.01),
                dataclasses.replace(good, psi_weighted_sum=good.psi_weighted_sum + 1.0),
                dataclasses.replace(good, verification_passed=False)):
        assert harness.check_partition(inst.graph, bad), bad

    cli = harness.WORKLOADS["hypercube-cli"]
    cli_inst = cli.make_inputs(0, True, run.OUT_DIR)[0]
    cli_good = cli.run_op(cli_inst)
    assert not harness.check_partition(cli_inst.graph, cli_good)
    assert harness.check_partition(cli_inst.graph, dataclasses.replace(
        cli_good, blocks=[cli_good.blocks[0][:-1]]))

    cut = harness.WORKLOADS["mesh-weighted"]
    cut_inst = cut.make_inputs(0, True, run.OUT_DIR)[0]
    res = cut.run_op(cut_inst)
    assert not harness.check_cut(cut_inst.graph, res)
    for bad in (dataclasses.replace(res, subset=res.subset[1:]),
                dataclasses.replace(res, certificate_c=res.certificate_c * 1.01),
                dataclasses.replace(res, stats=dataclasses.replace(
                    res.stats, boundary_weight=res.stats.boundary_weight * 1.01))):
        assert harness.check_cut(cut_inst.graph, bad), bad

    # An output the checks cannot read, such as a block diameter the CLI wrote
    # as the string "inf" or a cut without a target score, fails the operation
    # instead of stopping the run.
    for workload, instance, out in (
            (cli, cli_inst, dataclasses.replace(cli_good, block_rdiams=["inf"])),
            (cut, cut_inst, dataclasses.replace(res, target_c=None))):
        broken = dataclasses.replace(workload, run_op=lambda _, out=out: out)
        rec = harness.run_once(broken, instance, 0)
        assert not rec.ok and rec.problems[0].startswith("check raised"), rec

    # Through the run loop: a wrong answer and a raising call each count as
    # a failed operation, and the run goes on to the next one.
    def dropped_vertex(instance):
        out = manycut.run_op(instance)
        return dataclasses.replace(out, blocks=out.blocks[1:])

    def raises(instance):
        raise ArithmeticError("injected")

    for op in (dropped_vertex, raises):
        broken = dataclasses.replace(manycut, run_op=op)
        records = harness.run_timed(broken, [inst, inst], 0.0)
        assert len(records) == 2 and not any(r.ok for r in records), records
        assert harness.end_to_end(records)["fail_frac"] == 1.0


def check_counts_repeat(harness):
    import tracing
    counts = []
    for _ in range(2):
        for name in ("grid-manycut", "hypercube-cli", "expander-10k"):
            workload = harness.WORKLOADS[name]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records = harness.run_timed(workload, workload.make_inputs(5, True, run.OUT_DIR),
                                            0.0, tracer)
            finally:
                tracer.uninstall()
            values = run.per_layer(records, tracer.spans)
            counts.append({k: v for k, v in values.items() if run.PER_LAYER.get(k) == "count"})
    assert counts[:3] == counts[3:], counts
    assert all(c["sketch.approx_reff_from_source.calls"] > 0 for c in counts)


def main() -> int:
    run.bootstrap()
    run.OUT_DIR.mkdir(exist_ok=True)
    import harness
    check_failures_are_counted(harness)
    check_counts_repeat(harness)
    check_emitted_metrics(harness)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

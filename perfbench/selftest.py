#!/usr/bin/env python3
"""Self-test of the benchmark at toy size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs and prints every metric with its unit, that
the result line names exactly the metrics in ``BENCHMARK.json``, that a
store with one value altered or one row torn fails the output check, that
another seed changes the inputs but not the metric names, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import bad_cells, read_store, recompute_problems, sample_cells, tree_digest
from spans import layer_names

ROOT = run.ROOT
TOY_WORK = run.WORK / "selftest"


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"[FAIL] {message}")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def toy_run(workload: str, seed: int, trace: int) -> tuple[str, dict, dict]:
    done = bench(workload, seed, trace)
    require(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (run.WORK / "results" / f"{workload}-toy-s{seed}-t{trace}.json").read_text()
    )
    return done.stdout, result, detail


def check_printed(workload: str, text: str, result: dict, trace: int, spec: dict) -> None:
    lines = text.splitlines()
    printed = {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) >= 3:
            printed.setdefault(words[0], words)
    wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + [("failed_cells", "fraction")]
    if trace:
        wanted += [(m["name"], m["unit"]) for m in spec["per_layer"] if m["name"] != "trace.overhead"]
    for name, unit in wanted:
        require(name in printed and unit in printed[name],
                f"{workload}: {name} not printed with unit {unit}")
    key = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    require(sorted(result["metrics"]) == sorted(names),
            f"{workload} trace={trace}: result metrics differ from BENCHMARK.json {key}")
    for name, metric in result["metrics"].items():
        unit = next(m["unit"] for m in spec[key] if m["name"] == name)
        require(metric["unit"] == unit, f"{workload}: {name} reported in {metric['unit']}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace={trace}: output check failed on unmodified code")


def check_altered_store(detail: dict) -> None:
    run.import_adeval()
    from adeval.cli import main as cli_main

    last = detail["last_study"]
    out, cache = Path(last["out"]), Path(last["cache"])
    toy = run.WORKLOADS[detail["workload"]].toy()
    expected, n_measures = toy.expected_cells(), toy.n_measures
    require(not bad_cells(read_store(out / "records"), expected, n_measures),
            "unaltered store fails the presence check")

    # One sampled cell's AUC moved by 1e-9: the pairwise oracle must see it.
    altered = TOY_WORK / "altered"
    shutil.rmtree(altered, ignore_errors=True)
    shutil.copytree(out, altered)
    store = read_store(altered / "records")
    victim = sample_cells(store, detail["seed"])[0]
    old = victim.values["AUC"]
    for path in sorted((altered / "records").glob("*.csv")):
        lines = path.read_bytes().decode().splitlines(keepends=True)
        header = next(line for line in lines if not line.startswith("#")).rstrip().split(",")
        for i, line in enumerate(lines):
            fields = line.rstrip("\r\n").split(",")
            if len(fields) == len(header) and fields[0].isdigit() and (
                    fields[1], fields[2], int(fields[0]), int(fields[6])) == victim.key:
                fields[header.index("AUC")] = repr(float(old) - 1e-9)
                lines[i] = ",".join(fields) + "\r\n"
        path.write_bytes("".join(lines).encode())
    require(tree_digest(altered / "records", "*.csv") != detail["iterations"][-1]["store_sha256"],
            "altering a value left the store digest unchanged")
    problems, keys = recompute_problems(
        cli_main, read_store(altered / "records"), cache, TOY_WORK / "recompute",
        detail["seed"], master_seed=detail["seed"], alphas=toy.alphas,
        volume_samples=int(toy.value("volume_samples", "100000")),
    )
    require(victim.key in keys, f"altered AUC not detected: {problems}")

    # A row cut off after half its fields must count as a failed cell.
    torn = TOY_WORK / "torn"
    shutil.rmtree(torn, ignore_errors=True)
    shutil.copytree(out, torn)
    path = sorted((torn / "records").glob("*.csv"))[0]
    text = path.read_bytes()
    last_row = text.rstrip().rsplit(b"\n", 1)[1]
    path.write_bytes(text[: len(text) - len(last_row) // 2])
    require(bad_cells(read_store(torn / "records"), expected, n_measures),
            "a torn store row passed the presence check")
    print("[PASS] altered value and torn row fail the output check")


def check_without_sources() -> None:
    bare = TOY_WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("smoke", 1, 0, cwd=bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    require(done.returncode != 0 and not last[0].startswith("{"),
            "benchmark ran without the program's sources")
    print("[PASS] refuses to run without src/adeval")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require(
        [(m["name"], m["unit"]) for m in spec["per_layer"]]
        == layer_names() + [("trace.overhead", "fraction")],
        "BENCHMARK.json per_layer differs from spans.layer_names()",
    )
    require({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
            "BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
            "BENCHMARK.json workloads differ from run.WORKLOADS")
    details = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            text, result, detail = toy_run(workload, 1, trace)
            check_printed(workload, text, result, trace, spec)
            details[workload, trace] = detail
        print(f"[PASS] {workload}: every metric printed with its unit, output check passes")

    _, other, other_detail = toy_run("smoke", 2, 0)
    first = details["smoke", 0]
    require(other_detail["input_sha256"] != first["input_sha256"], "seed 2 kept the seed 1 inputs")
    require(sorted(other["metrics"]) == sorted(first["result"]["metrics"]),
            "seed 2 reports other metric names")
    print("[PASS] another seed changes the inputs, not the metric names")

    check_altered_store(first)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())

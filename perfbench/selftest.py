"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json meets the benchmark schema and matches the
metric catalogue, that every workload prints every metric that applies to
it with its unit in both passes, that the last line of each run is the
result object, and that a directory without the package fails cleanly.
Takes about ten seconds: the inputs are ten to a hundred times smaller than
in a real run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(cond, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_spec(spec: dict, raw: bytes) -> None:
    check(len(raw) <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, f"top-level keys {sorted(spec)}")
    cmd = spec["command"]
    check(isinstance(cmd, list) and 1 <= len(cmd) <= 32, "command is 1-32 strings")
    for arg in cmd:
        check(isinstance(arg, str) and len(arg) <= 200, f"command arg {arg!r}")
        check(not arg.startswith("/") and ".." not in arg.split("/"),
              f"command arg {arg!r} leaves the checkout")
    paths = spec["paths"]
    check(1 <= len(paths) <= 16, "paths holds 1-16 directories")
    for p in paths:
        check(PATH.match(p) and ".." not in p.split("/"), f"path {p!r}")
        check((ROOT / p).is_dir(), f"path {p!r} is not a directory")
    check(type(spec["run_seconds"]) is int and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    workloads = spec["workloads"]
    check(2 <= len(workloads) <= 8, "2-8 workloads")
    names = []
    for w in workloads:
        check(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    check(1 <= len(spec["end_to_end"]) <= 16, "1-16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1-128 per-layer metrics")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        check(isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25,
              f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
        names.append(m["name"])
    for n in names:
        check(NAME.match(n), f"name {n!r}")
    check(len(names) == len(set(names)), "names are used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is an end-to-end metric in s, lower is better")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")
    # The schema's time budget: 4 + 22 * workloads runs within 3420 s. Allow
    # 8 s of start-up, set-up and checks on top of the measured seconds.
    runs = 4 + 22 * len(workloads)
    check(runs * (spec["run_seconds"] + 8) <= 3420, "runs fit in 3420 s")


def check_catalogue() -> None:
    check(set(M.END_TO_END) == set(M.END_TO_END_DESC),
          "every end-to-end metric is described, and only those")
    check(set(M.PER_LAYER) == set(M.PER_LAYER_DESC),
          "every per-layer metric has a description and a mapping, and only those")


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_run(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{workload} result {result}")
    gated = M.PER_LAYER if trace else M.END_TO_END
    check(list(result["metrics"]) == list(gated),
          f"{workload} trace={trace} metrics {list(result['metrics'])}")
    for name, entry in result["metrics"].items():
        check(set(entry) == {"value", "unit"} and entry["unit"] == M.UNITS[name],
              f"{name} entry {entry}")
        check(isinstance(entry["value"], (int, float)), f"{name} value")
    expected = list(gated) + ["fail_frac"]
    if workload.startswith("kaczmarz"):
        expected += M.REFERENCES
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] in M.UNITS:
            printed[parts[0]] = parts[2]
    for name in expected:
        check(printed.get(name) == M.UNITS[name],
              f"{workload} trace={trace} does not print {name} in {M.UNITS[name]}")
    env = [line for line in lines if line.startswith("env ")]
    check(env and {"python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                   "cpu_model", "git_commit", "seed"} <= set(json.loads(env[0][4:])),
          f"{workload} prints the environment record")


def check_bare_directory() -> None:
    """Without src/ the benchmark must fail without printing a result."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run(M.WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "a bare directory exits 0")
    check('"correct"' not in proc.stdout, "a bare directory prints a result")


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    check_spec(json.loads(raw), raw)
    print("PASS BENCHMARK.json schema")
    check_catalogue()
    print("PASS metric catalogue matches BENCHMARK.json")
    for workload in M.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"PASS {workload} trace={trace}")
    check_bare_directory()
    print("PASS bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

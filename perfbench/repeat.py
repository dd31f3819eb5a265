"""Run the benchmark over several seeds and summarise each metric.

From the repository root::

    python3 perfbench/repeat.py --workloads profile,serve,fleet --runs 10 \\
        --out .perfbench/base.json
    python3 perfbench/repeat.py --workloads profile,fleet,serve --runs 5 \\
        --inject --compare .perfbench/base.json

For every workload x end-to-end metric it prints the median and the
spread (interquartile range over median, the acceptance rule) of the
runs, and with ``--compare`` how far each median moved against a saved
summary, marked ``PAST BOUND`` when it worsened by more than the
metric's bound in ``BENCHMARK.json``.  Seeds are ``first-seed`` up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import median, spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, inject: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if inject:
        command.append("--inject")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--inject", action="store_true")
    parser.add_argument("--out", type=Path, help="save the summary as JSON")
    parser.add_argument("--compare", type=Path, help="a saved summary to compare medians with")
    args = parser.parse_args(argv)

    baseline = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else {}
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, args.inject)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), file=sys.stderr)
        summary[workload] = {}
        for name, series in values.items():
            mid = median(series)
            summary[workload][name] = {"median": mid, "spread": spread(series), "values": series}
            line = f"{workload:8s} {name:17s} median {mid:12.5g}  spread {spread(series):6.3f}"
            line += f"  (bound {bounds[name]['bound']})"
            before = baseline.get(workload, {}).get(name)
            if before:
                change = mid / before["median"] - 1.0
                worse = -change if bounds[name]["better"] == "higher" else change
                line += f"  vs base {change:+.3f}"
                if worse > bounds[name]["bound"]:
                    line += "  PAST BOUND"
            print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark once per seed and summarise each end-to-end metric:
median, quartiles and spread = (q3 - q1) / median, beside a third of the
metric's bound from BENCHMARK.json.

    python3 bench/spread.py --workloads point_reports verify_sweep --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --traced --out bench/baseline.json

Runs are sequential.  --traced adds one traced run per workload, on the
first seed.  --out writes every run and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [ln for ln in lines[:-1] if ln.startswith("#")]
    return result


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median,
                          "third_of_bound": m["bound"] / 3}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                    help="range such as 1-10")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in args.workloads:
        runs = [run(spec, wl, seed, 0) for seed in args.seeds]
        entry = {"seeds": args.seeds, "runs": runs,
                 "summary": summarise(runs, spec["end_to_end"])}
        print(f"{wl}: attempted {[r['attempted'] for r in runs]}, "
              f"failed {[r['failed'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] < s["third_of_bound"] else "  <-- wide"
            print(f"  {name:18s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound/3 {s['third_of_bound']:.4f})"
                  f"{flag}")
        if args.traced:
            entry["traced"] = run(spec, wl, args.seeds[0], 1)
        report["workloads"][wl] = entry
        sys.stdout.flush()
    report["machine"] = json.loads(
        runs[-1]["notes"][0].removeprefix("# machine: "))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One command for the whole benchmark.

    python3 benchmarks/suite/run.py --seed 7 [--workload NAME] [--traced] [--out DIR]
    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py --compare A/results.json B/results.json
    python3 benchmarks/suite/run.py --smoke

The first form prints every metric of every workload by name with its
unit, runs the correctness checks, and exits non-zero if one fails;
``--traced`` adds the per-layer run, ``--out`` keeps ``results.json``
and one Chrome trace per workload.  The second form is the driver's:
one workload, one kind of run, and as the last line of standard output
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the root of the checkout -- this file defines no
metric of its own.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]


def declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_lines(checks: list[dict]) -> list[str]:
    def verdict(check: dict) -> str:
        if check["ok"]:
            return "ok     "
        return "INVALID" if check.get("validity") else "FAIL   "

    return [
        f"  check {verdict(check)} {check['name']}: {check['detail']}"
        for check in checks
    ]


def passed(checks: list[dict], validity: bool) -> bool:
    """Whether every correctness (or every validity) check holds.

    A failed correctness check means the program's outputs were wrong:
    ``correct`` is false and the exit code non-zero.  A failed validity
    check means the host starved the load generator: the outputs were
    right, the timings are not to be trusted, and ``--compare`` will not
    judge them.
    """
    return all(
        check["ok"] for check in checks if bool(check.get("validity")) == validity
    )


def print_untraced(result: dict, declared: list[dict], why: str) -> None:
    print(f"== {result['workload']} -- end to end (untraced) -- {why}")
    for metric in declared:
        summary = result["metrics"][metric["name"]]
        print(
            f"  {metric['name']:<24}{summary['value']:>16.4f} {metric['unit']:<9}"
            f"q1 {summary['q1']:.4f}  q3 {summary['q3']:.4f}  "
            f"n {summary['n_samples']}  ({metric['better']} is better, "
            f"bound {metric['bound']})"
        )
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"statuses {result['statuses'] or '-'}"
    )
    print("\n".join(check_lines(result["checks"])))


def print_traced(result: dict, declared: list[dict]) -> None:
    print(f"== {result['workload']} -- per layer (traced)")
    for metric in declared:
        print(
            f"  {metric['name']:<32}{result['metrics'][metric['name']]:>16.4f} "
            f"{metric['unit']}"
        )
    print("  stage self times (span minus children):")
    for name, stage in result["stages"].items():
        print(
            f"    {name:<22}n {stage['n']:>6}  median {stage['median_self_us']:>10.1f} us"
            f"  total {stage['total_self_ms']:>10.1f} ms"
        )
    if "trace_file" in result:
        print(f"  {result['spans']} spans -> {result['trace_file']}")
    print("\n".join(check_lines(result["checks"])))


def determinism_check(untraced: dict, traced: dict) -> dict:
    """Satellite (c): the same seed is the same work.

    The first measured ``inproc_serve`` window of the untraced run and
    the unwrapped window of the traced run are the same requests after
    the same set-up in two different processes, so their wire bytes and
    candidate counts must be equal to the byte.
    """
    first, twin = untraced["windows"][0], traced["windows"]["untraced"]
    same = all(first[key] == twin[key] for key in ("ops", "wire_bytes", "candidates"))
    return {
        "name": "same_seed_same_work",
        "ok": same,
        "detail": f"wire bytes {first['wire_bytes']} / {twin['wire_bytes']}, "
        f"candidates {first['candidates']} / {twin['candidates']} "
        "(untraced run / traced run's unwrapped window)",
    }


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Per (workload, metric): B against A, judged by the declared bound."""
    with open(path_a, encoding="utf-8") as handle:
        base = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        other = json.load(handle)["workloads"]
    regressed = 0
    print(f"A = {path_a}\nB = {path_b}")
    for workload in bench["workloads"]:
        name = workload["name"]
        if name not in base or name not in other:
            continue
        print(f"== {name}")
        for metric in bench["end_to_end"]:
            a = base[name]["end_to_end"][metric["name"]]
            b = other[name]["end_to_end"][metric["name"]]
            ratio = b["value"] / a["value"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
            if spread > metric["bound"] or not (base[name]["valid"] and other[name]["valid"]):
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(
                f"  {metric['name']:<24}B/A {ratio:7.4f}  (A {a['value']:.4f}, "
                f"B {b['value']:.4f} {metric['unit']})  window IQR {spread:6.1%}  "
                f"bound {metric['bound']:.0%}  {verdict}"
            )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    bench = declaration()
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver mode")
    parser.add_argument("--traced", action="store_true", help="add the per-layer run")
    parser.add_argument("--out", help="directory for results.json and traces")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all runs")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, bench)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Imported here: everything below needs the program on the path.
    from engine_parity import parity_check
    from spec import FULL, SMOKE
    from stats import host_stamp
    from traced import spawn_traced
    from workloads import run_untraced

    sizes = SMOKE if args.smoke else FULL
    want_untraced = args.trace != 1
    want_traced = args.trace == 1 or args.traced or args.smoke
    whys = {workload["name"]: workload["why"] for workload in bench["workloads"]}
    host = host_stamp()
    print(f"host {json.dumps(host)}  seed {args.seed}  seconds {args.seconds}")

    shared = [parity_check(sizes, args.seed)]
    print("\n".join(check_lines(shared)))
    results: dict[str, dict] = {}
    correct = passed(shared, validity=False)
    for name in [args.workload] if args.workload else names:
        entry = results[name] = {"checks": list(shared)}
        if want_untraced:
            untraced = run_untraced(name, args.seed, args.seconds, sizes, args.smoke)
            print_untraced(untraced, bench["end_to_end"], whys[name])
            entry["end_to_end"] = untraced["metrics"]
            entry["attempted"], entry["failed"] = untraced["attempted"], untraced["failed"]
            entry["checks"] += untraced["checks"]
        if want_traced:
            traced = spawn_traced(name, args.seed, args.smoke, args.out)
            if want_untraced and name == "inproc_serve":
                traced["checks"].append(determinism_check(untraced, traced))
            # A layer that is not on a workload's path books nothing: 0.
            traced["metrics"] = entry["per_layer"] = {
                metric["name"]: float(traced["metrics"].get(metric["name"], 0.0))
                for metric in bench["per_layer"]
            }
            print_traced(traced, bench["per_layer"])
            entry["stages"] = traced["stages"]
            entry["checks"] += traced["checks"]
            if not want_untraced:
                entry["attempted"], entry["failed"] = traced["attempted"], traced["failed"]
        entry["correct"] = passed(entry["checks"], validity=False)
        entry["valid"] = passed(entry["checks"], validity=True)
        correct = correct and entry["correct"]

    if args.out:
        path = pathlib.Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "results.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"host": host, "seed": args.seed, "seconds": args.seconds,
                 "smoke": args.smoke, "workloads": results},
                handle,
                indent=1,
            )
        print(f"results -> {path / 'results.json'}")
    print("outputs correct" if correct else "A CORRECTNESS CHECK FAILED")
    for name, entry in results.items():
        if not entry["valid"]:
            print(f"{name}: INVALID timings (the host starved the load generator)")

    if args.trace is not None:
        entry = results[args.workload]
        if args.trace == 0:
            metrics = {
                metric["name"]: {
                    "value": entry["end_to_end"][metric["name"]]["value"],
                    "unit": metric["unit"],
                }
                for metric in bench["end_to_end"]
            }
        else:
            metrics = {
                metric["name"]: {
                    "value": entry["per_layer"][metric["name"]],
                    "unit": metric["unit"],
                }
                for metric in bench["per_layer"]
            }
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": entry["attempted"],
                    "failed": entry["failed"],
                    "metrics": metrics,
                }
            )
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Schema check for the benchmark JSON outputs.

Validates BENCH_service.json and BENCH_load.json against the key sets
documented in docs/benchmarks.md, so a rename (like the old
conn_setup_ms_avg -> accept_ms_avg / first_byte_ms_avg split) can never
silently ship half-applied: the moment a producer and this contract
disagree, CI fails.

Usage:
    check_bench_schema.py [--service BENCH_service.json]
                          [--load BENCH_load.json]

Files that are not given and do not exist in the working directory are
skipped with a note; a file that exists but does not match the contract
is an error. Exit 0 only if everything present validates.
"""

import argparse
import json
import os
import sys

FORBIDDEN_KEYS = {
    # Replaced by the accept/first-byte split; must never reappear.
    "conn_setup_ms_avg",
    "conn_setup_ms",
}

SERVICE_TOP = {
    "bench",
    "mode",
    "jobs",
    "hardware_concurrency",
    "deterministic_across_worker_counts",
    "speedup_max_vs_min_workers",
    "runs",
    "socket",
    "inline_spec",
    "observability",
}

SERVICE_SOCKET = {
    "workers",
    "connections",
    "accept_ms_avg",
    "idle_before_first_request_ms_avg",
    "first_byte_ms_avg",
    "wall_seconds",
    "jobs_per_sec",
    "latency_p50_ms",
    "latency_p99_ms",
    "matches_in_process",
}

LOAD_TOP = {
    "bench",
    "open_loop",
    "seed",
    "duration_s_per_rung",
    "workers",
    "external_server",
    "hardware_concurrency",
    "stages",
}

LOAD_STAGE = {
    "connections",
    "max_sustainable_jobs_per_sec",
    "offered_jobs_per_sec",
    "achieved_jobs_per_sec",
    "latency_p50_ms",
    "latency_p99_ms",
    "latency_p999_ms",
    "jobs_sent",
    "responses",
    "error_lines",
    "malformed_lines",
    "out_of_order",
    "reconciled",
    "server",
}

LOAD_STAGE_SERVER = {
    "accept_ms_avg",
    "idle_before_first_request_ms_avg",
    "first_byte_ms_avg",
    "stage_queue_ms_p50",
    "stage_solve_ms_p50",
    "partial_writes",
}


def fail(errors, where, message):
    errors.append(f"{where}: {message}")


def check_keys(errors, where, obj, required):
    if not isinstance(obj, dict):
        fail(errors, where, f"expected an object, got {type(obj).__name__}")
        return
    missing = sorted(required - obj.keys())
    if missing:
        fail(errors, where, f"missing keys: {', '.join(missing)}")
    banned = sorted(FORBIDDEN_KEYS & obj.keys())
    if banned:
        fail(errors, where, f"forbidden legacy keys present: {', '.join(banned)}")


def check_service(path, errors):
    with open(path) as fh:
        doc = json.load(fh)
    check_keys(errors, f"{path}", doc, SERVICE_TOP)
    if isinstance(doc, dict):
        if doc.get("bench") != "service":
            fail(errors, path, f"bench != 'service' (got {doc.get('bench')!r})")
        check_keys(errors, f"{path}:socket", doc.get("socket"), SERVICE_SOCKET)
        runs = doc.get("runs")
        if not isinstance(runs, list) or not runs:
            fail(errors, path, "runs must be a non-empty array")


def check_load(path, errors):
    with open(path) as fh:
        doc = json.load(fh)
    check_keys(errors, f"{path}", doc, LOAD_TOP)
    if isinstance(doc, dict):
        if doc.get("bench") != "load":
            fail(errors, path, f"bench != 'load' (got {doc.get('bench')!r})")
        if doc.get("open_loop") is not True:
            fail(errors, path, "open_loop must be true (the harness is open-loop by construction)")
        stages = doc.get("stages")
        if not isinstance(stages, list) or not stages:
            fail(errors, path, "stages must be a non-empty array")
            return
        for i, stage in enumerate(stages):
            where = f"{path}:stages[{i}]"
            check_keys(errors, where, stage, LOAD_STAGE)
            if isinstance(stage, dict):
                check_keys(errors, f"{where}.server", stage.get("server"),
                           LOAD_STAGE_SERVER)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--service", default="BENCH_service.json")
    parser.add_argument("--load", default="BENCH_load.json")
    args = parser.parse_args()

    errors = []
    checked = 0
    targets = [(args.service, check_service),
               (args.load, check_load)]
    for path, checker in targets:
        if not os.path.exists(path):
            print(f"check_bench_schema: {path} not present, skipped")
            continue
        try:
            checker(path, errors)
            checked += 1
        except (json.JSONDecodeError, OSError) as exc:
            fail(errors, path, f"unreadable: {exc}")

    if errors:
        for err in errors:
            print(f"check_bench_schema: FAIL {err}", file=sys.stderr)
        return 1
    print(f"check_bench_schema: ok ({checked} file(s) validated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

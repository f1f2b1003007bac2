#!/usr/bin/env python3
"""Schema check for bench_load's JSON output.

Validates BENCH_load.json against the key set documented in
docs/benchmarks.md, so a rename (like the old conn_setup_ms_avg ->
accept_ms_avg / first_byte_ms_avg split) can never silently ship
half-applied: the moment the producer and this contract disagree, CI
fails.

Usage:
    check_bench_schema.py [--load BENCH_load.json]

A file that does not exist is skipped with a note; a file that exists
but does not match the contract is an error. Exit 0 only if the file
validates or is absent.
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
    parser.add_argument("--load", default="BENCH_load.json")
    args = parser.parse_args()

    if not os.path.exists(args.load):
        print(f"check_bench_schema: {args.load} not present, skipped")
        return 0
    errors = []
    try:
        check_load(args.load, errors)
    except (json.JSONDecodeError, OSError) as exc:
        fail(errors, args.load, f"unreadable: {exc}")

    if errors:
        for err in errors:
            print(f"check_bench_schema: FAIL {err}", file=sys.stderr)
        return 1
    print(f"check_bench_schema: ok ({args.load} validated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Minimal JSONL client for chocoq_serve --listen (stdlib only).

Connects to 127.0.0.1:PORT, streams requests to the server, half-closes
the write side (EOF tells the server no more requests are coming), and
prints every result line to stdout until the server closes the
connection. Used by the CI socket smoke test and handy for operators
without nc:

    printf '{"scale":"F1"}\n' | socket_client.py 7077

Requests come from stdin by default. With --problem FILE the client
instead builds one inline-problem request (see docs/protocol.md) from
the problem-spec JSON in FILE — e.g. the output of
`chocoq_serve --dump-spec F1:0` or a hand-written model:

    socket_client.py 7077 --problem model.json --id mine --seed 11

Extra job fields ride along as KEY=VALUE pairs (numbers and booleans
are detected, everything else stays a string):

    socket_client.py 7077 --problem model.json iters=20 solver=penalty

With --max-retries N the client retries transient failures — a
"rejected" or "expired" response, a connection reset, or a connection
that closed before answering — up to N times per request, on a fresh
connection each round, with exponential backoff plus jitter between
rounds. Retry mode needs to correlate responses to requests, so every
request line must be a JSON object; requests without an "id" get a
synthetic "retry-<line>" id (echoed in their responses). Control
requests ({"type":"cancel"} / {"type":"health"} / {"type":"stats"})
are not retryable and are rejected in retry mode. Without
--max-retries (the default) the client is a byte-faithful pipe,
exactly as before.

Observability flags (docs/observability.md):

    socket_client.py 7077 --stats

sends one {"type":"stats"} probe and pretty-prints the server's
cumulative metrics snapshot (counters, the front-end's server.* and
requests.* counts among them; gauges; stage histograms;
cache/registry/scheduler sections).

    printf '{"scale":"F1","seed":7}\n' | socket_client.py 7077 --trace

sets "trace":true on every job request (requests must be JSON
objects; control requests pass through untouched) and, after each
result's JSON line, renders its span timeline with the same formatter
as trace_view.py.

Exit status: 0 on a clean close (retry mode: every request resolved),
2 on usage/connection errors or when retries are exhausted.
"""

import json
import random
import socket
import sys
import time

# trace_view lives next to this script; --trace borrows its timeline
# formatter so client-side and offline rendering stay identical. The
# import is optional so every other mode works with this file alone.
try:
    import trace_view
except ImportError:  # pragma: no cover - only when copied standalone
    trace_view = None

# Transient response statuses worth resubmitting: "rejected" is
# backpressure (the server asked us to come back later), "expired" is a
# deadline that re-arms from zero on resubmission.
RETRYABLE_STATUSES = ("rejected", "expired")

# Backoff schedule: BASE * 2^round seconds, capped, plus up to 100%
# jitter so synchronized clients don't re-dogpile a loaded server.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def parse_value(raw: str):
    """KEY=VALUE values: JSON scalars when they parse, strings otherwise."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def usage_error(message: str):
    """Usage errors exit 2, like every other path (see module doc)."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def build_inline_request(args: list) -> dict:
    """Consume --problem FILE / --id ID / --seed N / KEY=VALUE args."""
    job = {}
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("--problem", "--id", "--seed"):
            if i + 1 >= len(args):
                usage_error(f"missing value for {arg}")
            value = args[i + 1]
            i += 2
            if arg == "--problem":
                with open(value, encoding="utf-8") as f:
                    job["problem"] = json.load(f)
            elif arg == "--id":
                job["id"] = value
            else:
                job["seed"] = parse_value(value)
        elif "=" in arg:
            key, _, raw = arg.partition("=")
            job[key] = parse_value(raw)
            i += 1
        else:
            usage_error(f"unrecognized argument: {arg!r}")
    if "problem" not in job:
        usage_error("--problem FILE is required in inline mode")
    return job


def emit_result(resp: dict, show_trace: bool):
    """One response: compact JSON line, then its timeline if asked."""
    sys.stdout.write(json.dumps(resp, separators=(",", ":")) + "\n")
    if show_trace and isinstance(resp.get("trace"), dict):
        label = str(resp.get("id", "") or "")
        for line in trace_view.format_trace(resp["trace"], label=label):
            sys.stdout.write(line + "\n")


def run_stats(port: int) -> int:
    """Send one {"type":"stats"} probe, pretty-print the snapshot."""
    try:
        conn = socket.create_connection(("127.0.0.1", port), timeout=600)
    except OSError as e:
        print(f"cannot connect to 127.0.0.1:{port}: {e}", file=sys.stderr)
        return 2
    buf = b""
    with conn:
        conn.sendall(b'{"type":"stats"}\n')
        conn.shutdown(socket.SHUT_WR)
        while b"\n" not in buf:
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
    line, _, _ = buf.partition(b"\n")
    if not line.strip():
        print("socket_client: no stats response", file=sys.stderr)
        return 2
    try:
        snapshot = json.loads(line)
    except ValueError:
        sys.stdout.buffer.write(line + b"\n")
        return 0
    print(json.dumps(snapshot, indent=2))
    return 0


def stream_traced(port: int, requests: list) -> int:
    """--trace without retries: one connection, parsed result lines so
    each trace renders as it arrives."""
    try:
        conn = socket.create_connection(("127.0.0.1", port), timeout=600)
    except OSError as e:
        print(f"cannot connect to 127.0.0.1:{port}: {e}", file=sys.stderr)
        return 2
    buf = b""
    with conn:
        payload = b"".join(
            (json.dumps(obj) + "\n").encode() for obj in requests
        )
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, _, buf = buf.partition(b"\n")
                if not line.strip():
                    continue
                try:
                    resp = json.loads(line)
                except ValueError:
                    sys.stdout.buffer.write(line + b"\n")
                    continue
                if isinstance(resp, dict):
                    emit_result(resp, show_trace=True)
                else:
                    sys.stdout.write(json.dumps(resp) + "\n")
    sys.stdout.flush()
    return 0


def stream_once(port: int, payload: bytes) -> int:
    """Pre-retry behavior: one connection, bytes in, bytes out."""
    try:
        conn = socket.create_connection(("127.0.0.1", port), timeout=600)
    except OSError as e:
        print(f"cannot connect to 127.0.0.1:{port}: {e}", file=sys.stderr)
        return 2
    with conn:
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            sys.stdout.buffer.write(chunk)
    sys.stdout.buffer.flush()
    return 0


def attempt_round(port: int, batch: list):
    """One connection carrying every still-unresolved request.

    Returns (responses_by_id, error_str_or_None). A connection-level
    error is not fatal to the round: responses received before the
    failure still count, and whatever went unanswered is retried.
    """
    responses = {}
    error = None
    try:
        conn = socket.create_connection(("127.0.0.1", port), timeout=600)
    except OSError as e:
        return responses, f"connect: {e}"
    buf = b""
    try:
        with conn:
            payload = b"".join(
                (json.dumps(obj) + "\n").encode() for obj in batch
            )
            conn.sendall(payload)
            conn.shutdown(socket.SHUT_WR)
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, _, buf = buf.partition(b"\n")
                    if not line.strip():
                        continue
                    try:
                        resp = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(resp, dict):
                        responses.setdefault(resp.get("id"), []).append(resp)
    except OSError as e:
        error = f"connection failed mid-stream: {e}"
    return responses, error


def run_with_retries(
    port: int, requests: list, max_retries: int, show_trace: bool = False
) -> int:
    """Resolve every request, resubmitting transient failures.

    Responses print (one JSON line each) as their request resolves —
    either a terminal status, or the last transient answer once retries
    run out.
    """
    items = []
    for n, obj in enumerate(requests):
        if not isinstance(obj, dict):
            usage_error(
                f"--max-retries requires JSON object requests; "
                f"line {n + 1} is not an object"
            )
        if obj.get("type") in ("cancel", "health", "stats"):
            usage_error(
                "--max-retries cannot carry control requests "
                "(cancel/health/stats); send them without retries"
            )
        if not obj.get("id"):
            obj = dict(obj, id=f"retry-{n + 1}")
        items.append(obj)

    unresolved = list(range(len(items)))
    last_seen = {}  # index -> last (retryable) response observed
    for round_no in range(max_retries + 1):
        batch = [items[i] for i in unresolved]
        responses, error = attempt_round(port, batch)
        if error is not None:
            print(f"socket_client: {error}", file=sys.stderr)

        still = []
        for i in unresolved:
            matches = responses.get(items[i]["id"])
            resp = matches.pop(0) if matches else None
            if resp is None:
                # Connection died before this request was answered.
                still.append(i)
            elif resp.get("status") in RETRYABLE_STATUSES:
                last_seen[i] = resp
                still.append(i)
            else:
                # Compact separators match the server's wire format, so
                # downstream greps/diffs treat retried and direct output
                # the same way.
                emit_result(resp, show_trace)
        unresolved = still
        sys.stdout.flush()
        if not unresolved:
            return 0
        if round_no < max_retries:
            delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2**round_no))
            delay += random.uniform(0.0, delay)
            print(
                f"socket_client: {len(unresolved)} request(s) unresolved, "
                f"retry {round_no + 1}/{max_retries} in {delay:.2f}s",
                file=sys.stderr,
            )
            time.sleep(delay)

    # Retries exhausted: surface the last transient answer (if any) so
    # the caller sees *why* each request never resolved.
    for i in unresolved:
        if i in last_seen:
            emit_result(last_seen[i], show_trace)
    sys.stdout.flush()
    print(
        f"socket_client: gave up on {len(unresolved)} request(s) after "
        f"{max_retries} retries",
        file=sys.stderr,
    )
    return 2


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        port = int(argv[1])
    except ValueError:
        print(f"not a port number: {argv[1]!r}", file=sys.stderr)
        return 2

    # Mode flags apply in both request modes, so lift them out before
    # the inline-request builder sees the remaining args.
    args = list(argv[2:])
    max_retries = 0
    want_stats = False
    want_trace = False
    i = 0
    while i < len(args):
        if args[i] == "--max-retries":
            if i + 1 >= len(args):
                usage_error("missing value for --max-retries")
            try:
                max_retries = int(args[i + 1])
            except ValueError:
                max_retries = -1
            if max_retries < 0:
                usage_error(
                    f"--max-retries expects a non-negative integer, "
                    f"got {args[i + 1]!r}"
                )
            del args[i : i + 2]
        elif args[i] == "--stats":
            want_stats = True
            del args[i]
        elif args[i] == "--trace":
            want_trace = True
            del args[i]
        else:
            i += 1

    if want_stats:
        if args or want_trace or max_retries:
            usage_error("--stats takes no other arguments")
        return run_stats(port)
    if want_trace and trace_view is None:
        usage_error("--trace needs trace_view.py next to this script")

    if args:
        requests = [build_inline_request(args)]
        payload = (json.dumps(requests[0]) + "\n").encode()
    else:
        payload = sys.stdin.buffer.read()
        requests = None

    if max_retries == 0 and not want_trace:
        return stream_once(port, payload)

    if requests is None:
        mode = "--max-retries" if max_retries else "--trace"
        requests = []
        for n, line in enumerate(payload.splitlines()):
            if not line.strip():
                continue
            try:
                requests.append(json.loads(line))
            except ValueError:
                usage_error(
                    f"{mode} requires parseable JSON requests; "
                    f"line {n + 1} is not JSON"
                )

    if want_trace:
        # Job requests gain "trace":true; control requests (objects
        # with a "type") and non-object lines pass through untouched.
        requests = [
            dict(obj, trace=True)
            if isinstance(obj, dict) and "type" not in obj
            else obj
            for obj in requests
        ]

    if max_retries == 0:
        return stream_traced(port, requests)
    return run_with_retries(port, requests, max_retries, show_trace=want_trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

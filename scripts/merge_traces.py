#!/usr/bin/env python3
"""Splice a gnumap client trace and a gnumapd server trace into one timeline.

Both sides export Chrome trace-event JSON (--trace-out), and the wire
protocol propagates a 64-bit trace id from the client's MAP_BEGIN into the
server's serve_request span, so matching spans on the two sides carry the
same ``args.trace_id`` hex string.  This script loads both files, pairs each
client ``map_request`` span with the server ``serve_request`` span sharing
its trace id, shifts the server's clock so the paired spans are
center-aligned, and writes a single Perfetto/chrome://tracing-loadable
file with the server's events on their own process row.

Clock caveat: the two processes do not share a trace epoch, so alignment
is a heuristic — the midpoint of the client's request span is mapped onto
the midpoint of the server's.  Network and queueing skew the edges by the
(sub-span) transfer times, which is fine for "where did the time go"
reading but is not a cross-host clock sync.

Usage:
    merge_traces.py client.trace.json server.trace.json -o merged.json

Exits 1 when no trace id is shared between the files (nothing to align).
Stdlib only.
"""

import argparse
import json
import sys

CLIENT_SPAN = "map_request"
SERVER_SPAN = "serve_request"
SERVER_PID = 2


def load_events(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    if not isinstance(events, list):
        raise SystemExit(f"{path}: no traceEvents array")
    return doc, events


def spans_by_trace_id(events, name):
    """trace_id hex -> the (first) complete event of `name` carrying it."""
    spans = {}
    for event in events:
        if event.get("ph") != "X" or event.get("name") != name:
            continue
        trace_id = event.get("args", {}).get("trace_id")
        if trace_id:
            spans.setdefault(trace_id, event)
    return spans


def midpoint(event):
    return float(event["ts"]) + float(event.get("dur", 0.0)) / 2.0


def main():
    parser = argparse.ArgumentParser(
        description="merge client and server gnumap traces on trace ids")
    parser.add_argument("client_trace", help="gnumap_client --trace-out file")
    parser.add_argument("server_trace", help="gnumapd --trace-out file")
    parser.add_argument("-o", "--out", default="merged.trace.json",
                        help="merged trace path (default %(default)s)")
    args = parser.parse_args()

    client_doc, client_events = load_events(args.client_trace)
    _, server_events = load_events(args.server_trace)

    client_spans = spans_by_trace_id(client_events, CLIENT_SPAN)
    server_spans = spans_by_trace_id(server_events, SERVER_SPAN)
    shared = sorted(set(client_spans) & set(server_spans))
    if not shared:
        print(
            f"merge_traces: no shared trace id between {CLIENT_SPAN} spans "
            f"({len(client_spans)} found) and {SERVER_SPAN} spans "
            f"({len(server_spans)} found)", file=sys.stderr)
        return 1

    # One offset for the whole server file, averaged over every paired
    # request so multi-request traces do not privilege one pair.
    offsets = [
        midpoint(client_spans[tid]) - midpoint(server_spans[tid])
        for tid in shared
    ]
    offset = sum(offsets) / len(offsets)

    merged = [e for e in client_events]
    for event in server_events:
        shifted = dict(event)
        if "ts" in shifted:
            shifted["ts"] = float(shifted["ts"]) + offset
        shifted["pid"] = SERVER_PID
        merged.append(shifted)
    merged.append({
        "ph": "M", "name": "process_name", "pid": SERVER_PID, "tid": 0,
        "args": {"name": "gnumapd"},
    })

    out_doc = {"traceEvents": merged}
    if isinstance(client_doc, dict):
        for key, value in client_doc.items():
            if key != "traceEvents":
                out_doc[key] = value
    with open(args.out, "w") as f:
        json.dump(out_doc, f)
    print(f"merge_traces: {len(shared)} request(s) aligned "
          f"(offset {offset / 1e3:.3f} ms), wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

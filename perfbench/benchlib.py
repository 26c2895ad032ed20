"""Pure helpers of the repository benchmark: percentiles, spreads, the
/metrics and access-log readers, the answer checker and a minimal HTTP
client.  Kept free of process management so the unit tests in
test_benchlib.py can exercise each one on captured data."""

import json
import math
import socket
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(sorted_values, q):
    """Nearest-rank `q`-th percentile (0 < q < 100) of ascending
    `sorted_values`, or None when fewer than MIN_BEYOND samples lie beyond
    it: a tail figure resting on a handful of samples is not reported."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted_values[rank - 1]


def tail(sorted_values, q):
    """`percentile(q)` when the sample supports it, else the highest
    percentile that still has MIN_BEYOND samples beyond it (0.0 on fewer
    than MIN_BEYOND + 1 samples).  For per-layer figures only; end-to-end
    percentiles use `percentile` and fail when unsupported."""
    p = percentile(sorted_values, q)
    if p is not None:
        return p
    n = len(sorted_values)
    return sorted_values[n - MIN_BEYOND - 1] if n > MIN_BEYOND else 0.0


SLICES = 10  # a window's throughput is the median over this many slices


def slice_rate(times_ns, start_ns, length_ns, slices=SLICES):
    """Median, over `slices` equal slices of the window [start, start +
    length), of the completions per second whose times fall in the slice.
    A median of slices keeps a short stall elsewhere on the machine from
    moving the figure; completions after the window are not counted."""
    width = length_ns / slices
    counts = [0] * slices
    for t in times_ns:
        k = int((t - start_ns) // width)
        if 0 <= k < slices:
            counts[k] += 1
    return statistics.median(counts) / (width / 1e9)


def chunk_percentile(values, chunks, q):
    """Median over `chunks` consecutive equal-count chunks of `values` (in
    completion order) of each chunk's `q`-th percentile; None when a chunk
    holds too few samples for that percentile."""
    size = len(values) // chunks
    per_chunk = [percentile(sorted(values[k * size:(k + 1) * size]), q)
                 for k in range(chunks)]
    if size == 0 or None in per_chunk:
        return None
    return statistics.median(per_chunk)


def parse_exposition(text):
    """Sample values of a Prometheus text exposition, keyed by the series
    name including any label set (`name{...}`).  Comments are skipped."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        # An OpenMetrics exemplar trails the value after " # ".
        name, _, value = line.split(" # ", 1)[0].rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


def delta(before, after, name):
    """Growth of series `name` between two parsed expositions."""
    return after.get(name, 0.0) - before.get(name, 0.0)


def parse_access_log(lines):
    """Access-log events from the daemon's structured stderr, keyed by
    request id.  Non-JSON lines (the "listening on" banner) and other
    events are ignored."""
    events = {}
    for line in lines:
        if not line.startswith("{"):
            continue
        try:
            ev = json.loads(line)
        except ValueError:
            continue
        if ev.get("event") == "access" and "request" in ev:
            events[ev["request"]] = ev
    return events


def join_access(ops, events):
    """Pair each client operation (a dict with a "request" id) with its
    access-log event.  Returns (pairs, unmatched operation count)."""
    pairs, unmatched = [], 0
    for op in ops:
        ev = events.get(op.get("request"))
        if ev is None:
            unmatched += 1
        else:
            pairs.append((op, ev))
    return pairs, unmatched


REQUEST_PREFIX = b'{"request":"'


def request_id(body):
    """The trace-context id a /query response body starts with, or None."""
    if not body.startswith(REQUEST_PREFIX):
        return None
    end = body.find(b'"', len(REQUEST_PREFIX))
    return body[len(REQUEST_PREFIX):end].decode() if end > 0 else None


def answer_matches(body, reference):
    """True iff the /query response `body` carries exactly the reference
    answer (the bytes Protocol.answer_json renders in-process).  The answer
    is the response object's last field, so a byte comparison of the tail
    is exact and cheap."""
    return body.endswith(b',"answer":' + reference + b"}\n")


class Client:
    """Blocking HTTP/1.1 client, one connection per request (the daemon
    answers with Connection: close).  Counts the connections it opens."""

    def __init__(self, port, timeout=60.0):
        self.port = port
        self.timeout = timeout
        self.connects = 0

    def request(self, method, path, body=b""):
        """(status, response body); status 0 on a connection error."""
        head = ("%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n"
                % (method, path, len(body))).encode()
        self.connects += 1
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=self.timeout) as s:
                s.sendall(head + body)
                chunks = []
                while True:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError:
            return 0, b""
        resp = b"".join(chunks)
        sep = resp.find(b"\r\n\r\n")
        if not resp.startswith(b"HTTP/1.") or sep < 0:
            return 0, b""
        try:
            status = int(resp[9:12])
        except ValueError:
            return 0, b""
        return status, resp[sep + 4:]

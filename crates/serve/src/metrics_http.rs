//! The metrics exposition endpoint: a std-only HTTP/1.1 GET responder.
//!
//! Deliberately minimal — it answers exactly three read-only paths and
//! closes every connection after one response, so there is no keep-alive
//! state, no chunking, and no framing beyond `Content-Length`:
//!
//! * `/metrics` — Prometheus text format (version 0.0.4): every registry
//!   counter, gauge and histogram (cumulative `_bucket` lines derived from
//!   the log-scale buckets), plus server gauges derived at scrape time
//!   (in-flight queries, admission queue depth, active sessions, cache
//!   entries).
//! * `/metrics.json` — the registry's JSON snapshot with the same derived
//!   gauges added to its `gauges` object.
//! * `/traces` — the flight-recorder dump (`?limit=N` caps the entries).
//!
//! Requests are served inline on the single metrics thread: scrapes are
//! cheap, and serializing them bounds the resources a scraper can pin.
//! Read/write timeouts keep one stalled client from wedging the endpoint
//! for long, and shutdown wakes the loop with a loopback connect (the
//! same trick the main accept loop uses).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use conquer_obs::{flight_recorder, prometheus_text, push_gauge, registry, Json};

use crate::server::Shared;

/// Cap on an inbound request head; GETs for three short paths fit easily.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a scrape is a local, sub-millisecond
/// affair, so anything this slow is a stalled or hostile peer.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Default and maximum `/traces` entries per response.
const TRACES_DEFAULT_LIMIT: usize = 64;
const TRACES_MAX_LIMIT: usize = 1024;

pub(crate) fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.is_shutting_down() {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        registry().counter("serve.metrics.requests").inc();
        serve_one(stream, &shared);
    }
}

fn serve_one(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(path) = read_request_path(&mut stream) else {
        let _ = respond(
            &mut stream,
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "bad request\n",
        );
        return;
    };
    // Strip the query string; `/traces` is the only path that reads it.
    let (route, query) = match path.split_once('?') {
        Some((route, query)) => (route, Some(query)),
        None => (path.as_str(), None),
    };
    let result = match route {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &metrics_text(shared),
        ),
        "/metrics.json" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &metrics_json(shared).render(),
        ),
        "/traces" => {
            let limit = query
                .and_then(parse_limit)
                .unwrap_or(TRACES_DEFAULT_LIMIT)
                .min(TRACES_MAX_LIMIT);
            respond(
                &mut stream,
                "200 OK",
                "application/json",
                &flight_recorder().to_json(limit).render(),
            )
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /metrics.json, or /traces\n",
        ),
    };
    let _ = result;
}

/// Read the request head and return the GET path, or `None` on anything
/// malformed (non-GET methods included — every resource here is a read).
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let mut scanned = 0;
    while !head_complete(&buf, &mut scanned) {
        if buf.len() >= MAX_REQUEST_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    Some(path.to_string())
}

/// Is the request head (terminated by a blank line) complete?
///
/// `scanned` carries the high-water mark of bytes already examined across
/// calls, so each call only scans the newly-arrived suffix (re-reading a
/// 3-byte overlap in case a `\r\n\r\n` terminator straddles two reads).
/// Without the offset this re-scanned the whole buffer after every chunk —
/// quadratic against a slow-trickle client.
fn head_complete(buf: &[u8], scanned: &mut usize) -> bool {
    let start = scanned.saturating_sub(3);
    let tail = &buf[start..];
    let hit = tail.windows(4).any(|w| w == b"\r\n\r\n") || tail.windows(2).any(|w| w == b"\n\n");
    *scanned = buf.len();
    hit
}

fn parse_limit(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("limit="))
        .and_then(|v| v.parse().ok())
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Server gauges derived at scrape time, shared by both exposition formats.
fn server_gauges(shared: &Arc<Shared>) -> Vec<(&'static str, u64)> {
    let admission = shared.admission.stats();
    let cache = shared.cache.stats();
    vec![
        ("serve.in_flight", admission.in_flight as u64),
        (
            "serve.admission.queue_depth.now",
            admission.queue_depth as u64,
        ),
        ("serve.active_sessions", shared.active_sessions() as u64),
        ("serve.cache.entries", cache.entries as u64),
        ("serve.flight.recorded", flight_recorder().recorded()),
    ]
}

fn metrics_text(shared: &Arc<Shared>) -> String {
    let mut out = prometheus_text(registry());
    for (name, value) in server_gauges(shared) {
        push_gauge(&mut out, name, value);
    }
    out
}

fn metrics_json(shared: &Arc<Shared>) -> Json {
    let mut obj = registry().snapshot_json();
    if let Some(gauges) = obj.get_mut("gauges") {
        for (name, value) in server_gauges(shared) {
            gauges.push(name, Json::UInt(value));
        }
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::head_complete;

    /// Simulates a byte-at-a-time writer: completion must be detected at
    /// exactly the final terminator byte, and each call must only scan the
    /// new suffix (tracked via the `scanned` high-water mark).
    #[test]
    fn head_complete_tracks_a_scan_offset_byte_at_a_time() {
        for head in [
            b"GET /metrics HTTP/1.1\r\nHost: x\r\nUser-Agent: trickle\r\n\r\n".as_slice(),
            b"GET /traces?limit=2 HTTP/1.1\nHost: x\n\n".as_slice(),
        ] {
            let mut buf = Vec::new();
            let mut scanned = 0;
            for (i, byte) in head.iter().enumerate() {
                buf.push(*byte);
                let complete = head_complete(&buf, &mut scanned);
                assert_eq!(
                    complete,
                    i == head.len() - 1,
                    "completion misdetected at byte {i} of {head:?}"
                );
                assert_eq!(scanned, buf.len(), "scan offset must track the buffer");
            }
        }
    }

    /// A terminator split across two reads must still be found — the
    /// resumed scan overlaps the previous tail by 3 bytes.
    #[test]
    fn head_complete_finds_a_terminator_split_across_reads() {
        let mut buf: Vec<u8> = b"GET / HTTP/1.1\r\nA: b\r\n".to_vec();
        let mut scanned = 0;
        assert!(!head_complete(&buf, &mut scanned));
        buf.extend_from_slice(b"\r\n");
        assert!(head_complete(&buf, &mut scanned));
    }
}

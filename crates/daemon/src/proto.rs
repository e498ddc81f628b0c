//! The `bf4d` wire protocol: one JSON object per frame, each frame
//! preceded by a 4-byte big-endian length.
//!
//! Requests (`op` selects the variant):
//!
//! ```text
//! {"op":"submit","program":"<name>","source":"<p4 source>"}
//! {"op":"status","program":"<name>"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses are flat objects with `"ok"` first: verdicts carry the
//! request ID, the bug totals, the incremental counters and the
//! normalized report text; `metrics` carries the full Prometheus text
//! exposition; errors carry `"error"`. Parsing uses the minimal JSON
//! module from `bf4-obs` — no new dependencies.

use crate::{DaemonStats, SubmitOutcome};
use bf4_engine::CacheStats;
use bf4_obs::json::{self, Value};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

/// Frames larger than this are rejected (a corrupt or hostile length
/// prefix must not trigger a giant allocation).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Verify (a new version of) a named program.
    Submit {
        /// State key; versions of the same name verify incrementally.
        program: String,
        /// Full P4 source of this version.
        source: String,
    },
    /// Fetch the last verdict of a program without re-verifying.
    Status {
        /// State key to look up.
        program: String,
    },
    /// Daemon + cache counters.
    Stats,
    /// Prometheus text exposition of the metrics registry.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Persist the cache and stop the service loop.
    Shutdown,
}

/// A response to one request.
pub enum Response {
    /// Submission/status verdict.
    Verdict(Box<SubmitOutcome>),
    /// Counter snapshot.
    Stats {
        /// Daemon-level counters.
        daemon: DaemonStats,
        /// Programs with resident state.
        programs: u64,
        /// Shared query-cache counters.
        cache: CacheStats,
        /// SLO violations active after the most recent evaluation.
        active_alerts: u64,
    },
    /// The metrics exposition text.
    Metrics {
        /// Prometheus text-exposition body (`bf4_obs::expose::render`).
        text: String,
    },
    /// Ping reply.
    Pong,
    /// Shutdown acknowledged; the connection closes after this frame.
    Shutdown,
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        error: String,
    },
}

/// Encode a request as a JSON frame body.
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Submit { program, source } => format!(
            "{{\"op\":\"submit\",\"program\":{},\"source\":{}}}",
            json::escape(program),
            json::escape(source)
        ),
        Request::Status { program } => format!(
            "{{\"op\":\"status\",\"program\":{}}}",
            json::escape(program)
        ),
        Request::Stats => "{\"op\":\"stats\"}".to_string(),
        Request::Metrics => "{\"op\":\"metrics\"}".to_string(),
        Request::Ping => "{\"op\":\"ping\"}".to_string(),
        Request::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
    }
}

/// Decode a request frame body.
pub fn parse_request(body: &str) -> Result<Request, String> {
    let v = json::parse(body).map_err(|e| format!("malformed request JSON: {e}"))?;
    let obj = v.as_obj().ok_or("request must be a JSON object")?;
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs a string `op` field")?;
    let field = |name: &str| -> Result<String, String> {
        obj.get(name)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("op `{op}` needs a string `{name}` field"))
    };
    match op {
        "submit" => Ok(Request::Submit {
            program: field("program")?,
            source: field("source")?,
        }),
        "status" => Ok(Request::Status {
            program: field("program")?,
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Encode a response as a JSON frame body.
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Verdict(out) => {
            let r = &out.report;
            format!(
                "{{\"ok\":true,\"program\":{},\"version\":{},\"request\":{},\
                 \"bugs_total\":{},\"bugs_after_infer\":{},\"bugs_after_fixes\":{},\
                 \"bugs_undecided\":{},\"degraded\":{},\
                 \"skips\":{},\"reverified\":{},\"wall_micros\":{},\
                 \"exit_code\":{},\"report\":{}}}",
                json::escape(&out.program),
                out.version,
                json::escape(&out.request),
                r.bugs_total,
                r.bugs_after_infer,
                r.bugs_after_fixes,
                r.bugs_undecided,
                r.degraded.len(),
                out.skips,
                out.reverified,
                out.wall.as_micros(),
                if r.bugs_after_fixes > 0 { 1 } else { 0 },
                json::escape(&out.normalized)
            )
        }
        Response::Stats {
            daemon,
            programs,
            cache,
            active_alerts,
        } => format!(
            "{{\"ok\":true,\"requests\":{},\"submits\":{},\"errors\":{},\
             \"programs\":{},\"skips\":{},\"reverified\":{},\
             \"cache_hits\":{},\"cache_warm_hits\":{},\"cache_misses\":{},\
             \"cache_preloaded\":{},\"degraded_submits\":{},\"alerts\":{},\
             \"active_alerts\":{}}}",
            daemon.requests,
            daemon.submits,
            daemon.errors,
            programs,
            daemon.incremental_skips,
            daemon.full_reverifies,
            cache.hits,
            cache.warm_hits,
            cache.misses,
            cache.preloaded,
            daemon.degraded_submits,
            daemon.alerts,
            active_alerts
        ),
        Response::Metrics { text } => {
            format!("{{\"ok\":true,\"metrics\":{}}}", json::escape(text))
        }
        Response::Pong => "{\"ok\":true,\"pong\":true}".to_string(),
        Response::Shutdown => "{\"ok\":true,\"shutdown\":true}".to_string(),
        Response::Error { error } => {
            format!("{{\"ok\":false,\"error\":{}}}", json::escape(error))
        }
    }
}

/// One connection over either transport the protocol runs on, for the
/// daemon's accept loop and the `bf4` client alike.
pub enum Stream {
    /// A unix-domain socket (the default transport).
    Unix(UnixStream),
    /// A TCP socket.
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` is a clean EOF before any
/// length byte; a truncated frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Submit {
                program: "p".into(),
                source: "control c() { apply {} }\n// \"quoted\"\n".into(),
            },
            Request::Status { program: "p".into() },
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in cases {
            let body = encode_request(&req);
            assert_eq!(parse_request(&body).unwrap(), req);
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, "{\"op\":\"stats\"}").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"op\":\"ping\"}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"op\":\"stats\"}"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_cap_edge_accepts_exactly_max_and_rejects_one_more() {
        // Accept side: a frame of exactly MAX_FRAME bytes round-trips.
        let body = "x".repeat(MAX_FRAME as usize);
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got.len(), MAX_FRAME as usize);
        // Reject side, writer: one byte more must fail before any bytes
        // hit the wire.
        let over = "x".repeat(MAX_FRAME as usize + 1);
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &over).is_err());
        assert!(sink.is_empty());
        // Reject side, reader: a MAX_FRAME+1 length prefix is refused
        // before allocation.
        let mut prefix = Vec::new();
        prefix.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let err = read_frame(&mut prefix.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn stats_and_metrics_responses_round_trip_through_json() {
        let stats = Response::Stats {
            daemon: DaemonStats {
                requests: 11,
                submits: 5,
                errors: 1,
                incremental_skips: 9,
                full_reverifies: 3,
                degraded_submits: 2,
                alerts: 4,
            },
            programs: 2,
            cache: CacheStats {
                hits: 20,
                warm_hits: 6,
                misses: 7,
                preloaded: 8,
                ..CacheStats::default()
            },
            active_alerts: 1,
        };
        let body = encode_response(&stats);
        let v = json::parse(&body).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["ok"], Value::Bool(true));
        let get = |k: &str| obj[k].as_u64().unwrap();
        assert_eq!(get("requests"), 11);
        assert_eq!(get("skips"), 9);
        assert_eq!(get("cache_warm_hits"), 6);
        assert_eq!(get("degraded_submits"), 2);
        assert_eq!(get("alerts"), 4);
        assert_eq!(get("active_alerts"), 1);

        // A metrics response must carry an exposition that still parses
        // after the JSON round trip (quotes in quantile labels survive
        // the escaping).
        let mut snap = bf4_obs::MetricsSnapshot::default();
        snap.counters.insert("daemon.requests", 11);
        let mut h = bf4_obs::Histogram::default();
        h.record(std::time::Duration::from_micros(250));
        snap.hists
            .insert("daemon.request_micros", bf4_obs::HistSummary::of(&h));
        let text = bf4_obs::expose::render(&snap);
        let body = encode_response(&Response::Metrics { text: text.clone() });
        let v = json::parse(&body).unwrap();
        let decoded = v.as_obj().unwrap()["metrics"].as_str().unwrap().to_string();
        assert_eq!(decoded, text);
        let exp = bf4_obs::expose::parse(&decoded).unwrap();
        assert_eq!(exp.value("bf4_daemon_requests", &[]), Some(11.0));
        assert_eq!(
            exp.value("bf4_daemon_request_micros", &[("quantile", "0.5")]),
            Some(256.0)
        );
    }

    #[test]
    fn malformed_metrics_and_stats_frames_are_parse_errors_not_panics() {
        for bad in [
            "{\"op\":\"metrics\",}",
            "{\"op\":\"metric\"}",
            "{\"op\":42}",
            "{\"op\":\"stats\"",
            "",
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn malformed_request_reports_the_field() {
        let err = parse_request("{\"op\":\"submit\",\"program\":\"p\"}").unwrap_err();
        assert!(err.contains("source"), "{err}");
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"fly\"}").unwrap_err().contains("fly"));
    }
}

//! The `bf4d` service loop.
//!
//! Connections are served **sequentially**: one request runs the pipeline
//! at a time, so verification stays deterministic, per-request span trees
//! never interleave, and a `--trace-out` file is an ordered record of the
//! daemon's life. Clients hold a connection for as many frames as they
//! like; a clean disconnect moves on to the next connection.
//!
//! Failure model: a malformed frame gets an error response and the
//! connection lives on; an I/O error on one connection drops only that
//! connection; a `shutdown` request persists the cache, answers, and
//! returns from [`serve`].

use crate::proto::{self, Request, Stream};
use crate::Daemon;
use std::io::{self, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Where the daemon listens.
pub enum Listener {
    /// A unix-domain socket (the default transport).
    Unix(UnixListener),
    /// A TCP socket (`--tcp`).
    Tcp(TcpListener),
}

/// Default trace-file rotation cap in bytes.
pub const DEFAULT_TRACE_CAP_BYTES: u64 = 64 * 1024 * 1024;

/// Service-loop options.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Append each request's span tree (JSONL, bf4-obs schema) here. The
    /// file is truncated when the loop starts.
    pub trace_out: Option<PathBuf>,
    /// Rotate `trace_out` once it crosses this many bytes: the full file
    /// is renamed to `<stem>.1.<ext>` (replacing any previous rotation)
    /// and tracing continues into a fresh file, so a long-lived daemon
    /// holds at most roughly two caps of trace. 0 means
    /// [`DEFAULT_TRACE_CAP_BYTES`].
    pub trace_cap_bytes: u64,
    /// Suppress per-request log lines on stderr.
    pub quiet: bool,
    /// When the HTTP metrics responder is on, the latest rendered
    /// exposition is published here after every request.
    pub metrics_share: Option<Arc<Mutex<String>>>,
}

/// Run the service loop until a `shutdown` request. Returns the number of
/// requests served.
pub fn serve(listener: Listener, daemon: &mut Daemon, opts: &ServeOptions) -> io::Result<u64> {
    if let Some(path) = &opts.trace_out {
        // Start a fresh trace; requests append to it as they complete.
        std::fs::write(path, "")?;
        flush_trace(opts); // startup spans (store warm-start) come first
    }
    loop {
        let conn = match &listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        let mut conn = match conn {
            Ok(c) => c,
            Err(e) => {
                bf4_obs::error("daemon", &format!("accept failed: {e}"));
                continue;
            }
        };
        match serve_connection(daemon, &mut conn, opts) {
            Ok(true) => return Ok(daemon.stats().requests),
            Ok(false) => {}
            Err(e) => {
                if !opts.quiet {
                    eprintln!("bf4d: connection error: {e}");
                }
                bf4_obs::error("daemon", &format!("connection error: {e}"));
            }
        }
    }
}

/// Serve one connection; `Ok(true)` means a shutdown was requested.
fn serve_connection(
    daemon: &mut Daemon,
    conn: &mut Stream,
    opts: &ServeOptions,
) -> io::Result<bool> {
    while let Some(body) = proto::read_frame(conn)? {
        let (resp, stop) = match proto::parse_request(&body) {
            Ok(req) => {
                log_request(&req, opts);
                daemon.handle(req)
            }
            Err(e) => (daemon.handle_malformed(e), false),
        };
        proto::write_frame(conn, &proto::encode_response(&resp))?;
        flush_trace(opts);
        if let Some(share) = &opts.metrics_share {
            let text = daemon.render_metrics();
            if let Ok(mut slot) = share.lock() {
                *slot = text;
            }
        }
        if stop {
            return Ok(true);
        }
    }
    Ok(false)
}

fn log_request(req: &Request, opts: &ServeOptions) {
    if opts.quiet {
        return;
    }
    match req {
        Request::Submit { program, source } => {
            eprintln!("bf4d: submit {program} ({} byte(s))", source.len());
        }
        Request::Status { program } => eprintln!("bf4d: status {program}"),
        Request::Stats => eprintln!("bf4d: stats"),
        Request::Metrics => eprintln!("bf4d: metrics"),
        Request::Ping => eprintln!("bf4d: ping"),
        Request::Shutdown => eprintln!("bf4d: shutdown"),
    }
}

/// Drain finished spans and append them to the trace file. Sequential
/// service means each drain holds exactly the frames completed since the
/// last one, so the file interleaves requests in service order. Once the
/// file crosses the rotation cap it is renamed aside and a fresh file
/// takes over — requests are never split across the boundary because
/// rotation happens between drains.
fn flush_trace(opts: &ServeOptions) {
    let Some(path) = &opts.trace_out else {
        return;
    };
    let records = bf4_obs::take_spans();
    if records.is_empty() {
        return;
    }
    append_jsonl(path, &bf4_obs::render_jsonl(&records));
    let cap = if opts.trace_cap_bytes == 0 {
        DEFAULT_TRACE_CAP_BYTES
    } else {
        opts.trace_cap_bytes
    };
    let over = std::fs::metadata(path).map(|m| m.len() > cap).unwrap_or(false);
    if over {
        let aside = rotated_path(path);
        match std::fs::rename(path, &aside) {
            Ok(()) => {
                // The rotation itself is traced: the fresh file opens
                // with a span recording what was rotated away.
                {
                    let mut sp = bf4_obs::span("daemon", "trace_rotate");
                    if sp.is_active() {
                        sp.add_tag("rotated_to", aside.display().to_string());
                    }
                }
                let marker = bf4_obs::take_spans();
                if !marker.is_empty() {
                    append_jsonl(path, &bf4_obs::render_jsonl(&marker));
                }
            }
            Err(e) => bf4_obs::error("daemon", &format!("trace rotation failed: {e}")),
        }
    }
}

/// `trace.jsonl` → `trace.1.jsonl` (extension-less files get `.1`
/// appended).
fn rotated_path(path: &Path) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}.1.{ext}"),
        None => format!("{stem}.1"),
    };
    path.with_file_name(name)
}

fn append_jsonl(path: &Path, jsonl: &str) {
    let res = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .and_then(|mut f| f.write_all(jsonl.as_bytes()));
    if let Err(e) = res {
        bf4_obs::error("daemon", &format!("trace append failed: {e}"));
    }
}

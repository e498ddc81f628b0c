//! `bf4` — command-line front end to the verifier, mirroring the paper's
//! p4c-backend workflow: read one or more P4 programs, run the full
//! pipeline, and write the controller annotations plus the proposed fixes.
//!
//! ```text
//! bf4 <program.p4> [more.p4 ...] [options]
//!   --annotations <file>   write the controller annotations (default: stdout;
//!                          single-program runs only)
//!   --no-fixes             stop after inference (report-only mode)
//!   --no-infer             only find reachable bugs (p4v-like mode)
//!   --egress               also analyze the egress pipeline (in separation)
//!   --dump-cfg <file>      write the instrumented CFG in Graphviz DOT form
//!   --timeout-ms <n>       per-query solver deadline in milliseconds
//!   --jobs <n>             worker threads (default 1: the sequential path)
//!   --cache-cap <n>        SMT query-cache capacity in entries (default 0: off)
//!   --cache-dir <dir>      warm-start the query cache from a durable store in
//!                          <dir> and persist new entries back on exit
//!                          (implies --cache-cap 65536 unless set)
//!   --no-cache-persist     load from --cache-dir but do not write the
//!                          session's new entries back on exit
//!   --cache-persist        accepted for compatibility (persistence is now
//!                          the default whenever --cache-dir is given)
//!   --trace-out <file>     write the run's spans as JSONL (bf4-obs schema)
//!   --profile              print a flame-style span breakdown to stderr
//!   --quiet                suppress the per-bug listing
//! ```
//!
//! With `--jobs 1`, `--cache-cap 0` and a single program (the defaults)
//! verification runs the classic sequential pipeline; any other
//! combination routes through the parallel engine (identical results,
//! plus engine statistics and a cache summary line).
//!
//! Exit code: 0 when every bug is controlled/fixed, 1 when dataplane bugs
//! remain, 2 on usage or frontend errors.
//!
//! ```text
//! bf4 client (--socket <path> | --tcp <addr>) <action>
//!   submit <file.p4> [--program NAME] [--normalized]
//!                          verify (a new version of) a program on the daemon;
//!                          --normalized prints only the normalized report on
//!                          stdout (summary goes to stderr)
//!   status <name>          last verdict of a program, without re-verifying
//!   watch <file.p4> [--program NAME] [--interval-ms N]
//!                          submit, then re-submit whenever the file changes
//!   stats | metrics | ping | shutdown
//! ```
//!
//! Client exit code mirrors the daemon verdict: 0 clean, 1 when bugs
//! remain after fixes, 2 on connection/usage errors.
//!
//! ```text
//! bf4 top (--socket <path> | --tcp <addr>) [--interval-ms N] [--iterations N]
//! ```
//!
//! A live terminal dashboard over a running daemon: polls the `stats`
//! and `metrics` ops and renders request rate, latency quantiles, cache
//! hit rate, incremental skips, degradations and active SLO alerts.
//! `--iterations 0` (the default) runs until interrupted.
//!
//! ```text
//! bf4 controller <file.p4> [--updates N] [--batch-size N] [--threads N]
//!                [--seed N] [--faulty F] [--journal FILE]
//!                [--campaign] [--dir DIR]
//! ```
//!
//! Controller mode: verify the program, then push a synthetic update
//! workload through the batched line-rate shim (group-commit journaled
//! when `--journal` is given; `BF4_FAULTS` plans apply). With
//! `--campaign`, run the full staged-load stress campaign instead —
//! warmup → burst → fault-mid-burst → drain plus the crash/reopen and
//! assertion-audit gates, journaling under `--dir`. Exit code: 0 when
//! every gate holds, 1 on a gate violation (or, in plain mode, an audit
//! violation), 2 on usage or frontend errors.

use bf4_core::driver::{verify, Report, VerifyOptions};
use bf4_engine::{verify_corpus, EngineConfig, EngineStats};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("client") {
        std::process::exit(client_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("top") {
        std::process::exit(top_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("controller") {
        std::process::exit(controller_main(&args[1..]));
    }
    let mut paths: Vec<String> = Vec::new();
    let mut annotations_out: Option<String> = None;
    let mut dump_cfg: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut profile = false;
    let mut quiet = false;
    let mut options = VerifyOptions::default();
    let mut engine = EngineConfig::default();
    let mut cache_cap_set = false;
    let mut cache_persist_flag = false;
    let mut no_cache_persist = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--annotations" => {
                i += 1;
                annotations_out = args.get(i).cloned();
            }
            "--dump-cfg" => {
                i += 1;
                dump_cfg = args.get(i).cloned();
            }
            "--trace-out" => {
                i += 1;
                trace_out = args.get(i).cloned();
                if trace_out.is_none() {
                    eprintln!("bf4: --trace-out expects an output path");
                    std::process::exit(2);
                }
            }
            "--profile" => profile = true,
            "--timeout-ms" => {
                i += 1;
                let ms: u64 = match args.get(i).map(|v| v.parse()) {
                    Some(Ok(ms)) => ms,
                    _ => {
                        eprintln!("bf4: --timeout-ms expects a number of milliseconds");
                        std::process::exit(2);
                    }
                };
                options.solver.budget.timeout =
                    Some(std::time::Duration::from_millis(ms));
            }
            "--jobs" => {
                i += 1;
                match args.get(i).map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => engine.jobs = n,
                    _ => {
                        eprintln!("bf4: --jobs expects a worker count >= 1");
                        std::process::exit(2);
                    }
                }
            }
            "--cache-cap" => {
                i += 1;
                match args.get(i).map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) => {
                        engine.cache_cap = n;
                        cache_cap_set = true;
                    }
                    _ => {
                        eprintln!("bf4: --cache-cap expects a number of entries");
                        std::process::exit(2);
                    }
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => engine.cache_dir = Some(dir.into()),
                    None => {
                        eprintln!("bf4: --cache-dir expects a directory path");
                        std::process::exit(2);
                    }
                }
            }
            "--cache-persist" => cache_persist_flag = true,
            "--no-cache-persist" => no_cache_persist = true,
            "--no-fixes" => options.fixes = false,
            "--no-infer" => {
                options.fast_infer = false;
                options.infer = false;
                options.multi_table = false;
                options.fixes = false;
            }
            "--egress" => options.include_egress = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: bf4 <program.p4> [more.p4 ...] [--annotations FILE] [--no-fixes] [--no-infer] [--egress] [--dump-cfg FILE] [--timeout-ms N] [--jobs N] [--cache-cap N] [--cache-dir DIR] [--no-cache-persist] [--trace-out FILE] [--profile] [--quiet]");
                eprintln!("       bf4 client (--socket PATH | --tcp ADDR) submit FILE [--program NAME] [--normalized] | status NAME | watch FILE [--program NAME] [--interval-ms N] | stats | metrics | ping | shutdown");
                eprintln!("       bf4 top (--socket PATH | --tcp ADDR) [--interval-ms N] [--iterations N]");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => {
                eprintln!("bf4: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if paths.is_empty() {
        eprintln!("bf4: missing input program (try --help)");
        std::process::exit(2);
    }
    if cache_persist_flag && engine.cache_dir.is_none() {
        eprintln!("bf4: --cache-persist needs --cache-dir");
        std::process::exit(2);
    }
    if cache_persist_flag && no_cache_persist {
        eprintln!("bf4: --cache-persist and --no-cache-persist are mutually exclusive");
        std::process::exit(2);
    }
    // A durable store is pointless without saving back to it: --cache-dir
    // implies persistence, with --no-cache-persist as the escape hatch.
    engine.cache_persist = engine.cache_dir.is_some() && !no_cache_persist;
    // A durable store without an in-memory cache would have nothing to
    // warm: give --cache-dir a working default capacity.
    if engine.cache_dir.is_some() && !cache_cap_set && engine.cache_cap == 0 {
        engine.cache_cap = 65536;
    }
    if annotations_out.is_some() && paths.len() > 1 {
        eprintln!("bf4: --annotations only works with a single input program");
        std::process::exit(2);
    }

    let mut programs: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(s) => programs.push((path.clone(), s)),
            Err(e) => {
                eprintln!("bf4: cannot read {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    if trace_out.is_some() || profile {
        bf4_obs::set_enabled(true);
    }

    if let Some(dot_path) = &dump_cfg {
        match dump_dot(&programs[0].1, &options) {
            Ok(dot) => {
                if let Err(e) = std::fs::write(dot_path, dot) {
                    eprintln!("bf4: cannot write {dot_path}: {e}");
                    std::process::exit(2);
                }
            }
            Err(e) => {
                eprintln!("bf4: {e}");
                std::process::exit(2);
            }
        }
    }

    let use_engine = engine.jobs > 1
        || engine.cache_cap > 0
        || engine.cache_dir.is_some()
        || programs.len() > 1;
    let (reports, engine_stats): (Vec<Report>, Option<EngineStats>) = if use_engine {
        // Frontend errors become degraded reports inside the engine; parse
        // here first so they keep the classic exit-code-2 CLI behavior.
        for (path, source) in &programs {
            if let Err(e) = bf4_p4::frontend(source) {
                eprintln!("bf4: {path}: {e}");
                std::process::exit(2);
            }
        }
        let (reports, stats) = verify_corpus(&programs, &options, &engine);
        for ((path, _), report) in programs.iter().zip(&reports) {
            if report.bugs.is_empty() && report.degraded.iter().any(|d| d.stage == "frontend") {
                eprintln!(
                    "bf4: {path}: {}",
                    report
                        .degraded
                        .first()
                        .map(|d| d.error.as_str())
                        .unwrap_or("frontend error")
                );
                std::process::exit(2);
            }
        }
        (reports, Some(stats))
    } else {
        match verify(&programs[0].1, &options) {
            Ok(r) => (vec![r], None),
            Err(e) => {
                eprintln!("bf4: {}: {e}", programs[0].0);
                std::process::exit(2);
            }
        }
    };

    for ((path, _), report) in programs.iter().zip(&reports) {
        print_report(path, report, quiet);
    }
    if let Some(stats) = &engine_stats {
        // The cache's effectiveness in the standard summary, not only in
        // the verbose stats dump. A lookup answered from the cache is a
        // hit whether the entry was computed this session or warm-started
        // from the store; `[N warm]` breaks out the latter and `preloaded`
        // counts entries loaded, not lookups (DESIGN.md §11).
        println!(
            "summary: {} program(s); cache hit-rate {:.1}% ({} hit(s) [{} warm] / {} miss(es), {} preloaded), {} eviction(s)",
            programs.len(),
            100.0 * stats.cache.hit_rate(),
            stats.cache.hits,
            stats.cache.warm_hits,
            stats.cache.misses,
            stats.cache.preloaded,
            stats.cache.evictions
        );
        if let Some(p) = &stats.persist {
            println!(
                "cache store: generation {}; loaded {} entr(ies), {} corrupt record(s) dropped, {} stale file(s); saved {} ({} appended, compacted: {}), {} I/O error(s)",
                p.generation,
                p.loaded,
                p.corrupt_records,
                p.stale_files,
                p.saved,
                p.appended,
                p.compacted,
                p.io_errors
            );
        }
        if !quiet {
            print!("{stats}");
        }
    }
    // A BF4_FAULTS chaos run audits itself: which sites were reached and
    // how often the schedule actually injected (stderr keeps stdout
    // script-stable).
    if bf4_obs::fault::active() {
        for s in bf4_obs::fault::stats() {
            eprintln!("fault site {}: {} hit(s), {} injected", s.site, s.hits, s.fires);
        }
    }

    if programs.len() == 1 {
        let text = reports[0].annotations.to_string();
        match annotations_out {
            Some(f) => {
                if let Err(e) = std::fs::write(&f, &text) {
                    eprintln!("bf4: cannot write {f}: {e}");
                    std::process::exit(2);
                }
                println!(
                    "wrote {} annotation(s) over {} table(s) to {f}",
                    reports[0].annotations.specs.len(),
                    reports[0].annotations.tables.len()
                );
            }
            None => {
                println!("--- controller annotations ---");
                let mut stdout = std::io::stdout().lock();
                let _ = stdout.write_all(text.as_bytes());
            }
        }
    }

    finish_tracing(trace_out.as_deref(), profile);

    let any_bugs = reports.iter().any(|r| r.bugs_after_fixes > 0);
    std::process::exit(if any_bugs { 1 } else { 0 });
}

fn print_report(path: &str, report: &Report, quiet: bool) {
    println!(
        "{path}: {} bug(s) with all rules possible; {} after annotations; {} after fixes",
        report.bugs_total, report.bugs_after_infer, report.bugs_after_fixes
    );
    if !quiet {
        for bug in &report.bugs {
            println!(
                "  [{}] line {:>4} {:?} {}",
                bug.kind, bug.line, bug.status, bug.description
            );
        }
    }
    if report.keys_added > 0 {
        println!(
            "proposed fixes ({} key(s) across {} table(s)):",
            report.keys_added, report.tables_modified
        );
        print!("{}", report.fix_description);
    }
    if report.egress_spec_fix {
        println!("suggested fix: initialize egress_spec to drop at the start of ingress (§4.6)");
    }
    if report.bugs_undecided > 0 {
        println!(
            "warning: {} bug(s) undecided within the solver budget (counted as potential bugs)",
            report.bugs_undecided
        );
    }
    for d in &report.degraded {
        println!(
            "warning: stage `{}` degraded after {:?} ({} solver queries): {}",
            d.stage, d.duration, d.queries_used, d.error
        );
    }
}

/// Drain collected spans into `--trace-out` JSONL and/or the `--profile`
/// flame rendering (stderr, so stdout stays script-stable).
fn finish_tracing(trace_out: Option<&str>, profile: bool) {
    if trace_out.is_none() && !profile {
        return;
    }
    let records = bf4_obs::take_spans();
    if let Some(path) = trace_out {
        let jsonl = bf4_obs::render_jsonl(&records);
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("bf4: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if profile {
        let spans: Vec<bf4_obs::TraceSpan> = records.iter().map(Into::into).collect();
        eprint!("{}", bf4_obs::render_flame(&spans));
    }
}

fn dump_dot(source: &str, options: &VerifyOptions) -> Result<String, String> {
    let program = bf4_p4::frontend(source).map_err(|e| e.to_string())?;
    let (cfg, _) =
        bf4_core::driver::build_cfg(&program, options).map_err(|e| e.to_string())?;
    Ok(bf4_ir::cfg::to_dot(&cfg))
}

// ---------------------------------------------------------------------------
// `bf4 client` — talk to a running `bf4d` over its length-prefixed JSON
// protocol. The engine crate cannot depend on bf4-daemon (the daemon
// depends on the engine), so the tiny frame + JSON encoding lives here;
// the wire format is documented in `bf4_daemon::proto` and covered by the
// ci.sh daemon smoke, which diffs a client round trip against a one-shot
// run.

/// Where the daemon listens; each request opens a fresh connection (the
/// daemon serves connections sequentially).
enum Endpoint {
    Unix(std::path::PathBuf),
    Tcp(String),
}

enum ClientConn {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl std::io::Read for ClientConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientConn::Unix(s) => s.read(buf),
            ClientConn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientConn::Unix(s) => s.write(buf),
            ClientConn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientConn::Unix(s) => s.flush(),
            ClientConn::Tcp(s) => s.flush(),
        }
    }
}

fn client_usage(msg: &str) -> ! {
    eprintln!("bf4 client: {msg} (try --help)");
    std::process::exit(2);
}

/// One request/response round trip; connection and protocol failures are
/// fatal with exit code 2 (the daemon is unreachable or broken, there is
/// no verdict to report).
fn client_request(endpoint: &Endpoint, body: &str) -> bf4_obs::json::Value {
    let mut conn = match endpoint {
        Endpoint::Unix(path) => match std::os::unix::net::UnixStream::connect(path) {
            Ok(s) => ClientConn::Unix(s),
            Err(e) => {
                eprintln!("bf4 client: cannot connect to {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        Endpoint::Tcp(addr) => match std::net::TcpStream::connect(addr) {
            Ok(s) => ClientConn::Tcp(s),
            Err(e) => {
                eprintln!("bf4 client: cannot connect to {addr}: {e}");
                std::process::exit(2);
            }
        },
    };
    let fail = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("bf4 client: {what}: {e}");
        std::process::exit(2);
    };
    // 4-byte big-endian length prefix, then the JSON body.
    let len = u32::try_from(body.len()).unwrap_or_else(|e| fail("request too large", &e));
    conn.write_all(&len.to_be_bytes())
        .and_then(|()| conn.write_all(body.as_bytes()))
        .and_then(|()| conn.flush())
        .unwrap_or_else(|e| fail("send failed", &e));
    let mut len_buf = [0u8; 4];
    std::io::Read::read_exact(&mut conn, &mut len_buf)
        .unwrap_or_else(|e| fail("no response", &e));
    let rlen = u32::from_be_bytes(len_buf);
    if rlen > 64 * 1024 * 1024 {
        fail("response frame too large", &rlen);
    }
    let mut rbody = vec![0u8; rlen as usize];
    std::io::Read::read_exact(&mut conn, &mut rbody)
        .unwrap_or_else(|e| fail("truncated response", &e));
    let text = String::from_utf8(rbody).unwrap_or_else(|e| fail("response not UTF-8", &e));
    bf4_obs::json::parse(&text).unwrap_or_else(|e| fail("response not JSON", &e))
}

fn response_u64(v: &bf4_obs::json::Value, key: &str) -> u64 {
    v.as_obj()
        .and_then(|o| o.get(key))
        .and_then(bf4_obs::json::Value::as_u64)
        .unwrap_or_else(|| {
            eprintln!("bf4 client: response missing field `{key}`");
            std::process::exit(2);
        })
}

fn response_str<'v>(v: &'v bf4_obs::json::Value, key: &str) -> &'v str {
    v.as_obj()
        .and_then(|o| o.get(key))
        .and_then(bf4_obs::json::Value::as_str)
        .unwrap_or_else(|| {
            eprintln!("bf4 client: response missing field `{key}`");
            std::process::exit(2);
        })
}

/// Exit early if the daemon answered `"ok": false`.
fn check_ok(v: &bf4_obs::json::Value) {
    let ok = v
        .as_obj()
        .and_then(|o| o.get("ok"))
        .map(|b| b == &bf4_obs::json::Value::Bool(true))
        .unwrap_or(false);
    if !ok {
        let err = v
            .as_obj()
            .and_then(|o| o.get("error"))
            .and_then(bf4_obs::json::Value::as_str)
            .unwrap_or("daemon reported an error");
        eprintln!("bf4 client: {err}");
        std::process::exit(2);
    }
}

/// Print one verdict response. With `normalized`, stdout carries exactly
/// the normalized report (diffable against a one-shot `bf4` run) and the
/// incremental summary goes to stderr; otherwise both go to stdout.
/// Returns the verdict's exit code.
fn print_verdict(v: &bf4_obs::json::Value, normalized: bool) -> i32 {
    check_ok(v);
    // The request ID ties this verdict to the daemon's trace/time-series
    // records (`report profile --request <id>`); old daemons omit it.
    let request = v
        .as_obj()
        .and_then(|o| o.get("request"))
        .and_then(bf4_obs::json::Value::as_str)
        .unwrap_or("");
    let summary = format!(
        "{}{} v{}: {} bug(s) with all rules possible; {} after annotations; {} after fixes; \
         {} undecided; {} degraded stage(s); skips={} reverified={} wall={}us",
        if request.is_empty() {
            String::new()
        } else {
            format!("[{request}] ")
        },
        response_str(v, "program"),
        response_u64(v, "version"),
        response_u64(v, "bugs_total"),
        response_u64(v, "bugs_after_infer"),
        response_u64(v, "bugs_after_fixes"),
        response_u64(v, "bugs_undecided"),
        response_u64(v, "degraded"),
        response_u64(v, "skips"),
        response_u64(v, "reverified"),
        response_u64(v, "wall_micros"),
    );
    if normalized {
        eprintln!("{summary}");
        print!("{}", response_str(v, "report"));
    } else {
        println!("{summary}");
    }
    i32::try_from(response_u64(v, "exit_code")).unwrap_or(1)
}

fn submit_body(program: &str, source: &str) -> String {
    format!(
        "{{\"op\":\"submit\",\"program\":{},\"source\":{}}}",
        bf4_obs::json::escape(program),
        bf4_obs::json::escape(source)
    )
}

/// Derive the daemon-side program name from a path: file stem, falling
/// back to the whole path.
fn program_name(path: &str, explicit: Option<&str>) -> String {
    if let Some(name) = explicit {
        return name.to_string();
    }
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string()
}

fn client_main(args: &[String]) -> i32 {
    let mut endpoint: Option<Endpoint> = None;
    let mut action: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut program: Option<String> = None;
    let mut normalized = false;
    let mut interval_ms: u64 = 500;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                match args.get(i) {
                    Some(p) => endpoint = Some(Endpoint::Unix(p.into())),
                    None => client_usage("--socket expects a path"),
                }
            }
            "--tcp" => {
                i += 1;
                match args.get(i) {
                    Some(a) => endpoint = Some(Endpoint::Tcp(a.clone())),
                    None => client_usage("--tcp expects an address"),
                }
            }
            "--program" => {
                i += 1;
                match args.get(i) {
                    Some(n) => program = Some(n.clone()),
                    None => client_usage("--program expects a name"),
                }
            }
            "--normalized" => normalized = true,
            "--interval-ms" => {
                i += 1;
                match args.get(i).map(|v| v.parse::<u64>()) {
                    Some(Ok(ms)) if ms >= 1 => interval_ms = ms,
                    _ => client_usage("--interval-ms expects a millisecond count >= 1"),
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bf4 client (--socket PATH | --tcp ADDR) submit FILE \
                     [--program NAME] [--normalized] | status NAME | watch FILE \
                     [--program NAME] [--interval-ms N] | stats | metrics | ping | shutdown"
                );
                std::process::exit(0);
            }
            other if action.is_none() && !other.starts_with('-') => {
                action = Some(other.to_string());
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => client_usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let Some(endpoint) = endpoint else {
        client_usage("one of --socket or --tcp is required");
    };
    let action = action.unwrap_or_else(|| client_usage("missing action"));

    match action.as_str() {
        "submit" => {
            let path = positional
                .first()
                .unwrap_or_else(|| client_usage("submit expects a .p4 file"));
            let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("bf4 client: cannot read {path}: {e}");
                std::process::exit(2);
            });
            let name = program_name(path, program.as_deref());
            let v = client_request(&endpoint, &submit_body(&name, &source));
            print_verdict(&v, normalized)
        }
        "status" => {
            let name = positional
                .first()
                .unwrap_or_else(|| client_usage("status expects a program name"));
            let body = format!(
                "{{\"op\":\"status\",\"program\":{}}}",
                bf4_obs::json::escape(name)
            );
            let v = client_request(&endpoint, &body);
            print_verdict(&v, normalized)
        }
        "watch" => {
            let path = positional
                .first()
                .unwrap_or_else(|| client_usage("watch expects a .p4 file"));
            let name = program_name(path, program.as_deref());
            let mtime = |p: &str| {
                std::fs::metadata(p).and_then(|m| m.modified()).ok()
            };
            let mut last = mtime(path);
            loop {
                match std::fs::read_to_string(path) {
                    Ok(source) => {
                        let v = client_request(&endpoint, &submit_body(&name, &source));
                        print_verdict(&v, normalized);
                    }
                    Err(e) => eprintln!("bf4 client: cannot read {path}: {e}"),
                }
                // Poll the mtime; resubmit on any change (editors that
                // replace the file change the inode, metadata still moves).
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                    let now = mtime(path);
                    if now != last {
                        last = now;
                        break;
                    }
                }
            }
        }
        "stats" => {
            let v = client_request(&endpoint, "{\"op\":\"stats\"}");
            check_ok(&v);
            for key in [
                "requests",
                "submits",
                "errors",
                "programs",
                "skips",
                "reverified",
                "cache_hits",
                "cache_warm_hits",
                "cache_misses",
                "cache_preloaded",
                "degraded_submits",
                "alerts",
                "active_alerts",
            ] {
                println!("{key}: {}", response_u64(&v, key));
            }
            0
        }
        "metrics" => {
            let v = client_request(&endpoint, "{\"op\":\"metrics\"}");
            check_ok(&v);
            print!("{}", response_str(&v, "metrics"));
            0
        }
        "ping" => {
            let v = client_request(&endpoint, "{\"op\":\"ping\"}");
            check_ok(&v);
            println!("pong");
            0
        }
        "shutdown" => {
            let v = client_request(&endpoint, "{\"op\":\"shutdown\"}");
            check_ok(&v);
            println!("shutdown: ok");
            0
        }
        other => client_usage(&format!("unknown action `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// `bf4 top` — a live dashboard over a running daemon, built from the same
// two protocol ops any monitoring stack would scrape (`stats` for the
// authoritative counters, `metrics` for the latency quantiles).

/// One polled snapshot of the daemon, as rendered by `bf4 top`.
struct TopSnapshot {
    requests: u64,
    submits: u64,
    skips: u64,
    reverified: u64,
    cache_hits: u64,
    cache_misses: u64,
    degraded: u64,
    active_alerts: u64,
    programs: u64,
    /// `daemon.request_micros` quantile bounds from the exposition, when
    /// the daemon has served at least one submission.
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
}

fn top_poll(endpoint: &Endpoint) -> TopSnapshot {
    let v = client_request(endpoint, "{\"op\":\"stats\"}");
    check_ok(&v);
    let m = client_request(endpoint, "{\"op\":\"metrics\"}");
    check_ok(&m);
    let quantile = |q: &str| -> Option<f64> {
        let text = m.as_obj()?.get("metrics")?.as_str()?;
        let exp = bf4_obs::expose::parse(text).ok()?;
        exp.value("bf4_daemon_request_micros", &[("quantile", q)])
    };
    TopSnapshot {
        requests: response_u64(&v, "requests"),
        submits: response_u64(&v, "submits"),
        skips: response_u64(&v, "skips"),
        reverified: response_u64(&v, "reverified"),
        cache_hits: response_u64(&v, "cache_hits"),
        cache_misses: response_u64(&v, "cache_misses"),
        degraded: response_u64(&v, "degraded_submits"),
        active_alerts: response_u64(&v, "active_alerts"),
        programs: response_u64(&v, "programs"),
        p50: quantile("0.5"),
        p90: quantile("0.9"),
        p99: quantile("0.99"),
    }
}

fn top_render(now: &TopSnapshot, prev: Option<&TopSnapshot>, interval: std::time::Duration) {
    let rate = match prev {
        Some(p) if interval.as_secs_f64() > 0.0 => {
            (now.requests.saturating_sub(p.requests)) as f64 / interval.as_secs_f64()
        }
        _ => 0.0,
    };
    let lookups = now.cache_hits + now.cache_misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        100.0 * now.cache_hits as f64 / lookups as f64
    };
    let us = |q: Option<f64>| match q {
        Some(v) => format!("<{}us", v as u64),
        None => "-".to_string(),
    };
    println!("bf4d — {} program(s), {} request(s) total", now.programs, now.requests);
    println!("  req/s     {rate:>8.1}");
    println!(
        "  latency   p50 {} / p90 {} / p99 {}",
        us(now.p50),
        us(now.p90),
        us(now.p99)
    );
    println!(
        "  cache     {hit_rate:>7.1}% hit rate ({} hit(s) / {} miss(es))",
        now.cache_hits, now.cache_misses
    );
    println!(
        "  increment {} skip(s), {} re-verification(s), {} submit(s)",
        now.skips, now.reverified, now.submits
    );
    println!("  degraded  {}", now.degraded);
    if now.active_alerts > 0 {
        println!("  ALERTS    {} active SLO violation(s)", now.active_alerts);
    } else {
        println!("  alerts    none");
    }
}

fn top_main(args: &[String]) -> i32 {
    let mut endpoint: Option<Endpoint> = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                i += 1;
                match args.get(i) {
                    Some(p) => endpoint = Some(Endpoint::Unix(p.into())),
                    None => client_usage("--socket expects a path"),
                }
            }
            "--tcp" => {
                i += 1;
                match args.get(i) {
                    Some(a) => endpoint = Some(Endpoint::Tcp(a.clone())),
                    None => client_usage("--tcp expects an address"),
                }
            }
            "--interval-ms" => {
                i += 1;
                match args.get(i).map(|v| v.parse::<u64>()) {
                    Some(Ok(ms)) if ms >= 1 => interval_ms = ms,
                    _ => client_usage("--interval-ms expects a millisecond count >= 1"),
                }
            }
            "--iterations" => {
                i += 1;
                match args.get(i).map(|v| v.parse::<u64>()) {
                    Some(Ok(n)) => iterations = n,
                    _ => client_usage("--iterations expects a count (0 = until interrupted)"),
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bf4 top (--socket PATH | --tcp ADDR) [--interval-ms N] \
                     [--iterations N]"
                );
                std::process::exit(0);
            }
            other => client_usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let Some(endpoint) = endpoint else {
        client_usage("one of --socket or --tcp is required");
    };
    let interval = std::time::Duration::from_millis(interval_ms);
    let mut prev: Option<TopSnapshot> = None;
    let mut n = 0u64;
    loop {
        let snap = top_poll(&endpoint);
        // Redraw in place on a terminal; pipelines get appended frames. A
        // bounded --iterations run never clears, so tests see every frame.
        if prev.is_some() && iterations == 0 {
            print!("\x1b[2J\x1b[H");
        }
        top_render(&snap, prev.as_ref(), interval);
        let _ = std::io::Write::flush(&mut std::io::stdout());
        prev = Some(snap);
        n += 1;
        if iterations > 0 && n >= iterations {
            return 0;
        }
        std::thread::sleep(interval);
    }
}

/// `bf4 controller` — drive a synthetic update workload through the
/// batched line-rate shim, or (with `--campaign`) the full staged-load
/// stress campaign with its gates.
fn controller_main(args: &[String]) -> i32 {
    let mut path: Option<String> = None;
    let mut updates = 2000usize;
    let mut campaign = false;
    let mut journal: Option<String> = None;
    let mut config = bf4_shim::campaign::CampaignConfig::default();
    let usage = || {
        eprintln!(
            "usage: bf4 controller <file.p4> [--updates N] [--batch-size N] [--threads N] \
             [--seed N] [--faulty F] [--journal FILE] [--campaign] [--dir DIR]"
        );
        2
    };
    let mut i = 0;
    while i < args.len() {
        // Numeric flags share one parse-or-die shape.
        macro_rules! num {
            ($what:literal) => {{
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("bf4 controller: {} expects a number", $what);
                        return 2;
                    }
                }
            }};
        }
        match args[i].as_str() {
            "--updates" => updates = num!("--updates"),
            "--batch-size" => config.batch_size = num!("--batch-size"),
            "--threads" => config.threads = num!("--threads"),
            "--seed" => config.seed = num!("--seed"),
            "--faulty" => config.faulty_fraction = num!("--faulty"),
            "--campaign" => campaign = true,
            "--journal" => {
                i += 1;
                journal = args.get(i).cloned();
                if journal.is_none() {
                    return usage();
                }
            }
            "--dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => config.dir = d.into(),
                    None => return usage(),
                }
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return usage(),
        }
        i += 1;
    }
    let Some(path) = path else { return usage() };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bf4 controller: cannot read {path}: {e}");
            return 2;
        }
    };
    let report = match verify(&source, &VerifyOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bf4 controller: {path}: {e}");
            return 2;
        }
    };
    println!(
        "controller: {path}: {} table(s), {} assertion(s)",
        report.annotations.tables.len(),
        report.annotations.specs.len()
    );

    if campaign {
        let campaign_report =
            match bf4_shim::campaign::run_campaign(&report.annotations, &config) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bf4 controller: campaign failed: {e}");
                    return 2;
                }
            };
        print!("{}", campaign_report.render_text());
        let gates = campaign_report.gate_violations();
        for g in &gates {
            eprintln!("gate: {g}");
        }
        return i32::from(!gates.is_empty());
    }

    // Plain mode: one batched stage over the whole workload, through the
    // same worker pool the campaign uses.
    let shim = match bf4_shim::ShardedShim::new(
        &report.annotations,
        &bf4_shim::ShimConfig {
            max_inflight: config.max_inflight,
            journal_path: journal.as_ref().map(Into::into),
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bf4 controller: cannot open journal: {e}");
            return 2;
        }
    };
    let workload = bf4_shim::controller::Controller::new(
        &report.annotations,
        bf4_shim::controller::WorkloadConfig {
            updates,
            faulty_fraction: config.faulty_fraction,
            delete_fraction: 0.05,
            seed: config.seed,
            ..bf4_shim::controller::WorkloadConfig::default()
        },
    )
    .workload();
    let batches = bf4_shim::campaign::chunk(workload, config.batch_size);
    let stage = bf4_shim::campaign::run_stage(&shim, "serve", &batches, config.threads);
    println!(
        "offered {} batch(es) ({updates} updates, batch={}) on {} thread(s)",
        stage.batches, config.batch_size, config.threads
    );
    println!(
        "acked {} ({} updates), rejected {}, shed {}, journal-failed {}, poisoned {}",
        stage.acked, stage.updates_acked, stage.rejected, stage.shed, stage.journal_failed,
        stage.poisoned
    );
    println!("batch latency: {}", stage.latency);
    let stats = shim.stats();
    println!(
        "journal: {} byte(s), {} fsync(s), {} append(s) amortized{}",
        shim.journal_bytes().len(),
        stats.fsyncs,
        stats.fsync_amortized,
        journal.map(|j| format!(" -> {j}")).unwrap_or_default()
    );
    let violations = shim.audit_violations();
    if violations.is_empty() {
        println!("audit: clean — no live rule violates an inferred assertion");
        0
    } else {
        for v in &violations {
            eprintln!("audit violation: {v}");
        }
        1
    }
}

//! `icost-obs` — regression tracking over run ledgers.
//!
//! ```text
//! icost-obs summarize <ledger.jsonl> [--json]
//! icost-obs diff <base.jsonl> <new.jsonl> [--tolerance F] [--wall-tolerance F] [--json]
//! icost-obs plan <ledger.jsonl> [--json]
//! icost-obs serve [--addr HOST:PORT] [--workload NAME] [--insts N] [--threads N] [--workers N]
//!                 [--token TOKEN]
//! icost-obs watch (--addr HOST:PORT | --ledger FILE) [--kinds K1,K2] [--limit N] [--token TOKEN]
//! icost-obs audit (<ledger.jsonl> | --addr HOST:PORT) [--max-refuted F] [--limit N] [--token TOKEN]
//! icost-obs flame (<trace.json> | --addr HOST:PORT [--secs N]) [--token TOKEN]
//! ```
//!
//! Exit codes: `0` success / no regressions, `1` regressions found by
//! `diff`, `2` usage or I/O error.

use std::process::ExitCode;
use std::sync::Arc;

use icost_obs_cli::{diff, LedgerSummary, Tolerance};
use uarch_obs::ledger::KindFilter;
use uarch_serve::{ServeContext, ServeHost, Server};

const USAGE: &str = "\
icost-obs — regression tracking over interaction-cost run ledgers

USAGE:
    icost-obs summarize <ledger.jsonl> [--json]
    icost-obs diff <base.jsonl> <new.jsonl> [--tolerance F] [--wall-tolerance F] [--json]
    icost-obs plan <ledger.jsonl> [--json]
    icost-obs serve [--addr HOST:PORT] [--workload NAME] [--insts N]
                    [--threads N] [--workers N] [--token TOKEN]
    icost-obs watch (--addr HOST:PORT | --ledger FILE)
                    [--kinds K1,K2] [--limit N] [--token TOKEN]
    icost-obs audit (<ledger.jsonl> | --addr HOST:PORT)
                    [--max-refuted F] [--limit N] [--token TOKEN]
    icost-obs flame (<trace.json> | --addr HOST:PORT [--secs N])
                    [--token TOKEN]

COMMANDS:
    summarize     Aggregate a ledger into run/job/provenance/cycle totals
    diff          Compare a candidate ledger against a baseline; exit 1
                  when a gated metric regresses beyond tolerance
    plan          Inspect the mixed-fidelity planner's ledger trail:
                  answers by backend and routing reason, plus the
                  per-context graph-residual calibration replayed from
                  the ledger's calib records
    serve         Run the live telemetry server: GET /metrics (Prometheus),
                  /healthz, /readyz, /events (SSE ledger stream), and
                  POST /query (JSON cost(S) batches; backend sim|graph|auto).
                  Listens on --addr, the ICOST_SERVE_ADDR env var, or
                  127.0.0.1:7117; runs until killed. Set ICOST_LEDGER_FILE
                  to also persist the streamed records.
    watch         Tail live ledger records and render them: per-window
                  icost breakdown tables for streamed `window` records,
                  one-line summaries for everything else. --addr tails a
                  server's GET /events SSE stream (with the kinds filter
                  applied server-side); --ledger tails a JSONL ledger
                  file. Runs until killed unless --limit is given.
    audit         Render attribution-audit waterfalls (the counter-vs-
                  graph cross-validation records producers emit under
                  ICOST_AUDIT=1): per-category attributed vs counter
                  shares, signed divergence bars, and the verdict. Reads
                  a ledger file, or tails a server's audit stream with
                  --addr. With --max-refuted F, exits 1 when the fraction
                  of refuted audits exceeds F — the CI gate for
                  attribution quality.
    flame         Fold spans into flamegraph folded stacks on stdout
                  ('stack;frames self_us' lines, ready for any
                  flamegraph renderer). Reads a Chrome trace file (the
                  ICOST_TRACE_FILE output), or fetches a live server's
                  GET /profile window with --addr.

OPTIONS:
    --json             Emit JSON instead of the aligned table
    --tolerance F      Relative slack for work metrics (default 0.0;
                       0.1 allows +10% sims/cycles, -10% reuse)
    --wall-tolerance F Relative slack for wall time (default 10.0 —
                       wall clocks differ wildly across machines)
    --addr HOST:PORT   serve listen address (port 0 picks a free port)
    --workload NAME    serve benchmark profile (default mcf)
    --insts N          serve trace length in instructions (default 20000)
    --threads N        serve simulation worker threads (default: cores)
    --workers N        serve HTTP accept-pool size (default 4)
    --token TOKEN      serve bearer token; every endpoint then requires
                       'Authorization: Bearer TOKEN' (defaults to the
                       ICOST_SERVE_TOKEN env var; empty disables auth)
    --ledger FILE      watch source: tail this JSONL ledger file
    --kinds K1,K2      watch record-kind filter (default window; 'all'
                       renders every kind)
    --limit N          watch/audit exit after rendering N records
                       (default: run until killed / end of file)
    --max-refuted F    audit gate: exit 1 when refuted/total exceeds F
                       (default: report only, never gate)
    --secs N           flame --addr: profile window in seconds (default 60)
";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("icost-obs: {msg}");
    ExitCode::from(2)
}

fn load_summary(path: &str) -> Result<LedgerSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (summary, skipped) =
        LedgerSummary::from_text_lenient(&text).map_err(|e| format!("{path}: {e}"))?;
    if skipped > 0 {
        eprintln!("icost-obs: {path}: skipped {skipped} record(s) of unknown kind");
    }
    Ok(summary)
}

/// Pull `--flag VALUE` out of `args`, parsing the value.
fn take_opt<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    args.remove(i);
    let raw = args.remove(i);
    raw.parse::<T>()
        .map(Some)
        .map_err(|e| format!("bad value {raw:?} for {flag}: {e}"))
}

/// Pull `--token VALUE` out of `args`, falling back to `ICOST_SERVE_TOKEN`.
fn take_token(args: &mut Vec<String>) -> Result<Option<String>, String> {
    Ok(take_opt(args, "--token")?.or_else(|| std::env::var("ICOST_SERVE_TOKEN").ok()))
}

/// Pull a bare `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = args.remove(0);
    match command.as_str() {
        "summarize" => {
            let json = take_flag(&mut args, "--json");
            let [path] = args.as_slice() else {
                return fail("summarize takes exactly one ledger path (see --help)");
            };
            match load_summary(path) {
                Ok(s) if json => println!("{}", s.to_json()),
                Ok(s) => print!("{}", s.to_table()),
                Err(e) => return fail(e),
            }
            ExitCode::SUCCESS
        }
        "diff" => {
            let json = take_flag(&mut args, "--json");
            let mut tol = Tolerance::default();
            match take_opt::<f64>(&mut args, "--tolerance") {
                Ok(Some(t)) => tol.work = t,
                Ok(None) => {}
                Err(e) => return fail(e),
            }
            match take_opt::<f64>(&mut args, "--wall-tolerance") {
                Ok(Some(t)) => tol.wall = t,
                Ok(None) => {}
                Err(e) => return fail(e),
            }
            let [base_path, new_path] = args.as_slice() else {
                return fail("diff takes a baseline and a candidate ledger (see --help)");
            };
            let (base, new) = match (load_summary(base_path), load_summary(new_path)) {
                (Ok(b), Ok(n)) => (b, n),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            let report = diff(&base, &new, tol);
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_table());
            }
            if report.regressions() > 0 {
                eprintln!(
                    "icost-obs: {} regression(s) against {base_path}",
                    report.regressions()
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "plan" => {
            let json = take_flag(&mut args, "--json");
            let [path] = args.as_slice() else {
                return fail("plan takes exactly one ledger path (see --help)");
            };
            match plan_report(path, json) {
                Ok(out) => {
                    print!("{out}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "serve" => {
            let addr = match take_opt::<String>(&mut args, "--addr") {
                Ok(Some(a)) => a,
                Ok(None) => std::env::var(uarch_serve::SERVE_ADDR_ENV)
                    .unwrap_or_else(|_| uarch_serve::DEFAULT_ADDR.to_string()),
                Err(e) => return fail(e),
            };
            let workload = match take_opt::<String>(&mut args, "--workload") {
                Ok(w) => w.unwrap_or_else(|| "mcf".to_string()),
                Err(e) => return fail(e),
            };
            let insts = match take_opt::<usize>(&mut args, "--insts") {
                Ok(n) => n.unwrap_or(20_000),
                Err(e) => return fail(e),
            };
            let threads = match take_opt::<usize>(&mut args, "--threads") {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            let workers = match take_opt::<usize>(&mut args, "--workers") {
                Ok(w) => w.unwrap_or(uarch_serve::DEFAULT_WORKERS),
                Err(e) => return fail(e),
            };
            let token = match take_token(&mut args) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            if !args.is_empty() {
                return fail(format!("unexpected arguments {args:?} (see --help)"));
            }
            serve(&addr, &workload, insts, threads, workers, token)
        }
        "watch" => {
            let addr = match take_opt::<String>(&mut args, "--addr") {
                Ok(a) => a,
                Err(e) => return fail(e),
            };
            let ledger = match take_opt::<String>(&mut args, "--ledger") {
                Ok(l) => l,
                Err(e) => return fail(e),
            };
            let kinds = match take_opt::<String>(&mut args, "--kinds") {
                Ok(k) => k.unwrap_or_else(|| "window".to_string()),
                Err(e) => return fail(e),
            };
            let limit = match take_opt::<u64>(&mut args, "--limit") {
                Ok(n) => n,
                Err(e) => return fail(e),
            };
            let token = match take_token(&mut args) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            if !args.is_empty() {
                return fail(format!("unexpected arguments {args:?} (see --help)"));
            }
            match (addr, ledger) {
                (Some(addr), None) => watch_sse(&addr, &kinds, limit, token),
                (None, Some(path)) => watch_ledger(&path, &kinds, limit),
                _ => fail("watch takes exactly one of --addr or --ledger (see --help)"),
            }
        }
        "audit" => {
            let addr = match take_opt::<String>(&mut args, "--addr") {
                Ok(a) => a,
                Err(e) => return fail(e),
            };
            let max_refuted = match take_opt::<f64>(&mut args, "--max-refuted") {
                Ok(m) => m,
                Err(e) => return fail(e),
            };
            let limit = match take_opt::<u64>(&mut args, "--limit") {
                Ok(n) => n,
                Err(e) => return fail(e),
            };
            let token = match take_token(&mut args) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            match (addr, args.as_slice()) {
                (Some(addr), []) => audit_sse(&addr, limit, max_refuted, token),
                (None, [path]) => audit_ledger(path, limit, max_refuted),
                _ => fail("audit takes a ledger path or --addr, not both (see --help)"),
            }
        }
        "flame" => {
            let addr = match take_opt::<String>(&mut args, "--addr") {
                Ok(a) => a,
                Err(e) => return fail(e),
            };
            let secs = match take_opt::<u64>(&mut args, "--secs") {
                Ok(n) => n.unwrap_or(60),
                Err(e) => return fail(e),
            };
            let token = match take_token(&mut args) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            match (addr, args.as_slice()) {
                (Some(addr), []) => flame_addr(&addr, secs, token),
                (None, [path]) => flame_file(path),
                _ => fail("flame takes a Chrome trace path or --addr, not both (see --help)"),
            }
        }
        other => fail(format!("unknown command {other:?} (see --help)")),
    }
}

/// `icost-obs flame <trace.json>`: fold a Chrome trace file (the
/// `ICOST_TRACE_FILE` output) into flamegraph folded stacks.
fn flame_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail(format!("cannot read {path}: {e}")),
    };
    match uarch_obs::Profile::from_chrome_json(&text) {
        Ok(profile) => {
            print!("{}", profile.render());
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("{path}: {e}")),
    }
}

/// `icost-obs flame --addr`: fetch a live server's `GET /profile`
/// window — already folded server-side — and print it.
fn flame_addr(addr: &str, secs: u64, token: Option<String>) -> ExitCode {
    match http_get(addr, &format!("/profile?secs={secs}"), token) {
        Ok(body) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// One plain HTTP GET against a server: send the request, require a
/// 200, read the body to EOF (the server closes after each response).
fn http_get(addr: &str, path: &str, token: Option<String>) -> Result<String, String> {
    use std::io::{Read as _, Write as _};

    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    let auth = token
        .filter(|t| !t.is_empty())
        .map_or(String::new(), |t| format!("Authorization: Bearer {t}\r\n"));
    let request = format!("GET {path} HTTP/1.1\r\nHost: flame\r\n{auth}\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read error: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "server refused {path}: {} — {}",
            head.lines().next().unwrap_or(""),
            body.trim()
        ));
    }
    Ok(body.to_string())
}

/// Render one ledger JSONL `line` if it passes the kind filter;
/// returns whether a record was rendered (counted against `--limit`).
fn watch_line(line: &str, kinds: &KindFilter) -> bool {
    let line = line.trim();
    if line.is_empty() || !kinds.admits(line) {
        return false;
    }
    match uarch_obs::ledger::parse_ledger_lenient(line) {
        Ok((records, 0)) if !records.is_empty() => {
            print!("{}", icost_obs_cli::render_watch_record(&records[0]));
        }
        // Unknown or malformed kinds still surface raw — watch is a
        // tail, not a validator.
        _ => println!("{line}"),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    true
}

/// Connect to a server's SSE endpoint and feed every `data:` payload
/// line to `on_payload`. Returns `Ok(true)` when the callback asked to
/// stop, `Ok(false)` when the server closed the stream, `Err` on
/// connection/protocol failures. Shared by `watch --addr` and
/// `audit --addr`.
fn stream_events(
    addr: &str,
    path: &str,
    token: Option<String>,
    mut on_payload: impl FnMut(&str) -> bool,
) -> Result<bool, String> {
    use std::io::{Read as _, Write as _};

    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(500)));
    let auth = token
        .filter(|t| !t.is_empty())
        .map_or(String::new(), |t| format!("Authorization: Bearer {t}\r\n"));
    let request = format!("GET {path} HTTP/1.1\r\nHost: watch\r\n{auth}\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut buf = String::new();
    let mut chunk = [0u8; 4096];
    // Read the response head first; anything but 200 is a hard error.
    while !buf.contains("\r\n\r\n") {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(format!("server closed during response head: {buf:?}")),
            Ok(n) => buf.push_str(&String::from_utf8_lossy(&chunk[..n])),
            Err(e) if would_block(&e) => {}
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    let head_end = buf.find("\r\n\r\n").expect("head terminator") + 4;
    let head: String = buf.drain(..head_end).collect();
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "server refused the stream: {}",
            head.lines().next().unwrap_or("")
        ));
    }
    eprintln!("icost-obs: watching {addr}{path}");
    loop {
        // Frames end with a blank line; data lines carry ledger records.
        while let Some(i) = buf.find("\n\n") {
            let frame: String = buf.drain(..i + 2).collect();
            for payload in frame.lines().filter_map(|l| l.strip_prefix("data: ")) {
                if on_payload(payload) {
                    return Ok(true);
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                eprintln!("icost-obs: event stream closed by server");
                return Ok(false);
            }
            Ok(n) => buf.push_str(&String::from_utf8_lossy(&chunk[..n])),
            Err(e) if would_block(&e) => {}
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
}

/// `icost-obs watch --addr`: tail a server's `GET /events` SSE stream.
fn watch_sse(addr: &str, kinds: &str, limit: Option<u64>, token: Option<String>) -> ExitCode {
    let kinds = KindFilter::parse(kinds);
    let path = match kinds.kinds() {
        Some(kinds) => format!("/events?kinds={}", kinds.join(",")),
        None => "/events".to_string(),
    };
    let mut rendered = 0u64;
    // The kind filter already ran server-side, but re-check in
    // watch_line so a pre-filter server streams the same view.
    match stream_events(addr, &path, token, |payload| {
        if watch_line(payload, &kinds) {
            rendered += 1;
            return limit.is_some_and(|n| rendered >= n);
        }
        false
    }) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// `icost-obs watch --ledger`: tail a JSONL ledger file, rendering
/// records already present and then polling for appended lines.
fn watch_ledger(path: &str, kinds: &str, limit: Option<u64>) -> ExitCode {
    use std::io::{Read as _, Seek as _};

    let kinds = KindFilter::parse(kinds);
    let mut pos = 0u64;
    let mut carry = String::new();
    let mut rendered = 0u64;
    let mut warned_missing = false;
    loop {
        match std::fs::File::open(path) {
            Ok(mut file) => {
                if file.seek(std::io::SeekFrom::Start(pos)).is_ok() {
                    let mut text = String::new();
                    if file.read_to_string(&mut text).is_ok() {
                        pos += text.len() as u64;
                        carry.push_str(&text);
                    }
                }
            }
            Err(_) if !warned_missing => {
                eprintln!("icost-obs: waiting for {path}");
                warned_missing = true;
            }
            Err(_) => {}
        }
        while let Some(i) = carry.find('\n') {
            let line: String = carry.drain(..=i).collect();
            if watch_line(&line, &kinds) {
                rendered += 1;
                if limit.is_some_and(|n| rendered >= n) {
                    return ExitCode::SUCCESS;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

/// Parse one JSONL line as an audit record, if that's what it is.
/// Other kinds (and unknown/malformed lines) return `None` — the audit
/// view tails mixed ledgers and streams without failing on them.
fn parse_audit_line(line: &str) -> Option<uarch_obs::ledger::AuditRecord> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    match uarch_obs::ledger::parse_ledger_lenient(line) {
        Ok((records, _)) => records.into_iter().find_map(|r| match r {
            uarch_obs::ledger::LedgerRecord::Audit(a) => Some(a),
            _ => None,
        }),
        Err(_) => None,
    }
}

/// Final report + optional CI gate shared by both `audit` sources:
/// exit 1 when the refuted fraction exceeds `--max-refuted`.
fn audit_gate(total: u64, refuted: u64, max_refuted: Option<f64>) -> ExitCode {
    let rate = if total == 0 {
        0.0
    } else {
        refuted as f64 / total as f64
    };
    eprintln!("icost-obs: {total} audit record(s), {refuted} refuted (rate {rate:.3})");
    match max_refuted {
        Some(max) if rate > max => {
            eprintln!("icost-obs: refuted rate {rate:.3} exceeds --max-refuted {max}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// `icost-obs audit <ledger.jsonl>`: render every audit record's
/// waterfall, then report the refuted rate (and gate on it).
fn audit_ledger(path: &str, limit: Option<u64>, max_refuted: Option<f64>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail(format!("cannot read {path}: {e}")),
    };
    let (records, skipped) = match uarch_obs::ledger::parse_ledger_lenient(&text) {
        Ok(parsed) => parsed,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    if skipped > 0 {
        eprintln!("icost-obs: {path}: skipped {skipped} record(s) of unknown kind");
    }
    let mut total = 0u64;
    let mut refuted = 0u64;
    for record in &records {
        if let uarch_obs::ledger::LedgerRecord::Audit(a) = record {
            if limit.is_some_and(|n| total >= n) {
                break;
            }
            print!("{}", uarch_audit::render_waterfall(a));
            total += 1;
            refuted += u64::from(a.verdict == "refuted");
        }
    }
    if total == 0 {
        eprintln!("icost-obs: {path}: no audit records (producers emit them under ICOST_AUDIT=1)");
    }
    audit_gate(total, refuted, max_refuted)
}

/// `icost-obs audit --addr`: tail a server's audit stream, rendering
/// waterfalls live; applies the gate when the stream ends or --limit is
/// reached.
fn audit_sse(
    addr: &str,
    limit: Option<u64>,
    max_refuted: Option<f64>,
    token: Option<String>,
) -> ExitCode {
    let mut total = 0u64;
    let mut refuted = 0u64;
    let result = stream_events(addr, "/events?kinds=audit", token, |payload| {
        let Some(a) = parse_audit_line(payload) else {
            return false;
        };
        print!("{}", uarch_audit::render_waterfall(&a));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        total += 1;
        refuted += u64::from(a.verdict == "refuted");
        limit.is_some_and(|n| total >= n)
    });
    match result {
        Ok(_) => audit_gate(total, refuted, max_refuted),
        Err(e) => fail(e),
    }
}

/// Build the serving host for one generated workload and block forever
/// (the server runs until the process is killed).
fn serve(
    addr: &str,
    workload: &str,
    insts: usize,
    threads: Option<usize>,
    workers: usize,
    token: Option<String>,
) -> ExitCode {
    let Some(profile) = uarch_workloads::BenchProfile::by_name(workload) else {
        return fail(format!("unknown workload {workload:?}"));
    };
    let _guard = uarch_obs::flush_guard();
    let w = uarch_workloads::generate(profile, insts, 2003);
    let mut ctx = ServeContext::new(
        w.name.clone(),
        uarch_trace::MachineConfig::table6(),
        w.trace,
    );
    ctx.warm_data = w.warm_data;
    ctx.warm_code = w.warm_code;
    let mut runner = uarch_runner::Runner::new();
    if let Some(threads) = threads {
        runner = runner.with_threads(threads);
    }
    eprintln!("icost-obs: building dependence graph for {workload} ({insts} insts)");
    if token.is_some() {
        eprintln!("icost-obs: bearer-token auth enabled");
    }
    let host = Arc::new(ServeHost::new(runner, ctx).with_token(token));
    let server = match Server::start(host.clone(), addr, workers) {
        Ok(server) => server,
        Err(e) => return fail(format!("cannot bind {addr}: {e}")),
    };
    // Build/runtime identity goes to stderr: stdout's first line must
    // stay the machine-readable address below.
    eprintln!("icost-obs: {}", host.startup_info());
    // Machine-readable startup line: tests and scripts parse the bound
    // address from stdout (port 0 resolves to the actual port).
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// `icost-obs plan`: aggregate the planner's ledger trail — answers by
/// backend and routing reason, plus the per-context graph-residual
/// calibration replayed from `calib` records.
fn plan_report(path: &str, json: bool) -> Result<String, String> {
    use std::collections::BTreeMap;
    use uarch_obs::json::Value;
    use uarch_obs::ledger::LedgerRecord;

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (records, skipped) =
        uarch_obs::ledger::parse_ledger_lenient(&text).map_err(|e| format!("{path}: {e}"))?;
    if skipped > 0 {
        eprintln!("icost-obs: {path}: skipped {skipped} record(s) of unknown kind");
    }
    let mut backends: BTreeMap<String, u64> = BTreeMap::new();
    let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
    let mut answers = 0u64;
    let mut confidence_pm_sum = 0u64;
    for record in &records {
        if let LedgerRecord::Plan(p) = record {
            answers += 1;
            confidence_pm_sum += p.confidence_pm;
            *backends.entry(p.backend.clone()).or_insert(0) += 1;
            *reasons.entry(p.reason.clone()).or_insert(0) += 1;
        }
    }
    let calibrator = uarch_plan::Calibrator::new();
    let calibs = calibrator.replay(&records) as u64;
    let contexts = calibrator.snapshot();
    let mean_confidence = (answers > 0).then(|| confidence_pm_sum as f64 / answers as f64 / 1000.0);

    if json {
        let count_obj = |m: &BTreeMap<String, u64>| {
            Value::Obj(
                m.iter()
                    .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                    .collect(),
            )
        };
        let mut obj = BTreeMap::new();
        obj.insert("answers".to_string(), Value::Num(answers as f64));
        obj.insert(
            "mean_confidence".to_string(),
            mean_confidence.map_or(Value::Null, Value::Num),
        );
        obj.insert("backends".to_string(), count_obj(&backends));
        obj.insert("reasons".to_string(), count_obj(&reasons));
        obj.insert("calib_records".to_string(), Value::Num(calibs as f64));
        obj.insert(
            "contexts".to_string(),
            Value::Arr(
                contexts
                    .iter()
                    .map(|c| {
                        let mut m = BTreeMap::new();
                        m.insert("sim_ctx".to_string(), Value::Str(c.sim_ctx.clone()));
                        m.insert("graph_ctx".to_string(), Value::Str(c.graph_ctx.clone()));
                        m.insert("samples".to_string(), Value::Num(c.samples as f64));
                        m.insert("p50".to_string(), Value::Num(c.p50 as f64));
                        m.insert("p95".to_string(), Value::Num(c.p95 as f64));
                        m.insert("max".to_string(), Value::Num(c.max as f64));
                        m.insert(
                            "tolerance".to_string(),
                            c.tolerance.map_or(Value::Null, |t| Value::Num(t as f64)),
                        );
                        Value::Obj(m)
                    })
                    .collect(),
            ),
        );
        let mut out = Value::Obj(obj).render();
        out.push('\n');
        return Ok(out);
    }

    let mut out = String::new();
    let mut row = |k: &str, v: String| out.push_str(&format!("  {k:<18} {v:>16}\n"));
    row("plan_answers", answers.to_string());
    match mean_confidence {
        Some(c) => row("mean_confidence", format!("{c:.3}")),
        None => row("mean_confidence", "-".into()),
    }
    for (backend, n) in &backends {
        row(&format!("  via {backend}"), n.to_string());
    }
    for (reason, n) in &reasons {
        row(&format!("  reason {reason}"), n.to_string());
    }
    row("calib_records", calibs.to_string());
    if contexts.is_empty() {
        out.push_str("  calibration: no calib records (planner uncalibrated)\n");
    } else {
        out.push_str("  calibration by context pair:\n");
        for c in &contexts {
            let tol = c
                .tolerance
                .map_or("uncalibrated".to_string(), |t| t.to_string());
            out.push_str(&format!(
                "    sim={} graph={} samples={} p50={} p95={} max={} tolerance={}\n",
                c.sim_ctx, c.graph_ctx, c.samples, c.p50, c.p95, c.max, tol
            ));
        }
    }
    Ok(out)
}

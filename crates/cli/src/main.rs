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

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use icost_obs_cli::{diff, LedgerSummary, Tolerance};
use uarch_obs::ledger::{KindFilter, LedgerRecord};
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
            let kinds = KindFilter::parse(&kinds);
            let source = match (addr, ledger) {
                (Some(addr), None) => Source::Events {
                    addr,
                    path: match kinds.kinds() {
                        Some(kinds) => format!("/events?kinds={}", kinds.join(",")),
                        None => "/events".to_string(),
                    },
                    token,
                },
                (None, Some(path)) => Source::File { path, follow: true },
                _ => return fail("watch takes exactly one of --addr or --ledger (see --help)"),
            };
            watch(&source, &kinds, limit)
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
            let source = match (addr, args.as_slice()) {
                (Some(addr), []) => Source::Events {
                    addr,
                    path: "/events?kinds=audit".to_string(),
                    token,
                },
                (None, [path]) => Source::File {
                    path: path.clone(),
                    follow: false,
                },
                _ => return fail("audit takes a ledger path or --addr, not both (see --help)"),
            };
            audit(&source, limit, max_refuted)
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

/// Send `GET path` to `addr`, with the bearer token when one is set,
/// and read the response head. Returns the head, the stream, and any
/// body bytes that arrived with the head.
fn get(
    addr: &str,
    path: &str,
    token: Option<String>,
    host: &str,
) -> Result<(String, TcpStream, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let auth = token
        .filter(|t| !t.is_empty())
        .map_or(String::new(), |t| format!("Authorization: Bearer {t}\r\n"));
    let request = format!("GET {path} HTTP/1.1\r\nHost: {host}\r\n{auth}\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                let head = String::from_utf8_lossy(&buf);
                return Err(format!("server closed during response head: {head:?}"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read error: {e}")),
        }
    };
    let body = buf.split_off(head_end);
    Ok((String::from_utf8_lossy(&buf).into_owned(), stream, body))
}

/// The status line of a response head.
fn status_line(head: &str) -> &str {
    head.lines().next().unwrap_or("")
}

/// One plain HTTP GET against a server: require a 200 and read the
/// body to EOF (the server closes after each response).
fn http_get(addr: &str, path: &str, token: Option<String>) -> Result<String, String> {
    let (head, mut stream, mut body) = get(addr, path, token, "flame")?;
    stream
        .read_to_end(&mut body)
        .map_err(|e| format!("read error: {e}"))?;
    let body = String::from_utf8(body).map_err(|e| format!("read error: {e}"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "server refused {path}: {} — {}",
            status_line(&head),
            body.trim()
        ));
    }
    Ok(body)
}

/// Where `watch` and `audit` read ledger lines from.
enum Source {
    /// A JSONL ledger file, read to its end, or followed for appended
    /// lines until the consumer stops.
    File { path: String, follow: bool },
    /// A server's `GET <path>` SSE stream (`/events?kinds=...`).
    Events {
        addr: String,
        path: String,
        token: Option<String>,
    },
}

impl Source {
    /// Feed each ledger line to `on_line` until it returns `true` or the
    /// source ends.
    fn each_line(&self, on_line: impl FnMut(&str) -> bool) -> Result<(), String> {
        match self {
            Source::File {
                path,
                follow: false,
            } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                // The whole file must parse before anything renders.
                let (_, skipped) = uarch_obs::ledger::parse_ledger_lenient(&text)
                    .map_err(|e| format!("{path}: {e}"))?;
                if skipped > 0 {
                    eprintln!("icost-obs: {path}: skipped {skipped} record(s) of unknown kind");
                }
                text.lines().any(on_line);
                Ok(())
            }
            Source::File { path, follow: true } => {
                follow_file(path, on_line);
                Ok(())
            }
            Source::Events { addr, path, token } => {
                stream_events(addr, path, token.clone(), on_line)
            }
        }
    }
}

/// Tail a JSONL file: feed the lines already present, then poll for
/// appended ones, until `on_line` returns `true`.
fn follow_file(path: &str, mut on_line: impl FnMut(&str) -> bool) {
    use std::io::Seek as _;

    let mut pos = 0u64;
    let mut carry = String::new();
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
            if on_line(&line) {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// Connect to a server's SSE endpoint and feed every `data:` payload
/// line to `on_payload` until it returns `true` or the server closes
/// the stream.
fn stream_events(
    addr: &str,
    path: &str,
    token: Option<String>,
    mut on_payload: impl FnMut(&str) -> bool,
) -> Result<(), String> {
    let (head, mut stream, body) = get(addr, path, token, "watch")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("server refused the stream: {}", status_line(&head)));
    }
    // Short read timeouts are ticks, not errors: the stream idles
    // between records.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    eprintln!("icost-obs: watching {addr}{path}");
    let mut buf = String::from_utf8_lossy(&body).into_owned();
    let mut chunk = [0u8; 4096];
    loop {
        // Frames end with a blank line; data lines carry ledger records.
        while let Some(i) = buf.find("\n\n") {
            let frame: String = buf.drain(..i + 2).collect();
            for payload in frame.lines().filter_map(|l| l.strip_prefix("data: ")) {
                if on_payload(payload) {
                    return Ok(());
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                eprintln!("icost-obs: event stream closed by server");
                return Ok(());
            }
            Ok(n) => buf.push_str(&String::from_utf8_lossy(&chunk[..n])),
            Err(e) if would_block(&e) => {}
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The record on one ledger line; `None` for a blank line, a kind this
/// build does not know, or malformed JSON.
fn parse_line(line: &str) -> Option<LedgerRecord> {
    let (records, _) = uarch_obs::ledger::parse_ledger_lenient(line).ok()?;
    records.into_iter().next()
}

fn flush_stdout() {
    let _ = std::io::stdout().flush();
}

/// `icost-obs watch`: render every line that passes the kind filter —
/// a breakdown table per `window` record, one line for other kinds.
fn watch(source: &Source, kinds: &KindFilter, limit: Option<u64>) -> ExitCode {
    let mut rendered = 0u64;
    // An SSE source already filtered server-side; re-checking here makes
    // a pre-filter server stream the same view.
    let result = source.each_line(|line| {
        let line = line.trim();
        if line.is_empty() || !kinds.admits(line) {
            return false;
        }
        match parse_line(line) {
            Some(record) => print!("{}", icost_obs_cli::render_watch_record(&record)),
            // Unknown or malformed kinds still surface raw — watch is a
            // tail, not a validator.
            None => println!("{line}"),
        }
        flush_stdout();
        rendered += 1;
        limit.is_some_and(|n| rendered >= n)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// `icost-obs audit`: render every audit record's waterfall, then
/// report the refuted rate, and exit 1 when it exceeds `--max-refuted`.
fn audit(source: &Source, limit: Option<u64>, max_refuted: Option<f64>) -> ExitCode {
    let mut total = 0u64;
    let mut refuted = 0u64;
    let result = source.each_line(|line| {
        let Some(LedgerRecord::Audit(a)) = parse_line(line) else {
            return false;
        };
        if limit.is_some_and(|n| total >= n) {
            return true;
        }
        print!("{}", uarch_audit::render_waterfall(&a));
        flush_stdout();
        total += 1;
        refuted += u64::from(a.verdict == "refuted");
        limit.is_some_and(|n| total >= n)
    });
    if let Err(e) = result {
        return fail(e);
    }
    if let (0, Source::File { path, .. }) = (total, source) {
        eprintln!("icost-obs: {path}: no audit records (producers emit them under ICOST_AUDIT=1)");
    }
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
    flush_stdout();
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

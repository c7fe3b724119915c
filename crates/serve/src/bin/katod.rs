//! `katod` — the KATO sizing daemon.
//!
//! Speaks newline-delimited JSON: one sizing request per line in, one
//! response line out. Transports:
//!
//! * default — stdin/stdout (pipe requests in, read responses back);
//! * `--socket <path>` — a Unix-domain socket, one connection served at a
//!   time (Unix only);
//! * `--batch` — read *all* of stdin first, run distinct requests
//!   concurrently on the `kato_par` pool, answer in input order.
//!
//! Every transport takes the same request path: a streamed line is a
//! batch of one (`Daemon::handle_line` → `Daemon::handle_batch`), so
//! parsing, caching, panic isolation and persistence behave alike.
//!
//! With `--bank <dir>` every completed run is persisted to the knowledge
//! bank at `<dir>` and new requests warm-start from its best-aligned
//! archive. `KATO_FAILPOINTS` arms fault injection (see
//! `kato_serve::faults`).
//!
//! ```text
//! echo '{"scenario":"opamp2","tech":"40nm","budget":40}' | katod --bank runs/bank
//! ```

use kato_serve::{Bank, Daemon, Failpoints};
use std::io::{self, BufReader};
use std::process::ExitCode;

const USAGE: &str = "katod — KATO sizing daemon (newline-delimited JSON)

USAGE:
    katod [--bank <dir>] [--batch | --socket <path>]

OPTIONS:
    --bank <dir>     persist runs to (and warm-start from) a knowledge bank
    --batch          read all of stdin, run distinct requests concurrently,
                     answer in input order
    --socket <path>  serve a Unix-domain socket instead of stdin/stdout
    --help           print this help

REQUEST:
    {\"id\":\"job-1\",\"scenario\":\"opamp2\",\"tech\":\"40nm\",\"corner\":\"tt\",
     \"specs\":{\"gain_db\":55.0},\"seed\":11,\"budget\":40,\"deadline_ms\":60000}
    add \"yield_samples\":16 to optimise Monte-Carlo mismatch yield instead
    of the nominal circuit (threshold from the scenario preset, or a
    \"yield\" entry in specs)

OPS:
    {\"op\":\"health\"}   report bank/cache/served-job status (no simulations)
";

struct Opts {
    bank: Option<String>,
    batch: bool,
    socket: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        bank: None,
        batch: false,
        socket: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bank" => {
                opts.bank = Some(
                    it.next()
                        .ok_or("--bank requires a directory argument")?
                        .clone(),
                );
            }
            "--socket" => {
                opts.socket = Some(
                    it.next()
                        .ok_or("--socket requires a path argument")?
                        .clone(),
                );
            }
            "--batch" => opts.batch = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.batch && opts.socket.is_some() {
        return Err("--batch and --socket are mutually exclusive".to_string());
    }
    Ok(opts)
}

/// Unlinks the socket file when the serve loop exits (normally or by
/// error), so the next `katod --socket` at the same path starts clean.
#[cfg(unix)]
struct SocketGuard(std::path::PathBuf);

#[cfg(unix)]
impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[cfg(unix)]
fn serve_socket(daemon: &mut Daemon, path: &str) -> io::Result<()> {
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::UnixListener;
    // A stale socket file from a crashed run would make bind fail — but
    // only ever remove an actual socket; a regular file or directory at
    // the path is someone else's data and stays an error.
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => {
            eprintln!("katod: removing stale socket {path}");
            std::fs::remove_file(path)?;
        }
        Ok(_) => {
            return Err(io::Error::other(format!(
                "refusing to replace non-socket file at {path}"
            )));
        }
        Err(_) => {}
    }
    let listener = UnixListener::bind(path)?;
    let _guard = SocketGuard(std::path::PathBuf::from(path));
    eprintln!("katod: listening on {path}");
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        // A client dropping mid-write is its problem, not the daemon's.
        if let Err(e) = daemon.serve(reader, stream) {
            eprintln!("katod: connection error: {e}");
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_daemon: &mut Daemon, _path: &str) -> io::Result<()> {
    Err(io::Error::other("--socket is only supported on Unix"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("katod: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Fault injection for tests and smoke jobs: the only place the
    // failpoint spec is read from the environment.
    let spec = std::env::var("KATO_FAILPOINTS").unwrap_or_default();
    let mut daemon = Daemon::new().with_failpoints(Failpoints::parse(&spec));
    if let Some(dir) = &opts.bank {
        match Bank::open_with_failpoints(dir, Failpoints::parse(&spec)) {
            Ok(bank) => daemon = daemon.with_bank(bank),
            Err(e) => {
                eprintln!("katod: cannot open bank '{dir}': {e}");
                return ExitCode::from(2);
            }
        }
    }

    let result = if let Some(path) = &opts.socket {
        serve_socket(&mut daemon, path)
    } else if opts.batch {
        let mut lines = Vec::new();
        for line in io::stdin().lines() {
            match line {
                Ok(l) if l.trim().is_empty() => {}
                Ok(l) => lines.push(l),
                Err(e) => {
                    eprintln!("katod: stdin error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let responses = daemon.handle_batch(&lines);
        let mut out = io::stdout().lock();
        use std::io::Write as _;
        responses
            .iter()
            .try_for_each(|r| writeln!(out, "{r}"))
            .and_then(|()| out.flush())
    } else {
        let stdin = io::stdin().lock();
        let stdout = io::stdout().lock();
        daemon.serve(stdin, stdout)
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("katod: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The unix-socket front end: a line-oriented control protocol over
//! `UnixListener`, plus the client helpers the CLI subcommands use.
//!
//! A connection carries exactly one command line (`\n`-terminated):
//!
//! * `SUBMIT <name> [shards=N] [chunk=N] [mode=strict|salvage]` — every
//!   byte after the newline is the trace; the reply (written when the
//!   session reaches a terminal state) is its rendered report or an
//!   `error:` line.
//! * `SESSIONS` — one line per session: id, state, cost, records, name.
//! * `FLEET [top]` — the fleet-aggregate report.
//! * `CANCEL <id>` — request cancellation of session `#id`.
//! * `PING` — `pong`.
//! * `SHUTDOWN` — stop accepting, wait for the queue to drain, reply
//!   `ok: idle`, and return from [`serve_socket`].

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;

use crate::serve::{ServeManager, SessionId, SessionSource, SessionSpec};

/// Longest accepted command line, in bytes.
const MAX_COMMAND: usize = 4096;

/// Reads the command line byte-at-a-time so no trace bytes are consumed
/// from the stream (a buffered reader would swallow them).
fn read_command(conn: &mut UnixStream) -> io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = conn.read(&mut byte)?;
        if n == 0 || byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
        if line.len() > MAX_COMMAND {
            return Err(io::Error::other("command line too long"));
        }
    }
    String::from_utf8(line).map_err(|_| io::Error::other("command line is not UTF-8"))
}

/// Parses `key=value` overrides into a per-session pipeline; `None` when
/// no override is present.
fn parse_overrides(
    manager: &ServeManager,
    words: &[&str],
) -> Result<Option<crate::Pipeline>, String> {
    if words.is_empty() {
        return Ok(None);
    }
    let mut pipe = manager.default_pipeline();
    for w in words {
        let Some((key, value)) = w.split_once('=') else {
            return Err(format!("bad override `{w}` (want key=value)"));
        };
        match key {
            "shards" => {
                let n: usize = value.parse().map_err(|_| format!("bad shards `{value}`"))?;
                pipe = pipe.shards(n);
            }
            "chunk" => {
                let n: usize = value.parse().map_err(|_| format!("bad chunk `{value}`"))?;
                pipe = pipe.chunk_records(n);
            }
            "mode" => match value {
                "strict" => pipe = pipe.strict(),
                "salvage" => pipe = pipe.salvage(None),
                other => return Err(format!("bad mode `{other}` (strict|salvage)")),
            },
            other => return Err(format!("unknown override `{other}`")),
        }
    }
    Ok(Some(pipe))
}

/// One line per session, tab-separated, for the `SESSIONS` reply and the
/// `heapdrag sessions` output. The queued/running durations let an
/// operator spot admission stalls: a large `queued_ms` next to a small
/// `run_ms` means the budget or driver count, not the trace, is the
/// bottleneck.
fn render_sessions(manager: &ServeManager) -> String {
    let mut out = String::new();
    for s in manager.sessions() {
        out.push_str(&format!(
            "{}\t{}\tcost={}\trecords={}\tqueued_ms={}\trun_ms={}\t{}{}\n",
            s.id,
            s.state,
            s.cost,
            s.records,
            s.queued_for.as_millis(),
            s.running_for.as_millis(),
            s.name,
            s.error
                .as_deref()
                .map(|e| format!("\t({e})"))
                .unwrap_or_default(),
        ));
    }
    out
}

/// Runs the accept loop on `listener` until a `SHUTDOWN` command
/// arrives. Submissions hand their connection to the session (read half
/// as the trace source, write half as the responder), so a slow trace
/// upload never blocks the accept loop.
///
/// # Errors
///
/// Propagates `accept` failures; per-connection I/O errors only end that
/// connection.
pub fn serve_socket(manager: &ServeManager, listener: &UnixListener) -> io::Result<()> {
    loop {
        let (mut conn, _) = listener.accept()?;
        let line = match read_command(&mut conn) {
            Ok(line) => line,
            Err(_) => continue,
        };
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(&command) = words.first() else {
            continue;
        };
        match command {
            "SUBMIT" => {
                let name = words.get(1).copied().unwrap_or("socket").to_string();
                match parse_overrides(manager, &words[words.len().min(2)..]) {
                    Ok(pipeline) => {
                        let read_half = match conn.try_clone() {
                            Ok(r) => r,
                            Err(_) => continue,
                        };
                        let mut spec =
                            SessionSpec::new(name, SessionSource::Reader(Box::new(read_half)))
                                .responder(Box::new(conn));
                        if let Some(p) = pipeline {
                            spec = spec.pipeline(p);
                        }
                        manager.submit(spec);
                    }
                    Err(e) => {
                        let _ = conn.write_all(format!("error: {e}\n").as_bytes());
                    }
                }
            }
            "SESSIONS" => {
                let _ = conn.write_all(render_sessions(manager).as_bytes());
            }
            "FLEET" => {
                let top = words
                    .get(1)
                    .and_then(|w| w.parse::<usize>().ok())
                    .unwrap_or(10);
                let _ = conn.write_all(manager.fleet_report(top).as_bytes());
            }
            "CANCEL" => {
                let id = words
                    .get(1)
                    .and_then(|w| w.trim_start_matches('#').parse::<u64>().ok());
                let reply = match id {
                    Some(id) if manager.cancel(SessionId(id)) => "ok\n".to_string(),
                    Some(id) => format!("error: session #{id} not cancelable\n"),
                    None => "error: CANCEL needs a session id\n".to_string(),
                };
                let _ = conn.write_all(reply.as_bytes());
            }
            "PING" => {
                let _ = conn.write_all(b"pong\n");
            }
            "SHUTDOWN" => {
                manager.wait_idle();
                let _ = conn.write_all(b"ok: idle\n");
                return Ok(());
            }
            other => {
                let _ = conn.write_all(format!("error: unknown command `{other}`\n").as_bytes());
            }
        }
    }
}

/// Submits a trace over the socket: sends the `SUBMIT` line and the
/// whole `trace`, half-closes the write side, and returns the server's
/// reply (the per-session report, or an `error:` line).
///
/// `overrides` is the raw override words (e.g. `"shards=4 mode=salvage"`)
/// or empty for the server's defaults.
///
/// # Errors
///
/// Propagates connection and copy I/O errors.
pub fn client_submit(
    socket: &Path,
    name: &str,
    overrides: &str,
    trace: &mut dyn Read,
) -> io::Result<String> {
    let mut conn = UnixStream::connect(socket)?;
    let line = if overrides.is_empty() {
        format!("SUBMIT {name}\n")
    } else {
        format!("SUBMIT {name} {overrides}\n")
    };
    conn.write_all(line.as_bytes())?;
    io::copy(trace, &mut conn)?;
    conn.shutdown(std::net::Shutdown::Write)?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)?;
    Ok(reply)
}

/// Sends one non-`SUBMIT` command line and returns the full reply.
///
/// # Errors
///
/// Propagates connection I/O errors.
pub fn client_command(socket: &Path, command: &str) -> io::Result<String> {
    let mut conn = UnixStream::connect(socket)?;
    conn.write_all(command.as_bytes())?;
    conn.write_all(b"\n")?;
    conn.shutdown(std::net::Shutdown::Write)?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)?;
    Ok(reply)
}

//! The `conquer-client` binary: a line-oriented client for conquer-serve.
//!
//! Reads commands from stdin (interactive or piped — the CI smoke job
//! pipes a scripted session). A line starting with `\` is a client
//! command; anything else is SQL sent as a `query`:
//!
//! ```text
//! \set threads 2            session option (threads, timeout_ms,
//!                           mem_limit, max_rows, strategy)
//! \prepare SELECT ...       prepare; prints the statement id
//! \execute 1                execute a prepared statement
//! \close 1                  drop a prepared statement
//! \script CREATE TABLE ...  DDL/DML script (invalidates readers of its tables)
//! \stats                    server statistics (JSON)
//! \ping                     liveness probe
//! \shutdown                 stop the server
//! \quit                     close the session
//! ```

#![forbid(unsafe_code)]

use std::io::{self, BufRead, Write};
use std::process::ExitCode;

use conquer_obs::Json;
use conquer_serve::{Client, ClientError, QueryOutcome};

const USAGE: &str = "usage: conquer-client [--addr HOST:PORT] [--quiet]";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("missing value for --addr\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        println!(
            "connected to conquer-serve {} (session {})",
            client.server_version(),
            client.session()
        );
    }

    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        match run_line(&mut client, line, quiet) {
            Ok(Continue::Yes) => {}
            Ok(Continue::No) => return ExitCode::SUCCESS,
            // Server-side errors are printed and the session continues;
            // transport errors end it.
            Err(e @ ClientError::Io(_)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            Err(e) => println!("error: {e}"),
        }
        let _ = io::stdout().flush();
    }
    // EOF without \quit: close politely.
    let _ = client.quit();
    ExitCode::SUCCESS
}

enum Continue {
    Yes,
    No,
}

fn run_line(client: &mut Client, line: &str, quiet: bool) -> Result<Continue, ClientError> {
    if let Some(command) = line.strip_prefix('\\') {
        let (verb, rest) = command
            .split_once(char::is_whitespace)
            .unwrap_or((command, ""));
        let rest = rest.trim();
        match verb {
            "set" => {
                let (name, value) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| ClientError::Protocol("\\set needs NAME VALUE".into()))?;
                client.set(name, parse_value(value.trim()))?;
                println!("ok");
            }
            "prepare" => {
                let id = client.prepare(rest, None)?;
                println!("prepared {id}");
            }
            "execute" => {
                let id = parse_id(rest)?;
                print_outcome(&client.execute(id)?, quiet);
            }
            "close" => {
                client.close_statement(parse_id(rest)?)?;
                println!("ok");
            }
            "script" => {
                client.script(rest)?;
                println!("ok");
            }
            "stats" => println!("{}", client.stats()?.render_pretty()),
            "ping" => {
                client.ping()?;
                println!("pong");
            }
            "shutdown" => {
                // `shutdown`/`quit` consume the client; run_line borrows it,
                // so send the raw request instead.
                client.roundtrip(&conquer_serve::Request::Shutdown)?;
                println!("server shutting down");
                return Ok(Continue::No);
            }
            "quit" | "q" => {
                client.roundtrip(&conquer_serve::Request::Quit)?;
                println!("bye");
                return Ok(Continue::No);
            }
            other => return Err(ClientError::Protocol(format!("unknown command \\{other}"))),
        }
        return Ok(Continue::Yes);
    }
    print_outcome(&client.query(line)?, quiet);
    Ok(Continue::Yes)
}

fn parse_id(s: &str) -> Result<u64, ClientError> {
    s.parse()
        .map_err(|_| ClientError::Protocol(format!("`{s}` is not a statement id")))
}

/// Bare integers become numbers; everything else is a string.
fn parse_value(s: &str) -> Json {
    match s.parse::<u64>() {
        Ok(v) => Json::UInt(v),
        Err(_) => Json::Str(s.to_string()),
    }
}

fn print_outcome(outcome: &QueryOutcome, quiet: bool) {
    if quiet {
        println!("{} rows", outcome.rows.rows.len());
        return;
    }
    print!("{}", outcome.rows.to_text());
    println!(
        "({} rows, {}, {} us)",
        outcome.rows.rows.len(),
        if outcome.cached { "cached" } else { "uncached" },
        outcome.elapsed_us
    );
}

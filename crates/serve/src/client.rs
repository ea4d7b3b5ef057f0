//! Blocking client for the conquer-serve wire protocol. Used by the
//! `conquer-client` binary, the bench harness's closed-loop load generator,
//! and the end-to-end tests.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use conquer_obs::Json;

use crate::protocol::{
    read_frame, write_frame, ErrorCode, QueryOutcome, Request, Response, Strategy,
};

/// A client-side failure: transport, protocol, or a structured server error.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server answered with a structured error frame.
    Server {
        code: ErrorCode,
        message: String,
    },
}

impl ClientError {
    /// `true` for admission/session-cap rejections — the retryable case.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({}): {message}", code.label())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One connection = one server session. Strictly request/response; every
/// method blocks until the server replies.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    session: u64,
    server_version: String,
}

impl Client {
    /// Connect and consume the `Hello` greeting. An over-capacity server
    /// greets with a `busy` error instead, surfaced as
    /// [`ClientError::is_busy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            session: 0,
            server_version: String::new(),
        };
        match client.read_response()? {
            Response::Hello { session, version } => {
                client.session = session;
                client.server_version = version;
                Ok(client)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected hello, got {other:?}"
            ))),
        }
    }

    /// Server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    pub fn server_version(&self) -> &str {
        &self.server_version
    }

    /// Fail reads that stall longer than `timeout` (e.g. a hung server)
    /// instead of blocking forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.stream)? {
            Some(json) => Response::from_json(&json).map_err(ClientError::Protocol),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Send one request and read its response, surfacing error frames as
    /// [`ClientError::Server`].
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.to_json())?;
        match self.read_response()? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    fn expect_rows(&mut self, request: &Request) -> Result<QueryOutcome, ClientError> {
        match self.roundtrip(request)? {
            Response::Rows(outcome) => Ok(outcome),
            other => Err(ClientError::Protocol(format!(
                "expected rows, got {other:?}"
            ))),
        }
    }

    fn expect_ok(&mut self, request: &Request) -> Result<(), ClientError> {
        match self.roundtrip(request)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!("expected ok, got {other:?}"))),
        }
    }

    /// Run SQL under the session strategy (or an explicit override).
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome, ClientError> {
        self.query_with(sql, None)
    }

    pub fn query_with(
        &mut self,
        sql: &str,
        strategy: Option<Strategy>,
    ) -> Result<QueryOutcome, ClientError> {
        self.expect_rows(&Request::Query {
            sql: sql.to_string(),
            strategy,
        })
    }

    /// Prepare a statement; returns the session-local id for [`execute`](Client::execute).
    pub fn prepare(&mut self, sql: &str, strategy: Option<Strategy>) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Prepare {
            sql: sql.to_string(),
            strategy,
        })? {
            Response::Prepared { statement } => Ok(statement),
            other => Err(ClientError::Protocol(format!(
                "expected prepared, got {other:?}"
            ))),
        }
    }

    pub fn execute(&mut self, statement: u64) -> Result<QueryOutcome, ClientError> {
        self.expect_rows(&Request::Execute { statement })
    }

    pub fn close_statement(&mut self, statement: u64) -> Result<(), ClientError> {
        self.expect_ok(&Request::CloseStatement { statement })
    }

    /// `SET name value` — threads, timeout_ms, mem_limit, max_rows, strategy.
    pub fn set(&mut self, name: &str, value: Json) -> Result<(), ClientError> {
        self.expect_ok(&Request::Set {
            name: name.to_string(),
            value,
        })
    }

    /// Run a `;`-separated DDL/DML script (bumps the version of every
    /// table it touches, so cached statements that read them rebuild).
    pub fn script(&mut self, sql: &str) -> Result<(), ClientError> {
        self.expect_ok(&Request::Script {
            sql: sql.to_string(),
        })
    }

    /// Server/cache/admission/session statistics snapshot.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Flight-recorder summaries for the most recent queries (newest first).
    pub fn trace_recent(&mut self, limit: Option<u64>) -> Result<Json, ClientError> {
        self.expect_traces(&Request::TraceRecent { limit })
    }

    /// The full trace (span tree included) for one recorded query id.
    pub fn trace_get(&mut self, query_id: u64) -> Result<Json, ClientError> {
        self.expect_traces(&Request::TraceGet { query_id })
    }

    fn expect_traces(&mut self, request: &Request) -> Result<Json, ClientError> {
        match self.roundtrip(request)? {
            Response::Traces(traces) => Ok(traces),
            other => Err(ClientError::Protocol(format!(
                "expected traces, got {other:?}"
            ))),
        }
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Ping)
    }

    /// Polite goodbye; the server closes the session after responding.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Quit)
    }

    /// Ask the server to shut down (stop accepting, close sessions).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Shutdown)
    }
}

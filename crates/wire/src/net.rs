//! The sockets the protocol runs on, TCP or Unix: the server's
//! accepted connections and the client's dialed ones are one type.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where a server lives. Parsed from `tcp:HOST:PORT` or `unix:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint spec: `tcp:HOST:PORT` or `unix:PATH`.
    ///
    /// # Errors
    ///
    /// An [`io::ErrorKind::InvalidInput`] error on any other shape.
    pub fn parse(spec: &str) -> io::Result<Self> {
        match spec.split_once(':') {
            Some(("tcp", addr)) if !addr.is_empty() => Ok(Endpoint::Tcp(addr.to_string())),
            Some(("unix", path)) if !path.is_empty() => Ok(Endpoint::Unix(PathBuf::from(path))),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad endpoint '{spec}' (want tcp:HOST:PORT or unix:PATH)"),
            )),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One connected socket. Its methods fail as the socket calls they
/// wrap do.
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-socket connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `endpoint`.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => Stream::tcp(TcpStream::connect(addr.as_str())?),
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        }
    }

    /// Wraps a connected TCP socket with Nagle's algorithm off: frames
    /// are whole messages, so waiting to coalesce them only adds
    /// latency.
    pub fn tcp(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Stream::Tcp(stream))
    }

    /// Another handle to the same socket.
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Bounds every later write on this socket, through any handle: a
    /// write that cannot finish within `timeout` fails instead of
    /// blocking (`None` blocks without bound). A write already blocked
    /// keeps the bound it started with.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            Stream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Shuts the read half: a thread blocked reading this socket, through
    /// any handle, sees end of stream.
    pub fn shutdown_read(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Read),
            Stream::Unix(s) => s.shutdown(Shutdown::Read),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

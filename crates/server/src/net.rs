//! Minimal blocking transport: one listener/stream pair that speaks
//! both TCP (`host:port`) and Unix domain sockets (`unix:/path`).
//!
//! Crate-private plumbing shared by the daemon and the client; all
//! protocol logic stays in [`crate::protocol`].

use std::io::{Read, Result as IoResult, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// Address prefix selecting a Unix domain socket.
const UNIX_PREFIX: &str = "unix:";

/// A bound listening socket.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    /// Binds `addr`: `unix:/path/to.sock` or a TCP `host:port`
    /// (`127.0.0.1:0` picks a free port).
    pub(crate) fn bind(addr: &str) -> IoResult<Listener> {
        if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                // Rebinding a daemon socket path is routine; a stale
                // socket file from a dead daemon must not wedge it.
                let _ = std::fs::remove_file(path);
                return UnixListener::bind(path).map(|l| Listener::Unix(l, addr.to_string()));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        }
        TcpListener::bind(addr).map(Listener::Tcp)
    }

    /// The address the listener actually bound (resolves `:0` ports).
    pub(crate) fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp:?".to_string()),
            #[cfg(unix)]
            Listener::Unix(_, addr) => addr.clone(),
        }
    }

    /// Accepts one connection, returning the stream and a peer label
    /// for logs and fault-injection site ids.
    pub(crate) fn accept(&self) -> IoResult<(Stream, String)> {
        match self {
            Listener::Tcp(l) => {
                let (s, peer) = l.accept()?;
                s.set_nodelay(true)?;
                Ok((Stream::Tcp(s), peer.to_string()))
            }
            #[cfg(unix)]
            Listener::Unix(l, addr) => l
                .accept()
                .map(|(s, _)| (Stream::Unix(s), format!("{addr} peer"))),
        }
    }
}

/// One connected socket. TCP streams disable Nagle's algorithm
/// (`TCP_NODELAY`): both ends write each frame as soon as it is
/// encoded, and a reply is many small frames, so coalescing would hold
/// every frame after the first until the peer's delayed ACK (~40 ms on
/// Linux) instead of sending it at once. Unix sockets never delay.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `addr` (same syntax as [`Listener::bind`]).
    pub(crate) fn connect(addr: &str) -> IoResult<Stream> {
        if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                return UnixStream::connect(path).map(Stream::Unix);
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        }
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    /// Clones the socket handle (independent read/write halves).
    pub(crate) fn try_clone(&self) -> IoResult<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Applies a read timeout (the daemon's slow-loris defense).
    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> IoResult<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Best-effort full shutdown, unblocking any peer reads.
    pub(crate) fn shutdown_both(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> IoResult<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodelay(s: &Stream) -> bool {
        match s {
            Stream::Tcp(s) => s.nodelay().expect("read TCP_NODELAY"),
            #[cfg(unix)]
            Stream::Unix(_) => panic!("expected a TCP stream"),
        }
    }

    #[test]
    fn tcp_streams_disable_nagle_at_both_ends() {
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let client = Stream::connect(&listener.local_addr()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        assert!(nodelay(&client), "connected stream");
        assert!(nodelay(&server), "accepted stream");
        // A cloned half shares the socket, and so the option.
        assert!(nodelay(&server.try_clone().expect("clone")), "cloned half");
    }
}

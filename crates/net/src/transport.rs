//! Real byte transports for live (non-simulated) operation.
//!
//! The simulator ([`crate::tcp`]) drives the *experiments*; this
//! module lets the same protocol stack run over a real TCP socket
//! between processes, with the non-blocking write semantics THINC's
//! flush pipeline needs (§5: the server must detect that a write
//! would block and postpone the command).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the connection.
    Closed,
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// A non-blocking, stream-oriented byte transport.
pub trait Transport {
    /// Attempts to write `data`, returning how many bytes were
    /// accepted (possibly 0 when the transport would block).
    fn try_send(&mut self, data: &[u8]) -> Result<usize, TransportError>;

    /// Attempts to read into `buf`, returning how many bytes were
    /// received (0 when nothing is available yet).
    fn try_recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError>;

    /// Blocks until all of `data` is written (convenience for
    /// clients and tests; the server side should prefer `try_send`).
    fn send_all(&mut self, data: &[u8]) -> Result<(), TransportError> {
        let mut off = 0;
        while off < data.len() {
            match self.try_send(&data[off..])? {
                0 => std::thread::yield_now(),
                n => off += n,
            }
        }
        Ok(())
    }

    /// Blocks until `buf` is completely filled (the receive-side
    /// mirror of [`send_all`](Self::send_all)). A transport failure —
    /// including the peer closing mid-read — surfaces as the typed
    /// error, so callers observe and recover instead of aborting.
    fn recv_exact(&mut self, buf: &mut [u8]) -> Result<(), TransportError> {
        let mut off = 0;
        while off < buf.len() {
            match self.try_recv(&mut buf[off..])? {
                0 => std::thread::yield_now(),
                n => off += n,
            }
        }
        Ok(())
    }
}

/// A [`Transport`] over a real TCP socket (non-blocking mode).
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects to a listening peer.
    pub fn connect(addr: SocketAddr) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted stream.
    pub fn from_stream(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self { stream })
    }

    /// Binds a listener and returns it with its local address
    /// (`port 0` picks a free port).
    pub fn listen(addr: SocketAddr) -> Result<(TcpListener, SocketAddr), TransportError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok((listener, local))
    }

    /// Accepts one connection from `listener` (blocking).
    pub fn accept(listener: &TcpListener) -> Result<Self, TransportError> {
        let (stream, _) = listener.accept()?;
        Self::from_stream(stream)
    }
}

impl Transport for TcpTransport {
    fn try_send(&mut self, data: &[u8]) -> Result<usize, TransportError> {
        match self.stream.write(data) {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => Ok(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    fn try_recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        match self.stream.read(buf) {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => Ok(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_exact_surfaces_peer_close_as_typed_error() -> Result<(), TransportError> {
        let (listener, addr) = TcpTransport::listen("127.0.0.1:0".parse().unwrap())?;
        let server = std::thread::spawn(move || TcpTransport::accept(&listener).map(drop));
        let mut client = TcpTransport::connect(addr)?;
        server.join().expect("server thread completes")?;
        let mut buf = [0u8; 4];
        assert!(matches!(client.recv_exact(&mut buf), Err(TransportError::Closed)));
        Ok(())
    }

    #[test]
    fn tcp_loopback_round_trips() -> Result<(), TransportError> {
        // Every transport failure propagates as a typed
        // `TransportError` — no panicking on the receive path.
        let (listener, addr) = TcpTransport::listen("127.0.0.1:0".parse().unwrap())?;
        let server = std::thread::spawn(move || -> Result<(), TransportError> {
            let mut t = TcpTransport::accept(&listener)?;
            t.send_all(b"from server")
        });
        let mut client = TcpTransport::connect(addr)?;
        let mut got = [0u8; 11];
        client.recv_exact(&mut got)?;
        assert_eq!(&got, b"from server");
        server.join().expect("server thread completes")?;
        Ok(())
    }
}

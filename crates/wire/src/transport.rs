//! Shard transports: splittable duplex connections carrying frames.
//!
//! A federation coordinator drives each remote shard over one
//! bidirectional connection. Commands flow one way while results flow
//! back concurrently, so the connection **splits** into an independent
//! [`FrameSender`] and [`FrameReceiver`] that different threads own.
//! A receiver hands out decoded messages only: a frame's payload is
//! CRC-checked and decoded into a [`Wire`] type before it leaves this
//! crate, so no caller can act on raw received bytes.
//! Both halves count frames and bytes locally — telemetry for batching
//! assertions that deliberately stays out of the scheduler's metrics
//! registry, which must remain bit-identical to an in-process round.
//!
//! Two implementations:
//!
//! - [`DuplexShardTransport`]: a pair of in-memory channels. Frames are
//!   still fully encoded, CRC'd and re-validated on receive, so the
//!   whole codec path is exercised without a socket.
//! - [`TcpShardTransport`]: `std::net` TCP. [`TcpShardTransport::
//!   loopback_pair`] binds an ephemeral loopback listener and connects
//!   both ends, with `TCP_NODELAY` set (batching is the protocol's job,
//!   not Nagle's) and a buffered writer flushed once per frame.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;

use crate::codec::Wire;
use crate::error::WireError;
use crate::frame::{frame, read_frame, unframe, write_frame, FRAME_HEADER_LEN};

/// The sending half of a split shard connection.
pub trait FrameSender: Send {
    /// Sends one frame carrying `payload`.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the peer is gone; [`WireError::Io`]
    /// for transport failures.
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), WireError>;

    /// Frames sent so far on this half.
    fn frames_sent(&self) -> u64;

    /// Bytes sent so far (headers included).
    fn bytes_sent(&self) -> u64;
}

/// The receiving half of a split shard connection.
pub trait FrameReceiver: Send {
    /// Blocks for the next frame and decodes its validated payload as
    /// exactly one `M`.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] at end of stream; [`WireError::BadMagic`],
    /// [`WireError::BadCrc`] and friends for corrupt frames;
    /// [`WireError::Io`] for transport failures; any decode error
    /// (including [`WireError::TrailingBytes`]) when the payload is not
    /// one well-formed `M`.
    fn recv<M: Wire>(&mut self) -> Result<M, WireError>;

    /// Frames received so far on this half.
    fn frames_received(&self) -> u64;

    /// Bytes received so far (headers included).
    fn bytes_received(&self) -> u64;
}

/// One end of a coordinator↔shard connection, splittable into
/// independently-owned send and receive halves.
pub trait ShardTransport {
    /// The sending half after a split.
    type Tx: FrameSender;
    /// The receiving half after a split.
    type Rx: FrameReceiver;

    /// Splits the connection for concurrent send and receive.
    fn split(self) -> (Self::Tx, Self::Rx);
}

// ---------------------------------------------------------------------------
// In-memory duplex

/// In-memory shard connection: two crossed unbounded channels moving
/// fully-encoded frames. The identity-speed transport for equivalence
/// tests — every byte still passes through `frame`/`unframe`, so CRC
/// and codec behaviour match the socket path exactly.
#[derive(Debug)]
pub struct DuplexShardTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

impl DuplexShardTransport {
    /// A connected pair of ends: what one sends, the other receives.
    pub fn pair() -> (DuplexShardTransport, DuplexShardTransport) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (
            DuplexShardTransport { tx: a_tx, rx: a_rx },
            DuplexShardTransport { tx: b_tx, rx: b_rx },
        )
    }
}

impl ShardTransport for DuplexShardTransport {
    type Tx = DuplexSender;
    type Rx = DuplexReceiver;

    fn split(self) -> (DuplexSender, DuplexReceiver) {
        (
            DuplexSender {
                tx: self.tx,
                frames: 0,
                bytes: 0,
            },
            DuplexReceiver {
                rx: self.rx,
                frames: 0,
                bytes: 0,
            },
        )
    }
}

/// Sending half of a [`DuplexShardTransport`].
#[derive(Debug)]
pub struct DuplexSender {
    tx: mpsc::Sender<Vec<u8>>,
    frames: u64,
    bytes: u64,
}

impl FrameSender for DuplexSender {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let framed = frame(payload);
        self.frames += 1;
        self.bytes += framed.len() as u64;
        self.tx.send(framed).map_err(|_| WireError::Closed)
    }

    fn frames_sent(&self) -> u64 {
        self.frames
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes
    }
}

/// Receiving half of a [`DuplexShardTransport`].
#[derive(Debug)]
pub struct DuplexReceiver {
    rx: mpsc::Receiver<Vec<u8>>,
    frames: u64,
    bytes: u64,
}

impl FrameReceiver for DuplexReceiver {
    fn recv<M: Wire>(&mut self) -> Result<M, WireError> {
        let framed = self.rx.recv().map_err(|_| WireError::Closed)?;
        self.frames += 1;
        self.bytes += framed.len() as u64;
        M::from_wire(unframe(&framed)?)
    }

    fn frames_received(&self) -> u64 {
        self.frames
    }

    fn bytes_received(&self) -> u64 {
        self.bytes
    }
}

// ---------------------------------------------------------------------------
// TCP

/// TCP shard connection. Both stream halves are cloned at construction
/// so [`ShardTransport::split`] is infallible.
#[derive(Debug)]
pub struct TcpShardTransport {
    write: TcpStream,
    read: TcpStream,
}

impl TcpShardTransport {
    /// Wraps an established stream (e.g. an accepted connection).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the stream cannot be cloned or
    /// `TCP_NODELAY` cannot be set.
    pub fn from_stream(stream: TcpStream) -> Result<Self, WireError> {
        stream.set_nodelay(true)?;
        let read = stream.try_clone()?;
        Ok(TcpShardTransport {
            write: stream,
            read,
        })
    }

    /// A connected loopback pair on an ephemeral port: binds
    /// `127.0.0.1:0`, connects, accepts, and wraps both ends.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the loopback listener cannot be bound or
    /// connected.
    pub fn loopback_pair() -> Result<(TcpShardTransport, TcpShardTransport), WireError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let client = TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        Ok((
            TcpShardTransport::from_stream(server)?,
            TcpShardTransport::from_stream(client)?,
        ))
    }
}

impl ShardTransport for TcpShardTransport {
    type Tx = TcpSender;
    type Rx = TcpReceiver;

    fn split(self) -> (TcpSender, TcpReceiver) {
        (
            TcpSender {
                writer: BufWriter::new(self.write),
                frames: 0,
                bytes: 0,
            },
            TcpReceiver {
                reader: BufReader::new(self.read),
                frames: 0,
                bytes: 0,
            },
        )
    }
}

/// Sending half of a [`TcpShardTransport`]: buffered, flushed per
/// frame — one syscall per frame, however many messages it batches.
#[derive(Debug)]
pub struct TcpSender {
    writer: BufWriter<TcpStream>,
    frames: u64,
    bytes: u64,
}

impl FrameSender for TcpSender {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), WireError> {
        write_frame(&mut self.writer, payload)?;
        self.writer.flush()?;
        self.frames += 1;
        self.bytes += (FRAME_HEADER_LEN + payload.len()) as u64;
        Ok(())
    }

    fn frames_sent(&self) -> u64 {
        self.frames
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes
    }
}

/// Receiving half of a [`TcpShardTransport`].
#[derive(Debug)]
pub struct TcpReceiver {
    reader: BufReader<TcpStream>,
    frames: u64,
    bytes: u64,
}

impl FrameReceiver for TcpReceiver {
    fn recv<M: Wire>(&mut self) -> Result<M, WireError> {
        let payload = read_frame(&mut self.reader)?;
        self.frames += 1;
        self.bytes += (FRAME_HEADER_LEN + payload.len()) as u64;
        M::from_wire(&payload)
    }

    fn frames_received(&self) -> u64 {
        self.frames
    }

    fn bytes_received(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<C: ShardTransport>(a: C, b: C)
    where
        C::Tx: 'static,
        C::Rx: 'static,
    {
        let (mut a_tx, mut a_rx) = a.split();
        let (mut b_tx, mut b_rx) = b.split();
        // Full-duplex: both directions concurrently.
        let t = std::thread::spawn(move || {
            for i in 0..100u8 {
                b_tx.send_frame(&vec![i; 33].to_wire()).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(b_rx.recv::<Vec<u8>>().unwrap());
            }
            (b_tx, b_rx, got)
        });
        for i in 0..100u8 {
            a_tx.send_frame(&vec![i ^ 0xFF; 7].to_wire()).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(a_rx.recv::<Vec<u8>>().unwrap());
        }
        let (b_tx, mut b_rx, b_got) = t.join().unwrap();
        for (i, payload) in got.iter().enumerate() {
            assert_eq!(payload.as_slice(), &[i as u8; 33]);
        }
        for (i, payload) in b_got.iter().enumerate() {
            assert_eq!(payload.as_slice(), &[(i as u8) ^ 0xFF; 7]);
        }
        assert_eq!(a_tx.frames_sent(), 100);
        assert_eq!(b_tx.frames_sent(), 100);
        assert!(a_tx.bytes_sent() >= 100 * (FRAME_HEADER_LEN as u64 + 8));
        // A frame whose payload is not one whole message is a decode
        // error, not a partial value.
        a_tx.send_frame(&[3, 1, 2]).unwrap();
        assert!(matches!(
            b_rx.recv::<Vec<u8>>(),
            Err(WireError::BadLength { .. })
        ));
        // Dropping the peer's halves closes the stream.
        drop(a_tx);
        drop(a_rx);
        assert!(b_rx.recv::<Vec<u8>>().is_err());
    }

    #[test]
    fn duplex_pair_moves_frames_both_ways() {
        let (a, b) = DuplexShardTransport::pair();
        exercise(a, b);
    }

    #[test]
    fn tcp_loopback_pair_moves_frames_both_ways() {
        let (a, b) = TcpShardTransport::loopback_pair().unwrap();
        exercise(a, b);
    }

    #[test]
    fn duplex_receiver_validates_crc() {
        let (a, b) = DuplexShardTransport::pair();
        // Send a corrupted frame by hand.
        let mut framed = frame(&b"payload".to_vec().to_wire());
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        a.tx.send(framed).unwrap();
        let (_tx, mut rx) = b.split();
        assert!(matches!(
            rx.recv::<Vec<u8>>(),
            Err(WireError::BadCrc { .. })
        ));
    }
}

//! Line I/O over one non-blocking socket: budgeted, framed reads in;
//! an ordered write buffer out. Every line-speaking connection the
//! reactor core drives is one of these — engine clients, router
//! clients and the router's backend links alike. Protocol meaning
//! lives with the caller; this type only moves bytes.

use crate::framing::{LineEvent, LineFramer};
use crate::poller::{Interest, Poller};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Instant;

/// How much we try to read per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Byte budget per [`LineConn::read_ready`] invocation. A peer that
/// streams lines continuously must not pin the reactor in one read
/// loop: the poller is level-triggered, so leftover input re-reports
/// readable on the next iteration — after every other connection got
/// its turn and backpressure had a chance to evict.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// Compact the write buffer once this many bytes are dead at its front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

pub struct LineConn {
    stream: TcpStream,
    framer: LineFramer,
    /// Deliver an unterminated final line at EOF. Client input gets it
    /// (parity with the pipe transport's `FrameReader`); a backend
    /// *response* without its newline was cut mid-write, so handing it
    /// on would answer a client with garbage.
    deliver_tail: bool,
    out_buf: Vec<u8>,
    out_pos: usize,
    /// Peer closed its write half; we may still owe it output.
    pub eof: bool,
    /// I/O failed — close as soon as the owner sees it.
    pub failed: bool,
    pub last_activity: Instant,
    /// Interest currently registered with the poller.
    pub interest: Interest,
}

impl LineConn {
    pub fn new(stream: TcpStream, max_frame: usize, deliver_tail: bool) -> Self {
        LineConn {
            stream,
            framer: LineFramer::new(max_frame),
            deliver_tail,
            out_buf: Vec::new(),
            out_pos: 0,
            eof: false,
            failed: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
        }
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads up to [`READ_BUDGET`] bytes, handing each completed frame
    /// to `sink`. Never blocks; stops at `WouldBlock`, EOF or the
    /// budget. Returns bytes read.
    pub fn read_ready(&mut self, mut sink: impl FnMut(LineEvent)) -> u64 {
        let mut chunk = [0u8; READ_CHUNK];
        let mut total = 0usize;
        while total < READ_BUDGET {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    if self.deliver_tail {
                        self.framer.finish(&mut sink);
                    }
                    break;
                }
                Ok(n) => {
                    total += n;
                    self.last_activity = Instant::now();
                    self.framer.push(&chunk[..n], &mut sink);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.failed = true;
                    break;
                }
            }
        }
        total as u64
    }

    /// Appends one line (plus its newline) to the write buffer.
    pub fn queue(&mut self, line: &str) {
        self.out_buf.extend_from_slice(line.as_bytes());
        self.out_buf.push(b'\n');
    }

    /// Writes as much buffered output as the socket accepts. Never
    /// blocks. Returns bytes written.
    pub fn flush(&mut self) -> u64 {
        let n = write_pending(
            &mut self.stream,
            &self.out_buf,
            &mut self.out_pos,
            &mut self.failed,
        );
        if n > 0 {
            self.last_activity = Instant::now();
        }
        if self.out_pos == self.out_buf.len() {
            self.out_buf.clear();
            self.out_pos = 0;
        } else if self.out_pos > COMPACT_THRESHOLD {
            self.out_buf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        n
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn buffered(&self) -> usize {
        self.out_buf.len() - self.out_pos
    }

    /// Re-registers with `poller` when `want` differs from the current
    /// interest.
    pub fn set_interest(
        &mut self,
        poller: &mut Poller,
        token: u64,
        want: Interest,
    ) -> io::Result<()> {
        if want != self.interest {
            poller.modify(self.fd(), token, want)?;
            self.interest = want;
        }
        Ok(())
    }
}

/// Writes `buf[*pos..]` until the socket would block, advancing `pos`;
/// sets `failed` on a write error or a zero-length write. Returns bytes
/// written.
pub(crate) fn write_pending(
    stream: &mut TcpStream,
    buf: &[u8],
    pos: &mut usize,
    failed: &mut bool,
) -> u64 {
    let start = *pos;
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => {
                *failed = true;
                break;
            }
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                *failed = true;
                break;
            }
        }
    }
    (*pos - start) as u64
}

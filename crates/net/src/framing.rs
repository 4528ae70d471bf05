//! Newline framing over non-blocking byte streams, with a frame-size
//! cap.
//!
//! Every line-speaking connection reads through it (via `LineConn`):
//! engine and router clients alike, and the router's backend links.
//! A frame longer than the cap is reported
//! once as [`LineEvent::Oversized`] and discarded through its
//! terminating newline, so one bad frame costs one error response, not
//! the connection. This is the non-blocking twin of the pipe
//! transport's `FrameReader` in `freqywm_service::proto` and enforces
//! the same semantics.

/// One framing outcome delivered to the caller's sink.
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line (without the trailing newline), decoded lossily.
    Line(String),
    /// A line longer than the cap; its bytes are being discarded
    /// through the terminating newline.
    Oversized,
}

/// Incremental newline splitter with an input frame-size cap.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Prefix of `buf` already searched for a newline: each byte is
    /// scanned once, however many reads a frame arrives in.
    scanned: usize,
    max_frame: usize,
    /// Discarding an oversized frame until its terminating newline.
    skipping: bool,
}

impl LineFramer {
    pub fn new(max_frame: usize) -> Self {
        LineFramer {
            buf: Vec::new(),
            scanned: 0,
            max_frame,
            skipping: false,
        }
    }

    /// Feeds freshly read bytes, invoking `sink` once per completed
    /// frame (in input order).
    pub fn push(&mut self, bytes: &[u8], mut sink: impl FnMut(LineEvent)) {
        self.buf.extend_from_slice(bytes);
        let mut start = 0;
        let mut from = self.scanned;
        while let Some(rel) = self.buf[from..].iter().position(|&b| b == b'\n') {
            let end = from + rel;
            if self.skipping {
                // Tail of a frame whose prefix already overflowed.
                self.skipping = false;
            } else if end - start > self.max_frame {
                sink(LineEvent::Oversized);
            } else {
                let line = String::from_utf8_lossy(&self.buf[start..end]).into_owned();
                sink(LineEvent::Line(line));
            }
            start = end + 1;
            from = start;
        }
        if start > 0 {
            self.buf.drain(..start);
        }
        if self.skipping {
            // No newline left: every byte belongs to the frame being
            // discarded.
            self.buf.clear();
        } else if self.buf.len() > self.max_frame {
            // Overflow before any newline: report now, discard until
            // the frame eventually terminates.
            sink(LineEvent::Oversized);
            self.skipping = true;
            self.buf.clear();
        }
        self.scanned = self.buf.len();
    }

    /// Flushes the unterminated tail at EOF: a final line without a
    /// trailing newline is still delivered. (An oversized tail already
    /// got its event when the overflow was detected.)
    pub fn finish(&mut self, mut sink: impl FnMut(LineEvent)) {
        self.scanned = 0;
        if self.skipping {
            self.skipping = false;
            self.buf.clear();
        } else if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            sink(LineEvent::Line(String::from_utf8_lossy(&tail).into_owned()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(framer: &mut LineFramer, bytes: &[u8]) -> Vec<LineEvent> {
        let mut out = Vec::new();
        framer.push(bytes, |e| out.push(e));
        out
    }

    #[test]
    fn splits_lines_across_chunk_boundaries() {
        let mut f = LineFramer::new(64);
        assert_eq!(collect(&mut f, b"hel"), vec![]);
        assert_eq!(
            collect(&mut f, b"lo\nwor"),
            vec![LineEvent::Line("hello".into())]
        );
        assert_eq!(
            collect(&mut f, b"ld\n"),
            vec![LineEvent::Line("world".into())]
        );
    }

    #[test]
    fn oversized_frame_reported_once_and_skipped() {
        let mut f = LineFramer::new(4);
        let mut events = collect(&mut f, b"toolongline");
        assert_eq!(events, vec![LineEvent::Oversized]);
        // The discarded frame's bytes are dropped as they arrive, not
        // buffered until its newline.
        events = collect(&mut f, b"stillgoing");
        assert_eq!(events, vec![]);
        assert!(f.buf.is_empty());
        events = collect(&mut f, b"andgoing\nok\n");
        assert_eq!(events, vec![LineEvent::Line("ok".into())]);
    }

    #[test]
    fn finish_flushes_tail_without_newline() {
        let mut f = LineFramer::new(64);
        assert_eq!(collect(&mut f, b"a\nb"), vec![LineEvent::Line("a".into())]);
        let mut out = Vec::new();
        f.finish(|e| out.push(e));
        assert_eq!(out, vec![LineEvent::Line("b".into())]);
    }

    #[test]
    fn a_frame_trickled_byte_by_byte_is_scanned_once() {
        // Each push resumes the newline search where the last one
        // stopped, so a frame arriving in k reads costs O(len), not
        // O(k·len).
        let frame = vec![b'x'; 64 * 1024];
        let mut f = LineFramer::new(frame.len());
        for b in &frame {
            assert_eq!(collect(&mut f, std::slice::from_ref(b)), vec![]);
            assert_eq!(f.scanned, f.buf.len());
        }
        let want = String::from_utf8(frame).unwrap();
        assert_eq!(collect(&mut f, b"\n"), vec![LineEvent::Line(want)]);
        // A byte inside the scanned prefix is never searched again: a
        // newline planted there goes unseen.
        f.buf = b"a\nb".to_vec();
        f.scanned = f.buf.len();
        assert_eq!(collect(&mut f, b"c"), vec![]);
        assert_eq!(f.scanned, 4);
    }

    #[test]
    fn finish_discards_oversized_tail() {
        let mut f = LineFramer::new(4);
        assert_eq!(collect(&mut f, b"overflowing"), vec![LineEvent::Oversized]);
        let mut out = Vec::new();
        f.finish(|e| out.push(e));
        assert!(out.is_empty());
    }
}

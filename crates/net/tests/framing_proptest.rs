//! Property tests for [`LineFramer`]: how reads happen to be chunked
//! must never change what a connection sees, and the frame cap holds
//! for every delivered line.

use freqywm_net::{LineEvent, LineFramer};
use proptest::prelude::*;

/// Bytes that exercise the framer: plain text, newlines, and bytes
/// that are not valid UTF-8 on their own.
fn byte_strategy() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(
        sample::select(vec![
            b'a', b'{', b'"', b'\n', b'\n', b'\r', 0xC3, 0xA9, 0xFF,
        ]),
        0..400,
    )
}

fn frame(max_frame: usize, chunks: &[&[u8]]) -> Vec<LineEvent> {
    let mut framer = LineFramer::new(max_frame);
    let mut events = Vec::new();
    for chunk in chunks {
        framer.push(chunk, |e| events.push(e));
    }
    framer.finish(|e| events.push(e));
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunking_never_changes_the_events(
        bytes in byte_strategy(),
        cuts in collection::vec(0usize..400, 0..12),
        max_frame in 1usize..48,
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut chunks = Vec::new();
        let mut start = 0;
        for cut in cuts {
            chunks.push(&bytes[start..cut]);
            start = cut;
        }
        chunks.push(&bytes[start..]);
        prop_assert_eq!(frame(max_frame, &chunks), frame(max_frame, &[&bytes]));
    }

    /// Lossy decoding maps each undecodable byte to one U+FFFD, so a
    /// frame of at most `max_frame` bytes decodes to at most
    /// `max_frame` chars.
    #[test]
    fn no_delivered_line_exceeds_the_cap(bytes in byte_strategy(), max_frame in 1usize..48) {
        for event in frame(max_frame, &[&bytes]) {
            if let LineEvent::Line(line) = event {
                prop_assert!(line.chars().count() <= max_frame, "{:?}", line);
            }
        }
    }
}

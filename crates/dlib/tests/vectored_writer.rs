//! The vectored writer against the byte-identity oracle.
//!
//! `Reply::write_to` / `Call::write_to` never build the message they send;
//! `Reply::encode` / `Call::encode` build it and never send it. Whatever
//! the payload's segmentation, and however badly the sink behaves — short
//! writes that end mid-prefix, mid-header or mid-segment, `Interrupted`
//! between them — the bytes on the wire must be `len ‖ encode()`.

use bytes::Bytes;
use dlib::wire::write_frame_parts;
use dlib::{Call, Payload, Reply};
use proptest::prelude::*;
use std::io::{ErrorKind, IoSlice, Write};

/// Accepts between 1 and `most` bytes per call, as told by `script`
/// (cycled), and answers `Interrupted` instead whenever the script byte
/// is a multiple of 5 — but never twice in a row, so progress is certain.
struct Dribble {
    wire: Vec<u8>,
    most: usize,
    script: Vec<u8>,
    calls: usize,
    interrupted_last: bool,
}

impl Dribble {
    fn new(most: usize, script: Vec<u8>) -> Dribble {
        Dribble {
            wire: Vec::new(),
            most,
            script,
            calls: 0,
            interrupted_last: false,
        }
    }
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let roll = self.script[self.calls % self.script.len()];
        self.calls += 1;
        if roll.is_multiple_of(5) && !self.interrupted_last {
            self.interrupted_last = true;
            return Err(ErrorKind::Interrupted.into());
        }
        self.interrupted_last = false;
        let mut room = 1 + usize::from(roll) % self.most;
        let before = self.wire.len();
        for buf in bufs {
            let take = buf.len().min(room);
            self.wire.extend_from_slice(&buf[..take]);
            room -= take;
        }
        Ok(self.wire.len() - before)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        panic!("the send path must not flush: its sink is the socket");
    }
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

fn rope(segments: &[Vec<u8>]) -> Payload {
    let segments = segments.iter().cloned().map(Bytes::from).collect();
    Payload { segments }
}

fn segmentations() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..12)
}

fn sinks() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (1usize..48, proptest::collection::vec(any::<u8>(), 1..32))
}

proptest! {
    #[test]
    fn reply_on_the_wire_is_len_then_encode(
        seq in any::<u64>(),
        segments in segmentations(),
        (most, script) in sinks(),
    ) {
        let reply = Reply::ok(seq, rope(&segments));
        let mut sink = Dribble::new(most, script);
        reply.write_to(&mut sink).unwrap();
        prop_assert_eq!(sink.wire, framed(&reply.encode()));
        // Segmentation is invisible: the joined payload is the same reply.
        prop_assert_eq!(&reply, &Reply::ok(seq, Bytes::from(segments.concat())));
    }

    #[test]
    fn call_on_the_wire_is_len_then_encode(
        seq in any::<u64>(),
        procedure in any::<u32>(),
        args in proptest::collection::vec(any::<u8>(), 0..200),
        (most, script) in sinks(),
    ) {
        let call = Call { seq, procedure, args: Bytes::from(args) };
        let mut sink = Dribble::new(most, script);
        call.write_to(&mut sink).unwrap();
        prop_assert_eq!(sink.wire, framed(&call.encode()));
    }

    /// The chaos transport's torn frame: full length announced, a prefix
    /// of the payload delivered, wherever the cut falls in the rope.
    #[test]
    fn truncated_frame_announces_all_and_sends_a_prefix(
        head in proptest::collection::vec(any::<u8>(), 0..20),
        segments in segmentations(),
        keep in 0usize..320,
        (most, script) in sinks(),
    ) {
        let whole = [head.clone(), segments.concat()].concat();
        let mut sink = Dribble::new(most, script);
        write_frame_parts(&mut sink, &head, &segments, keep).unwrap();
        let mut expect = framed(&whole);
        expect.truncate(4 + keep.min(whole.len()));
        prop_assert_eq!(sink.wire, expect);
    }
}

#[test]
fn edge_segmentations_match_the_oracle() {
    let wide: Vec<Vec<u8>> = (0..300u32)
        .map(|i| vec![i as u8; (i % 7) as usize])
        .collect();
    let cases: [Vec<Vec<u8>>; 5] = [
        vec![],                              // no segments at all
        vec![vec![], vec![], vec![]],        // only empty segments
        vec![vec![9; 1]],                    // one byte, one segment
        vec![vec![], vec![1, 2, 3], vec![]], // empties around the data
        wide,                                // 300 segments, every 7th empty
    ];
    for segments in cases {
        let reply = Reply::ok(7, rope(&segments));
        assert_eq!(reply.payload.len(), segments.concat().len());
        for most in [1, 3, 4096] {
            let mut sink = Dribble::new(most, vec![0, 1, 7, 10, 13]);
            reply.write_to(&mut sink).unwrap();
            assert_eq!(sink.wire, framed(&reply.encode()));
        }
    }
}

/// On a sink that takes everything offered, a message is exactly one
/// vectored write — the property the 40 ms stall was the absence of.
#[test]
fn a_message_is_one_write_when_the_sink_keeps_up() {
    struct Greedy {
        wire: Vec<u8>,
        calls: usize,
    }
    impl Write for Greedy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            self.wire.write_vectored(bufs)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let segments: Vec<Vec<u8>> = (0..5).map(|i| vec![i; 1000]).collect();
    let reply = Reply::ok(1, rope(&segments));
    let mut sink = Greedy {
        wire: Vec::new(),
        calls: 0,
    };
    reply.write_to(&mut sink).unwrap();
    assert_eq!(sink.calls, 1);
    assert_eq!(sink.wire, framed(&reply.encode()));
}

//! The call/reply envelope.
//!
//! A dlib *call* names a remote procedure by numeric id and carries opaque
//! argument bytes; the *reply* echoes the client's sequence number so the
//! blocking client can match responses, and carries a status plus opaque
//! result bytes. Argument/result encoding is the caller's business (the
//! windtunnel layers its own command encoding on top), exactly as the
//! original dlib generated stubs around untyped transport.

use crate::wire::{len_u32, write_frame_parts, WireReader, WireWrite};
use crate::{DlibError, Result};
use bytes::{Bytes, BytesMut};
use std::io::Write;

/// Outcome of a remote call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// No such procedure registered.
    UnknownProcedure,
    /// The procedure itself failed; the payload carries a message.
    Error,
    /// The server's dispatch queue was full; the call was shed without
    /// executing. The connection stays healthy — retry after backoff.
    Busy,
}

impl Status {
    fn to_u32(self) -> u32 {
        match self {
            Status::Ok => 0,
            Status::UnknownProcedure => 1,
            Status::Error => 2,
            Status::Busy => 3,
        }
    }

    fn from_u32(v: u32) -> Result<Status> {
        match v {
            0 => Ok(Status::Ok),
            1 => Ok(Status::UnknownProcedure),
            2 => Ok(Status::Error),
            3 => Ok(Status::Busy),
            n => Err(DlibError::Protocol(format!("bad status {n}"))),
        }
    }
}

/// A message body as a short rope of refcounted segments: a procedure
/// holding its result in pieces (header, cached blobs, tail) returns the
/// pieces and one `writev` sends them unjoined. Segmentation is invisible
/// on the wire and to `==` (which joins; only tests compare replies).
#[derive(Debug, Clone, Default)]
pub struct Payload {
    /// In wire order.
    pub segments: Vec<Bytes>,
}

impl Payload {
    pub fn len(&self) -> usize {
        self.segments.iter().map(Bytes::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The body as one buffer: free for a single segment (every decoded
    /// message), a concatenating copy otherwise.
    pub fn into_bytes(mut self) -> Bytes {
        match self.segments.len() {
            1 => self.segments.pop().unwrap_or_default(),
            _ => Bytes::from(self.segments.concat()),
        }
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        Payload { segments: vec![b] }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.segments.concat() == other.segments.concat()
    }
}

/// Bytes of envelope header ahead of a call's args or a reply's body.
pub(crate) const ENVELOPE_LEN: usize = 16;

/// Send one call or reply: the envelope header (`seq`, procedure id or
/// status, body length) from the stack, the body by reference.
pub(crate) fn write_envelope<B: AsRef<[u8]>>(
    w: &mut impl Write,
    seq: u64,
    tag: u32,
    body: &[B],
    keep: usize,
) -> Result<()> {
    let body_len = body.iter().map(|b| b.as_ref().len()).sum();
    let mut head = [0u8; ENVELOPE_LEN];
    head[..8].copy_from_slice(&seq.to_le_bytes());
    head[8..12].copy_from_slice(&tag.to_le_bytes());
    head[12..].copy_from_slice(&len_u32(body_len).to_le_bytes());
    write_frame_parts(w, &head, body, keep)
}

/// A remote procedure call.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Client-chosen sequence number, echoed in the reply.
    pub seq: u64,
    /// Procedure id (the windtunnel defines its own registry of ids).
    pub procedure: u32,
    /// Opaque argument bytes.
    pub args: Bytes,
}

impl Call {
    /// Frame and send this call with one vectored write.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        write_envelope(w, self.seq, self.procedure, &[&self.args], usize::MAX)
    }

    /// The oracle tests hold [`Call::write_to`] to; nothing sends it.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16 + self.args.len());
        b.put_u64_le_(self.seq);
        b.put_u32_le_(self.procedure);
        b.put_bytes_(&self.args);
        b.freeze()
    }

    pub fn decode(buf: Bytes) -> Result<Call> {
        let mut r = WireReader::new(&buf);
        let seq = r.u64_le()?;
        let procedure = r.u32_le()?;
        let len = r.u32_le()? as usize;
        if r.remaining() < len {
            return Err(DlibError::Protocol("truncated call args".into()));
        }
        if r.remaining() != len {
            return Err(DlibError::Protocol("trailing bytes after call".into()));
        }
        // Zero-copy: the args are a view of the incoming frame buffer.
        let args = buf.slice(buf.len() - len..);
        Ok(Call {
            seq,
            procedure,
            args,
        })
    }
}

/// Reply to a [`Call`].
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub seq: u64,
    pub status: Status,
    pub payload: Payload,
}

impl Reply {
    pub fn ok(seq: u64, payload: impl Into<Payload>) -> Reply {
        Reply {
            seq,
            status: Status::Ok,
            payload: payload.into(),
        }
    }

    pub fn error(seq: u64, message: &str) -> Reply {
        Reply {
            seq,
            status: Status::Error,
            payload: Bytes::copy_from_slice(message.as_bytes()).into(),
        }
    }

    /// Shed-load reply: the call named by `seq` never ran.
    pub fn busy(seq: u64) -> Reply {
        Reply {
            seq,
            status: Status::Busy,
            payload: Payload::default(),
        }
    }

    /// Frame and send this reply with one vectored write.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        let tag = self.status.to_u32();
        write_envelope(w, self.seq, tag, &self.payload.segments, usize::MAX)
    }

    /// The oracle tests hold [`Reply::write_to`] to; nothing sends it.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(20 + self.payload.len());
        b.put_u64_le_(self.seq);
        b.put_u32_le_(self.status.to_u32());
        b.put_bytes_(&self.payload.clone().into_bytes());
        b.freeze()
    }

    pub fn decode(buf: Bytes) -> Result<Reply> {
        let mut r = WireReader::new(&buf);
        let seq = r.u64_le()?;
        let status = Status::from_u32(r.u32_le()?)?;
        let len = r.u32_le()? as usize;
        if r.remaining() < len {
            return Err(DlibError::Protocol("truncated reply payload".into()));
        }
        if r.remaining() != len {
            return Err(DlibError::Protocol("trailing bytes after reply".into()));
        }
        // Zero-copy: the payload is a view of the incoming frame buffer.
        let payload = buf.slice(buf.len() - len..).into();
        Ok(Reply {
            seq,
            status,
            payload,
        })
    }

    /// Convert into the caller-facing result.
    pub fn into_result(self) -> Result<Bytes> {
        match self.status {
            Status::Ok => Ok(self.payload.into_bytes()),
            Status::UnknownProcedure => Err(DlibError::Remote("unknown procedure".into())),
            Status::Error => Err(DlibError::Remote(
                String::from_utf8_lossy(&self.payload.into_bytes()).into_owned(),
            )),
            Status::Busy => Err(DlibError::Busy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_roundtrip() {
        let c = Call {
            seq: 77,
            procedure: 3,
            args: Bytes::from_static(b"argbytes"),
        };
        let back = Call::decode(c.encode()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn reply_roundtrip() {
        let r = Reply::ok(5, Bytes::from_static(b"result"));
        assert_eq!(Reply::decode(r.encode()).unwrap(), r);
        let e = Reply::error(6, "boom");
        assert_eq!(Reply::decode(e.encode()).unwrap(), e);
    }

    #[test]
    fn reply_into_result() {
        assert_eq!(
            Reply::ok(1, Bytes::from_static(b"x"))
                .into_result()
                .unwrap(),
            Bytes::from_static(b"x")
        );
        assert!(matches!(
            Reply::error(1, "bad").into_result(),
            Err(DlibError::Remote(m)) if m == "bad"
        ));
        let unknown = Reply {
            status: Status::UnknownProcedure,
            ..Reply::busy(1)
        };
        assert!(matches!(
            unknown.into_result(),
            Err(DlibError::Remote(m)) if m == "unknown procedure"
        ));
    }

    #[test]
    fn busy_roundtrips_and_maps_to_busy_error() {
        let b = Reply::busy(9);
        assert_eq!(b.status, Status::Busy);
        let back = Reply::decode(b.encode()).unwrap();
        assert_eq!(back.seq, 9);
        assert!(matches!(back.into_result(), Err(DlibError::Busy)));
    }

    #[test]
    fn error_payload_with_invalid_utf8_still_reported() {
        let r = Reply {
            seq: 2,
            status: Status::Error,
            payload: Bytes::from_static(&[0xff, 0xfe]).into(),
        };
        // Lossy conversion, never a panic or a Protocol error.
        assert!(matches!(r.into_result(), Err(DlibError::Remote(_))));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Call {
            seq: 1,
            procedure: 2,
            args: Bytes::new(),
        }
        .encode()
        .to_vec();
        bytes.push(0xAB);
        assert!(Call::decode(Bytes::from(bytes)).is_err());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_call_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = Call::decode(Bytes::from(bytes));
            }

            #[test]
            fn prop_reply_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = Reply::decode(Bytes::from(bytes));
            }

            #[test]
            fn prop_call_roundtrip(seq in any::<u64>(), proc_ in any::<u32>(), args in proptest::collection::vec(any::<u8>(), 0..64)) {
                let c = Call { seq, procedure: proc_, args: Bytes::from(args) };
                prop_assert_eq!(Call::decode(c.encode()).unwrap(), c);
            }
        }
    }

    #[test]
    fn bad_status_rejected() {
        let mut b = BytesMut::new();
        b.put_u64_le_(1);
        b.put_u32_le_(99);
        b.put_bytes_(b"");
        assert!(Reply::decode(b.freeze()).is_err());
    }
}

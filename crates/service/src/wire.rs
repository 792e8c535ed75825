//! Frame layer of the service protocol: length-prefixed, versioned,
//! checksummed binary frames over any `Read`/`Write` pair.
//!
//! Payloads are encoded with [`rlc_numeric::codec`], the byte codec the
//! on-disk caches use, and checksummed with its [`fnv1a`]. A frame streams
//! and carries no key, so this module keeps only the framing:
//!
//! ```text
//! magic            8 bytes   b"RLCWIRE\0"
//! protocol version 4 bytes   u32 LE (PROTOCOL_VERSION)
//! payload length   8 bytes   u64 LE
//! payload          N bytes   message bytes (see `protocol`)
//! checksum         8 bytes   u64 LE, FNV-1a over the payload
//! ```
//!
//! Every field after the magic is fixed-position, so a reader that rejects a
//! frame for a *stale version* or a *bad checksum* still knows where the
//! frame ends and can keep the stream synchronized — those two conditions
//! are recoverable. A wrong magic means the stream is desynchronized and the
//! connection must close; an oversized length prefix is either corruption or
//! abuse and closes too (after the typed error is reported).

use std::io::{Read, Write};

use rlc_numeric::codec::fnv1a;

/// Magic bytes opening every frame.
pub const MAGIC: &[u8; 8] = b"RLCWIRE\0";

/// Protocol version carried in every frame. Bump on any message-layout
/// change; both ends reject mismatched frames with a typed
/// [`WireError::StaleVersion`] instead of misparsing them.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload (16 MiB). Large enough for any stage
/// submission or report, small enough that a corrupt or hostile length
/// prefix cannot make the receiver allocate unbounded memory.
pub const MAX_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Typed failures of the frame layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-frame (or before one started, when `eof_ok` was
    /// not requested): the peer went away or the frame was truncated.
    Truncated,
    /// The frame did not start with [`MAGIC`]: the stream is desynchronized.
    BadMagic,
    /// The frame carried a different protocol version. The offending frame
    /// was consumed in full, so the connection remains usable.
    StaleVersion {
        /// The version the peer sent.
        got: u32,
    },
    /// The payload length exceeded [`MAX_PAYLOAD`].
    Oversized {
        /// The length the prefix declared.
        declared: u64,
    },
    /// The payload checksum did not match. The frame was consumed in full,
    /// so the connection remains usable.
    BadChecksum,
    /// The payload decoded to no valid message (unknown tag, short buffer,
    /// trailing bytes).
    Malformed {
        /// What failed to decode.
        what: String,
    },
    /// An underlying socket/stream error.
    Io {
        /// The I/O error, stringified (keeps the type `Clone` + `PartialEq`).
        what: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame (peer closed mid-message)"),
            WireError::BadMagic => write!(f, "bad frame magic (stream desynchronized)"),
            WireError::StaleVersion { got } => write!(
                f,
                "stale protocol version {got} (this end speaks {PROTOCOL_VERSION})"
            ),
            WireError::Oversized { declared } => write!(
                f,
                "oversized frame payload ({declared} bytes, limit {MAX_PAYLOAD})"
            ),
            WireError::BadChecksum => write!(f, "frame payload checksum mismatch"),
            WireError::Malformed { what } => write!(f, "malformed message payload: {what}"),
            WireError::Io { what } => write!(f, "stream error: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io {
                what: e.to_string(),
            },
        }
    }
}

/// Writes one frame around `payload`.
///
/// # Errors
/// [`WireError::Oversized`] when the payload exceeds [`MAX_PAYLOAD`];
/// [`WireError::Io`]/[`WireError::Truncated`] on stream failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() as u64 > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            declared: payload.len() as u64,
        });
    }
    let mut frame = Vec::with_capacity(payload.len() + 28);
    frame.extend_from_slice(MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame and returns its payload. `None` when the stream is
/// cleanly at end-of-file *before* any frame byte arrived (the peer closed
/// between messages — the normal way a conversation ends).
///
/// # Errors
/// Every [`WireError`] variant; see the module docs for which ones leave the
/// stream re-usable (`StaleVersion`, `BadChecksum`) and which mean the
/// connection is lost (`Truncated`, `BadMagic`, `Oversized`, `Io`).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut magic = [0u8; 8];
    // Distinguish "closed between frames" (Ok(None)) from "closed inside a
    // frame" (Truncated): only a zero-byte first read is a clean close.
    let first = r.read(&mut magic).map_err(WireError::from)?;
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut magic[first..])?;
    if &magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let mut version = [0u8; 4];
    r.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { declared: len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut checksum = [0u8; 8];
    r.read_exact(&mut checksum)?;
    // Version and checksum are checked only after the whole frame has been
    // consumed, so rejecting the frame leaves the stream on a frame boundary.
    if version != PROTOCOL_VERSION {
        return Err(WireError::StaleVersion { got: version });
    }
    if u64::from_le_bytes(checksum) != fnv1a(&payload) {
        return Err(WireError::BadChecksum);
    }
    Ok(Some(payload))
}

/// Whether the connection can keep serving after this frame-layer error
/// (the offending frame was fully consumed and the stream is still on a
/// frame boundary).
pub fn is_recoverable(error: &WireError) -> bool {
    matches!(
        error,
        WireError::StaleVersion { .. } | WireError::BadChecksum | WireError::Malformed { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frames").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello frames");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        // Clean EOF between frames.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        for cut in [1, 7, 12, 20, buf.len() - 1] {
            let mut r = Cursor::new(&buf[..cut]);
            assert_eq!(read_frame(&mut r).unwrap_err(), WireError::Truncated);
        }
    }

    #[test]
    fn bad_magic_stale_version_and_checksum_are_typed() {
        let mut good = Vec::new();
        write_frame(&mut good, b"abc").unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            read_frame(&mut Cursor::new(bad_magic)).unwrap_err(),
            WireError::BadMagic
        );

        let mut stale = good.clone();
        stale[8] = (PROTOCOL_VERSION + 1) as u8;
        let mut r = Cursor::new(&stale);
        assert_eq!(
            read_frame(&mut r).unwrap_err(),
            WireError::StaleVersion {
                got: PROTOCOL_VERSION + 1
            }
        );
        // The stale frame was consumed in full: the cursor sits at EOF, the
        // stream boundary is intact.
        assert!(read_frame(&mut r).unwrap().is_none());

        let mut flipped = good.clone();
        flipped[20] ^= 0x01; // first payload byte
        let mut r = Cursor::new(&flipped);
        assert_eq!(read_frame(&mut r).unwrap_err(), WireError::BadChecksum);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_payloads_are_rejected_on_both_sides() {
        // Writer side refuses before touching the stream.
        struct NoWrite;
        impl Write for NoWrite {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                panic!("oversized payload must not reach the stream");
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let huge = vec![0u8; MAX_PAYLOAD as usize + 1];
        assert!(matches!(
            write_frame(&mut NoWrite, &huge).unwrap_err(),
            WireError::Oversized { .. }
        ));

        // Reader side rejects the length prefix before allocating.
        let mut frame = Vec::new();
        frame.extend_from_slice(MAGIC);
        frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(frame)).unwrap_err(),
            WireError::Oversized { declared: u64::MAX }
        );
    }

    #[test]
    fn recoverability_classification() {
        assert!(is_recoverable(&WireError::BadChecksum));
        assert!(is_recoverable(&WireError::StaleVersion { got: 9 }));
        assert!(is_recoverable(&WireError::Malformed { what: "x".into() }));
        assert!(!is_recoverable(&WireError::Truncated));
        assert!(!is_recoverable(&WireError::BadMagic));
        assert!(!is_recoverable(&WireError::Oversized { declared: 0 }));
        assert!(!is_recoverable(&WireError::Io { what: "x".into() }));
    }
}

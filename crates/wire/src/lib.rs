//! Versioned binary wire format for the SCEC protocol.
//!
//! The paper's cloud "computes and then distributes `B_j T`" to each edge
//! device — which, in a real deployment, means bytes on a wire. The
//! workspace depends on no serialization framework, so this crate
//! provides a small, explicit binary codec:
//!
//! * little-endian fixed-width integers, IEEE-754 bit patterns for `f64`,
//!   canonical residues for the finite fields;
//! * every collection is length-prefixed and bounds-checked on decode —
//!   truncated or corrupt input yields a typed [`Error`], never a panic
//!   or an over-allocation;
//! * [`encode_framed`]/[`decode_framed`] wrap payloads with a magic
//!   number, a format version, and a type tag so endpoints reject foreign
//!   or stale bytes early.
//!
//! # Example
//!
//! ```
//! use scec_linalg::{Fp61, Matrix};
//! use scec_wire::{decode_framed, encode_framed, WireDecode, WireEncode};
//!
//! let m = Matrix::<Fp61>::identity(3);
//! let bytes = encode_framed(&m, scec_wire::tag::MATRIX);
//! let back: Matrix<Fp61> = decode_framed(&bytes, scec_wire::tag::MATRIX)?;
//! assert_eq!(m, back);
//! # Ok::<(), scec_wire::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use scec_linalg::{Fp61, FpGeneric, Matrix, Scalar, Vector};
use scec_telemetry::context::{TraceContext, TRACE_CONTEXT_WIRE_BYTES};

/// Magic bytes prefixing every framed message (`"SCEC"`).
pub const MAGIC: [u8; 4] = *b"SCEC";

/// Current wire-format version.
pub const VERSION: u16 = 1;

/// Wire-format version whose header carries a 17-byte trace-context
/// block (`trace_id: u64 LE | parent_span_id: u64 LE | flags: u8`)
/// between the tag and the payload. Payload layouts are identical to
/// [`VERSION`]; decoders accept both, so old and new endpoints
/// interoperate — an untraced peer simply never emits version 2.
pub const TRACED_VERSION: u16 = 2;

/// Type tags for framed messages.
pub mod tag {
    /// A [`Matrix`](scec_linalg::Matrix) payload.
    pub const MATRIX: u16 = 1;
    /// A [`Vector`](scec_linalg::Vector) payload.
    pub const VECTOR: u16 = 2;
    /// A coded device share (defined by `scec-coding`).
    pub const DEVICE_SHARE: u16 = 3;
    /// A tagged straggler share.
    pub const STRAGGLER_SHARE: u16 = 4;
    /// A query message.
    pub const QUERY: u16 = 5;
    /// A partial-result message.
    pub const PARTIAL: u16 = 6;
    /// A batched multi-query panel broadcast (an `l × k` matrix of `k`
    /// query columns shipped in one frame).
    pub const QUERY_PANEL: u16 = 7;
    /// A device's partial result for a whole panel (a `rows × k` block,
    /// optionally row-tagged for straggler-tolerant assembly).
    pub const PANEL_PARTIAL: u16 = 8;
    /// A device-side failure report for one request (the networked
    /// analogue of an in-process `FromDevice::Failure`).
    pub const FAILURE: u16 = 9;
    /// Connection handshake: which `(tenant, device)` pair a socket
    /// serves.
    pub const HELLO: u16 = 10;
    /// Clean shutdown notice for a connection.
    pub const BYE: u16 = 11;
    /// A straggler device's row-tagged partial for a single query (a
    /// list of `(row, value)` responses).
    pub const TAGGED_PARTIAL: u16 = 12;
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed beyond the buffer.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// The magic prefix did not match.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion {
        /// Version found in the frame.
        got: u16,
    },
    /// The frame's type tag did not match the expected one.
    WrongTag {
        /// Tag expected by the caller.
        expected: u16,
        /// Tag found in the frame.
        got: u16,
    },
    /// A length prefix is implausibly large for the remaining buffer —
    /// rejected before allocation.
    LengthOverflow {
        /// The claimed element count.
        claimed: u64,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A field element was out of canonical range for its field.
    InvalidFieldElement {
        /// The raw value found.
        raw: u64,
    },
    /// A structural invariant failed (e.g. matrix dims vs data length).
    Malformed(&'static str),
    /// Trailing bytes followed a complete value.
    TrailingBytes {
        /// Number of unread bytes.
        count: usize,
    },
    /// A length-prefixed stream frame claimed more bytes than the
    /// receiver's configured cap — rejected before allocation.
    FrameTooLarge {
        /// The claimed frame length in bytes.
        size: u64,
        /// The receiver's maximum accepted frame length.
        max: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: need {needed} bytes, {remaining} remain"
                )
            }
            Error::BadMagic => f.write_str("bad magic prefix"),
            Error::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (supported: {VERSION}, {TRACED_VERSION})"
                )
            }
            Error::WrongTag { expected, got } => {
                write!(f, "wrong message tag: expected {expected}, got {got}")
            }
            Error::LengthOverflow { claimed, remaining } => {
                write!(
                    f,
                    "length prefix {claimed} exceeds remaining {remaining} bytes"
                )
            }
            Error::InvalidFieldElement { raw } => {
                write!(f, "field element {raw} out of canonical range")
            }
            Error::Malformed(what) => write!(f, "malformed payload: {what}"),
            Error::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete value")
            }
            Error::FrameTooLarge { size, max } => {
                write!(f, "frame of {size} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for Error {}

/// A specialized result type for wire operations.
pub type Result<T> = std::result::Result<T, Error>;

/// A bounds-checked cursor over an input buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] on truncation.
    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnexpectedEof`] on truncation.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length prefix and sanity-checks it against the remaining
    /// buffer, assuming each element needs at least `min_bytes_per_elem`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthOverflow`] for implausible lengths.
    pub fn length(&mut self, min_bytes_per_elem: usize) -> Result<usize> {
        let claimed = self.u64()?;
        let bound = (self.remaining() / min_bytes_per_elem.max(1)) as u64;
        if claimed > bound {
            return Err(Error::LengthOverflow {
                claimed,
                remaining: self.remaining(),
            });
        }
        Ok(claimed as usize)
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TrailingBytes`] otherwise.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Types that can serialize themselves onto the wire.
pub trait WireEncode {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Bulk-encodes `items`, appending them to `out` — the counterpart
    /// of [`WireDecode::decode_many`], and what every collection encodes
    /// its elements through.
    ///
    /// The default loops over [`WireEncode::encode`]; the fixed-width
    /// types (the finite fields, `f64`, the integers) override it to
    /// size `out` once and fill it eight bytes at a time. Either way the
    /// bytes are those of the per-element loop.
    fn encode_many(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that can deserialize themselves from the wire.
pub trait WireDecode: Sized {
    /// Reads one value from the cursor.
    ///
    /// # Errors
    ///
    /// Returns a decoding [`Error`] on truncated, corrupt, or
    /// out-of-range input.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Bulk-decodes `n` values, appending them to `out`.
    ///
    /// The default loops over [`WireDecode::decode`]; fixed-width types
    /// (the finite fields) override it to take one bounds-checked slice
    /// and iterate `chunks_exact`, avoiding per-element cursor
    /// bookkeeping on hot panel-decode paths.
    ///
    /// # Errors
    ///
    /// Returns a decoding [`Error`] on truncated, corrupt, or
    /// out-of-range input.
    fn decode_many(r: &mut Reader<'_>, n: usize, out: &mut Vec<Self>) -> Result<()> {
        out.reserve(n);
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(())
    }

    /// Convenience: decode a value that must consume the whole buffer.
    ///
    /// # Errors
    ///
    /// Propagates decode errors and rejects trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl WireEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn encode_many(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, |&v| v);
    }
}

impl WireDecode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u64()
    }
}

impl WireEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn encode_many(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, |&v| v as u64);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| Error::Malformed("usize overflow"))
    }
}

impl WireEncode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn encode_many(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, |v| v.to_bits());
    }
}

impl WireDecode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl WireEncode for Fp61 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.residue().encode(out);
    }

    fn encode_many(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, |v| v.residue());
    }
}

impl WireDecode for Fp61 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let raw = r.u64()?;
        if raw >= scec_linalg::fp::MODULUS {
            return Err(Error::InvalidFieldElement { raw });
        }
        Ok(Fp61::new(raw))
    }

    fn decode_many(r: &mut Reader<'_>, n: usize, out: &mut Vec<Self>) -> Result<()> {
        decode_residues::<_, { scec_linalg::fp::MODULUS }>(r, n, out, Fp61::new)
    }
}

impl<const P: u64> WireEncode for FpGeneric<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.residue().encode(out);
    }

    fn encode_many(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, |v| v.residue());
    }
}

impl<const P: u64> WireDecode for FpGeneric<P> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let raw = r.u64()?;
        if raw >= P {
            return Err(Error::InvalidFieldElement { raw });
        }
        Ok(FpGeneric::new(raw))
    }

    fn decode_many(r: &mut Reader<'_>, n: usize, out: &mut Vec<Self>) -> Result<()> {
        decode_residues::<_, P>(r, n, out, FpGeneric::new)
    }
}

/// Shared bulk encode for the fixed-width types: `out` is sized once and
/// each item's 64-bit word lands little-endian in its own eight bytes.
fn encode_words<T>(items: &[T], out: &mut Vec<u8>, word: impl Fn(&T) -> u64) {
    let start = out.len();
    out.resize(start + items.len() * 8, 0);
    for (chunk, item) in out[start..].chunks_exact_mut(8).zip(items) {
        chunk.copy_from_slice(&word(item).to_le_bytes());
    }
}

/// Shared bulk decode for the fixed-width fields: one bounds check, one
/// contiguous slice, `chunks_exact` over 8-byte residues written into
/// place. The range check rides along as a flag — the pass has no exit —
/// and a set flag leaves `out` as it was, naming the first offender.
///
/// `out` is sized before the pass and a residue is stored only behind
/// its own comparison with the modulus, a constant: that is what lets
/// `make`'s reduction fold away and keeps the loop a plain scalar one (a
/// compare-and-select over 64-bit lanes, which is what `extend` turns
/// into, costs three times as much on baseline x86-64).
fn decode_residues<T: Clone, const MODULUS: u64>(
    r: &mut Reader<'_>,
    n: usize,
    out: &mut Vec<T>,
    make: impl Fn(u64) -> T,
) -> Result<()> {
    let bytes = n
        .checked_mul(8)
        .ok_or(Error::Malformed("element count overflow"))?;
    let raw = r.take(bytes)?;
    let start = out.len();
    out.resize(start + n, make(0));
    let mut offender = None;
    for (slot, chunk) in out[start..].iter_mut().zip(raw.chunks_exact(8)) {
        let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        if v < MODULUS {
            *slot = make(v);
        } else {
            offender = offender.or(Some(v));
        }
    }
    match offender {
        None => Ok(()),
        Some(raw) => {
            out.truncate(start);
            Err(Error::InvalidFieldElement { raw })
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        T::encode_many(self, out);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Every supported element costs at least 1 byte on the wire.
        let len = r.length(1)?;
        let mut out = Vec::new();
        T::decode_many(r, len, &mut out)?;
        Ok(out)
    }
}

impl<F: Scalar + WireEncode> WireEncode for Vector<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        F::encode_many(self.as_slice(), out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for Vector<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.length(8)?;
        let mut data = Vec::new();
        F::decode_many(r, len, &mut data)?;
        Ok(Vector::from_vec(data))
    }
}

impl<F: Scalar + WireEncode> WireEncode for Matrix<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nrows().encode(out);
        self.ncols().encode(out);
        F::encode_many(self.as_flat(), out);
    }
}

impl<F: Scalar + WireDecode> WireDecode for Matrix<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let rows = usize::decode(r)?;
        let cols = usize::decode(r)?;
        let total = rows
            .checked_mul(cols)
            .ok_or(Error::Malformed("matrix dimension overflow"))?;
        if (total as u64) > (r.remaining() / 8) as u64 {
            return Err(Error::LengthOverflow {
                claimed: total as u64,
                remaining: r.remaining(),
            });
        }
        let mut data = Vec::new();
        F::decode_many(r, total, &mut data)?;
        Matrix::from_flat(rows, cols, data).map_err(|_| Error::Malformed("matrix shape"))
    }
}

/// Encodes a value inside a `MAGIC | VERSION | tag | payload` frame.
pub fn encode_framed<T: WireEncode>(value: &T, tag: u16) -> Vec<u8> {
    let mut out = Vec::new();
    encode_framed_into(value, tag, &mut out);
    out
}

/// Encodes a value inside a `MAGIC | VERSION | tag | payload` frame,
/// reusing a caller-provided buffer.
///
/// The buffer is cleared first but keeps its capacity, so a connection
/// loop that encodes into the same pooled `Vec<u8>` amortizes the
/// allocation to zero per message once warm.
pub fn encode_framed_into<T: WireEncode>(value: &T, tag: u16, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    value.encode(out);
}

/// Encodes a value inside a frame, stamping a trace context into a
/// [`TRACED_VERSION`] header when one is given. With `ctx == None` this
/// is exactly [`encode_framed_into`] — a version-1 frame — so tracing
/// stays pay-for-what-you-use on the wire.
pub fn encode_framed_ctx_into<T: WireEncode>(
    value: &T,
    tag: u16,
    ctx: Option<&TraceContext>,
    out: &mut Vec<u8>,
) {
    let Some(ctx) = ctx else {
        return encode_framed_into(value, tag, out);
    };
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&TRACED_VERSION.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    ctx.encode_into(out);
    value.encode(out);
}

/// A parsed frame header: which version, which tag, any trace context,
/// and where the payload starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame version ([`VERSION`] or [`TRACED_VERSION`]).
    pub version: u16,
    /// The frame's type tag.
    pub tag: u16,
    /// The trace context, for [`TRACED_VERSION`] frames.
    pub trace: Option<TraceContext>,
    /// Byte offset of the payload within the frame.
    pub payload_start: usize,
}

/// Parses a frame header without touching the payload: magic, version
/// (1 or 2), tag, and — for version-2 frames — the trace-context
/// block. The returned [`FrameHeader::payload_start`] lets codecs
/// decode the payload identically for both versions.
///
/// # Errors
///
/// Returns [`Error::BadMagic`], [`Error::UnsupportedVersion`], or
/// [`Error::UnexpectedEof`] when the header is incomplete.
pub fn parse_header(bytes: &[u8]) -> Result<FrameHeader> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(Error::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION && version != TRACED_VERSION {
        return Err(Error::UnsupportedVersion { got: version });
    }
    let tag = r.u16()?;
    let trace = if version == TRACED_VERSION {
        let block = r.take(TRACE_CONTEXT_WIRE_BYTES as usize)?;
        TraceContext::decode(block)
    } else {
        None
    };
    Ok(FrameHeader {
        version,
        tag,
        trace,
        payload_start: bytes.len() - r.remaining(),
    })
}

/// Peeks the type tag of a framed message without decoding the payload,
/// validating magic and version (either supported version).
///
/// Lets a connection loop dispatch on message type before committing to
/// a payload decode.
///
/// # Errors
///
/// Returns [`Error::BadMagic`], [`Error::UnsupportedVersion`], or
/// [`Error::UnexpectedEof`] when the header is incomplete.
pub fn peek_tag(bytes: &[u8]) -> Result<u16> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(Error::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION && version != TRACED_VERSION {
        return Err(Error::UnsupportedVersion { got: version });
    }
    r.u16()
}

/// Decodes a framed value, validating magic, version, and tag, and
/// requiring the payload to consume the whole frame. A
/// [`TRACED_VERSION`] header's trace block is skipped — use
/// [`decode_framed_ctx`] to keep it.
///
/// # Errors
///
/// Returns [`Error::BadMagic`], [`Error::UnsupportedVersion`],
/// [`Error::WrongTag`], or any payload decode error.
pub fn decode_framed<T: WireDecode>(bytes: &[u8], expected_tag: u16) -> Result<T> {
    decode_framed_ctx(bytes, expected_tag).map(|(v, _)| v)
}

/// Decodes a framed value plus the trace context its header carried
/// (`None` for version-1 frames).
///
/// # Errors
///
/// Same contract as [`decode_framed`].
pub fn decode_framed_ctx<T: WireDecode>(
    bytes: &[u8],
    expected_tag: u16,
) -> Result<(T, Option<TraceContext>)> {
    let header = parse_header(bytes)?;
    if header.tag != expected_tag {
        return Err(Error::WrongTag {
            expected: expected_tag,
            got: header.tag,
        });
    }
    let mut r = Reader::new(&bytes[header.payload_start..]);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok((v, header.trace))
}

pub mod stream {
    //! Length-prefixed framing over blocking byte streams.
    //!
    //! A stream frame is a little-endian `u32` byte count followed by a
    //! [`encode_framed`](crate::encode_framed)-style message.
    //!
    //! The hot loops coalesce: [`FrameReader`] pulls whatever the socket
    //! holds with one `read` and hands complete frames out of its buffer,
    //! and [`begin_frame`]/[`end_frame`] append frames to one out-buffer
    //! that the owner writes with a single `write_all`.
    //! [`write_frame`]/[`read_frame`] move exactly one frame and never
    //! read past it — the handshake uses them, so no byte of the stream
    //! that follows is consumed early. Every reader enforces a maximum
    //! frame size before allocating, so a hostile or corrupt peer cannot
    //! force an over-allocation.

    use std::fmt;
    use std::io::{self, IoSlice, Read, Write};

    use super::Error;

    /// Bytes in the stream-level length prefix.
    pub const LEN_PREFIX_BYTES: usize = 4;

    /// Default cap on an incoming frame's payload length (64 MiB) —
    /// far above any legitimate SCEC message, far below an allocation
    /// bomb.
    pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

    /// Failures while moving frames over a byte stream.
    #[derive(Debug)]
    #[non_exhaustive]
    pub enum StreamError {
        /// The peer closed the stream cleanly at a frame boundary.
        Closed,
        /// The underlying transport failed.
        Io(io::Error),
        /// The frame violated the wire format (truncated mid-frame,
        /// larger than the receiver's cap, …).
        Wire(Error),
    }

    impl fmt::Display for StreamError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                StreamError::Closed => f.write_str("stream closed at a frame boundary"),
                StreamError::Io(e) => write!(f, "stream i/o error: {e}"),
                StreamError::Wire(e) => write!(f, "stream framing error: {e}"),
            }
        }
    }

    impl std::error::Error for StreamError {}

    impl From<Error> for StreamError {
        fn from(e: Error) -> Self {
            StreamError::Wire(e)
        }
    }

    /// Writes one `u32`-length-prefixed frame.
    ///
    /// Header and payload go out in a single
    /// [`write_vectored`](Write::write_vectored) call when the sink
    /// accepts it all at once (the normal case on a socket); partial
    /// writes fall back to a completion loop.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error, [`io::ErrorKind::InvalidInput`] for
    /// frames over `u32::MAX` bytes, or [`io::ErrorKind::WriteZero`]
    /// when the sink stops accepting bytes.
    pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
        let len = u32::try_from(frame.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32::MAX"))?;
        let header = len.to_le_bytes();
        let total = header.len() + frame.len();
        let mut written = 0usize;
        while written < total {
            let n = if written < header.len() {
                w.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(frame)])
            } else {
                w.write(&frame[written - header.len()..])
            };
            match n {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "sink stopped accepting frame bytes",
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads one length-prefixed frame into `buf` (cleared and reused,
    /// keeping its capacity warm across calls).
    ///
    /// Reads exactly `4 + len` bytes — never past the frame boundary —
    /// and rejects any claimed length above `max_frame` **before**
    /// allocating.
    ///
    /// # Errors
    ///
    /// * [`StreamError::Closed`] — clean EOF before any header byte;
    /// * [`StreamError::Wire`]`(`[`Error::UnexpectedEof`]`)` — EOF
    ///   mid-header or mid-payload (a truncated frame);
    /// * [`StreamError::Wire`]`(`[`Error::FrameTooLarge`]`)` — claimed
    ///   length above `max_frame`;
    /// * [`StreamError::Io`] — any other transport failure.
    pub fn read_frame<R: Read>(
        r: &mut R,
        buf: &mut Vec<u8>,
        max_frame: usize,
    ) -> Result<(), StreamError> {
        let mut header = [0u8; LEN_PREFIX_BYTES];
        let mut got = 0usize;
        while got < header.len() {
            match r.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Err(StreamError::Closed),
                Ok(0) => {
                    return Err(StreamError::Wire(Error::UnexpectedEof {
                        needed: header.len(),
                        remaining: got,
                    }))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(StreamError::Io(e)),
            }
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > max_frame {
            return Err(StreamError::Wire(Error::FrameTooLarge {
                size: len as u64,
                max: max_frame as u64,
            }));
        }
        buf.clear();
        buf.resize(len, 0);
        match r.read_exact(buf) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                Err(StreamError::Wire(Error::UnexpectedEof {
                    needed: len,
                    remaining: 0,
                }))
            }
            Err(e) => Err(StreamError::Io(e)),
        }
    }

    /// Starts a length-prefixed frame at the end of `out`: reserves the
    /// prefix and returns the frame's offset for [`end_frame`]. The
    /// caller appends the frame bytes in between — one buffer, encoded
    /// in place, no copy.
    pub fn begin_frame(out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&[0; LEN_PREFIX_BYTES]);
        start
    }

    /// Patches the length prefix of the frame begun at `start`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a frame over `u32::MAX`
    /// bytes; the frame is removed from `out`.
    pub fn end_frame(out: &mut Vec<u8>, start: usize) -> io::Result<()> {
        let body = start + LEN_PREFIX_BYTES;
        let Ok(len) = u32::try_from(out.len() - body) else {
            out.truncate(start);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame exceeds u32::MAX",
            ));
        };
        out[start..body].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    /// Bytes a [`FrameReader`] asks the stream for before it has seen a
    /// frame that needs more.
    const INITIAL_READ_BUFFER: usize = 8 << 10;

    /// A buffered frame reader: one `read` pulls whatever the stream
    /// holds, and complete frames are handed out of the buffer without
    /// touching the stream again.
    ///
    /// The buffer grows only as bytes actually arrive — it doubles when
    /// it is full of one incomplete frame, never past that frame's end —
    /// so a peer that claims a huge frame and sends nothing costs
    /// nothing, and a claimed length above `max_frame` is rejected
    /// before any growth.
    #[derive(Debug)]
    pub struct FrameReader {
        buf: Vec<u8>,
        /// Unconsumed bytes are `buf[pos..filled]`.
        pos: usize,
        filled: usize,
        max_frame: usize,
    }

    impl FrameReader {
        /// A reader that rejects frames longer than `max_frame`.
        pub fn new(max_frame: usize) -> Self {
            FrameReader {
                buf: vec![0; INITIAL_READ_BUFFER],
                pos: 0,
                filled: 0,
                max_frame,
            }
        }

        /// Whether the next [`next_frame`](Self::next_frame) returns a
        /// frame without reading from the stream.
        pub fn has_frame(&self) -> bool {
            matches!(self.frame_bytes(), Ok(Some(total)) if self.filled - self.pos >= total)
        }

        /// Bytes currently allocated for buffering.
        pub fn capacity(&self) -> usize {
            self.buf.capacity()
        }

        /// Gives back what a large frame grew the buffer by: with
        /// nothing buffered the reader returns to its initial buffer,
        /// otherwise — a frame, or part of one, is still waiting — this
        /// does nothing. For the owner to call once it has consumed a
        /// frame it expects no more of, a share install; the buffer
        /// grows again if one does come.
        pub fn release(&mut self) {
            if self.pos == self.filled && self.buf.len() > INITIAL_READ_BUFFER {
                *self = FrameReader::new(self.max_frame);
            }
        }

        /// The next frame's payload: out of the buffer when it is
        /// already complete there, else after as many reads as it takes
        /// (each pulls everything the stream offers, up to the buffer).
        /// The slice is valid until the next call.
        ///
        /// # Errors
        ///
        /// As [`read_frame`]: [`StreamError::Closed`] on EOF at a frame
        /// boundary, [`Error::UnexpectedEof`] on EOF mid-frame,
        /// [`Error::FrameTooLarge`] for a prefix above `max_frame`,
        /// [`StreamError::Io`] otherwise.
        pub fn next_frame<R: Read>(&mut self, r: &mut R) -> Result<&[u8], StreamError> {
            let total = loop {
                let needed = match self.frame_bytes()? {
                    Some(total) if self.filled - self.pos >= total => break total,
                    Some(total) => total,
                    None => LEN_PREFIX_BYTES,
                };
                self.fill(r, needed)?;
            };
            let frame = self.pos + LEN_PREFIX_BYTES..self.pos + total;
            self.pos = frame.end;
            Ok(&self.buf[frame])
        }

        /// Bytes on the wire (prefix included) of the frame at `pos`,
        /// once its prefix is buffered; the claimed length is checked
        /// against `max_frame` here, before anything is sized by it.
        fn frame_bytes(&self) -> Result<Option<usize>, Error> {
            let Some(prefix) = self.buf[self.pos..self.filled].first_chunk() else {
                return Ok(None);
            };
            let len = u32::from_le_bytes(*prefix) as usize;
            if len > self.max_frame {
                return Err(Error::FrameTooLarge {
                    size: len as u64,
                    max: self.max_frame as u64,
                });
            }
            Ok(Some(LEN_PREFIX_BYTES + len))
        }

        /// One `read` toward a frame of `needed` total bytes at `pos`.
        fn fill<R: Read>(&mut self, r: &mut R, needed: usize) -> Result<(), StreamError> {
            if self.pos == self.filled {
                self.pos = 0;
                self.filled = 0;
            } else if self.pos + needed > self.buf.len() {
                // The frame cannot complete where it sits: move it down.
                self.buf.copy_within(self.pos..self.filled, 0);
                self.filled -= self.pos;
                self.pos = 0;
            }
            if self.filled == self.buf.len() {
                // Full of one incomplete frame, so `needed` exceeds the
                // buffer: everything claimed so far has really arrived.
                let grown = needed.min(self.buf.len() * 2);
                self.buf.reserve_exact(grown - self.buf.len());
                self.buf.resize(grown, 0);
            }
            loop {
                match r.read(&mut self.buf[self.filled..]) {
                    Ok(0) if self.pos == self.filled => return Err(StreamError::Closed),
                    Ok(0) => {
                        return Err(StreamError::Wire(Error::UnexpectedEof {
                            needed,
                            remaining: self.filled - self.pos,
                        }))
                    }
                    Ok(n) => {
                        self.filled += n;
                        return Ok(());
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(StreamError::Io(e)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn primitive_roundtrips() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        for v in [0.0f64, -1.5, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        let nan = f64::from_bytes(&f64::NAN.to_bytes()).unwrap();
        assert!(nan.is_nan());
        assert_eq!(usize::from_bytes(&42usize.to_bytes()).unwrap(), 42);
    }

    #[test]
    fn field_elements_roundtrip_and_validate() {
        let x = Fp61::new(123456789);
        assert_eq!(Fp61::from_bytes(&x.to_bytes()).unwrap(), x);
        // Out-of-range residue is rejected.
        let bad = u64::MAX.to_bytes();
        assert!(matches!(
            Fp61::from_bytes(&bad),
            Err(Error::InvalidFieldElement { .. })
        ));
        type F257 = FpGeneric<257>;
        let y = F257::new(200);
        assert_eq!(F257::from_bytes(&y.to_bytes()).unwrap(), y);
        assert!(matches!(
            F257::from_bytes(&300u64.to_bytes()),
            Err(Error::InvalidFieldElement { raw: 300 })
        ));
    }

    #[test]
    fn matrix_and_vector_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::<Fp61>::random(4, 7, &mut rng);
        assert_eq!(Matrix::<Fp61>::from_bytes(&m.to_bytes()).unwrap(), m);
        let v = Vector::<f64>::random(9, &mut rng);
        assert_eq!(Vector::<f64>::from_bytes(&v.to_bytes()).unwrap(), v);
        let empty = Matrix::<Fp61>::zeros(0, 5);
        assert_eq!(
            Matrix::<Fp61>::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn truncation_is_detected() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Matrix::<Fp61>::random(3, 3, &mut rng);
        let bytes = m.to_bytes();
        for cut in [0, 1, 8, bytes.len() - 1] {
            let err = Matrix::<Fp61>::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        // Claim 2^60 elements with a 16-byte buffer.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(
            Vector::<Fp61>::from_bytes(&bytes),
            Err(Error::LengthOverflow { .. })
        ));
        // Same for matrices via dimension overflow.
        let mut bytes = Vec::new();
        usize::MAX.encode(&mut bytes);
        usize::MAX.encode(&mut bytes);
        assert!(Matrix::<Fp61>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u64::from_bytes(&bytes),
            Err(Error::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn framing_validates_magic_version_tag() {
        let m = Matrix::<Fp61>::identity(2);
        let frame = encode_framed(&m, tag::MATRIX);
        assert_eq!(
            decode_framed::<Matrix<Fp61>>(&frame, tag::MATRIX).unwrap(),
            m
        );
        // Wrong tag.
        assert!(matches!(
            decode_framed::<Matrix<Fp61>>(&frame, tag::VECTOR),
            Err(Error::WrongTag { .. })
        ));
        // Corrupt magic.
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_framed::<Matrix<Fp61>>(&bad, tag::MATRIX),
            Err(Error::BadMagic)
        ));
        // Future version.
        let mut bad = frame.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_framed::<Matrix<Fp61>>(&bad, tag::MATRIX),
            Err(Error::UnsupportedVersion { got: 99 })
        ));
    }

    #[test]
    fn traced_frames_carry_context_and_stay_tag_compatible() {
        let m = Matrix::<Fp61>::identity(2);
        let ctx = TraceContext {
            trace_id: 0x1234_5678_9abc_def0,
            parent_span_id: 0x0fed_cba9_8765_4321,
            sampled: true,
        };
        let mut traced = Vec::new();
        encode_framed_ctx_into(&m, tag::MATRIX, Some(&ctx), &mut traced);
        // The v2 frame is exactly the v1 frame plus the 17-byte block.
        let plain = encode_framed(&m, tag::MATRIX);
        assert_eq!(
            traced.len(),
            plain.len() + TRACE_CONTEXT_WIRE_BYTES as usize
        );
        // Both peek and decode paths accept the new version.
        assert_eq!(peek_tag(&traced).unwrap(), tag::MATRIX);
        let header = parse_header(&traced).unwrap();
        assert_eq!(header.version, TRACED_VERSION);
        assert_eq!(header.trace, Some(ctx));
        let (back, got) = decode_framed_ctx::<Matrix<Fp61>>(&traced, tag::MATRIX).unwrap();
        assert_eq!(back, m);
        assert_eq!(got, Some(ctx));
        // The ctx-oblivious decoder skips the block transparently.
        assert_eq!(
            decode_framed::<Matrix<Fp61>>(&traced, tag::MATRIX).unwrap(),
            m
        );
        // And a v1 frame reports no context through the ctx-aware path.
        let (back, got) = decode_framed_ctx::<Matrix<Fp61>>(&plain, tag::MATRIX).unwrap();
        assert_eq!(back, m);
        assert_eq!(got, None);
        // `None` context degrades to a byte-identical v1 frame.
        let mut untraced = Vec::new();
        encode_framed_ctx_into(&m, tag::MATRIX, None, &mut untraced);
        assert_eq!(untraced, plain);
    }

    #[test]
    fn truncated_trace_block_is_a_typed_error() {
        let m = Matrix::<Fp61>::identity(2);
        let ctx = TraceContext {
            trace_id: 7,
            parent_span_id: 9,
            sampled: false,
        };
        let mut traced = Vec::new();
        encode_framed_ctx_into(&m, tag::MATRIX, Some(&ctx), &mut traced);
        // Cut inside the trace block: header parse must EOF, not panic.
        assert!(matches!(
            parse_header(&traced[..12]),
            Err(Error::UnexpectedEof { .. })
        ));
        assert!(decode_framed::<Matrix<Fp61>>(&traced[..20], tag::MATRIX).is_err());
    }

    #[test]
    fn vec_of_values_roundtrips() {
        let xs: Vec<u64> = vec![1, 2, 3, u64::MAX];
        assert_eq!(Vec::<u64>::from_bytes(&xs.to_bytes()).unwrap(), xs);
        let empty: Vec<u64> = vec![];
        assert_eq!(Vec::<u64>::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn error_display() {
        assert!(Error::BadMagic.to_string().contains("magic"));
        assert!(Error::UnexpectedEof {
            needed: 8,
            remaining: 2
        }
        .to_string()
        .contains("need 8"));
        assert!(Error::Malformed("x").to_string().contains("x"));
    }
}

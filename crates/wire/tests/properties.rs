//! Property-based tests for the wire format: roundtrips for arbitrary
//! values and — the important one — *no panic and no huge allocation on
//! arbitrary hostile bytes*.

use std::io::{Cursor, Read};

use rand::{rngs::StdRng, Rng, SeedableRng};
use scec_linalg::{Fp61, FpGeneric, Matrix, Vector};
use scec_telemetry::context::{TraceContext, TRACE_CONTEXT_WIRE_BYTES};
use scec_wire::stream::{
    begin_frame, end_frame, read_frame, write_frame, FrameReader, StreamError, DEFAULT_MAX_FRAME,
    LEN_PREFIX_BYTES,
};
use scec_wire::{
    decode_framed, decode_framed_ctx, encode_framed, encode_framed_ctx_into, encode_framed_into,
    parse_header, peek_tag, tag, WireDecode, WireEncode, TRACED_VERSION, VERSION,
};

#[path = "../../../tests/support/sweep.rs"]
mod sweep;
use sweep::sweep;

#[test]
fn u64_f64_roundtrip() {
    sweep(256, |rng| {
        let v: u64 = rng.gen();
        let f = f64::from_bits(rng.gen());
        assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
        let back = f64::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back.to_bits(), f.to_bits());
    });
}

#[test]
fn fp61_roundtrip() {
    sweep(256, |rng| {
        let v = rng.gen_range(0u64..scec_linalg::fp::MODULUS);
        let x = Fp61::new(v);
        assert_eq!(Fp61::from_bytes(&x.to_bytes()).unwrap(), x);
    });
}

#[test]
fn fp257_roundtrip() {
    sweep(256, |rng| {
        let v = rng.gen_range(0u64..257);
        type F = FpGeneric<257>;
        let x = F::new(v);
        assert_eq!(F::from_bytes(&x.to_bytes()).unwrap(), x);
    });
}

#[test]
fn matrix_roundtrip() {
    sweep(256, |rng| {
        let rows = rng.gen_range(0usize..6);
        let cols = rng.gen_range(0usize..6);
        let m = Matrix::<Fp61>::random(rows, cols, rng);
        assert_eq!(Matrix::<Fp61>::from_bytes(&m.to_bytes()).unwrap(), m);
    });
}

#[test]
fn vector_roundtrip() {
    sweep(256, |rng| {
        let data: Vec<f64> = (0..rng.gen_range(0usize..20))
            .map(|_| f64::from_bits(rng.gen()))
            .collect();
        let v = Vector::from_vec(data);
        let back = Vector::<f64>::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back.len(), v.len());
        for (a, b) in back.as_slice().iter().zip(v.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    });
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    sweep(256, |rng| {
        let bytes: Vec<u8> = (0..rng.gen_range(0usize..200)).map(|_| rng.gen()).collect();
        // Whatever the bytes, decoding returns Ok or a typed error — no
        // panic, no unbounded allocation (length prefixes are validated
        // against the remaining buffer before reserving).
        let _ = Matrix::<Fp61>::from_bytes(&bytes);
        let _ = Vector::<Fp61>::from_bytes(&bytes);
        let _ = Vec::<u64>::from_bytes(&bytes);
        let _ = decode_framed::<Matrix<Fp61>>(&bytes, tag::MATRIX);
    });
}

#[test]
fn bit_flips_are_rejected_or_yield_valid_values() {
    sweep(256, |rng| {
        let flip_byte = rng.gen_range(0usize..64);
        let flip_bit = rng.gen_range(0usize..8);
        let m = Matrix::<Fp61>::random(2, 3, rng);
        let mut frame = encode_framed(&m, tag::MATRIX);
        let idx = flip_byte % frame.len();
        frame[idx] ^= 1 << flip_bit;
        // Either the corruption is caught (typed error) or it decoded to
        // SOME valid matrix (e.g. a flipped low bit of a residue) — both
        // are acceptable; what is not acceptable is a panic.
        if let Ok(decoded) = decode_framed::<Matrix<Fp61>>(&frame, tag::MATRIX) {
            assert_eq!(decoded.ncols(), 3);
        }
    });
}

#[test]
fn stream_frames_roundtrip_back_to_back() {
    sweep(256, |rng| {
        let frames = rng.gen_range(1usize..5);
        let payloads: Vec<Vec<u8>> = (0..frames)
            .map(|i| encode_framed(&Matrix::<Fp61>::random(i + 1, 2, rng), tag::MATRIX))
            .collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        let mut buf = Vec::new();
        for p in &payloads {
            read_frame(&mut cursor, &mut buf, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(&buf, p);
        }
        // The stream is drained exactly: the next read sees a clean close.
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, DEFAULT_MAX_FRAME),
            Err(StreamError::Closed)
        ));
    });
}

#[test]
fn truncated_stream_frames_yield_typed_errors() {
    sweep(256, |rng| {
        let cut_frac = rng.gen_range(0.0f64..1.0);
        let payload = encode_framed(&Matrix::<Fp61>::random(3, 2, rng), tag::MATRIX);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        let mut cursor = Cursor::new(&wire[..cut]);
        let mut buf = Vec::new();
        match read_frame(&mut cursor, &mut buf, DEFAULT_MAX_FRAME) {
            // Clean close only when not a single header byte arrived.
            Err(StreamError::Closed) => assert_eq!(cut, 0),
            // Otherwise the truncation is reported as a typed wire error.
            Err(StreamError::Wire(e)) => {
                assert!(matches!(e, scec_wire::Error::UnexpectedEof { .. }))
            }
            other => panic!("unexpected: {other:?}"),
        }
    });
}

#[test]
fn oversized_stream_frames_are_rejected_before_allocation() {
    sweep(256, |rng| {
        let claimed = rng.gen_range((DEFAULT_MAX_FRAME as u32 + 1)..=u32::MAX);
        // A header claiming more than the cap is rejected after exactly
        // the 4 header bytes — the payload is never read or allocated.
        let mut wire = claimed.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xAB; 32]);
        let mut cursor = Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut buf, DEFAULT_MAX_FRAME),
            Err(StreamError::Wire(scec_wire::Error::FrameTooLarge { .. }))
        ));
        assert_eq!(cursor.position(), 4);
        assert!(buf.capacity() <= DEFAULT_MAX_FRAME);
    });
}

#[test]
fn garbage_stream_bytes_never_panic_or_over_read() {
    sweep(256, |rng| {
        let bytes: Vec<u8> = (0..rng.gen_range(0usize..256)).map(|_| rng.gen()).collect();
        let len = bytes.len();
        let mut cursor = Cursor::new(bytes);
        let mut buf = Vec::new();
        // Drain the garbage as frames until it errors or closes; every
        // outcome must be a typed error, and the reader must never
        // consume past the end of the input.
        for _ in 0..len + 1 {
            match read_frame(&mut cursor, &mut buf, 1 << 16) {
                Ok(()) => {
                    // A structurally valid frame of garbage payload must
                    // still fail *decoding* with a typed error, not panic.
                    let _ = decode_framed::<Matrix<Fp61>>(&buf, tag::MATRIX);
                }
                Err(_) => break,
            }
        }
        assert!(cursor.position() as usize <= len);
    });
}

#[test]
fn frame_versions_round_trip_old_and_new() {
    sweep(256, |rng| {
        let rows = rng.gen_range(1usize..5);
        let m = Matrix::<Fp61>::random(rows, 3, rng);
        let ctx = TraceContext {
            trace_id: rng.gen(),
            parent_span_id: rng.gen(),
            sampled: rng.gen(),
        };

        // Old codec, new decoder: a v1 frame parses with no context.
        let v1 = encode_framed(&m, tag::MATRIX);
        assert_eq!(parse_header(&v1).unwrap().version, VERSION);
        let (back, got) = decode_framed_ctx::<Matrix<Fp61>>(&v1, tag::MATRIX).unwrap();
        assert_eq!(&back, &m);
        assert_eq!(got, None);

        // New codec, old-style (ctx-oblivious) decoder: the payload
        // decodes identically and the context survives the ctx path.
        let mut v2 = Vec::new();
        encode_framed_ctx_into(&m, tag::MATRIX, Some(&ctx), &mut v2);
        assert_eq!(peek_tag(&v2).unwrap(), tag::MATRIX);
        let header = parse_header(&v2).unwrap();
        assert_eq!(header.version, TRACED_VERSION);
        assert_eq!(header.trace, Some(ctx));
        assert_eq!(
            decode_framed::<Matrix<Fp61>>(&v2, tag::MATRIX).unwrap(),
            m.clone()
        );
        let (back, got) = decode_framed_ctx::<Matrix<Fp61>>(&v2, tag::MATRIX).unwrap();
        assert_eq!(&back, &m);
        assert_eq!(got, Some(ctx));

        // The two framings differ by exactly the trace block: strip it
        // and patch the version and the bytes are the v1 frame.
        assert_eq!(v2.len(), v1.len() + TRACE_CONTEXT_WIRE_BYTES as usize);
        let mut stripped = v2.clone();
        stripped.drain(8..8 + TRACE_CONTEXT_WIRE_BYTES as usize);
        stripped[4..6].copy_from_slice(&VERSION.to_le_bytes());
        assert_eq!(stripped, v1);
    });
}

#[test]
fn encode_framed_into_matches_fresh_encoding() {
    sweep(256, |rng| {
        let rows = rng.gen_range(1usize..5);
        let mut pooled = Vec::with_capacity(4096);
        let cap = pooled.capacity();
        for _ in 0..3 {
            let m = Matrix::<Fp61>::random(rows, 3, rng);
            encode_framed_into(&m, tag::MATRIX, &mut pooled);
            assert_eq!(&pooled, &encode_framed(&m, tag::MATRIX));
        }
        // Small messages never outgrow the pooled buffer: no reallocation.
        assert_eq!(pooled.capacity(), cap);
    });
}

/// A byte stream that hands over at most `sizes[i]` bytes on its `i`-th
/// read (cycling), the way a socket delivers arbitrary segments.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Frames of random lengths (some empty, some past the reader's first
/// buffer) and the stream `write_frame` makes of them.
fn random_stream(rng: &mut StdRng, frames: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
    let payloads: Vec<Vec<u8>> = (0..frames)
        .map(|_| {
            let len = match rng.gen_range(0u32..8) {
                0 => 0,
                1 => rng.gen_range(8_000usize..40_000),
                _ => rng.gen_range(1usize..300),
            };
            (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
        })
        .collect();
    let mut wire = Vec::new();
    for p in &payloads {
        write_frame(&mut wire, p).unwrap();
    }
    (payloads, wire)
}

/// How a frame source ended, with the fields that may differ between
/// the two readers left out.
#[derive(Debug, PartialEq)]
enum End {
    Closed,
    Truncated,
    TooLarge,
    Other,
}

fn ending(e: &StreamError) -> End {
    match e {
        StreamError::Closed => End::Closed,
        StreamError::Wire(scec_wire::Error::UnexpectedEof { .. }) => End::Truncated,
        StreamError::Wire(scec_wire::Error::FrameTooLarge { .. }) => End::TooLarge,
        _ => End::Other,
    }
}

/// Every frame `read_frame` gets out of `wire`, and how it ended.
fn reference_frames(wire: &[u8], max_frame: usize) -> (Vec<Vec<u8>>, End) {
    let mut cursor = Cursor::new(wire);
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cursor, &mut buf, max_frame) {
            Ok(()) => frames.push(buf.clone()),
            Err(e) => return (frames, ending(&e)),
        }
    }
}

/// The same through a `FrameReader` fed `sizes`-byte segments; also
/// checks the buffer bound after every frame.
fn buffered_frames(wire: &[u8], sizes: &[usize], max_frame: usize) -> (Vec<Vec<u8>>, End) {
    let mut reader = FrameReader::new(max_frame);
    let initial = reader.capacity();
    let mut src = Chunked {
        data: wire,
        sizes,
        reads: 0,
    };
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut largest = 0;
    loop {
        match reader.next_frame(&mut src) {
            Ok(frame) => {
                largest = largest.max(LEN_PREFIX_BYTES + frame.len());
                frames.push(frame.to_vec());
            }
            Err(e) => return (frames, ending(&e)),
        }
        assert!(
            reader.capacity() <= initial.max(largest),
            "buffer of {} bytes for frames up to {largest}",
            reader.capacity()
        );
    }
}

#[test]
fn frame_reader_yields_read_frames_frames_for_any_segmentation() {
    sweep(48, |rng| {
        let frames = rng.gen_range(0usize..12);
        let sizes: Vec<usize> = (0..rng.gen_range(1usize..6))
            .map(|_| rng.gen_range(1..20_000))
            .collect();
        let (payloads, wire) = random_stream(rng, frames);
        let (expected, end) = reference_frames(&wire, DEFAULT_MAX_FRAME);
        assert_eq!(&expected, &payloads);
        assert_eq!(end, End::Closed);
        // Arbitrary segments, one byte at a time, and everything at once.
        for sizes in [&sizes[..], &[1], &[usize::MAX]] {
            let (got, end) = buffered_frames(&wire, sizes, DEFAULT_MAX_FRAME);
            assert_eq!(&got, &payloads);
            assert_eq!(end, End::Closed);
        }
    });
}

#[test]
fn frame_reader_reports_truncation_like_read_frame_at_every_offset() {
    sweep(48, |rng| {
        let sizes: Vec<usize> = (0..rng.gen_range(1usize..4))
            .map(|_| rng.gen_range(1..200))
            .collect();
        let mut wire = Vec::new();
        for _ in 0..4 {
            let len = rng.gen_range(0usize..60);
            write_frame(&mut wire, &vec![0x5A; len]).unwrap();
        }
        for cut in 0..=wire.len() {
            // `Closed` exactly at a frame boundary, `UnexpectedEof`
            // mid-prefix and mid-payload, the same frames before either.
            let expected = reference_frames(&wire[..cut], DEFAULT_MAX_FRAME);
            assert_eq!(
                buffered_frames(&wire[..cut], &sizes, DEFAULT_MAX_FRAME),
                expected
            );
        }
    });
}

#[test]
fn frame_reader_rejects_an_oversized_prefix_without_growing() {
    sweep(48, |rng| {
        let max_frame = rng.gen_range(16usize..100_000);
        let excess = rng.gen_range(1u32..1_000_000);
        let lead = rng.gen_range(0usize..3);
        // A few honest frames, then a prefix past the cap.
        let mut wire = Vec::new();
        for _ in 0..lead {
            write_frame(&mut wire, &[7; 16]).unwrap();
        }
        wire.extend_from_slice(&(max_frame as u32 + excess).to_le_bytes());
        wire.extend_from_slice(&[0xAB; 64]);
        let mut reader = FrameReader::new(max_frame);
        let initial = reader.capacity();
        let mut src = &wire[..];
        for _ in 0..lead {
            assert_eq!(reader.next_frame(&mut src).unwrap(), &[7; 16][..]);
        }
        assert!(!reader.has_frame());
        assert_eq!(
            ending(&reader.next_frame(&mut src).unwrap_err()),
            End::TooLarge
        );
        assert_eq!(reader.capacity(), initial);
    });
}

#[test]
fn a_claimed_length_costs_nothing_until_the_bytes_arrive() {
    sweep(48, |rng| {
        let claimed = rng.gen_range(1_000_000u32..(DEFAULT_MAX_FRAME as u32));
        let sent = rng.gen_range(0usize..50_000);
        // Within the cap, so not rejected — but only `sent` bytes of the
        // payload ever come. `read_frame` would have sized its buffer by
        // the claim; the buffered reader sizes it by what arrived.
        let mut wire = claimed.to_le_bytes().to_vec();
        wire.resize(LEN_PREFIX_BYTES + sent, 0xCD);
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let initial = reader.capacity();
        let mut src = Chunked {
            data: &wire,
            sizes: &[4096],
            reads: 0,
        };
        assert_eq!(
            ending(&reader.next_frame(&mut src).unwrap_err()),
            End::Truncated
        );
        assert!(reader.capacity() <= initial.max(2 * wire.len()));
        assert!(reader.capacity() < claimed as usize);
    });
}

#[test]
fn frames_built_in_place_equal_write_frames_bytes() {
    sweep(48, |rng| {
        let frames = rng.gen_range(1usize..6);
        let (payloads, wire) = random_stream(rng, frames);
        let mut out = Vec::new();
        for p in &payloads {
            let start = begin_frame(&mut out);
            out.extend_from_slice(p);
            end_frame(&mut out, start).unwrap();
        }
        assert_eq!(out, wire);
    });
}

#[test]
fn release_returns_the_buffer_only_when_nothing_is_buffered() {
    sweep(32, |rng| {
        let frames = rng.gen_range(0usize..8);
        let sizes: Vec<usize> = (0..rng.gen_range(1usize..6))
            .map(|_| rng.gen_range(1..20_000))
            .collect();
        // A share-sized frame ahead of ordinary traffic, and a reader
        // whose owner calls `release` after every frame it consumes.
        let (mut payloads, _) = random_stream(rng, frames);
        payloads.insert(0, vec![0xEE; 100_000]);
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        for sizes in [&sizes[..], &[1], &[usize::MAX]] {
            let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
            let initial = reader.capacity();
            let mut src = Chunked {
                data: &wire,
                sizes,
                reads: 0,
            };
            let (mut got, mut consumed): (Vec<Vec<u8>>, usize) = (Vec::new(), 0);
            loop {
                match reader.next_frame(&mut src) {
                    Ok(frame) => {
                        consumed += LEN_PREFIX_BYTES + frame.len();
                        got.push(frame.to_vec());
                    }
                    Err(e) => {
                        assert_eq!(ending(&e), End::Closed);
                        break;
                    }
                }
                // What the stream has handed over and no frame has used
                // up is still in the buffer: a whole frame, or half of one.
                let buffered = wire.len() - src.data.len() - consumed;
                let before = reader.capacity();
                reader.release();
                if buffered == 0 {
                    assert_eq!(reader.capacity(), initial);
                } else {
                    assert_eq!(reader.capacity(), before);
                }
            }
            assert_eq!(&got, &payloads);
        }
    });
}

/// The per-element codec, spelled out: what `encode_many` and
/// `decode_many` must be indistinguishable from.
fn encode_each<T: WireEncode>(xs: &[T], out: &mut Vec<u8>) {
    for x in xs {
        x.encode(out);
    }
}

fn decode_each<T: WireDecode>(bytes: &[u8], n: usize) -> scec_wire::Result<(Vec<T>, usize)> {
    let mut r = scec_wire::Reader::new(bytes);
    let xs = (0..n)
        .map(|_| T::decode(&mut r))
        .collect::<scec_wire::Result<_>>()?;
    Ok((xs, r.remaining()))
}

/// `words` as `n` little-endian residues, decoded in bulk behind `kept`:
/// the same values, or the same error with `out` still just `kept`.
fn assert_bulk_decode_is_the_loop<T>(words: &[u64], kept: &[T])
where
    T: WireDecode + PartialEq + std::fmt::Debug + Clone,
{
    let mut bytes = Vec::new();
    u64::encode_many(words, &mut bytes);
    bytes.extend_from_slice(&[0xA5; 3]);
    let mut out = kept.to_vec();
    let mut r = scec_wire::Reader::new(&bytes);
    let bulk = T::decode_many(&mut r, words.len(), &mut out);
    match decode_each::<T>(&bytes, words.len()) {
        Ok((xs, remaining)) => {
            assert_eq!(bulk, Ok(()));
            assert_eq!(out, [kept, &xs[..]].concat());
            assert_eq!(r.remaining(), remaining);
        }
        Err(e) => {
            assert_eq!(bulk, Err(e));
            assert_eq!(out, kept, "a rejected block leaves `out` as it was");
        }
    }
    // Short by one byte, both refuse — whatever came before the cut.
    let short = &bytes[..(words.len() * 8).saturating_sub(1)];
    if !words.is_empty() {
        let mut out = kept.to_vec();
        let mut r = scec_wire::Reader::new(short);
        assert!(T::decode_many(&mut r, words.len(), &mut out).is_err());
        assert!(decode_each::<T>(short, words.len()).is_err());
    }
}

/// One element type through the bulk codec at every length in
/// `lengths`, on random words below `below`; `rejects` says whether the
/// type refuses the words from `below` up (a field's modulus) or has no
/// word it refuses.
fn assert_bulk_codec_is_per_element<T>(
    lengths: &[usize],
    (below, rejects): (u64, bool),
    make: impl Fn(u64) -> T,
    rng: &mut StdRng,
) where
    T: WireEncode + WireDecode + PartialEq + std::fmt::Debug + Clone,
{
    let kept = [make(3), make(5)];
    for &n in lengths {
        let canonical: Vec<u64> = (0..n).map(|_| rng.gen_range(0..below)).collect();
        let xs: Vec<T> = canonical.iter().map(|&w| make(w)).collect();
        // Appended behind what the buffer already holds, byte for byte.
        let (mut bulk, mut each) = (vec![0x5A; 5], vec![0x5A; 5]);
        T::encode_many(&xs, &mut bulk);
        encode_each(&xs, &mut each);
        assert_eq!(bulk, each, "length {n}");
        assert_eq!(bulk.len(), 5 + 8 * n);
        assert_bulk_decode_is_the_loop(&canonical, &kept);
        if !rejects || n == 0 {
            continue;
        }
        // An offender first, in the middle, last, and several at once:
        // the loop stops at the first one, and the bulk error names it.
        let spots = [vec![0], vec![n / 2], vec![n - 1], vec![n - 1, n / 2, n / 3]];
        for (round, spots) in spots.iter().enumerate() {
            let mut words = canonical.clone();
            for (i, &at) in spots.iter().enumerate() {
                words[at] = match (round + i) % 3 {
                    0 => below,
                    1 => u64::MAX - i as u64,
                    _ => below + rng.gen_range(1..1u64 << 40),
                };
            }
            assert_bulk_decode_is_the_loop(&words, &kept);
        }
    }
}

#[test]
fn bulk_codec_is_the_per_element_codec() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut lengths = vec![0usize, 1, 7, 8, 9];
    lengths.extend((0..6).map(|_| rng.gen_range(10usize..4_000)));
    let fp61 = (scec_linalg::fp::MODULUS, true);
    assert_bulk_codec_is_per_element(&lengths, fp61, Fp61::new, &mut rng);
    assert_bulk_codec_is_per_element(&lengths, (257, true), FpGeneric::<257>::new, &mut rng);
    assert_bulk_codec_is_per_element(&lengths, (65537, true), FpGeneric::<65537>::new, &mut rng);
    // Every word is a float and an index: nothing to reject. The floats
    // stay below +inf's bit pattern, where each one equals itself.
    let finite = (f64::INFINITY.to_bits(), false);
    assert_bulk_codec_is_per_element(&lengths, finite, f64::from_bits, &mut rng);
    assert_bulk_codec_is_per_element(&lengths, (u64::MAX, false), |w| w as usize, &mut rng);
    println!("bulk codec: 5 fields x {} lengths compared", lengths.len());
}

/// Bytes from a hex literal; whitespace is layout.
fn hex(literal: &str) -> Vec<u8> {
    let digits: Vec<u8> = literal
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).expect("a hex digit") as u8)
        .collect();
    assert_eq!(digits.len() % 2, 0, "whole bytes");
    digits.chunks_exact(2).map(|d| d[0] << 4 | d[1]).collect()
}

/// `value` frames to exactly `golden` under `tag`, and `golden` decodes
/// back to it.
fn assert_golden<T>(value: &T, tag: u16, golden: &str)
where
    T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let golden = hex(golden);
    assert_eq!(encode_framed(value, tag), golden, "tag {tag}");
    assert_eq!(
        &decode_framed::<T>(&golden, tag).unwrap(),
        value,
        "tag {tag}"
    );
}

/// The bytes of one small frame of every kind that carries field
/// elements in bulk, written out: magic `SCEC`, version 1, the tag, then
/// little-endian 64-bit words. The wire format is these literals; a
/// codec change that moves one byte fails here.
#[test]
fn golden_frames() {
    use scec_coding::{
        DeviceShare, PanelPartialMsg, PanelQueryMsg, PartialMsg, QueryMsg, StragglerShare,
    };
    let top = scec_linalg::fp::MODULUS - 1;
    let fp = |words: &[u64]| words.iter().map(|&w| Fp61::new(w)).collect::<Vec<_>>();
    let matrix = |rows, cols, words: &[u64]| Matrix::from_flat(rows, cols, fp(words)).unwrap();

    // device 2, first row 3, then a 2 x 2 matrix.
    assert_golden(
        &DeviceShare::from_parts(2, 3, matrix(2, 2, &[1, 2, 3, top])),
        tag::DEVICE_SHARE,
        "5343454301000300
         0200000000000000 0300000000000000
         0200000000000000 0200000000000000
         0100000000000000 0200000000000000 0300000000000000 feffffffffffff1f",
    );
    // device 3, two row tags (7, 9), then a 2 x 1 matrix.
    assert_golden(
        &StragglerShare::from_parts(3, vec![7, 9], matrix(2, 1, &[5, 6])).unwrap(),
        tag::STRAGGLER_SHARE,
        "5343454301000400
         0300000000000000
         0200000000000000 0700000000000000 0900000000000000
         0200000000000000 0100000000000000
         0500000000000000 0600000000000000",
    );
    // request 5, a vector of three.
    assert_golden(
        &QueryMsg {
            request: 5,
            query: Vector::from_vec(fp(&[10, 11, 12])),
        },
        tag::QUERY,
        "5343454301000500
         0500000000000000
         0300000000000000 0a00000000000000 0b00000000000000 0c00000000000000",
    );
    // request 6, a 2 x 2 panel.
    assert_golden(
        &PanelQueryMsg {
            request: 6,
            panel: matrix(2, 2, &[1, 0, 0, 1]),
        },
        tag::QUERY_PANEL,
        "5343454301000700
         0600000000000000
         0200000000000000 0200000000000000
         0100000000000000 0000000000000000 0000000000000000 0100000000000000",
    );
    // request 5, device 2, a vector of two.
    assert_golden(
        &PartialMsg {
            request: 5,
            device: 2,
            value: Vector::from_vec(fp(&[top, 4])),
        },
        tag::PARTIAL,
        "5343454301000600
         0500000000000000 0200000000000000
         0200000000000000 feffffffffffff1f 0400000000000000",
    );
    // request 6, device 2, two row tags (4, 5), then a 2 x 2 block.
    assert_golden(
        &PanelPartialMsg {
            request: 6,
            device: 2,
            rows: vec![4, 5],
            values: matrix(2, 2, &[8, 9, 10, 11]),
        },
        tag::PANEL_PARTIAL,
        "5343454301000800
         0600000000000000 0200000000000000
         0200000000000000 0400000000000000 0500000000000000
         0200000000000000 0200000000000000
         0800000000000000 0900000000000000 0a00000000000000 0b00000000000000",
    );
    println!("golden frames: 6 matched");
}

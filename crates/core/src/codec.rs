//! The posting-list / key-frame wire codec: the bytes the simulator charges
//! are the bytes this module actually produces.
//!
//! It is the only format any message uses. The paper's headline guarantee
//! is about **bytes on the wire**, so the wire layer is real: a
//! [`crate::posting::TruncatedPostingList`] is encoded as one score-descending
//! run of delta-varint document ids with scores quantized to `u16`
//! fixed-point, and `WireSize` for every retrieval frame is defined as the
//! exact length of that encoding.
//!
//! # List frame layout (pinned by a byte-level golden test)
//!
//! ```text
//! version          u8       == FORMAT_VERSION
//! full_df          varint   true document frequency at the responsible peer
//! capacity         varint   truncation capacity of the stored list
//! n                varint   references encoded (≤ capacity, ≤ full_df)
//! -- present only when n > 0 --
//! score_hi         f32 LE   quantization range upper end (best score)
//! score_lo         f32 LE   quantization range lower end (the list's worst score)
//! n entries in descending score order:
//!   first entry:   varint peer, varint local, u16 q
//!   later ones:    zigzag-varint Δpeer, zigzag-varint Δlocal, u16 q
//! checksum         u32 LE   [`frame_checksum`] over every preceding byte
//! ```
//!
//! # Frame integrity
//!
//! Every list and key frame ends in a 4-byte checksum trailer
//! ([`frame_checksum`] over the frame body). Decoders verify the trailer
//! before parsing a single body byte, so a corrupted frame — any single-bit
//! flip is guaranteed to be caught — surfaces as a typed
//! [`CodecError::ChecksumMismatch`] instead of a silently wrong (or
//! panicking) decode. The probe path maps that error onto the retryable
//! [`crate::fault::ProbeOutcome::Corrupt`].
//!
//! Past the trailer, the list decoder rejects bodies no encoder writes: any
//! version but [`FORMAT_VERSION`], more declared entries than the body can
//! hold (checked before allocating for them), trailing bytes, and — through
//! the list constructor only [`decode_list`] calls — more entries than the
//! capacity, a `full_df` below the entry count, or a document listed twice.
//! `tests/proptest_codec.rs` fuzzes every decoder with arbitrary bodies under
//! a valid trailer.
//!
//! # Quantization
//!
//! Scores are mapped affinely from `[score_lo, score_hi]` onto `0..=65535`.
//! The absolute error of a decoded score is at most one quantization step,
//! `(score_hi - score_lo) / 65535` (see [`quantization_step`]); quantization
//! is monotone, so encoding never introduces a rank inversion between entries
//! whose scores differ by more than one step (entries closer than that may
//! collapse into a tie, which the decoder breaks by ascending document id —
//! the same tie-break the list itself uses). Both properties are proptested
//! in `tests/proptest_codec.rs`.
//!
//! # The `score_floor` argument
//!
//! [`encode_list`]'s `score_floor` is kept only because `benchmark/` (outside
//! the workspace) reads it; goes with ROADMAP item 5. No probe passes a
//! floor. Given one, the encoder elides the entries scoring strictly below
//! it and writes `full_df` minus the elided count, so a complete list stays
//! complete and a truncated list stays truncated.

use crate::key::TermKey;
use crate::posting::{ScoredRef, TruncatedPostingList};
use alvisp2p_textindex::DocId;
use std::fmt;

/// Version byte leading every list frame. Version 2 added the checksum
/// trailer ending every list and key frame; version 3 dropped the score
/// blocks, their headers and the kept-count, leaving one flat entry run.
pub const FORMAT_VERSION: u8 = 3;

/// Length of the integrity trailer ending every list and key frame: the
/// [`frame_checksum`] of the frame body as a `u32` LE.
pub const FRAME_TRAILER_LEN: usize = 4;

/// Number of quantization levels minus one (`u16` fixed-point).
pub const SCORE_LEVELS: u16 = u16::MAX;

/// Worst-case encoded size of one entry: two 32-bit varints (5 bytes each,
/// absolute or zigzag delta) plus the 2-byte quantized score.
pub const MAX_ENTRY_LEN: usize = 5 + 5 + 2;

/// Smallest encoded size of one entry: two one-byte varints plus the score.
/// The decoder allocates for a frame's declared entries only when its body
/// can hold that many.
const MIN_ENTRY_LEN: usize = 1 + 1 + 2;

/// A frame the decoder rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A structurally malformed frame (truncated buffer, bad version,
    /// overflowing varint, inconsistent headers).
    Malformed(String),
    /// The frame's checksum trailer disagrees with its body: the bytes were
    /// corrupted in flight (or at rest). The probe path treats this as the
    /// retryable [`crate::fault::ProbeOutcome::Corrupt`].
    ChecksumMismatch {
        /// The checksum carried in the frame's trailer.
        stored: u32,
        /// The checksum recomputed over the received frame body.
        computed: u32,
    },
}

impl CodecError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        CodecError::Malformed(msg.into())
    }

    /// Whether this error means the frame failed integrity verification (as
    /// opposed to being structurally malformed).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, CodecError::ChecksumMismatch { .. })
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed(msg) => write!(f, "codec error: {msg}"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "codec error: frame checksum mismatch (stored {stored:#010x}, \
                 computed {computed:#010x})"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Frame integrity trailer
// ---------------------------------------------------------------------------

/// Modulus of the [`frame_checksum`] running sums (the largest prime below
/// `2^16`, as in Adler-32).
const CHECKSUM_MOD: u32 = 65_521;

/// Bytes between modular reductions; keeps the deferred sums below `u32`
/// overflow for any byte values.
const CHECKSUM_BATCH: usize = 3_800;

/// The frame integrity checksum (Adler-32). Both running sums enter the
/// result, and a single-bit flip changes the low sum by a nonzero delta
/// strictly smaller than the modulus, so **any single-bit corruption of a
/// frame body is guaranteed to be detected** — the property the bit-flip
/// fault-injection tests rely on.
pub fn frame_checksum(bytes: &[u8]) -> u32 {
    let mut s1: u32 = 1;
    let mut s2: u32 = 0;
    for chunk in bytes.chunks(CHECKSUM_BATCH) {
        for &b in chunk {
            s1 += u32::from(b);
            s2 += s1;
        }
        s1 %= CHECKSUM_MOD;
        s2 %= CHECKSUM_MOD;
    }
    (s2 << 16) | s1
}

/// Appends the [`frame_checksum`] trailer over `out[start..]`.
fn append_trailer(out: &mut Vec<u8>, start: usize) {
    let sum = frame_checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Splits a frame into its body after verifying the checksum trailer.
fn verify_trailer(buf: &[u8]) -> Result<&[u8], CodecError> {
    if buf.len() < FRAME_TRAILER_LEN {
        return Err(CodecError::new("frame shorter than its checksum trailer"));
    }
    let (body, trailer) = buf.split_at(buf.len() - FRAME_TRAILER_LEN);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = frame_checksum(body);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encoded length of `v` as an LEB128 varint.
pub fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Reads an LEB128 varint at `*pos`, advancing it.
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| CodecError::new("truncated varint"))?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(CodecError::new("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16, CodecError> {
    let bytes: [u8; 2] = buf
        .get(*pos..*pos + 2)
        .ok_or_else(|| CodecError::new("truncated u16"))?
        .try_into()
        .expect("2-byte slice");
    *pos += 2;
    Ok(u16::from_le_bytes(bytes))
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_f32(buf: &[u8], pos: &mut usize) -> Result<f32, CodecError> {
    let bytes: [u8; 4] = buf
        .get(*pos..*pos + 4)
        .ok_or_else(|| CodecError::new("truncated f32"))?
        .try_into()
        .expect("4-byte slice");
    *pos += 4;
    Ok(f32::from_le_bytes(bytes))
}

// ---------------------------------------------------------------------------
// Score quantization
// ---------------------------------------------------------------------------

/// Maps `score` onto the `u16` fixed-point grid over `[lo, hi]`.
fn quantize(score: f64, lo: f64, hi: f64) -> u16 {
    if hi <= lo {
        return 0;
    }
    let unit = ((score - lo) / (hi - lo)).clamp(0.0, 1.0);
    (unit * f64::from(SCORE_LEVELS)).round() as u16
}

/// Maps a quantized score back into `[lo, hi]`.
pub fn dequantize(q: u16, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return lo;
    }
    lo + f64::from(q) / f64::from(SCORE_LEVELS) * (hi - lo)
}

/// The quantization grid step over `[lo, hi]`: the absolute score error of a
/// decoded entry is at most this.
pub fn quantization_step(lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        0.0
    } else {
        (hi - lo) / f64::from(SCORE_LEVELS)
    }
}

// ---------------------------------------------------------------------------
// Entry / key frames
// ---------------------------------------------------------------------------

/// Encoded size of one stand-alone [`ScoredRef`]: two absolute doc-id varints
/// plus the 2-byte quantized score. Within a list frame later entries are
/// delta-coded and usually smaller; this is the size of an entry shipped on
/// its own (and the meaning of `ScoredRef::wire_size`).
pub fn entry_wire_size(r: &ScoredRef) -> usize {
    varint_len(u64::from(r.doc.peer)) + varint_len(u64::from(r.doc.local)) + 2
}

/// Appends the key frame: `varint n_terms`, then per term `varint len` +
/// UTF-8 bytes, ending in the [`frame_checksum`] trailer over the appended
/// body. `TermKey::wire_size` equals this frame's length (cached at key
/// construction).
pub fn encode_key(out: &mut Vec<u8>, key: &TermKey) {
    let start = out.len();
    let terms = key.terms();
    put_varint(out, terms.len() as u64);
    for term in terms {
        put_varint(out, term.len() as u64);
        out.extend_from_slice(term.as_bytes());
    }
    append_trailer(out, start);
}

/// Length of the [`encode_key`] frame (checksum trailer included),
/// computable from term lengths alone.
pub fn key_frame_len(term_lens: impl IntoIterator<Item = usize>) -> usize {
    let mut n = 0usize;
    let mut total = 0usize;
    for len in term_lens {
        n += 1;
        total += varint_len(len as u64) + len;
    }
    varint_len(n as u64) + total + FRAME_TRAILER_LEN
}

/// Decodes an [`encode_key`] frame back into its terms, verifying the
/// checksum trailer first.
pub fn decode_key(frame: &[u8]) -> Result<Vec<String>, CodecError> {
    let buf = verify_trailer(frame)?;
    let mut pos = 0usize;
    let n = get_varint(buf, &mut pos)? as usize;
    // Every term takes at least its one-byte length varint.
    let mut terms = Vec::with_capacity(n.min(buf.len() - pos));
    for _ in 0..n {
        let len = get_varint(buf, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|end| *end <= buf.len())
            .ok_or_else(|| CodecError::new("truncated key term"))?;
        let bytes = &buf[pos..end];
        pos = end;
        terms.push(
            std::str::from_utf8(bytes)
                .map_err(|_| CodecError::new("key term is not UTF-8"))?
                .to_string(),
        );
    }
    if pos != buf.len() {
        return Err(CodecError::new("trailing bytes after key frame"));
    }
    Ok(terms)
}

// ---------------------------------------------------------------------------
// List frames
// ---------------------------------------------------------------------------

/// Encoded size of one in-list entry given the previous entry (`None` for the
/// list's first entry, which is coded with absolute varints).
fn in_list_entry_len(prev: Option<DocId>, doc: DocId) -> usize {
    match prev {
        None => varint_len(u64::from(doc.peer)) + varint_len(u64::from(doc.local)) + 2,
        Some(p) => {
            varint_len(zigzag(i64::from(doc.peer) - i64::from(p.peer)))
                + varint_len(zigzag(i64::from(doc.local) - i64::from(p.local)))
                + 2
        }
    }
}

/// How many of the list's references a floor keeps (the prefix scoring
/// `>= floor`; the refs are stored best-first).
fn kept_under(list: &TruncatedPostingList, floor: Option<f64>) -> usize {
    match floor {
        None => list.len(),
        Some(f) => list.refs().partition_point(|r| r.score >= f),
    }
}

/// Encodes `list` into a fresh frame. With a `score_floor`, only the prefix of
/// references scoring at least the floor is encoded (see the module docs; no
/// probe passes one).
pub fn encode_list(list: &TruncatedPostingList, score_floor: Option<f64>) -> Vec<u8> {
    let kept = kept_under(list, score_floor);
    let refs = &list.refs()[..kept];
    // Size by the O(1) worst-case bound rather than the exact-length dry run:
    // the buffer is short-lived and the ~2-3x over-allocation is cheaper than
    // a second pass over every entry on the probe hot path.
    let mut out = Vec::with_capacity(max_encoded_list_len(kept));
    out.push(FORMAT_VERSION);
    put_varint(&mut out, list.full_df() - (list.len() - kept) as u64);
    put_varint(&mut out, list.capacity() as u64);
    put_varint(&mut out, kept as u64);
    if kept > 0 {
        // The quantization range spans the *full* list's scores — not just the
        // kept prefix — so a floored frame quantizes every kept entry on
        // exactly the grid the unfloored frame would use. `as f32` rounding
        // can land hi slightly below the true best (or lo slightly above the
        // true worst), so widen to the next representable f32 to keep every
        // score inside the range. Scores outside the finite f32 range (or NaN)
        // are clamped first so the frame always stays decodable — quantization
        // of such degenerate scores is then arbitrary, but the probe path can
        // never produce a frame its own querier rejects.
        let all = list.refs();
        let hi = widen_up(sanitize_score(refs[0].score));
        let lo = widen_down(sanitize_score(all[all.len() - 1].score));
        put_f32(&mut out, hi);
        put_f32(&mut out, lo);
        let mut prev: Option<DocId> = None;
        for r in refs {
            match prev {
                None => {
                    put_varint(&mut out, u64::from(r.doc.peer));
                    put_varint(&mut out, u64::from(r.doc.local));
                }
                Some(p) => {
                    put_varint(&mut out, zigzag(i64::from(r.doc.peer) - i64::from(p.peer)));
                    put_varint(
                        &mut out,
                        zigzag(i64::from(r.doc.local) - i64::from(p.local)),
                    );
                }
            }
            put_u16(&mut out, quantize(r.score, f64::from(lo), f64::from(hi)));
            prev = Some(r.doc);
        }
    }
    append_trailer(&mut out, 0);
    out
}

/// Maps a score into the finite `f32`-representable range (NaN becomes 0) so
/// the quantization range written to the wire is always finite.
fn sanitize_score(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(f64::from(f32::MIN), f64::from(f32::MAX))
    }
}

/// Next representable `f32` at or above `v` (so quantization ranges always
/// contain the `f64` scores they were derived from).
fn widen_up(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) < v {
        f32::from_bits(if f >= 0.0 {
            f.to_bits() + 1
        } else {
            f.to_bits() - 1
        })
    } else {
        f
    }
}

/// Next representable `f32` at or below `v`.
fn widen_down(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) > v {
        f32::from_bits(if f > 0.0 {
            f.to_bits() - 1
        } else {
            f.to_bits() + 1
        })
    } else {
        f
    }
}

/// Exact length of [`encode_list`]`(list, None)` — pure arithmetic, no
/// allocation. This is what `TruncatedPostingList::wire_size` reports (and
/// what the simulator charges for a probe response).
pub fn encoded_list_len(list: &TruncatedPostingList) -> usize {
    let header = FRAME_TRAILER_LEN
        + 1
        + varint_len(list.full_df())
        + varint_len(list.capacity() as u64)
        + varint_len(list.len() as u64);
    if list.is_empty() {
        return header;
    }
    let mut len = header + 8; // score_hi + score_lo
    let mut prev = None;
    for r in list.refs() {
        len += in_list_entry_len(prev, r.doc);
        prev = Some(r.doc);
    }
    len
}

/// Worst-case length of a list frame carrying at most `entries` references —
/// the sound upper bound [`crate::global_index::GlobalIndex::estimate_probe_bytes`]
/// builds on and the plan's Reserve rule reserves against. Holds for any document ids, scores,
/// `full_df` and capacity.
pub fn max_encoded_list_len(entries: usize) -> usize {
    // trailer + version + full_df/capacity varints at their 10-byte u64 worst
    // case + the entry count.
    let header = FRAME_TRAILER_LEN + 1 + 10 + 10 + varint_len(entries as u64);
    if entries == 0 {
        header
    } else {
        header + 8 + entries * MAX_ENTRY_LEN
    }
}

/// Decodes a whole list frame.
pub fn decode_list(frame: &[u8]) -> Result<TruncatedPostingList, CodecError> {
    // Integrity first: the whole frame is in hand, so the trailer is verified
    // before a single body byte is parsed.
    let buf = verify_trailer(frame)?;
    let mut pos = 0usize;
    let version = *buf
        .get(pos)
        .ok_or_else(|| CodecError::new("empty list frame"))?;
    pos += 1;
    if version != FORMAT_VERSION {
        return Err(CodecError::new(format!("unknown frame version {version}")));
    }
    let full_df = get_varint(buf, &mut pos)?;
    let capacity = usize::try_from(get_varint(buf, &mut pos)?)
        .map_err(|_| CodecError::new("capacity overflows usize"))?;
    let n = get_varint(buf, &mut pos)?;
    if n > ((buf.len() - pos) / MIN_ENTRY_LEN) as u64 {
        return Err(CodecError::new(
            "entry count exceeds what the frame can carry",
        ));
    }
    let mut refs: Vec<ScoredRef> = Vec::with_capacity(n as usize);
    if n > 0 {
        let hi = f64::from(get_f32(buf, &mut pos)?);
        let lo = f64::from(get_f32(buf, &mut pos)?);
        if !hi.is_finite() || !lo.is_finite() {
            return Err(CodecError::new("non-finite quantization range"));
        }
        let mut prev: Option<DocId> = None;
        for _ in 0..n {
            let doc = match prev {
                None => {
                    let peer = u32::try_from(get_varint(buf, &mut pos)?)
                        .map_err(|_| CodecError::new("peer id overflows u32"))?;
                    let local = u32::try_from(get_varint(buf, &mut pos)?)
                        .map_err(|_| CodecError::new("local id overflows u32"))?;
                    DocId::new(peer, local)
                }
                Some(p) => {
                    let dp = unzigzag(get_varint(buf, &mut pos)?);
                    let dl = unzigzag(get_varint(buf, &mut pos)?);
                    let peer = i64::from(p.peer)
                        .checked_add(dp)
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| CodecError::new("peer delta out of range"))?;
                    let local = i64::from(p.local)
                        .checked_add(dl)
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| CodecError::new("local delta out of range"))?;
                    DocId::new(peer, local)
                }
            };
            let q = get_u16(buf, &mut pos)?;
            prev = Some(doc);
            refs.push(ScoredRef {
                doc,
                score: dequantize(q, lo, hi),
            });
        }
    }
    // A decode consumes the whole frame; leftover bytes mean the buffer was
    // corrupted or mis-framed.
    if pos != buf.len() {
        return Err(CodecError::new("trailing bytes after list frame"));
    }
    // Canonical list order: descending score, ties by ascending document id
    // (distinct scores may collapse into quantized ties).
    refs.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
    TruncatedPostingList::from_wire_parts(refs, capacity, full_df).map_err(CodecError::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(scores: &[(u32, u32, f64)], capacity: usize) -> TruncatedPostingList {
        TruncatedPostingList::from_refs(
            scores.iter().map(|(p, l, s)| ScoredRef {
                doc: DocId::new(*p, *l),
                score: *s,
            }),
            capacity,
        )
    }

    /// Appends the checksum trailer to a hand-built frame body.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = frame_checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    #[test]
    fn frame_checksum_golden_values() {
        // Pins the checksum definition itself (Adler-32): the trailer bytes of
        // every golden frame below derive from these.
        assert_eq!(frame_checksum(b""), 0x0000_0001);
        assert_eq!(frame_checksum(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(frame_checksum(&[0u8]), 0x0001_0001);
    }

    #[test]
    fn single_bit_flips_always_change_the_checksum() {
        let frames = [
            encode_list(&list(&[(1, 5, 3.0), (1, 6, 1.0)], 4), None),
            encode_list(&TruncatedPostingList::new(10), None),
        ];
        for frame in frames {
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    decode_list(&flipped).is_err(),
                    "bit {bit} flip decoded silently"
                );
            }
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len of {v}");
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::from(u32::MAX),
            -i64::from(u32::MAX),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small on the wire.
        assert_eq!(varint_len(zigzag(0)), 1);
        assert_eq!(varint_len(zigzag(-1)), 1);
        assert_eq!(varint_len(zigzag(63)), 1);
    }

    #[test]
    fn empty_list_is_an_eight_byte_frame() {
        let empty = TruncatedPostingList::new(10);
        let bytes = encode_list(&empty, None);
        assert_eq!(bytes, seal(vec![FORMAT_VERSION, 0, 10, 0]));
        assert_eq!(bytes.len(), 4 + FRAME_TRAILER_LEN);
        assert_eq!(encoded_list_len(&empty), bytes.len());
        let back = decode_list(&bytes).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn golden_list_frame_layout() {
        // Two entries, same peer, adjacent docs, scores 3.0 and 1.0: pins the
        // exact byte layout the simulator charges (the ScoredRef satellite).
        let l = list(&[(1, 5, 3.0), (1, 6, 1.0)], 4);
        let bytes = encode_list(&l, None);
        let hi = 3.0f32.to_le_bytes();
        let lo = 1.0f32.to_le_bytes();
        let expected = vec![
            FORMAT_VERSION, // version
            2,              // full_df
            4,              // capacity
            2,              // n
            hi[0],
            hi[1],
            hi[2],
            hi[3], // score_hi = 3.0
            lo[0],
            lo[1],
            lo[2],
            lo[3], // score_lo = 1.0
            1,
            5, // first entry: peer=1, local=5 (absolute varints)
            0xff,
            0xff, // q(3.0) = 65535
            0,
            2, // second entry: Δpeer=0, Δlocal=+1 (zigzag = 2)
            0x00,
            0x00, // q(1.0) = 0
        ];
        assert_eq!(bytes, seal(expected));
        assert_eq!(encoded_list_len(&l), bytes.len());
        let back = decode_list(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.refs()[0].doc, DocId::new(1, 5));
        assert_eq!(back.refs()[0].score, 3.0);
        assert_eq!(back.refs()[1].score, 1.0);
        assert!(!back.is_truncated());

        // The same list as version 2 framed it (total/kept counts, one block
        // led by max_q, entry count and payload length) is no longer read.
        let mut v2 = vec![2, 2, 4, 2, 2];
        v2.extend_from_slice(&hi);
        v2.extend_from_slice(&lo);
        v2.extend_from_slice(&[1, 0xff, 0xff, 2, 8, 1, 5, 0xff, 0xff, 0, 2, 0, 0]);
        assert!(matches!(
            decode_list(&seal(v2)),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn round_trip_preserves_docs_and_bounds_score_error() {
        let l = list(
            &[
                (0, 1, 9.25),
                (3, 7, 8.5),
                (0, 2, 7.125),
                (2, 9, 3.75),
                (1, 1, 0.5),
            ],
            8,
        );
        let bytes = encode_list(&l, None);
        let back = decode_list(&bytes).unwrap();
        assert_eq!(back.len(), l.len());
        assert_eq!(back.full_df(), l.full_df());
        assert_eq!(back.capacity(), l.capacity());
        let step = quantization_step(0.5, 9.25) + 1e-6;
        for (a, b) in l.refs().iter().zip(back.refs()) {
            assert_eq!(a.doc, b.doc);
            assert!(
                (a.score - b.score).abs() <= step,
                "{} vs {}",
                a.score,
                b.score
            );
        }
    }

    #[test]
    fn reinserting_a_decoded_document_changes_neither_len_nor_full_df() {
        let mut l = TruncatedPostingList::new(3);
        for i in 0..10 {
            l.insert(ScoredRef {
                doc: DocId::new(0, i),
                score: f64::from(i),
            });
        }
        let mut back = decode_list(&encode_list(&l, None)).unwrap();
        assert!(back.is_truncated());
        // A stored document inserted again is a duplicate, not a new one.
        let stored = back.refs()[0];
        back.insert(stored);
        assert_eq!(back.len(), l.len());
        assert_eq!(back.full_df(), l.full_df());
    }

    #[test]
    fn encode_floor_elides_the_tail_and_preserves_truncation_status() {
        let complete = list(&[(0, 0, 5.0), (0, 1, 4.0), (0, 2, 1.0)], 10);
        assert!(!complete.is_truncated());
        let bytes = encode_list(&complete, Some(3.0));
        assert!(bytes.len() < encode_list(&complete, None).len());
        let back = decode_list(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert!(
            !back.is_truncated(),
            "floor elision must not masquerade as capacity truncation"
        );

        let mut truncated = TruncatedPostingList::new(3);
        for i in 0..10u32 {
            truncated.insert(ScoredRef {
                doc: DocId::new(0, i),
                score: f64::from(10 - i),
            });
        }
        assert!(truncated.is_truncated());
        let back = decode_list(&encode_list(&truncated, Some(9.5))).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.is_truncated());
    }

    #[test]
    fn max_encoded_len_bounds_arbitrary_lists() {
        for n in [0usize, 1, 2, 15, 16, 17, 100] {
            let mut l = TruncatedPostingList::new(n.max(1));
            for i in 0..n as u32 {
                // Adversarial ids: alternate extremes so deltas are worst-case.
                let peer = if i % 2 == 0 { 0 } else { u32::MAX };
                l.insert(ScoredRef {
                    doc: DocId::new(peer, i.wrapping_mul(2_654_435_761)),
                    score: f64::from(n as u32 - i),
                });
            }
            let actual = encode_list(&l, None).len();
            assert!(
                actual <= max_encoded_list_len(l.len()),
                "{n} entries: {actual} > bound {}",
                max_encoded_list_len(l.len())
            );
        }
    }

    #[test]
    fn key_frame_golden_layout_and_round_trip() {
        let key = TermKey::new(["cde", "ab"]);
        let mut buf = Vec::new();
        encode_key(&mut buf, &key);
        assert_eq!(buf, seal(vec![2, 2, b'a', b'b', 3, b'c', b'd', b'e']));
        assert_eq!(key_frame_len([2usize, 3]), buf.len());
        assert_eq!(decode_key(&buf).unwrap(), vec!["ab", "cde"]);
        // A flipped key-frame bit is detected just like a list-frame one.
        let mut flipped = buf.clone();
        flipped[2] ^= 0x01;
        assert!(decode_key(&flipped).unwrap_err().is_corrupt());
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        assert!(decode_list(&[]).is_err());
        assert!(
            decode_list(&seal(vec![99, 0, 0, 0])).is_err(),
            "bad version"
        );
        let l = list(&[(0, 0, 1.0)], 2);
        let bytes = encode_list(&l, None);
        assert!(decode_list(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        // Structural checks still fire behind a *valid* trailer: re-seal the
        // tampered bodies so the failure is the body check, not the checksum.
        let body_of = |frame: &[u8]| frame[..frame.len() - FRAME_TRAILER_LEN].to_vec();
        let mut trailing = body_of(&bytes);
        trailing.push(0xAB);
        assert_eq!(
            decode_list(&seal(trailing)),
            Err(CodecError::new("trailing bytes after list frame"))
        );
        // Fewer declared entries than the body carries leaves trailing bytes.
        let two = encode_list(&list(&[(0, 0, 2.0), (0, 1, 1.0)], 4), None);
        let mut lying = body_of(&two);
        lying[3] = 1; // n: 2 -> 1, the body still carries 2 entries
        assert!(decode_list(&seal(lying)).is_err(), "under-declared entries");
        // A key frame declaring an absurd term length must error, not overflow.
        assert!(decode_key(&seal(vec![
            1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1
        ]))
        .is_err());
        // A delta entry whose zigzag delta overflows i64 addition must error,
        // not overflow: first entry peer=u32::MAX, then Δpeer = i64::MAX.
        let mut frame = vec![FORMAT_VERSION, 2, 4, 2];
        frame.extend_from_slice(&1.0f32.to_le_bytes()); // score_hi
        frame.extend_from_slice(&0.0f32.to_le_bytes()); // score_lo
        put_varint(&mut frame, u64::from(u32::MAX)); // peer
        put_varint(&mut frame, 0); // local
        put_u16(&mut frame, 0xffff);
        put_varint(&mut frame, zigzag(i64::MAX)); // Δpeer overflows
        put_varint(&mut frame, 0); // Δlocal
        put_u16(&mut frame, 0);
        assert!(decode_list(&seal(frame)).is_err(), "delta overflow");
    }

    #[test]
    fn degenerate_scores_still_produce_decodable_frames() {
        // Scores outside the f32 range (and NaN) are clamped at encode time:
        // the probe path must never produce a frame its querier rejects.
        for scores in [
            vec![(0u32, 0u32, 1e300f64), (0, 1, 1.0)],
            vec![(0, 0, f64::NAN), (0, 1, 2.0)],
            vec![(0, 0, f64::INFINITY), (0, 1, f64::NEG_INFINITY)],
        ] {
            let l = list(&scores, 4);
            let bytes = encode_list(&l, None);
            let back = decode_list(&bytes).expect("degenerate scores decode");
            assert_eq!(back.len(), l.len());
            for r in back.refs() {
                assert!(r.score.is_finite(), "decoded score {:?}", r.score);
            }
        }
    }

    #[test]
    fn quantization_is_monotone() {
        let lo = 0.0;
        let hi = 10.0;
        let mut prev = u16::MAX;
        for i in (0..=1000).rev() {
            let q = quantize(f64::from(i) * 0.01, lo, hi);
            assert!(q <= prev);
            prev = q;
        }
        assert_eq!(quantize(10.0, lo, hi), SCORE_LEVELS);
        assert_eq!(quantize(0.0, lo, hi), 0);
        assert!(
            (dequantize(quantize(5.0, lo, hi), lo, hi) - 5.0).abs() <= quantization_step(lo, hi)
        );
    }
}

//! Wire-size accounting.
//!
//! The central scalability argument of the paper is about **bytes on the wire**:
//! single-term indexes ship unboundedly long posting lists, HDK/QDI ship bounded ones.
//! Every message payload in the reproduction therefore implements [`WireSize`], a
//! deterministic estimate of its serialized size. The upper layers sum these estimates
//! into [`crate::stats::TrafficStats`].
//!
//! The estimates model a compact binary encoding (fixed-width integers, length-prefixed
//! strings and sequences) rather than the exact bytes of any particular serializer, so
//! that bandwidth numbers are stable across serde/format changes.

/// Fixed per-message envelope overhead in bytes (source, destination, type tag,
/// sequence number) — roughly a UDP header plus a small application header.
pub const ENVELOPE_OVERHEAD: usize = 32;

/// Types that can report the number of bytes they would occupy on the wire.
pub trait WireSize {
    /// Estimated serialized size in bytes (excluding the message envelope).
    fn wire_size(&self) -> usize;

    /// A stable digest of the value's replicated content, used by
    /// anti-entropy repair to compare copies across holders without shipping
    /// the value itself. The default (the wire size) is a weak stand-in
    /// sufficient for toy payloads; types whose replica copies must be
    /// integrity-checked override it with a real content hash.
    fn content_digest(&self) -> u64 {
        self.wire_size() as u64
    }
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl WireSize for bool {
    fn wire_size(&self) -> usize {
        1
    }
}

macro_rules! impl_wire_size_scalar {
    ($($t:ty),*) => {
        $(impl WireSize for $t {
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

impl_wire_size_scalar!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl WireSize for String {
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
}

impl WireSize for &str {
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_size)
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        4 + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

impl<T: WireSize> WireSize for &[T] {
    fn wire_size(&self) -> usize {
        4 + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(0u8.wire_size(), 1);
        assert_eq!(0u32.wire_size(), 4);
        assert_eq!(0u64.wire_size(), 8);
        assert_eq!(0f64.wire_size(), 8);
        assert_eq!(true.wire_size(), 1);
        assert_eq!(().wire_size(), 0);
    }

    #[test]
    fn string_and_bytes_sizes() {
        assert_eq!("abc".wire_size(), 7);
        assert_eq!(String::from("hello").wire_size(), 9);
        assert_eq!(b"12345678".to_vec().wire_size(), 12);
    }

    #[test]
    fn container_sizes() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(v.wire_size(), 4 + 12);
        let o: Option<u64> = Some(9);
        assert_eq!(o.wire_size(), 9);
        let n: Option<u64> = None;
        assert_eq!(n.wire_size(), 1);
        assert_eq!((1u32, "ab").wire_size(), 4 + 6);
        assert_eq!((1u8, 2u8, 3u8).wire_size(), 3);
    }

    #[test]
    fn nested_containers() {
        let vv: Vec<Vec<u16>> = vec![vec![1, 2], vec![3]];
        // outer 4 + (4 + 4) + (4 + 2)
        assert_eq!(vv.wire_size(), 18);
    }
}

//! Ring identifiers and key hashing.
//!
//! The AlvisP2P overlay is a structured DHT over a circular identifier space.
//! Both peers and indexing keys are mapped to 64-bit identifiers on the ring;
//! the peer *responsible* for a key is the first peer clockwise from the key's
//! identifier (its successor).

use std::fmt;

/// A position on the 64-bit identifier ring.
///
/// Used both for peer identifiers and for hashed index keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingId(pub u64);

impl RingId {
    /// The smallest identifier.
    pub const MIN: RingId = RingId(0);
    /// The largest identifier.
    pub const MAX: RingId = RingId(u64::MAX);

    /// Hashes an arbitrary string (e.g. an indexing key such as `"database p2p"`)
    /// onto the ring using the 64-bit FNV-1a function.
    ///
    /// FNV-1a is not cryptographic, but it is deterministic, fast and uniform enough
    /// for load-balancing index keys over peers, which is all the DHT needs.
    ///
    /// Equivalent to streaming the string's bytes through a [`RingHasher`]; callers
    /// that hash a logical string scattered over several fragments (e.g. the
    /// `"a+b+c"` canonical form of a multi-term key whose terms live in an interner)
    /// can use the hasher directly and skip materializing the string.
    pub fn hash_str(s: &str) -> RingId {
        let mut h = RingHasher::new();
        h.write(s.as_bytes());
        h.finish()
    }

    /// Hashes an integer onto the ring (used for peer identifiers derived from
    /// simulated addresses).
    pub fn hash_u64(x: u64) -> RingId {
        RingId(Self::mix(x.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }

    /// Creates an identifier from a fraction of the ring in `[0, 1)`. Used to place
    /// peers with controlled (possibly skewed) distributions.
    pub fn from_fraction(f: f64) -> RingId {
        let f = f.clamp(0.0, 0.999_999_999_999);
        RingId((f * u64::MAX as f64) as u64)
    }

    /// The position of this identifier as a fraction of the ring in `[0, 1)`.
    pub fn to_fraction(self) -> f64 {
        self.0 as f64 / u64::MAX as f64
    }

    /// Clockwise distance from `self` to `other` (how far one must travel forward on
    /// the ring, wrapping around, to reach `other`).
    pub fn distance_to(self, other: RingId) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Whether `self` lies in the half-open clockwise interval `(from, to]`.
    ///
    /// This is the interval used for successor responsibility: the peer with
    /// identifier `p` is responsible for every key in `(predecessor(p), p]`.
    pub fn in_interval_open_closed(self, from: RingId, to: RingId) -> bool {
        if from == to {
            // The interval covers the whole ring (single peer).
            return true;
        }
        from.distance_to(self) <= from.distance_to(to) && self != from
    }

    /// Whether `self` lies in the open clockwise interval `(from, to)`.
    pub fn in_interval_open_open(self, from: RingId, to: RingId) -> bool {
        if from == to {
            return self != from;
        }
        self != from && self != to && from.distance_to(self) < from.distance_to(to)
    }

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Incremental version of [`RingId::hash_str`]: feed byte fragments in order and
/// [`RingHasher::finish`] to obtain the identifier the concatenation would hash to.
///
/// This is what lets a multi-term key compute its ring identifier once, at
/// construction, without ever materializing its `"a+b"` canonical string: the term
/// fragments and `+` separators are streamed straight out of the interner.
#[derive(Clone, Copy, Debug)]
pub struct RingHasher {
    state: u64,
}

impl RingHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in the initial (empty input) state.
    pub fn new() -> Self {
        RingHasher {
            state: Self::FNV_OFFSET,
        }
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(Self::FNV_PRIME);
        }
        self.state = h;
    }

    /// Folds a single byte into the running hash.
    pub fn write_byte(&mut self, byte: u8) {
        self.state = (self.state ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
    }

    /// Finalizes the hash (splitmix64 avalanche to break up FNV's weak high bits).
    pub fn finish(self) -> RingId {
        RingId(RingId::mix(self.state))
    }
}

impl Default for RingHasher {
    fn default() -> Self {
        RingHasher::new()
    }
}

impl fmt::Debug for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RingId({:016x})", self.0)
    }
}

impl fmt::Display for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_str_is_deterministic_and_spread() {
        assert_eq!(RingId::hash_str("database"), RingId::hash_str("database"));
        assert_ne!(RingId::hash_str("database"), RingId::hash_str("databases"));
        assert_ne!(RingId::hash_str("a b"), RingId::hash_str("b a"));
    }

    #[test]
    fn streaming_hasher_matches_hash_str() {
        for s in ["", "a", "databas+peer", "a+b+c", "long+canonical+key+form"] {
            let mut h = RingHasher::new();
            for (i, frag) in s.split('+').enumerate() {
                if i > 0 {
                    h.write_byte(b'+');
                }
                h.write(frag.as_bytes());
            }
            assert_eq!(h.finish(), RingId::hash_str(s), "fragmented hash of {s:?}");
        }
        // Byte-at-a-time streaming is equivalent too.
        let mut h = RingHasher::new();
        for b in "peer+retriev".bytes() {
            h.write_byte(b);
        }
        assert_eq!(h.finish(), RingId::hash_str("peer+retriev"));
    }

    #[test]
    fn hash_u64_differs_from_input() {
        assert_ne!(RingId::hash_u64(0).0, 0);
        assert_ne!(RingId::hash_u64(1), RingId::hash_u64(2));
    }

    #[test]
    fn fraction_round_trip() {
        for f in [0.0, 0.25, 0.5, 0.75, 0.999] {
            let id = RingId::from_fraction(f);
            assert!((id.to_fraction() - f).abs() < 1e-9, "fraction {f}");
        }
        // Out-of-range fractions are clamped.
        assert_eq!(RingId::from_fraction(-1.0), RingId(0));
        assert!(RingId::from_fraction(2.0).0 > 0);
    }

    #[test]
    fn distance_wraps_around() {
        let a = RingId(u64::MAX - 10);
        let b = RingId(5);
        assert_eq!(a.distance_to(b), 16);
        assert_eq!(b.distance_to(a), u64::MAX - 15);
        assert_eq!(a.distance_to(a), 0);
    }

    #[test]
    fn interval_open_closed() {
        let a = RingId(100);
        let b = RingId(200);
        assert!(RingId(150).in_interval_open_closed(a, b));
        assert!(RingId(200).in_interval_open_closed(a, b));
        assert!(!RingId(100).in_interval_open_closed(a, b));
        assert!(!RingId(250).in_interval_open_closed(a, b));
        // Wrapping interval.
        let c = RingId(u64::MAX - 5);
        let d = RingId(10);
        assert!(RingId(2).in_interval_open_closed(c, d));
        assert!(RingId(u64::MAX).in_interval_open_closed(c, d));
        assert!(!RingId(500).in_interval_open_closed(c, d));
        // Degenerate interval (single peer) covers the whole ring.
        assert!(RingId(77).in_interval_open_closed(a, a));
    }

    #[test]
    fn interval_open_open() {
        let a = RingId(100);
        let b = RingId(200);
        assert!(RingId(150).in_interval_open_open(a, b));
        assert!(!RingId(200).in_interval_open_open(a, b));
        assert!(!RingId(100).in_interval_open_open(a, b));
        // Degenerate: everything except the point itself.
        assert!(RingId(5).in_interval_open_open(a, a));
        assert!(!RingId(100).in_interval_open_open(a, a));
    }

    #[test]
    fn hash_str_is_roughly_uniform() {
        // Hash many strings and check all four quadrants of the ring are hit.
        let mut quadrants = [0usize; 4];
        for i in 0..4000 {
            let id = RingId::hash_str(&format!("term{i}"));
            quadrants[(id.to_fraction() * 4.0) as usize % 4] += 1;
        }
        for q in quadrants {
            assert!(q > 700, "quadrant count {q} too small: {quadrants:?}");
        }
    }
}

//! A stable content hasher, so fingerprints survive process restarts.
//!
//! [`Trace`](crate::Trace) fingerprints its instructions with it,
//! [`WarmSet`](crate::WarmSet) memoizes its addresses' fold into it, and
//! the runner keys its content-addressed result cache (in memory and on disk)
//! by values it produces. It is FNV-1a over the types' `Hash` impls, so
//! fingerprints are stable across runs and platforms (unlike
//! `DefaultHasher`, whose algorithm is unspecified).

use std::hash::Hasher;

/// A 64-bit FNV-1a [`Hasher`] with a fixed, documented algorithm.
#[derive(Debug, Clone)]
pub struct StableHasher {
    pub(crate) state: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    // Fixed-width integers hash as little-endian bytes regardless of the
    // host platform (the std defaults use native endianness, which would
    // make on-disk cache keys non-portable).
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn fingerprints_are_stable_values() {
        // Pin one fingerprint: a change here means every on-disk cache in
        // the wild silently invalidates, which should be a conscious
        // decision, not an accident.
        let mut h = StableHasher::default();
        0xdead_beef_u64.hash(&mut h);
        assert_eq!(h.finish(), 0x7513_fc78_a110_e05b);
    }
}

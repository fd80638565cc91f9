//! Index generators — the hash functions of CA-RAM (Sec. 3.1).
//!
//! The index generator maps an `N`-bit search key to an `R`-bit row index.
//! "In many applications, index generation is as simple as bit selection,
//! incurring very little additional logic or delay. In other cases, simple
//! arithmetic functions ... may be necessary" — so the trait is object-safe
//! and ships with:
//!
//! * [`BitSelect`] — the Zane et al. bit-selection scheme used for IP lookup
//!   (Sec. 4.1);
//! * [`RangeSelect`] — a contiguous bit field (the paper's final choice:
//!   the last `R` bits of the first 16 address bits);
//! * [`DjbHash`] — the DJB string hash used for trigram lookup (Sec. 4.2);
//! * [`XorFold`] — a simple arithmetic fold for general use.
//!
//! A generator also reports which key bit positions it consumes
//! ([`IndexGenerator::consumed_bits`]); records with don't-care bits in
//! those positions must be duplicated into every matching bucket, and a
//! search key with don't-care bits there must probe multiple buckets —
//! both enumerated by [`buckets_for_masked_search`] (Sec. 4,
//! "limitations").

use crate::bits::low_mask;
use crate::key::SearchKey;

/// Maps keys to row indices. Implementations must be pure functions of the
/// key value: CA-RAM computes the same index at build time (software) and
/// lookup time (hardware).
pub trait IndexGenerator: Send + Sync + core::fmt::Debug {
    /// Number of index bits produced (`R`); the table has `2^R` buckets.
    fn index_bits(&self) -> u32;

    /// Computes the row index for a key value. The result is below
    /// `2^index_bits()`.
    fn index(&self, key_value: u128) -> u64;

    /// Key bit positions that influence the index, as a mask. Returns
    /// `None` when the whole key is consumed (e.g. by a string hash).
    ///
    /// Returning `Some(mask)` promises that the generator is a pure bit
    /// selection over `mask`: every index bit is a copy of one distinct key
    /// bit in `mask`, and every bit of `mask` feeds exactly one index bit.
    /// Then `index(a | b) == index(a) | index(b)` and `index(0) == 0`,
    /// which [`buckets_for_masked_search`] relies on to enumerate homes
    /// directly. Generators that mix bits (hashes, folds) must return
    /// `None`.
    fn consumed_bits(&self) -> Option<u128>;
}

/// Selects arbitrary key bit positions as the index (Zane et al. \[32\]).
///
/// Bit `i` of the index is the key bit at `positions[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSelect {
    positions: Vec<u32>,
}

impl BitSelect {
    /// Creates a bit-selection generator from the given key bit positions.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty, longer than 63, or contains a
    /// position ≥ 128 or a duplicate.
    #[must_use]
    pub fn new(positions: Vec<u32>) -> Self {
        assert!(
            !positions.is_empty() && positions.len() < 64,
            "index width must be in 1..=63 bits, got {}",
            positions.len()
        );
        let mut seen = 0u128;
        for &p in &positions {
            assert!(p < 128, "bit position {p} out of range");
            assert!(seen & (1 << p) == 0, "duplicate bit position {p}");
            seen |= 1 << p;
        }
        Self { positions }
    }

    /// The selected key bit positions.
    #[must_use]
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }
}

impl IndexGenerator for BitSelect {
    fn index_bits(&self) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        {
            self.positions.len() as u32
        }
    }

    fn index(&self, key_value: u128) -> u64 {
        let mut idx = 0u64;
        for (i, &p) in self.positions.iter().enumerate() {
            idx |= (((key_value >> p) & 1) as u64) << i;
        }
        idx
    }

    fn consumed_bits(&self) -> Option<u128> {
        Some(self.positions.iter().fold(0u128, |m, &p| m | (1 << p)))
    }
}

/// Selects a contiguous field of `count` bits starting at bit `low`.
///
/// For the paper's IP study the index is the last `R` bits of the first
/// 16 bits of the address; with MSB-first addressing of a 32-bit value this
/// is `RangeSelect::new(16, R)`.
///
/// # Examples
///
/// ```
/// use ca_ram_core::index::{IndexGenerator, RangeSelect};
///
/// let hash = RangeSelect::ip_first16_last(11); // Table 2 designs A-C
/// assert_eq!(hash.index_bits(), 11);
/// assert_eq!(hash.index(0xC0A8_1234), (0xC0A8_1234u64 >> 16) & 0x7FF);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeSelect {
    low: u32,
    count: u32,
}

impl RangeSelect {
    /// Creates a contiguous-field generator.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or ≥ 64, or the field exceeds 128 bits.
    #[must_use]
    pub fn new(low: u32, count: u32) -> Self {
        assert!(
            count > 0 && count < 64,
            "index width must be in 1..=63 bits"
        );
        assert!(
            low + count <= 128,
            "field [{low}, {}) out of range",
            low + count
        );
        Self { low, count }
    }

    /// The paper's IP-lookup hash: the last `r` bits of the first 16 bits
    /// of a 32-bit IPv4 address (address bits 16..16+r counting from the
    /// least-significant end).
    ///
    /// # Panics
    ///
    /// Panics if `r` is 0 or greater than 16.
    #[must_use]
    pub fn ip_first16_last(r: u32) -> Self {
        assert!(
            r > 0 && r <= 16,
            "the paper restricts hash bits to the first 16"
        );
        Self::new(16, r)
    }
}

impl IndexGenerator for RangeSelect {
    fn index_bits(&self) -> u32 {
        self.count
    }

    fn index(&self, key_value: u128) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            ((key_value >> self.low) as u64) & ((1u64 << self.count) - 1)
        }
    }

    fn consumed_bits(&self) -> Option<u128> {
        Some(low_mask(self.count) << self.low)
    }
}

/// The DJB string hash over the key's bytes (Sec. 4.2):
/// `hash(i) = (hash(i-1) << 5) + hash(i-1) + str[i]`, seed 5381.
///
/// The key value is interpreted as `key_bytes` bytes, least-significant
/// byte first (the order `ca_ram_workloads::trigram::pack_text_key` packs
/// string keys in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DjbHash {
    index_bits: u32,
    key_bytes: u32,
}

impl DjbHash {
    /// Creates a DJB generator producing `index_bits` bits over
    /// `key_bytes`-byte keys.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or ≥ 64, or `key_bytes` is 0 or > 16.
    #[must_use]
    pub fn new(index_bits: u32, key_bytes: u32) -> Self {
        assert!(
            index_bits > 0 && index_bits < 64,
            "index width must be in 1..=63 bits"
        );
        assert!(key_bytes > 0 && key_bytes <= 16, "key must be 1..=16 bytes");
        Self {
            index_bits,
            key_bytes,
        }
    }

    /// The raw 32-bit DJB hash of `bytes`.
    #[must_use]
    pub fn raw(bytes: &[u8]) -> u32 {
        let mut h: u32 = 5381;
        for &b in bytes {
            h = h.wrapping_shl(5).wrapping_add(h).wrapping_add(u32::from(b));
        }
        h
    }
}

impl IndexGenerator for DjbHash {
    fn index_bits(&self) -> u32 {
        self.index_bits
    }

    fn index(&self, key_value: u128) -> u64 {
        let mut bytes = [0u8; 16];
        for (i, b) in bytes.iter_mut().enumerate().take(self.key_bytes as usize) {
            #[allow(clippy::cast_possible_truncation)] // low byte extraction
            {
                *b = (key_value >> (8 * i)) as u8;
            }
        }
        u64::from(Self::raw(&bytes[..self.key_bytes as usize])) & ((1u64 << self.index_bits) - 1)
    }

    fn consumed_bits(&self) -> Option<u128> {
        None
    }
}

/// XOR-folds the whole key down to `index_bits` bits — a cheap arithmetic
/// generator for keys without exploitable structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorFold {
    index_bits: u32,
}

impl XorFold {
    /// Creates an XOR-fold generator.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or ≥ 64.
    #[must_use]
    pub fn new(index_bits: u32) -> Self {
        assert!(
            index_bits > 0 && index_bits < 64,
            "index width must be in 1..=63 bits"
        );
        Self { index_bits }
    }
}

impl IndexGenerator for XorFold {
    fn index_bits(&self) -> u32 {
        self.index_bits
    }

    fn index(&self, key_value: u128) -> u64 {
        let mut acc = 0u128;
        let mut v = key_value;
        while v != 0 {
            acc ^= v & low_mask(self.index_bits);
            v >>= self.index_bits;
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            acc as u64
        }
    }

    fn consumed_bits(&self) -> Option<u128> {
        None
    }
}

/// Inline capacity of a [`BucketList`]: lists of at most this many buckets
/// never touch the heap. The common lookup (no don't-care bits in the hash
/// positions) has exactly one home bucket.
pub const INLINE_BUCKETS: usize = 8;

/// A small-buffer list of bucket indices. Up to [`INLINE_BUCKETS`] entries
/// live on the stack; longer lists spill to a heap `Vec` that is retained
/// across [`BucketList::clear`], so a reused list allocates at most once —
/// the search hot path performs no per-lookup allocation.
#[derive(Debug, Clone, Default)]
pub struct BucketList {
    inline: [u64; INLINE_BUCKETS],
    len: usize,
    spill: Vec<u64>,
}

impl BucketList {
    /// Creates an empty list. Does not allocate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the list, keeping any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Appends a bucket index.
    pub fn push(&mut self, bucket: u64) {
        if !self.spill.is_empty() {
            self.spill.push(bucket);
        } else if self.len < INLINE_BUCKETS {
            self.inline[self.len] = bucket;
            self.len += 1;
        } else {
            // First spill: migrate the inline entries so the live data is
            // contiguous in exactly one of the two buffers.
            self.spill.reserve(INLINE_BUCKETS * 2);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(bucket);
            self.len = 0;
        }
    }

    /// The bucket indices as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    fn active_mut(&mut self) -> &mut [u64] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }

    /// Sorts the list and removes duplicates.
    pub fn sort_dedup(&mut self) {
        if self.spill.is_empty() && self.len <= 1 {
            return; // the unmasked-lookup common case: nothing to order
        }
        self.active_mut().sort_unstable();
        if self.spill.is_empty() {
            let mut kept = 0;
            for i in 0..self.len {
                if i == 0 || self.inline[i] != self.inline[kept - 1] {
                    self.inline[kept] = self.inline[i];
                    kept += 1;
                }
            }
            self.len = kept;
        } else {
            self.spill.dedup();
        }
    }

    /// Applies `bucket % modulus` to every entry (bucket-space reduction).
    pub fn map_mod(&mut self, modulus: u64) {
        // Bucket counts are a power of two for every horizontal-only
        // arrangement; masking there keeps the per-search reduction off
        // the 64-bit divider.
        if modulus.is_power_of_two() {
            let mask = modulus - 1;
            for b in self.active_mut() {
                *b &= mask;
            }
        } else {
            for b in self.active_mut() {
                *b %= modulus;
            }
        }
    }
}

/// The home buckets a stored key occupies, or a masked search key must
/// probe.
///
/// A stored key with `n` don't-care bits in the hash positions "must be
/// duplicated and placed in 2^n buckets" (Sec. 4.1); symmetrically, a search
/// key with don't-care bits taken by the hash function "must access multiple
/// buckets" (Sec. 4). Both reduce to enumerating the hash images of the
/// masked positions; the stored key itself is placed unchanged — with its
/// full mask — in each home bucket, so matching semantics and the LPM
/// priority (care count) are unaffected by duplication.
///
/// # Panics
///
/// Panics if more than 20 hash bits are don't-care (2^20 buckets), which
/// indicates a mis-designed hash function rather than a workload property.
#[must_use]
pub fn buckets_for_masked_search(key: &SearchKey, generator: &dyn IndexGenerator) -> Vec<u64> {
    let mut out = BucketList::new();
    buckets_for_masked_search_into(key, generator, &mut out);
    out.as_slice().to_vec()
}

/// Allocation-free form of [`buckets_for_masked_search`]: the (sorted,
/// deduplicated) buckets are written into `out`, which is cleared first.
/// With no don't-care hash bits the single home bucket stays in `out`'s
/// inline buffer and no heap allocation occurs.
///
/// # Panics
///
/// As [`buckets_for_masked_search`].
pub fn buckets_for_masked_search_into(
    key: &SearchKey,
    generator: &dyn IndexGenerator,
    out: &mut BucketList,
) {
    out.clear();
    let Some(consumed) = generator.consumed_bits() else {
        out.push(generator.index(key.value()));
        return;
    };
    let free = key.dont_care() & consumed & low_mask(key.bits());
    let n = free.count_ones();
    assert!(
        n <= 20,
        "{n} don't-care hash bits would probe 2^{n} buckets"
    );
    if n == 0 {
        out.push(generator.index(key.value()));
        return;
    }
    // A generator reporting consumed bits is a pure bit selection (the
    // `consumed_bits` contract), so the homes are the care bits' image
    // OR'd with every subset of the free bits' image. Walking the subsets
    // in ascending order yields the list already sorted and distinct.
    let free_index = generator.index(free);
    let base = generator.index(key.value() & !free);
    let mut sub = 0u64;
    loop {
        out.push(base | sub);
        if sub == free_index {
            break;
        }
        sub = sub.wrapping_sub(free_index) & free_index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::TernaryKey;

    #[test]
    fn bit_select_picks_bits() {
        let g = BitSelect::new(vec![0, 4, 7]);
        assert_eq!(g.index_bits(), 3);
        // key bits: b0=1, b4=0, b7=1 -> index 0b101.
        assert_eq!(g.index(0b1000_0001), 0b101);
        assert_eq!(g.consumed_bits(), Some(0b1001_0001));
    }

    #[test]
    fn range_select_matches_paper_ip_hash() {
        // Last R bits of the first 16 bits of the address.
        let g = RangeSelect::ip_first16_last(11);
        assert_eq!(g.index_bits(), 11);
        let addr: u128 = 0xC0A8_1234; // 192.168.18.52
        let expect = (0xC0A8_1234u64 >> 16) & 0x7FF;
        assert_eq!(g.index(addr), expect);
    }

    #[test]
    fn range_select_equivalent_bit_select() {
        let r = RangeSelect::new(16, 11);
        let b = BitSelect::new((16..27).collect());
        for key in [0u128, 0xFFFF_FFFF, 0x1234_5678, 0xDEAD_BEEF] {
            assert_eq!(r.index(key), b.index(key));
        }
    }

    #[test]
    fn djb_matches_reference_implementation() {
        // hash("a") = 5381*33 + 97 = 177670.
        assert_eq!(DjbHash::raw(b"a"), 177_670);
        assert_eq!(DjbHash::raw(b""), 5381);
    }

    #[test]
    fn djb_index_masks_to_width() {
        let g = DjbHash::new(14, 16);
        for key in [0u128, 42, u128::MAX] {
            assert!(g.index(key) < (1 << 14));
        }
        assert_eq!(g.consumed_bits(), None);
    }

    #[test]
    fn djb_generator_agrees_with_byte_hash() {
        let g = DjbHash::new(16, 4);
        let key: u128 = u128::from(u32::from_le_bytes(*b"abcd"));
        assert_eq!(g.index(key), u64::from(DjbHash::raw(b"abcd")) & 0xFFFF);
    }

    #[test]
    fn xor_fold_stays_in_range_and_spreads() {
        let g = XorFold::new(8);
        assert!(g.index(u128::MAX) < 256);
        assert_ne!(g.index(1), g.index(2));
        // Folding covers high bits too.
        assert_ne!(g.index(1 << 100), g.index(0));
    }

    #[test]
    fn stored_key_without_dont_care_hash_bits_has_one_home() {
        let g = RangeSelect::ip_first16_last(11);
        // A /16: don't-care bits all below the hash field.
        let key = TernaryKey::ternary(0xC0A8_0000, 0xFFFF, 32);
        let homes = buckets_for_masked_search(&key.to_search_key(), &g);
        assert_eq!(homes, vec![g.index(key.value())]);
    }

    #[test]
    fn prefix_with_dont_care_hash_bits_is_duplicated() {
        // A /18 prefix: bits 0..14 don't-care; hash consumes bits 16..27.
        // No overlap -> 1 home. A /10 prefix: bits 0..22 don't-care; overlap
        // with hash bits 16..22 = 6 bits -> 2^6 = 64 homes.
        let g = RangeSelect::ip_first16_last(11);
        let p18 = TernaryKey::ternary(0xC0A8_C000, low_mask(14), 32);
        assert_eq!(buckets_for_masked_search(&p18.to_search_key(), &g).len(), 1);
        let p10 = TernaryKey::ternary(0xC000_0000, low_mask(22), 32);
        let homes = buckets_for_masked_search(&p10.to_search_key(), &g);
        assert_eq!(homes.len(), 64);
        // Homes are distinct (the function dedups) and any address covered
        // by the prefix hashes into one of them.
        let probe = 0xC012_3456u128;
        assert!(homes.contains(&g.index(probe)));
    }

    #[test]
    fn masked_search_probes_all_hash_images() {
        let g = RangeSelect::new(0, 4);
        // Don't-care in 2 hash bits -> 4 buckets.
        let key = SearchKey::with_mask(0b0000, 0b0011, 8);
        let buckets = buckets_for_masked_search(&key, &g);
        assert_eq!(buckets, vec![0, 1, 2, 3]);
        // Unmasked search probes exactly one.
        let key = SearchKey::new(0b0101, 8);
        assert_eq!(buckets_for_masked_search(&key, &g), vec![0b0101]);
    }

    #[test]
    fn generators_are_object_safe() {
        let gens: Vec<Box<dyn IndexGenerator>> = vec![
            Box::new(BitSelect::new(vec![0, 1])),
            Box::new(RangeSelect::new(0, 2)),
            Box::new(DjbHash::new(2, 8)),
            Box::new(XorFold::new(2)),
        ];
        for g in &gens {
            assert!(g.index(12345) < 4);
        }
    }

    #[test]
    fn bucket_list_inline_and_spill() {
        let mut l = BucketList::new();
        assert_eq!(l.as_slice(), &[] as &[u64]);
        // Stay inline.
        for b in [5u64, 3, 5, 1] {
            l.push(b);
        }
        l.sort_dedup();
        assert_eq!(l.as_slice(), &[1, 3, 5]);
        // Spill past the inline capacity.
        l.clear();
        for b in (0..INLINE_BUCKETS as u64 + 4).rev() {
            l.push(b);
            l.push(b);
        }
        l.sort_dedup();
        let expect: Vec<u64> = (0..INLINE_BUCKETS as u64 + 4).collect();
        assert_eq!(l.as_slice(), expect.as_slice());
        // Clear returns to inline mode.
        l.clear();
        l.push(9);
        l.push(9);
        l.sort_dedup();
        l.map_mod(4);
        assert_eq!(l.as_slice(), &[1]);
    }

    #[test]
    fn into_variant_agrees_with_vec_variant() {
        let g = RangeSelect::ip_first16_last(11);
        let mut list = BucketList::new();
        for key in [
            SearchKey::new(0xC0A8_1234, 32),
            TernaryKey::ternary(0xC000_0000, low_mask(22), 32).to_search_key(),
            SearchKey::with_mask(0, low_mask(32), 32),
        ] {
            buckets_for_masked_search_into(&key, &g, &mut list);
            assert_eq!(
                list.as_slice(),
                buckets_for_masked_search(&key, &g).as_slice()
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate bit position")]
    fn duplicate_positions_rejected() {
        let _ = BitSelect::new(vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "restricts hash bits")]
    fn oversized_ip_hash_rejected() {
        let _ = RangeSelect::ip_first16_last(17);
    }
}

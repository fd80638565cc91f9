//! 5-tuple packet classification — the first pattern-compiled workload.
//!
//! The paper positions CA-RAM as a TCAM substitute for "search-intensive
//! applications"; packet classification is the canonical multi-field one.
//! A classifier rule constrains five header fields — source/destination
//! address prefixes, source/destination port (exact, any, or range), and
//! protocol — and the highest-priority matching rule decides the action.
//! This module generates seeded synthetic rule sets shaped like real
//! firewall tables and biased lookup traces over them, expressed as
//! [`ca_ram_core::pattern`] patterns so the compiler does all lowering
//! (range → prefix expansion, field packing, index selection).

use ca_ram_core::pattern::{FieldPattern, Pattern, PatternSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The pattern spec packet-classification workloads compile through:
/// `src/32 dst/32 sport/16 dport/16 proto/8 pad/24`, masked multi-field.
///
/// # Panics
///
/// Never: the shape is statically well-formed.
#[must_use]
pub fn classifier_spec() -> PatternSpec {
    PatternSpec::five_tuple()
}

/// One packet header, as the classifier sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src: u32,
    /// Destination IPv4 address.
    pub dst: u32,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FiveTuple {
    /// Packs the header into the 128-bit key of [`classifier_spec`]
    /// (fields MSB-first, the 24 pad bits zero).
    #[must_use]
    pub fn pack(&self) -> u128 {
        (u128::from(self.src) << 96)
            | (u128::from(self.dst) << 64)
            | (u128::from(self.sport) << 48)
            | (u128::from(self.dport) << 32)
            | (u128::from(self.proto) << 24)
    }
}

/// A port constraint in a classifier rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortMatch {
    /// Any port.
    Any,
    /// Exactly this port.
    Exact(u16),
    /// An inclusive port range (lowered by prefix expansion).
    Range(u16, u16),
}

impl PortMatch {
    /// Whether `port` satisfies this constraint.
    #[must_use]
    pub fn matches(&self, port: u16) -> bool {
        match *self {
            Self::Any => true,
            Self::Exact(p) => port == p,
            Self::Range(lo, hi) => (lo..=hi).contains(&port),
        }
    }

    fn to_field(self) -> FieldPattern {
        match self {
            Self::Any => FieldPattern::Any,
            Self::Exact(p) => FieldPattern::Exact(u128::from(p)),
            Self::Range(lo, hi) => FieldPattern::Range {
                lo: u128::from(lo),
                hi: u128::from(hi),
            },
        }
    }
}

/// One classifier rule over the five header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifierRule {
    /// Source prefix: network address (host bits zero) and length.
    pub src: (u32, u8),
    /// Destination prefix: network address (host bits zero) and length.
    pub dst: (u32, u8),
    /// Source-port constraint.
    pub sport: PortMatch,
    /// Destination-port constraint.
    pub dport: PortMatch,
    /// Protocol constraint (`None` = any).
    pub proto: Option<u8>,
    /// The rule's action / flow identifier, stored as record data.
    pub action: u64,
}

impl ClassifierRule {
    /// The rule as a compiler pattern for [`classifier_spec`]-shaped
    /// tables. Lowering may expand it into several ternary entries (one
    /// per port-range cover block), all carrying the same `action`.
    #[must_use]
    pub fn to_pattern(&self) -> Pattern {
        let prefix = |addr: u32, len: u8| {
            if len == 0 {
                FieldPattern::Any
            } else {
                FieldPattern::Prefix {
                    value: u128::from(addr),
                    len: u32::from(len),
                }
            }
        };
        Pattern::MaskedMultiField {
            fields: vec![
                prefix(self.src.0, self.src.1),
                prefix(self.dst.0, self.dst.1),
                self.sport.to_field(),
                self.dport.to_field(),
                self.proto
                    .map_or(FieldPattern::Any, |p| FieldPattern::Exact(u128::from(p))),
                FieldPattern::Exact(0), // pad
            ],
        }
    }

    /// Whether `pkt` satisfies every field constraint (the reference
    /// semantics the lowered ternary entries must reproduce).
    #[must_use]
    pub fn matches(&self, pkt: &FiveTuple) -> bool {
        let in_prefix = |addr: u32, (net, len): (u32, u8)| {
            len == 0 || (addr ^ net) >> (32 - u32::from(len)) == 0
        };
        in_prefix(pkt.src, self.src)
            && in_prefix(pkt.dst, self.dst)
            && self.sport.matches(pkt.sport)
            && self.dport.matches(pkt.dport)
            && self.proto.is_none_or(|p| p == pkt.proto)
    }

    /// A random packet header matched by this rule.
    #[allow(clippy::cast_possible_truncation)] // masked to 16 bits
    #[must_use]
    pub fn random_member(&self, rng: &mut impl Rng) -> FiveTuple {
        let fill = |(net, len): (u32, u8), r: u32| {
            if len == 32 {
                net
            } else {
                net | (r & (u32::MAX >> len))
            }
        };
        let port = |m: PortMatch, r: u32| match m {
            PortMatch::Any => (r & 0xFFFF) as u16,
            PortMatch::Exact(p) => p,
            PortMatch::Range(lo, hi) => {
                let span = u32::from(hi) - u32::from(lo) + 1;
                lo + (r % span) as u16
            }
        };
        FiveTuple {
            src: fill(self.src, rng.gen()),
            dst: fill(self.dst, rng.gen()),
            sport: port(self.sport, rng.gen()),
            dport: port(self.dport, rng.gen()),
            proto: self.proto.unwrap_or_else(|| rng.gen()),
        }
    }
}

/// Configuration of the synthetic classifier generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketClassConfig {
    /// Rules to generate.
    pub rules: usize,
    /// Minimum source-prefix length (inclusive). The compiled classifier
    /// indexes the top `rows_log2` key bits, the top of the source
    /// address, so a rule whose source prefix is `len < rows_log2` bits
    /// long is stored in `2^(rows_log2 − len)` home buckets (once per
    /// lowered entry); the default 14 keeps every rule at one home per
    /// entry on tables of up to 2^14 rows.
    pub min_src_len: u8,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PacketClassConfig {
    fn default() -> Self {
        Self {
            rules: 2_000,
            min_src_len: 14,
            seed: 0x5AC1,
        }
    }
}

impl PacketClassConfig {
    /// The default shape at a chosen rule count.
    ///
    /// # Panics
    ///
    /// Panics if `rules` is zero.
    #[must_use]
    pub fn scaled(rules: usize) -> Self {
        assert!(rules > 0, "need at least one rule");
        Self {
            rules,
            ..Self::default()
        }
    }
}

/// Generates a seeded synthetic rule set. Source prefixes are at least
/// `min_src_len` long; destination prefixes cluster on octet boundaries;
/// at most one of the two port fields carries a range (real classifiers
/// rarely range both); protocols are TCP/UDP/ICMP or any. Rules are in
/// priority order (insert with `InsertSorted` semantics: earlier = higher
/// priority under equal care counts).
///
/// # Panics
///
/// Panics on a degenerate configuration (`rules == 0` or
/// `min_src_len > 32`).
#[must_use]
pub fn generate(config: &PacketClassConfig) -> Vec<ClassifierRule> {
    assert!(config.rules > 0, "need at least one rule");
    assert!(config.min_src_len <= 32, "source prefix length exceeds 32");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.rules);
    for i in 0..config.rules {
        let src_len = rng.gen_range(config.min_src_len..=32);
        let src = (rng.gen::<u32>() & prefix_mask(src_len), src_len);
        let dst_len = [0u8, 8, 16, 24, 32][rng.gen_range(0..5usize)];
        let dst = (rng.gen::<u32>() & prefix_mask(dst_len), dst_len);
        let range_on_sport = rng.gen_bool(0.5);
        let sport = port_constraint(&mut rng, range_on_sport);
        let dport = port_constraint(&mut rng, !range_on_sport);
        let proto = match rng.gen_range(0..4) {
            0 => None,
            1 => Some(1),  // ICMP
            2 => Some(6),  // TCP
            _ => Some(17), // UDP
        };
        out.push(ClassifierRule {
            src,
            dst,
            sport,
            dport,
            proto,
            action: u64::try_from(i).expect("rule count fits u64"),
        });
    }
    out
}

fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

fn port_constraint(rng: &mut SmallRng, allow_range: bool) -> PortMatch {
    let roll: f64 = rng.gen();
    if allow_range && roll < 0.30 {
        let a: u16 = rng.gen();
        let b: u16 = rng.gen();
        PortMatch::Range(a.min(b), a.max(b))
    } else if roll < 0.65 {
        PortMatch::Any
    } else {
        // Well-known service ports dominate exact matches.
        PortMatch::Exact([22u16, 25, 53, 80, 123, 443, 8080][rng.gen_range(0..7usize)])
    }
}

/// A biased lookup trace: `hit_fraction` of the packets are sampled from
/// random rules' match sets, the rest are uniform headers (mostly misses).
///
/// # Panics
///
/// Panics if `rules` is empty or `hit_fraction` is outside `[0, 1]`.
#[must_use]
pub fn flow_trace(
    rules: &[ClassifierRule],
    lookups: usize,
    hit_fraction: f64,
    seed: u64,
) -> Vec<FiveTuple> {
    assert!(!rules.is_empty(), "need at least one rule");
    assert!(
        (0.0..=1.0).contains(&hit_fraction),
        "hit fraction must be in [0, 1]"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..lookups)
        .map(|_| {
            if rng.gen_bool(hit_fraction) {
                let r = &rules[rng.gen_range(0..rules.len())];
                r.random_member(&mut rng)
            } else {
                FiveTuple {
                    src: rng.gen(),
                    dst: rng.gen(),
                    sport: rng.gen(),
                    dport: rng.gen(),
                    proto: rng.gen(),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_ram_core::key::SearchKey;

    #[test]
    fn generator_is_deterministic_and_bounded() {
        let a = generate(&PacketClassConfig::scaled(500));
        let b = generate(&PacketClassConfig::scaled(500));
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let mut ranged_both = 0;
        for r in &a {
            assert!(r.src.1 >= 14 && r.src.1 <= 32);
            assert!(matches!(r.dst.1, 0 | 8 | 16 | 24 | 32));
            if matches!(r.sport, PortMatch::Range(..)) && matches!(r.dport, PortMatch::Range(..)) {
                ranged_both += 1;
            }
        }
        assert_eq!(ranged_both, 0, "at most one port field carries a range");
    }

    #[test]
    fn lowered_entries_agree_with_reference_matches() {
        let spec = classifier_spec();
        let rules = generate(&PacketClassConfig::scaled(60));
        let mut rng = SmallRng::seed_from_u64(7);
        for r in &rules {
            let entries = spec.lower(&r.to_pattern()).expect("rule lowers");
            assert!(!entries.is_empty());
            // Members hit exactly one cover entry; non-members hit none.
            for _ in 0..10 {
                let pkt = r.random_member(&mut rng);
                let key = SearchKey::new(pkt.pack(), 128);
                let hits = entries.iter().filter(|e| e.matches(&key)).count();
                assert_eq!(hits, 1, "member {pkt:?} of {r:?}");
            }
            for _ in 0..10 {
                let pkt = FiveTuple {
                    src: rng.gen(),
                    dst: rng.gen(),
                    sport: rng.gen(),
                    dport: rng.gen(),
                    proto: rng.gen(),
                };
                let key = SearchKey::new(pkt.pack(), 128);
                let lowered_hit = entries.iter().any(|e| e.matches(&key));
                assert_eq!(lowered_hit, r.matches(&pkt), "{pkt:?} vs {r:?}");
            }
        }
    }

    #[test]
    fn flow_trace_hits_at_roughly_the_requested_rate() {
        let rules = generate(&PacketClassConfig::scaled(100));
        let trace = flow_trace(&rules, 2_000, 0.8, 42);
        assert_eq!(trace.len(), 2_000);
        let hits = trace
            .iter()
            .filter(|p| rules.iter().any(|r| r.matches(p)))
            .count();
        // At least the sampled 80% hit; uniform headers may also match.
        assert!(hits >= 1_500, "hits {hits}");
    }

    #[test]
    fn pack_places_fields_msb_first() {
        let p = FiveTuple {
            src: 0xAABB_CCDD,
            dst: 0x1122_3344,
            sport: 0x5566,
            dport: 0x7788,
            proto: 0x99,
        };
        assert_eq!(p.pack(), 0xAABB_CCDD_1122_3344_5566_7788_9900_0000u128);
    }
}

//! Property tests for the pattern compiler: tables built from
//! [`compile`]d plans must agree with the [`ReferenceModel`] on every
//! probe, for randomly drawn rule sets.
//!
//! Two pattern families are exercised end to end:
//!
//! - **Five-tuple classifiers** — random prefix/exact/range/wildcard
//!   field combinations are lowered through
//!   [`CompiledPlan::lower_entry`] (range fields prefix-expand into
//!   multi-entry covers), fed to both the compiled [`CaRamTable`] and the
//!   model via [`ReferenceModel::insert_compiled`], then probed with
//!   member headers, near-miss headers, and fully random headers.
//! - **Nearest-match dictionaries** — exact words are stored, then every
//!   probe of a compiled [`Pattern::NearestMatch`] ladder is checked
//!   against the model, and the ladder's overall hit/miss outcome is
//!   checked against a brute-force unit-Hamming scan of the stored set.
//!
//! Every answer is judged by [`Expected::admits`], so tie-breaks between
//! equal-care entries are accepted either way while any lost rule or
//! wrong-priority answer fails.
//!
//! [`CompiledPlan::lower_entry`]: ca_ram_core::pattern::CompiledPlan::lower_entry
//! [`Expected::admits`]: ca_ram_core::oracle::Expected::admits

use ca_ram_core::key::SearchKey;
use ca_ram_core::oracle::ReferenceModel;
use ca_ram_core::pattern::{compile, FieldPattern, GeometryHint, Pattern, PatternSpec};
use ca_ram_core::table::CaRamTable;
use proptest::prelude::*;

/// A generous geometry: 256 rows of 16 slots so even rule sets whose
/// wildcards overlap several index bits (multiplying home copies) load
/// without overflow, keeping the test free of rollback bookkeeping.
fn hint() -> GeometryHint {
    GeometryHint {
        rows_log2: 8,
        slots_per_row: 16,
        data_bits: 32,
    }
}

fn prefix_mask32(len: u32) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// One random classifier rule decoded from two raw 128-bit draws.
///
/// Source/destination prefixes keep at least 2 cared top bits. The
/// compiled index is the top `rows_log2` key bits (the top of the source
/// address), so an entry whose source prefix is `len < rows_log2` bits
/// long is stored in `2^(rows_log2 − len)` home buckets: at most 64 with
/// the 2^8-row [`hint`].
struct RawRule {
    src: u32,
    src_len: u32,
    dst: u32,
    dst_len: u32,
    sport: FieldPattern,
    dport: FieldPattern,
    proto: Option<u8>,
}

#[allow(clippy::cast_possible_truncation)]
fn decode_rule(raw: u128, aux: u128) -> RawRule {
    let src_len = 2 + (aux % 31) as u32; // 2..=32
    let dst_len = 2 + ((aux >> 8) % 31) as u32;
    let flags = (aux >> 16) as u8;
    let sport_a = (raw >> 48) as u16;
    let sport_b = (raw >> 32) as u16;
    let sport = if flags & 1 == 0 {
        FieldPattern::Exact(u128::from(sport_a))
    } else {
        FieldPattern::Range {
            lo: u128::from(sport_a.min(sport_b)),
            hi: u128::from(sport_a.max(sport_b)),
        }
    };
    let dport = if flags & 2 == 0 {
        FieldPattern::Exact(u128::from((raw >> 16) as u16))
    } else {
        FieldPattern::Any
    };
    let proto = if flags & 4 == 0 {
        Some((raw >> 8) as u8)
    } else {
        None
    };
    RawRule {
        src: ((raw >> 96) as u32) & prefix_mask32(src_len),
        src_len,
        dst: ((raw >> 64) as u32) & prefix_mask32(dst_len),
        dst_len,
        sport,
        dport,
        proto,
    }
}

impl RawRule {
    fn pattern(&self) -> Pattern {
        Pattern::MaskedMultiField {
            fields: vec![
                FieldPattern::Prefix {
                    value: u128::from(self.src),
                    len: self.src_len,
                },
                FieldPattern::Prefix {
                    value: u128::from(self.dst),
                    len: self.dst_len,
                },
                self.sport,
                self.dport,
                self.proto
                    .map_or(FieldPattern::Any, |p| FieldPattern::Exact(u128::from(p))),
                FieldPattern::Exact(0), // pad
            ],
        }
    }

    /// A header inside the rule, with `noise` filling the host bits.
    #[allow(clippy::cast_possible_truncation)]
    fn member_header(&self, noise: u128) -> u128 {
        let src = self.src | ((noise as u32) & !prefix_mask32(self.src_len));
        let dst = self.dst | (((noise >> 32) as u32) & !prefix_mask32(self.dst_len));
        let sport = match self.sport {
            FieldPattern::Exact(v) => v as u16,
            FieldPattern::Range { lo, hi } => {
                let span = hi - lo + 1;
                (lo + ((noise >> 64) % span)) as u16
            }
            _ => (noise >> 64) as u16,
        };
        let dport = match self.dport {
            FieldPattern::Exact(v) => v as u16,
            _ => (noise >> 80) as u16,
        };
        let proto = self.proto.unwrap_or((noise >> 96) as u8);
        (u128::from(src) << 96)
            | (u128::from(dst) << 64)
            | (u128::from(sport) << 48)
            | (u128::from(dport) << 32)
            | (u128::from(proto) << 24)
    }
}

/// Inserts every lowered entry of every rule into both the table and the
/// model. The generous [`hint`] geometry is sized so inserts never fail;
/// a failure here is itself a finding (the compiled layout overflowed on
/// a load the plan was built for).
fn load(
    table: &mut CaRamTable,
    model: &mut ReferenceModel,
    plan: &ca_ram_core::pattern::CompiledPlan,
    rules: &[RawRule],
) -> Result<(), TestCaseError> {
    for (i, rule) in rules.iter().enumerate() {
        let entries = plan
            .lower_entry(&rule.pattern(), i as u64)
            .expect("well-formed rule lowers");
        for e in &entries {
            prop_assert!(
                table.insert_sorted(*e).is_ok(),
                "compiled table overflowed under its own plan's geometry"
            );
        }
        model.insert_compiled(&entries);
    }
    Ok(())
}

fn check_probe(
    table: &CaRamTable,
    model: &ReferenceModel,
    key: &SearchKey,
) -> Result<(), TestCaseError> {
    let expected = model.expected(key);
    let got = table.search(key).hit.map(|h| h.record.data);
    prop_assert!(
        expected.admits(got),
        "search({key:?}) returned {got:?}, model accepts {:?}",
        expected.accepted
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random five-tuple rule sets: member, near-miss, and random headers
    /// all agree with the reference model on the compiled table.
    #[test]
    fn compiled_five_tuple_agrees_with_reference_model(
        raws in prop::collection::vec((any::<u128>(), any::<u128>()), 1..10),
        headers in prop::collection::vec(any::<u128>(), 8),
    ) {
        let spec = PatternSpec::five_tuple();
        let plan = compile(&spec, &hint()).expect("five-tuple compiles");
        let mut table = plan.build_table().expect("geometry is valid");
        let mut model = ReferenceModel::new(spec.key_bits());
        let rules: Vec<RawRule> =
            raws.iter().map(|&(raw, aux)| decode_rule(raw, aux)).collect();
        load(&mut table, &mut model, &plan, &rules)?;

        for (i, rule) in rules.iter().enumerate() {
            let noise = raws[i].0.rotate_left(77) ^ raws[i].1;
            let member = rule.member_header(noise);
            check_probe(&table, &model, &SearchKey::new(member, 128))?;
            // Perturb one bit of the source network: usually a miss for
            // this rule, possibly a hit for another — the model decides.
            let near = member ^ (1u128 << (96 + (noise % 32)));
            check_probe(&table, &model, &SearchKey::new(near, 128))?;
        }
        for &h in &headers {
            // Random headers, pad forced to the stored form.
            check_probe(&table, &model, &SearchKey::new(h & !0xff_ffff, 128))?;
        }
    }

    /// Compiled nearest-match ladders: every probe of the ladder agrees
    /// with the model, and the ladder's overall outcome matches a
    /// brute-force byte-Hamming scan of the stored words.
    #[test]
    fn compiled_nearest_ladder_agrees_with_reference_model(
        words in prop::collection::vec(any::<u128>(), 1..12),
        typo_sel in any::<u128>(),
    ) {
        const WORD_BYTES: u32 = 6;
        const MAX_DISTANCE: u32 = 2;
        let mask = (1u128 << (WORD_BYTES * 8)) - 1;
        let spec = PatternSpec::dictionary(WORD_BYTES, MAX_DISTANCE);
        let plan = compile(&spec, &hint()).expect("dictionary compiles");
        let mut table = plan.build_table().expect("geometry is valid");
        let mut model = ReferenceModel::new(spec.key_bits());
        let stored: Vec<u128> = words.iter().map(|w| w & mask).collect();
        for (i, &w) in stored.iter().enumerate() {
            let entries = plan
                .lower_entry(&Pattern::Exact { value: w }, i as u64)
                .expect("exact word lowers");
            for e in &entries {
                prop_assert!(table.insert_sorted(*e).is_ok());
            }
            model.insert_compiled(&entries);
        }

        // Query: one stored word with `d` bytes substituted.
        let base = stored[(typo_sel % stored.len() as u128) as usize];
        let d = ((typo_sel >> 8) % u128::from(MAX_DISTANCE + 1)) as u32;
        let mut query = base;
        for k in 0..d {
            let byte = ((typo_sel >> (16 + 8 * k)) % u128::from(WORD_BYTES)) as u32;
            let flip = ((typo_sel >> (64 + 8 * k)) & 0xff) | 1; // non-zero: really substituted
            query ^= flip << (8 * byte);
        }

        let ladder = plan
            .lower_query(&Pattern::NearestMatch { value: query, max_distance: MAX_DISTANCE })
            .expect("ladder lowers");
        for probe in ladder.probes() {
            check_probe(&table, &model, probe)?;
        }

        let hamming = |a: u128, b: u128| -> u32 {
            (0..WORD_BYTES)
                .filter(|k| ((a ^ b) >> (8 * k)) & 0xff != 0)
                .count() as u32
        };
        let reachable = stored.iter().any(|&w| hamming(w, query) <= MAX_DISTANCE);
        let outcome = ladder.execute(&table);
        prop_assert_eq!(
            outcome.hit.is_some(),
            reachable,
            "ladder outcome disagrees with brute-force Hamming scan for query {:#x}",
            query
        );
    }
}

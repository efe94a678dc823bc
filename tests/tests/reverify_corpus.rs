//! Corpus-wide re-verification: every Table 1 library, offline-patched
//! with the default and the interprocedural tool, must come out in
//! exactly the documented shape, and the verifier's flat disassembly
//! table must answer every query on the patched image as an
//! address-keyed `BTreeMap` would.

use std::collections::BTreeMap;

use xcontainers::abom::offline::OfflineConfig;
use xcontainers::isa::decode::{decode, DecodeError, Decoded};
use xcontainers::prelude::*;
use xcontainers::verify::{disassemble_image, reverify};
use xcontainers::workloads::table1::table1_profiles;

fn configs() -> [OfflineConfig; 2] {
    [
        OfflineConfig::default(),
        OfflineConfig {
            interprocedural: true,
            ..OfflineConfig::default()
        },
    ]
}

#[test]
fn every_table1_library_reverifies_after_offline_patching() {
    for config in configs() {
        for profile in table1_profiles() {
            let image = profile.library();
            let (patched, report) = OfflinePatcher::with_config(config)
                .patch(&image)
                .expect("offline patch");
            let shape = reverify(&patched, image.len());
            let name = profile.name;
            assert!(shape.ok(), "{name}: {:?}", shape.violations);
            assert_eq!(shape.detours.len() as u64, report.detour_patched, "{name}");
            assert_eq!(
                (shape.seven_byte.len() + shape.nine_byte.len()) as u64,
                report.adjacent_patched,
                "{name}"
            );
        }
    }
}

/// The resynchronizing linear sweep into an address-keyed `BTreeMap`:
/// the reference the flat table must match.
fn reference_sweep(image: &BinaryImage) -> BTreeMap<u64, Decoded> {
    let mut map = BTreeMap::new();
    let mut addr = image.base();
    while addr < image.end() {
        match decode(image.read_upto(addr, 16).unwrap()) {
            Ok(d) => {
                map.insert(addr, d);
                addr += d.len as u64;
            }
            Err(DecodeError::Truncated) => break,
            Err(_) => addr += 1,
        }
    }
    map
}

#[test]
fn flat_disassembly_table_matches_btreemap_on_patched_libraries() {
    for config in configs() {
        for profile in table1_profiles() {
            let (patched, _) = OfflinePatcher::with_config(config)
                .patch(&profile.library())
                .expect("offline patch");
            let d = disassemble_image(&patched);
            let r = reference_sweep(&patched);
            let name = profile.name;
            assert!(d.insts.iter().eq(r.iter()), "{name}: iteration order");
            for a in patched.base()..patched.end() + 1 {
                assert_eq!(d.insts.get(&a), r.get(&a), "{name}: get({a:#x})");
                assert_eq!(d.insts.contains_key(&a), r.contains_key(&a));
                let enclosing = r
                    .range(..=a)
                    .next_back()
                    .filter(|(&s, i)| s + i.len as u64 > a)
                    .map(|(&s, i)| (s, *i));
                assert_eq!(d.enclosing(a), enclosing, "{name}: enclosing({a:#x})");
                assert!(d.insts.range(a..a + 9).eq(r.range(a..a + 9)));
                assert!(d.insts.range(a..=a + 9).eq(r.range(a..=a + 9)));
            }
        }
    }
}

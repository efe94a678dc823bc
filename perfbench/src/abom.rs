//! `abom-corpus`: the twelve Table 1 libraries, each through the static
//! analyser, the offline patcher, the re-verifier and the online ABOM
//! run on the `xc-isa` interpreter — the paper's binary-level mechanism,
//! with no discrete-event simulation in it.
//!
//! A cell is one library through four calls: `AnalysisCache::analyze`
//! on a cold cache → `OfflinePatcher::patch_with_cache` → `reverify` →
//! `AppProfile::measure`. An op is one dynamic syscall executed on the
//! interpreter; `measure` runs the stream twice (online ABOM, then with
//! the offline tool applied first), so a cell delivers twice its
//! syscall count. The seed drives the syscall stream and the order of
//! the wrappers in each library image.

use std::io;

use xcontainers::abom::offline::OfflineConfig;
use xcontainers::prelude::*;
use xcontainers::verify::reverify;
use xcontainers::workloads::table1::{table1_profiles, AppMeasurement, AppProfile};

use crate::trace::Tracer;
use crate::workload::{run_cells, CellOut, Pass, Workload};
use xc_bench::journal::{fingerprint, fnv};

/// Dynamic syscalls per library and run. Large enough that every
/// library's reduction lands within the paper's ±2-point band at any
/// seed (binomial sampling noise shrinks with the count).
pub const SYSCALLS: u64 = 8_000;

/// Paper band half-width, in percentage points (as in `table1`).
const BAND: f64 = 2.0;

struct Library {
    profile: AppProfile,
    image: BinaryImage,
    measure_seed: u64,
}

struct LibOut {
    tally: (usize, usize, usize),
    sites: usize,
    cache_hits: u64,
    cache_lookups: u64,
    adjacent: u64,
    detours: u64,
    skipped: usize,
    recovered: u64,
    reverify_ok: bool,
    reverify_counts: [usize; 4],
    patched_digest: u64,
    m: AppMeasurement,
}

pub struct AbomCorpus {
    libs: Vec<Library>,
}

/// Builds the twelve library images, wrapper order shuffled by the seed.
pub fn setup(seed: u64) -> AbomCorpus {
    let libs = table1_profiles()
        .into_iter()
        .enumerate()
        .map(|(i, mut profile)| {
            let mut rng = Rng::substream(seed, i as u64);
            // Fisher–Yates over the wrapper sites: the image layout and
            // the wrapper each dynamic syscall picks both move with it.
            for j in (1..profile.sites.len()).rev() {
                let k = (rng.next_u64() % (j as u64 + 1)) as usize;
                profile.sites.swap(j, k);
            }
            Library {
                image: profile.library(),
                measure_seed: rng.next_u64(),
                profile,
            }
        })
        .collect();
    AbomCorpus { libs }
}

impl AbomCorpus {
    fn cell(&self, i: usize, tr: &Tracer) -> Result<LibOut, String> {
        let lib = &self.libs[i];
        let mut cache = AnalysisCache::new();
        let analysis = tr.span("verify.analyze", Some(i), || {
            cache.analyze(&Verifier::new(), &lib.image)
        });
        let tally = analysis.report().tally();
        let sites = analysis.report().sites.len();
        let patcher = OfflinePatcher::with_config(OfflineConfig {
            interprocedural: true,
            ..OfflineConfig::default()
        });
        let (patched, report) = tr
            .span("abom.offline", Some(i), || {
                patcher.patch_with_cache(&lib.image, &mut cache)
            })
            .map_err(|e| format!("offline patching: {e}"))?;
        let shape = tr.span("verify.reverify", Some(i), || {
            reverify(&patched, lib.image.len())
        });
        let m = tr.span("abom.online", Some(i), || {
            lib.profile.measure(SYSCALLS, lib.measure_seed)
        });
        let bytes = patched
            .read_bytes(patched.base(), patched.len())
            .map_err(|e| format!("reading the patched image: {e}"))?;
        Ok(LibOut {
            tally,
            sites,
            cache_hits: cache.hits(),
            cache_lookups: cache.hits() + cache.misses(),
            adjacent: report.adjacent_patched,
            detours: report.detour_patched,
            skipped: report.skipped.len(),
            recovered: report.interprocedural_recovered,
            reverify_ok: shape.ok(),
            reverify_counts: [
                shape.seven_byte.len(),
                shape.nine_byte.len(),
                shape.detours.len(),
                shape.violations.len(),
            ],
            patched_digest: fnv(bytes),
            m,
        })
    }

    fn check(&self, i: usize, o: &LibOut, pass: &mut Pass) {
        let p = &self.libs[i].profile;
        if !o.reverify_ok {
            pass.fail(i, format!("{}: reverify found violations", p.name));
        }
        if o.reverify_counts[2] as u64 != o.detours {
            pass.fail(
                i,
                format!(
                    "{}: {} detours re-verified, {} patched",
                    p.name, o.reverify_counts[2], o.detours
                ),
            );
        }
        if o.m.offline_reduction < o.m.online_reduction {
            pass.fail(
                i,
                format!(
                    "{}: offline reduction {} < online {}",
                    p.name, o.m.offline_reduction, o.m.online_reduction
                ),
            );
        }
        if (o.m.online_reduction - p.paper_reduction).abs() >= BAND {
            pass.fail(
                i,
                format!(
                    "paper finding out of band: {} reduction {:.2}% vs paper {:.2}%",
                    p.name, o.m.online_reduction, p.paper_reduction
                ),
            );
        }
        if let Some(manual) = p.paper_manual {
            if (o.m.offline_reduction - manual).abs() >= BAND {
                pass.fail(
                    i,
                    format!(
                        "paper finding out of band: {} offline reduction {:.2}% vs paper {manual:.2}%",
                        p.name, o.m.offline_reduction
                    ),
                );
            }
        }
    }
}

fn digest(o: &LibOut) -> u64 {
    let mut words = vec![
        o.tally.0 as u64,
        o.tally.1 as u64,
        o.tally.2 as u64,
        o.sites as u64,
        o.cache_hits,
        o.cache_lookups,
        o.adjacent,
        o.detours,
        o.skipped as u64,
        o.recovered,
    ];
    words.extend(o.reverify_counts.iter().map(|&c| c as u64));
    words.extend([
        o.patched_digest,
        o.m.online_reduction.to_bits(),
        o.m.offline_reduction.to_bits(),
        o.m.total_syscalls,
    ]);
    fingerprint("abom-corpus", &words)
}

impl Workload for AbomCorpus {
    fn pass(&mut self, tr: &Tracer) -> io::Result<Pass> {
        let (results, failures) = run_cells(self.libs.len(), &|_, _| (), |i| self.cell(i, tr));
        let mut pass = Pass {
            failures,
            ..Pass::default()
        };
        tr.span("check.cells", None, || {
            for (i, r) in results.into_iter().enumerate() {
                let Some((r, timing)) = r else {
                    pass.cells.push(None);
                    continue;
                };
                let o = match r {
                    Ok(o) => o,
                    Err(e) => {
                        pass.fail(i, e);
                        pass.cells.push(None);
                        continue;
                    }
                };
                self.check(i, &o, &mut pass);
                pass.add("verify.sites", o.sites as f64);
                pass.add("verify.unknown_sites", o.tally.2 as f64);
                pass.add("verify.cache_hits", o.cache_hits as f64);
                pass.add("verify.cache_lookups", o.cache_lookups as f64);
                pass.add("abom.detours", o.detours as f64);
                pass.add("abom.patched", (o.adjacent + o.detours) as f64);
                pass.add("abom.syscalls", 2.0 * o.m.total_syscalls as f64);
                pass.cells.push(Some(CellOut {
                    timing,
                    ops: 2 * o.m.total_syscalls,
                    digest: digest(&o),
                }));
            }
        });
        Ok(pass)
    }
}

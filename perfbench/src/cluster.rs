//! `cluster-open`: the `cluster_study` full grid under open-loop
//! arrivals — 4 platforms × 120 hosts × 24 domains, 1.2 M clients,
//! 500 ms simulated per host.
//!
//! A cell is one `run_cluster_range(table, params, host, 1)` call; an op
//! is one simulated request arrival (completed + dropped). Each pass
//! checkpoints its cells through `Journal::append` and replays them with
//! `Journal::open_at`, the way `--resume` users run the study.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use xc_bench::harness::cluster::{params, platforms};
use xc_bench::journal::{fingerprint, Journal};
use xcontainers::prelude::*;
use xcontainers::workloads::apps::microservice;
use xcontainers::workloads::cluster::arena_counters;

use crate::digest::push_histogram;
use crate::trace::Tracer;
use crate::workload::{run_cells, CellOut, Pass, Workload};

const JOURNAL: &str = "cluster-open";

pub struct ClusterOpen {
    params: ClusterParams,
    names: Vec<String>,
    tables: Vec<PlatformCosts>,
    root: PathBuf,
    fingerprint: u64,
}

/// Builds the cost tables and parameters. The journal's directory under
/// `root` is made by `Journal::open_at` in each pass: a filesystem call
/// here would have `setup_s` track the disk, whose latency on a small VM
/// climbs while the passes churn journal files.
pub fn setup(seed: u64, tr: &Tracer, root: &Path) -> ClusterOpen {
    let costs = CostModel::skylake_cloud();
    let params = ClusterParams {
        seed,
        ..params(false)
    };
    let plats = platforms();
    let tables = plats
        .iter()
        .map(|platform| {
            let server = ServerModel {
                platform: platform.clone(),
                profile: microservice(),
                workers: 1,
                cores: 1,
            };
            tr.span("costs.derive", None, || {
                PlatformCosts::derive(&server, &costs)
            })
        })
        .collect();
    let fingerprint = fingerprint(
        "perfbench/cluster-open",
        &[
            seed,
            u64::from(params.hosts),
            u64::from(params.domains_per_host),
            params.clients,
            params.duration.as_nanos(),
            plats.len() as u64,
        ],
    );
    ClusterOpen {
        params,
        names: plats.iter().map(Platform::name).collect(),
        tables,
        root: root.to_owned(),
        fingerprint,
    }
}

impl ClusterOpen {
    fn hosts(&self) -> usize {
        self.params.hosts as usize
    }

    fn cells(&self) -> usize {
        self.tables.len() * self.hosts()
    }

    fn cell(&self, i: usize) -> ClusterResult {
        let host = u32::try_from(i % self.hosts()).expect("host index fits u32");
        run_cluster_range(&self.tables[i / self.hosts()], &self.params, host, 1)
    }

    /// Fails every cell of the named platforms.
    fn fail_platforms(&self, pass: &mut Pass, plats: &[usize], why: &str) {
        for &p in plats {
            for h in 0..self.hosts() {
                pass.fail(p * self.hosts() + h, why.to_owned());
            }
        }
    }
}

impl Workload for ClusterOpen {
    fn pass(&mut self, tr: &Tracer) -> io::Result<Pass> {
        let n = self.cells();
        let journal = tr.span("journal.append", None, || {
            Journal::<ClusterResult>::open_at(&self.root, JOURNAL, self.fingerprint, n)
        })?;
        let (allocs0, reuses0) = arena_counters();
        let (results, failures) = run_cells(
            n,
            &|i, (r, _)| tr.span("journal.append", Some(i), || journal.append(i, r)),
            |i| tr.span("cluster.sim", Some(i), || self.cell(i)),
        );
        let (allocs1, reuses1) = arena_counters();
        drop(journal);
        let mut pass = Pass {
            failures,
            ..Pass::default()
        };

        // Per-host output checks and digests.
        let p = &self.params;
        let core_ns = u64::from(p.host_cores) * p.duration.as_nanos();
        tr.span("check.cells", None, || {
            for (i, r) in results.iter().enumerate() {
                let Some((r, timing)) = r else {
                    pass.cells.push(None);
                    continue;
                };
                if r.latency.count() != r.completed {
                    pass.fail(
                        i,
                        format!(
                            "latency count {} != completed {}",
                            r.latency.count(),
                            r.completed
                        ),
                    );
                }
                if r.busy_ns > core_ns {
                    pass.fail(
                        i,
                        format!("busy {} ns > host capacity {core_ns} ns", r.busy_ns),
                    );
                }
                let mut words = vec![u64::from(r.hosts), r.completed, r.dropped, r.busy_ns];
                push_histogram(&mut words, &r.latency);
                pass.cells.push(Some(CellOut {
                    timing: *timing,
                    ops: r.completed + r.dropped,
                    digest: fingerprint(JOURNAL, &words),
                }));
                pass.add("cluster.requests", (r.completed + r.dropped) as f64);
                pass.add("cluster.dropped", r.dropped as f64);
            }
        });
        pass.add("cluster.arena_reuses", (reuses1 - reuses0) as f64);
        pass.add(
            "cluster.arena_worlds",
            (allocs1 - allocs0 + reuses1 - reuses0) as f64,
        );

        // Reduce each platform's hosts in host order, then render.
        let merged: Vec<ClusterResult> = tr.span("stats.merge", None, || {
            results
                .chunks(self.hosts())
                .map(|hosts| {
                    let parts: Vec<&ClusterResult> =
                        hosts.iter().flatten().map(|(r, _)| r).collect();
                    let mut whole = ClusterResult::default();
                    whole.merge_many(&parts);
                    whole
                })
                .collect()
        });
        pass.add("stats.merges", results.iter().flatten().count() as f64);
        let text = tr.span("report.render", None, || render(p, &self.names, &merged));
        std::hint::black_box(text);

        tr.span("check.findings", None, || {
            for (plats, why) in findings(p, &merged) {
                self.fail_platforms(&mut pass, &plats, &why);
            }
        });

        // Replay the checkpoints the way a resumed run reads them.
        let replay = tr.span("journal.replay", None, || {
            Journal::<ClusterResult>::open_at(&self.root, JOURNAL, self.fingerprint, n)
        })?;
        let bytes = fs::metadata(self.root.join(JOURNAL).join("cells.jsonl"))?.len();
        tr.span("check.journal", None, || {
            let scan = replay.scan();
            if scan.damaged + scan.stale > 0 {
                pass.fail(0, format!("journal scan found damage: {scan:?}"));
            }
            for (i, r) in results.iter().enumerate() {
                if let Some((r, _)) = r {
                    if replay.replayed().get(&i) != Some(r) {
                        pass.fail(
                            i,
                            "journal replay differs from the computed cell".to_owned(),
                        );
                    }
                }
            }
        });
        pass.add("journal.replayed", replay.scan().replayed as f64);
        pass.add("journal.bytes", bytes as f64);
        tr.span("journal.replay", None, || replay.remove());
        Ok(pass)
    }
}

/// The density table of `cluster_study`, from the merged results.
fn render(p: &ClusterParams, names: &[String], merged: &[ClusterResult]) -> String {
    let mut table = Table::new(
        &format!(
            "Cluster (open loop): {} hosts × {} domains/host, {} clients",
            p.hosts, p.domains_per_host, p.clients
        ),
        &[
            "configuration",
            "tput (krps)",
            "p50 ms",
            "p99 ms",
            "drop %",
            "util %",
            "domains/host",
        ],
    );
    for (name, r) in names.iter().zip(merged) {
        table.row([
            Cell::from(name.as_str()),
            Cell::Num(r.throughput_rps(p.duration) / 1e3, 1),
            Cell::Num(r.quantile_ms(0.50), 2),
            Cell::Num(r.quantile_ms(0.99), 2),
            Cell::Num(r.drop_rate() * 100.0, 3),
            Cell::Num(r.utilization(p.host_cores, p.duration) * 100.0, 1),
            Cell::Num(r.density_domains_per_host(p), 0),
        ]);
    }
    let mut text = String::new();
    table.render_into(&mut text);
    text
}

/// The `cluster_study` paper findings (full grid) that land out of band,
/// each with the platforms it draws on. Platform order: Docker,
/// Xen-Container, X-Container, gVisor.
fn findings(p: &ClusterParams, m: &[ClusterResult]) -> Vec<(Vec<usize>, String)> {
    const DOCKER: usize = 0;
    const XEN: usize = 1;
    const XC: usize = 2;
    const GVISOR: usize = 3;
    let d = |i: usize| m[i].density_domains_per_host(p);
    let p99 = |i: usize| m[i].quantile_ms(0.99);
    let checks = [
        (
            d(XC) > d(DOCKER),
            vec![XC, DOCKER],
            "X-Container packs denser than Docker",
        ),
        (
            d(GVISOR) < d(DOCKER),
            vec![GVISOR, DOCKER],
            "gVisor packs sparser than Docker",
        ),
        (
            d(XEN) < d(DOCKER) && d(XEN) > d(GVISOR),
            vec![XEN, DOCKER, GVISOR],
            "Xen-Container density between Docker and gVisor",
        ),
        (
            p99(XC) <= p99(DOCKER) * 1.05,
            vec![XC, DOCKER],
            "X-Container p99 at or below Docker's",
        ),
        (
            m[GVISOR].drop_rate() > m[DOCKER].drop_rate(),
            vec![GVISOR, DOCKER],
            "gVisor sheds load first",
        ),
    ];
    checks
        .into_iter()
        .filter(|(ok, _, _)| !ok)
        .map(|(_, plats, why)| (plats, format!("paper finding out of band: {why}")))
        .collect()
}

//! Host and run fingerprint, and the process's peak memory.
//!
//! Results from different hosts, seeds or sources must never be
//! compared; every result carries the fingerprint that tells them apart.

use std::fs;
use std::path::Path;

use xc_bench::journal::{fingerprint, fnv};

/// What identifies a run's conditions.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub jobs: usize,
    pub seed: u64,
    /// `HEAD` commit when run from a git checkout, else `"unknown"`.
    pub commit: String,
    /// FNV-1a over every workspace source file and manifest, so a
    /// checkout without git history still names the code it measured.
    pub source_digest: u64,
}

impl Fingerprint {
    /// Fingerprint of this host for a run from the repository root.
    pub fn collect(root: &Path, jobs: usize, seed: u64) -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            jobs,
            seed,
            commit: git_head(root).unwrap_or_else(|| "unknown".to_owned()),
            source_digest: source_digest(root),
        }
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"jobs\":{},\"seed\":{},\"commit\":\"{}\",\"source_digest\":\"{:016x}\"}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], "_"),
            self.jobs,
            self.seed,
            self.commit,
            self.source_digest
        )
    }
}

/// Resolves `.git/HEAD` to a commit id without running git.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// Digest of the root `Cargo.toml` and `Cargo.lock` and of every `.rs`
/// and `.toml` file under `crates/`, visited in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut words = Vec::new();
    for f in files {
        if let Ok(bytes) = fs::read(&f) {
            let name = f.strip_prefix(root).unwrap_or(&f).to_string_lossy();
            words.extend([fnv(name.as_bytes()), fnv(&bytes)]);
        }
    }
    fingerprint("sources", &words)
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn fingerprint_names_the_seed_and_jobs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let fp = Fingerprint::collect(&root, 1, 9);
        let json = fp.to_json();
        assert!(json.contains("\"seed\":9"));
        assert!(json.contains("\"jobs\":1"));
        assert!(fp.nproc >= 1);
        assert_ne!(fp.source_digest, fingerprint("sources", &[]));
    }
}

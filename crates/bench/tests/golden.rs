//! Golden digest of the Figure 4 harness: the serial `fig4` output
//! (rendered text plus findings JSON) hashed with the journal's FNV-1a
//! must equal the committed digest. Any queue, engine or cost-model
//! change that perturbs a simulated syscall throughput fails here. A
//! deliberate model change updates `golden/fig4_syscall.digest` by hand
//! from the digest this test prints.

use xc_bench::findings_json;
use xc_bench::harness::fig4;
use xc_bench::journal::fnv;
use xc_bench::runner::Runner;

const FIG4_GOLDEN: &str = include_str!("../golden/fig4_syscall.digest");

#[test]
fn fig4_output_matches_the_golden_digest() {
    let out = fig4::run(&Runner::new(1));
    let mut bytes = out.text.into_bytes();
    bytes.extend_from_slice(findings_json(&out.findings).as_bytes());
    let digest = format!("{:016x}", fnv(&bytes));
    assert_eq!(
        digest,
        FIG4_GOLDEN.trim(),
        "fig4 output differs from crates/bench/golden/fig4_syscall.digest; fresh digest {digest}"
    );
}

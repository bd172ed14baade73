//! Pins the CI smoke campaigns to their exact digests and work
//! counters, row by row.
//!
//! Run-to-run determinism is tested elsewhere; these values catch a
//! change that is deterministic but different — a reordered oracle
//! table, an extra RNG draw, a generator tweak — which silently moves
//! every campaign onto other inputs. A deliberate change of the stream
//! updates the pins here in the same commit.

use art9_fuzz::{run_fuzz, FuzzConfig};

/// Runs the smoke campaign (restricted to `oracle`, when set) and
/// checks it is clean, every row that ran saw every iteration, and it
/// reports exactly `digest` and, one line per row, exactly `rows`:
/// `name: nonzero counters`.
fn pin(oracle: Option<&str>, digest: u64, rows: &str) {
    let cfg = FuzzConfig {
        oracle: oracle.map(|name| name.parse().unwrap()),
        ..FuzzConfig::smoke()
    };
    let report = run_fuzz(&cfg);
    assert!(report.divergences.is_empty(), "{}", report.render());
    let mut got = format!("digest {:016x}\n", report.digest);
    for run in report.oracles.iter().filter(|r| r.cases > 0) {
        assert_eq!(run.cases, cfg.iterations, "{}", run.oracle);
        got += &format!("{}: {}\n", run.oracle, run.stats);
    }
    assert_eq!(got, format!("digest {digest:016x}\n{rows}"));
}

#[test]
fn smoke_campaign_is_pinned() {
    pin(
        None,
        0xebc9_f2d4_871f_288f,
        "\
toolchain-roundtrip: 7358 roundtrip checks
functional-vs-reference: 12196 functional instructions
functional-vs-threaded: 24392 threaded instructions
energy: 471255 energy flips cross-checked
slice-migrate: 677 slices, 215 cross-backend migrations
pipelined-fwd: 13617 pipelined cycles
pipelined-nofwd: 23557 pipelined cycles
arithmetic: 8250 arithmetic checks
simd: 15600 simd-lane checks
wide: 32400 wide-width checks
compiler-lockstep: 14406 rv32 instructions, 100456 art9 instructions, 14706 sync points
",
    );
}

// The filtered smoke runs CI repeats: a filter skips the draws of the
// rows before it, so these rows see inputs the full campaign never
// generates.

#[test]
fn smoke_compiler_lockstep_is_pinned() {
    pin(
        Some("compiler-lockstep"),
        0xeb36_def4_1243_17fb,
        "compiler-lockstep: 15420 rv32 instructions, 77170 art9 instructions, 15720 sync points\n",
    );
}

#[test]
fn smoke_simd_is_pinned() {
    pin(
        Some("simd"),
        0xade9_2d7c_64b2_6906,
        "simd: 15600 simd-lane checks\n",
    );
}

#[test]
fn smoke_wide_is_pinned() {
    pin(
        Some("wide"),
        0xade9_2d7c_64b2_6906,
        "wide: 32400 wide-width checks\n",
    );
}

//! Integration: the equality-saturation pass over the generated MCNC
//! suite. Every benchmark must stay functionally equivalent through an
//! esat-containing flow, and the pass's extraction guard must be
//! monotone — the output never exceeds the input under the pass
//! objective, whatever the saturation budget managed to explore.

use mig_suite::benchgen::generate;
use mig_suite::mig::{run_esat, Budget, EsatConfig, Flow, Mig, Objective, OptContext};

/// Number of 64-pattern blocks for the random half of equivalence checks.
const ROUNDS: usize = 16;

/// All fourteen MCNC benchmarks of the committed suite.
const SUITE: [&str; 14] = [
    "C1355", "C1908", "C6288", "bigkey", "my_adder", "cla", "dalu", "b9", "count", "alu4", "clma",
    "mm30a", "s38417", "misex3",
];

/// A debug-friendly saturation budget: the release defaults explore
/// 128× the seed, which is measurement-grade but slow without
/// optimizations; node-capped runs exercise exactly the same code
/// paths (seed → saturate → extract → guard).
fn test_budget() -> Budget {
    Budget {
        max_nodes: Some(20_000),
        ..Budget::default()
    }
}

/// Runs the esat flow step over every MCNC benchmark and checks
/// equivalence plus size monotonicity of the full flow.
#[test]
fn esat_flow_is_equivalent_and_monotone_on_the_suite() {
    let flow = Flow::parse("size; rewrite; esat").expect("valid flow");
    for bench in SUITE {
        let net = generate(bench).expect("known benchmark");
        let mig = Mig::from_network(&net);
        let mut ctx = OptContext::with_jobs(1);
        ctx.set_budget(test_budget());
        let out = flow.run(mig.clone(), 2, &mut ctx);
        assert!(
            out.equiv(&mig, ROUNDS),
            "{bench}: esat flow broke equivalence"
        );
        assert!(
            out.size() <= mig.size(),
            "{bench}: esat flow grew the MIG ({} > {})",
            out.size(),
            mig.size()
        );
    }
}

/// The monotone guard proper: the pass output never exceeds the pass
/// input under the chosen objective, even when saturation stops early
/// on a tiny budget (where extraction rarely finds anything and the
/// guard must hand the input back untouched).
#[test]
fn esat_extraction_never_exceeds_the_prepass_cost() {
    for (bench, cap) in [("alu4", 50_000), ("count", 8_000), ("b9", 500), ("cla", 64)] {
        let net = generate(bench).expect("known benchmark");
        let mig = Mig::from_network(&net);
        for goal in [Objective::SizeThenDepth, Objective::DepthThenSize] {
            let config = EsatConfig {
                iters: 4,
                enode_cap: cap,
                time_ms: None,
                scan_cap: 8,
            };
            let mut ctx = OptContext::with_jobs(1);
            let out = run_esat(&mut ctx, mig.clone(), goal, &config);
            let (before, after) = (goal.of(&mig), goal.of(&out));
            assert!(
                after <= before,
                "{bench}: esat under {goal:?} worsened the objective ({after:?} > {before:?})"
            );
            assert!(
                out.equiv(&mig, ROUNDS),
                "{bench}: esat under {goal:?} broke equivalence"
            );
        }
    }
}

/// The measured size win: on the most functionally redundant circuits
/// of the suite the saturation pass must strictly improve on the
/// rewrite fixpoint (this locks in the benchmark result the docs
/// advertise; see `EXPERIMENTS.md`).
#[test]
fn esat_beats_the_rewrite_fixpoint_on_redundant_circuits() {
    let pre = Flow::parse("size; rewrite*; size").expect("valid flow");
    let post = Flow::parse("esat*; rewrite*; size").expect("valid flow");
    let bench = "alu4";
    let net = generate(bench).expect("known benchmark");
    let mig = Mig::from_network(&net);
    let mut ctx = OptContext::with_jobs(1);
    let fixpoint = pre.run(mig.clone(), 4, &mut ctx);
    let improved = post.run(fixpoint.clone(), 4, &mut ctx);
    assert!(
        improved.equiv(&mig, ROUNDS),
        "{bench}: esat improvement broke equivalence"
    );
    assert!(
        improved.size() < fixpoint.size(),
        "{bench}: esat failed to beat the rewrite fixpoint ({} >= {})",
        improved.size(),
        fixpoint.size()
    );
}

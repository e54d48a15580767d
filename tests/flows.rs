//! Property tests for the flow-script layer: the parser round-trips on
//! generated scripts, and every canned flow (plus randomized ones) is a
//! semantics-preserving transformation on a SplitMix64 netlist corpus,
//! bit-identically for any `--jobs` setting.

use mig_suite::benchgen::{layered_random, RandomLogicParams};
use mig_suite::mig::{Flow, FlowStep, Mig, OptContext, PassKind, Repeat};
use mig_suite::netlist::SplitMix64;

/// Number of 64-pattern blocks for the random half of equivalence checks.
const ROUNDS: usize = 8;

/// Draws a random flow of 1..=5 steps over all pass kinds and repeat
/// markers from the deterministic generator.
fn random_flow(rng: &mut SplitMix64) -> Flow {
    let n_steps = 1 + (rng.next_u64() % 5) as usize;
    let steps = (0..n_steps)
        .map(|_| {
            let pass = PassKind::ALL[(rng.next_u64() % PassKind::ALL.len() as u64) as usize];
            let repeat = match rng.next_u64() % 4 {
                0 => Repeat::Converge,
                r => Repeat::Times(r as usize),
            };
            FlowStep { pass, repeat }
        })
        .collect();
    Flow { steps }
}

/// Renders `flow` with randomized (but legal) whitespace and explicit
/// `*1` markers, exercising the lenient half of the grammar.
fn sloppy_script(flow: &Flow, rng: &mut SplitMix64) -> String {
    let mut s = String::new();
    for (i, step) in flow.steps.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        if rng.next_u64().is_multiple_of(2) {
            s.push_str("  ");
        }
        s.push_str(step.pass.name());
        match step.repeat {
            Repeat::Times(1) if rng.next_u64().is_multiple_of(2) => s.push_str(" * 1"),
            Repeat::Times(1) => {}
            Repeat::Times(n) => s.push_str(&format!(" *{n}")),
            Repeat::Converge => s.push_str(" *"),
        }
        if rng.next_u64().is_multiple_of(2) {
            s.push(' ');
        }
    }
    if rng.next_u64().is_multiple_of(3) {
        s.push(';');
    }
    s
}

#[test]
fn parser_round_trips_on_generated_scripts() {
    let mut rng = SplitMix64::seed_from_u64(0xF10E_5C21_77AB_CDEF);
    for case in 0..200 {
        let flow = random_flow(&mut rng);
        // Canonical rendering parses back to the same flow...
        let canonical = flow.to_string();
        let reparsed = Flow::parse(&canonical).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(reparsed, flow, "case {case}: `{canonical}`");
        // ...and so does a whitespace-mangled, `*1`-explicit rendering.
        let sloppy = sloppy_script(&flow, &mut rng);
        let reparsed = Flow::parse(&sloppy).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(reparsed, flow, "case {case}: `{sloppy}`");
        // Display is a fixpoint: render(parse(render(f))) == render(f).
        assert_eq!(reparsed.to_string(), canonical, "case {case}");
    }
}

/// Every built pass reports its kind's flow-script name, so the ledger,
/// the CLI report and the bench gates see the step the script named.
#[test]
fn built_passes_are_ledgered_under_their_own_name() {
    for kind in PassKind::ALL {
        assert_eq!(kind.build(1).name(), kind.name());
        assert_eq!(kind.build(1).objective(), kind.objective());
    }
    let mig = corpus().swap_remove(0);
    let mut ctx = OptContext::with_jobs(1);
    Flow::parse("depth_esat").unwrap().run(mig, 1, &mut ctx);
    let names: Vec<&str> = ctx.ledger().iter().map(|r| r.pass.as_str()).collect();
    assert_eq!(names, ["depth_esat"]);
}

/// The corpus: small layered reconvergent netlists in assorted shapes.
fn corpus() -> Vec<Mig> {
    let mut seeds = SplitMix64::seed_from_u64(0xC0FF_EE00_F10E_0001);
    (0..4)
        .map(|case| {
            let p = RandomLogicParams {
                inputs: 8 + (seeds.next_u64() % 10) as usize,
                outputs: 3 + (seeds.next_u64() % 5) as usize,
                gates: 80 + (seeds.next_u64() % 160) as usize,
                layers: 3 + (seeds.next_u64() % 5) as usize,
                seed: seeds.next_u64(),
            };
            Mig::from_network(&layered_random(&format!("flow_rnd{case}"), &p))
        })
        .collect()
}

/// Asserts two MIGs are structurally identical, node for node.
fn assert_bit_identical(a: &Mig, b: &Mig, what: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{what}: arena sizes differ");
    for node in a.gate_ids() {
        assert_eq!(
            a.children(node),
            b.children(node),
            "{what}: children of {node} differ"
        );
    }
    assert_eq!(a.outputs(), b.outputs(), "{what}: outputs differ");
}

#[test]
fn canned_and_random_flows_preserve_semantics_at_any_job_count() {
    // Every canned flow `run_opt` compiles legacy targets to, plus 3
    // randomized flows: on the whole corpus the result must stay
    // equivalent to the input and be bit-identical between jobs=1 and
    // jobs=4.
    let mut scripts: Vec<String> = Vec::new();
    for target in ["size", "depth", "activity", "all"] {
        let t = mig_mighty::OptTarget::parse(target).unwrap();
        for rewrite in [false, true] {
            scripts.push(mig_mighty::flow_for_target(t, rewrite).to_string());
        }
    }
    let mut rng = SplitMix64::seed_from_u64(0x5EED_F10E_5EED_F10E);
    for _ in 0..3 {
        scripts.push(random_flow(&mut rng).to_string());
    }

    let corpus = corpus();
    for script in &scripts {
        let flow = Flow::parse(script).expect(script);
        for (ci, mig) in corpus.iter().enumerate() {
            let base = flow.run(mig.clone(), 1, &mut OptContext::with_jobs(1));
            assert!(
                base.equiv(mig, ROUNDS),
                "`{script}` broke equivalence on corpus circuit {ci}"
            );
            let par = flow.run(mig.clone(), 1, &mut OptContext::with_jobs(4));
            assert_bit_identical(
                &base,
                &par,
                &format!("`{script}` on circuit {ci}, jobs 1 vs 4"),
            );
        }
    }
}

#[test]
fn flow_script_drives_the_cli_pipeline() {
    // End to end through the mighty library (the exact `--flow` path):
    // a flow with repetition and convergence markers verifies on a
    // generated benchmark.
    let net = mig_suite::benchgen::generate("my_adder").unwrap();
    let flow = Flow::parse("rewrite*; size*2; depth_rewrite").unwrap();
    let o = mig_mighty::run_flow(&net, &flow, 1, ROUNDS, 1);
    assert!(o.mig_equiv && o.net_equiv, "flow must verify");
    assert!(o.after.size <= o.before.size);
    assert!(!o.stages.is_empty());
}

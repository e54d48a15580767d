//! The benchmark's own output check: a 64-bit-parallel netlist evaluator.
//!
//! It shares no code with the verifiers under test (`Mig::equiv`,
//! `mig_sim`): gate semantics are written out here, and the patterns are
//! drawn from the benchmark seed. Up to [`EXHAUSTIVE_INPUTS`] inputs every
//! assignment is evaluated, so the check is exact; above that it
//! evaluates [`RANDOM_WORDS`] seeded 64-pattern words. Inputs and outputs
//! are matched by name, so a reordering cannot hide a wrong function.

use std::collections::HashMap;

use mig_netlist::{GateKind, Network, SplitMix64};

/// Inputs up to which the check enumerates every assignment.
pub const EXHAUSTIVE_INPUTS: usize = 16;
/// Random 64-pattern words evaluated above [`EXHAUSTIVE_INPUTS`].
pub const RANDOM_WORDS: usize = 32;
/// Words evaluated per pass over the netlist (bounds the value buffer
/// at `gates × CHUNK` words).
const CHUNK: usize = 4;

/// Evaluates every output of `net` on `w` words per input. `words` is
/// input-major (input `i` owns `words[i*w..(i+1)*w]`); so is the result,
/// per output.
pub fn evaluate(net: &Network, words: &[u64], w: usize) -> Vec<u64> {
    assert_eq!(words.len(), net.num_inputs() * w, "one word row per input");
    let mut input_of = vec![usize::MAX; net.num_gates()];
    for (i, g) in net.inputs().iter().enumerate() {
        input_of[g.index()] = i;
    }
    let mut vals = vec![0u64; net.num_gates() * w];
    for (id, gate) in net.iter() {
        let g = id.index();
        for j in 0..w {
            let f = |k: usize| vals[gate.fanins()[k].index() * w + j];
            let n = gate.fanins().len();
            let v = match gate.kind() {
                GateKind::Const0 => 0,
                GateKind::Const1 => !0,
                GateKind::Input => words[input_of[g] * w + j],
                GateKind::Buf => f(0),
                GateKind::Not => !f(0),
                GateKind::And => (0..n).fold(!0, |a, k| a & f(k)),
                GateKind::Or => (0..n).fold(0, |a, k| a | f(k)),
                GateKind::Xor => (0..n).fold(0, |a, k| a ^ f(k)),
                GateKind::Xnor => !(f(0) ^ f(1)),
                GateKind::Nand => !(f(0) & f(1)),
                GateKind::Nor => !(f(0) | f(1)),
                GateKind::Mux => (f(0) & f(1)) | (!f(0) & f(2)),
                GateKind::Maj => (f(0) & f(1)) | (f(2) & (f(0) | f(1))),
            };
            vals[g * w + j] = v;
        }
    }
    let mut out = Vec::with_capacity(net.num_outputs() * w);
    for (_, g) in net.outputs() {
        out.extend_from_slice(&vals[g.index() * w..(g.index() + 1) * w]);
    }
    out
}

/// Word `j` of input `v` when enumerating all `2^n` assignments:
/// pattern `p = 64·j + bit` assigns input `v` the value of bit `v` of `p`.
pub fn exhaustive_word(v: usize, j: usize) -> u64 {
    if v < 6 {
        const MASKS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        MASKS[v]
    } else if (j >> (v - 6)) & 1 == 1 {
        !0
    } else {
        0
    }
}

/// Checks that `candidate` computes the same function as `reference`:
/// the same input and output names, and equal outputs on every pattern
/// (all of them up to [`EXHAUSTIVE_INPUTS`] inputs, seeded ones above).
pub fn check_same_function(
    reference: &Network,
    candidate: &Network,
    seed: u64,
) -> Result<(), String> {
    let n = reference.num_inputs();
    let by_name: HashMap<&str, usize> = reference
        .input_names()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    if candidate.num_inputs() != n || by_name.len() != n {
        return Err(format!(
            "input interface differs: {} vs {} inputs",
            n,
            candidate.num_inputs()
        ));
    }
    // Candidate input k reads reference input perm[k].
    let mut perm = Vec::with_capacity(n);
    for name in candidate.input_names() {
        perm.push(
            *by_name
                .get(name.as_str())
                .ok_or_else(|| format!("unknown input `{name}`"))?,
        );
    }
    let out_pos: HashMap<&str, usize> = candidate
        .outputs()
        .iter()
        .enumerate()
        .map(|(i, (s, _))| (s.as_str(), i))
        .collect();
    if candidate.num_outputs() != reference.num_outputs() {
        return Err("output count differs".to_string());
    }
    let mut out_map = Vec::with_capacity(reference.num_outputs());
    for (name, _) in reference.outputs() {
        out_map.push(
            *out_pos
                .get(name.as_str())
                .ok_or_else(|| format!("missing output `{name}`"))?,
        );
    }

    let total_words = if n <= EXHAUSTIVE_INPUTS {
        (1usize << n).div_ceil(64)
    } else {
        RANDOM_WORDS
    };
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC4EC_0000_0000_0001);
    let mut base = 0;
    while base < total_words {
        let w = CHUNK.min(total_words - base);
        let mut words = vec![0u64; n * w];
        for j in 0..w {
            for v in 0..n {
                words[v * w + j] = if n <= EXHAUSTIVE_INPUTS {
                    exhaustive_word(v, base + j)
                } else {
                    rng.next_u64()
                };
            }
        }
        let mut cand_words = vec![0u64; n * w];
        for (k, &r) in perm.iter().enumerate() {
            cand_words[k * w..(k + 1) * w].copy_from_slice(&words[r * w..(r + 1) * w]);
        }
        let a = evaluate(reference, &words, w);
        let b = evaluate(candidate, &cand_words, w);
        // Fewer than 64 assignments: only the low 2^n bits are patterns.
        let live = if n < 6 { (1u64 << (1 << n)) - 1 } else { !0 };
        for (o, &co) in out_map.iter().enumerate() {
            for j in 0..w {
                if (a[o * w + j] ^ b[co * w + j]) & live != 0 {
                    return Err(format!(
                        "output `{}` differs on pattern word {}",
                        reference.outputs()[o].0,
                        base + j
                    ));
                }
            }
        }
        base += w;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_mig_sim_on_every_stand_in() {
        let mut rng = SplitMix64::seed_from_u64(17);
        for name in mig_benchgen::MCNC_NAMES {
            let net = mig_benchgen::generate(name).expect("known stand-in");
            let words: Vec<u64> = (0..net.num_inputs()).map(|_| rng.next_u64()).collect();
            assert_eq!(
                evaluate(&net, &words, 1),
                mig_sim::simulate(&net, &words),
                "{name}"
            );
        }
    }

    #[test]
    fn exhaustive_words_enumerate_every_assignment() {
        for p in 0..256usize {
            let (j, bit) = (p / 64, p % 64);
            for v in 0..8 {
                assert_eq!((exhaustive_word(v, j) >> bit) & 1, ((p >> v) & 1) as u64);
            }
        }
    }

    #[test]
    fn catches_a_wrong_output() {
        for name in ["alu4", "C1355"] {
            let net = mig_benchgen::generate(name).unwrap();
            assert!(check_same_function(&net, &net, 1).is_ok());
            let exported = mig_core::Mig::from_network(&net).to_network();
            assert!(check_same_function(&net, &exported, 1).is_ok());
            let lits = [(0, true), (1, false), (2, true)];
            let wrong = crate::gen::mutant(&net, 1, &lits);
            assert!(check_same_function(&net, &wrong, 1).is_err(), "{name}");
        }
    }
}

//! Seeded workload inputs, drawn with `mig_benchgen`'s generators.
//!
//! Every circuit a workload hands to the program comes from here and
//! depends only on the `--seed` argument. Shapes (input, output and gate
//! counts) are fixed per workload and only the structure is drawn from
//! the seed, so the amount of work stays nearly the same across seeds.
//! The known-answer pairs of the `equiv` workload are built here too:
//! equivalent by construction, or differing on a known set of minterms.

use mig_benchgen::{
    alu_stack, ecc_chain, layered_random, seeded_pla, wide_multiplier, PlaParams,
    RandomLogicParams, MCNC_NAMES,
};
use mig_netlist::{GateId, GateKind, Network, SplitMix64};

/// A seed for one named input, derived from the workload seed.
pub fn derive(seed: u64, tag: &str) -> u64 {
    // FNV-1a over the tag, mixed with the seed through SplitMix64.
    let h = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    SplitMix64::seed_from_u64(seed ^ h).next_u64()
}

/// The 14 MCNC stand-ins of Table I. `bigkey`, `b9` and `misex3` are
/// re-drawn from the seed at their fixed interfaces and scales. `clma`
/// and `s38417` keep `mig_benchgen`'s draws: the activity pass on a
/// re-drawn `clma` took from 4 to 10 s depending on the seed, which alone
/// moved the workload's time by half, and on a re-drawn `s38417` from 2.7
/// to 3.9 s, a quarter of the spread between seeds. The structured
/// circuits (adders, multiplier, ECC, ALUs, min/max, counter) have no
/// seed.
pub fn table1(seed: u64) -> Vec<Network> {
    MCNC_NAMES
        .iter()
        .map(|&name| {
            let s = derive(seed, name);
            let pla = |inputs, outputs, cubes, literals, cubes_per_output| {
                seeded_pla(
                    name,
                    &PlaParams {
                        inputs,
                        outputs,
                        cubes,
                        literals,
                        cubes_per_output,
                        seed: s,
                    },
                )
            };
            match name {
                "misex3" => pla(14, 14, 220, (6, 11), 28),
                "b9" => pla(41, 21, 55, (3, 6), 4),
                "bigkey" => bigkey(s),
                _ => mig_benchgen::generate(name).expect("MCNC names are known"),
            }
        })
        .collect()
}

/// `mig_benchgen`'s `bigkey` structure (487 inputs, 421 outputs: two
/// rounds of key XOR, 4-bit S-box layers and a bit permutation) with its
/// S-box choices drawn from `seed`. `mig_benchgen::bigkey` fixes its
/// seed, so the benchmark re-draws the same structure here.
fn bigkey(seed: u64) -> Network {
    let (data_bits, key_bits) = (421, 66);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut net = Network::new("bigkey");
    let data: Vec<GateId> = (0..data_bits)
        .map(|i| net.add_input(format!("d{i}")))
        .collect();
    let key: Vec<GateId> = (0..key_bits)
        .map(|i| net.add_input(format!("k{i}")))
        .collect();
    let mut state = data;
    for round in 0..2 {
        state = state
            .iter()
            .enumerate()
            .map(|(i, &s)| net.xor(s, key[(i + round * 13) % key_bits]))
            .collect();
        let mut next = Vec::with_capacity(state.len());
        for chunk in state.chunks(4) {
            let &[a, b, c, d] = chunk else {
                next.extend_from_slice(chunk);
                continue;
            };
            for _ in 0..4 {
                let l1 = if rng.gen_bool(0.5) {
                    net.and(a, b)
                } else {
                    net.xor(a, b)
                };
                let l2 = if rng.gen_bool(0.5) {
                    net.or(c, d)
                } else {
                    net.xor(c, d)
                };
                let f = match rng.gen_range(0..3) {
                    0 => net.xor(l1, l2),
                    1 => net.and(l1, l2),
                    _ => {
                        let t = net.or(l1, l2);
                        net.xor(t, a)
                    }
                };
                next.push(f);
            }
        }
        let n = next.len();
        state = (0..n).map(|i| next[(i * 97 + round * 31) % n]).collect();
    }
    for (i, &s) in state.iter().enumerate().take(data_bits) {
        net.set_output(format!("y{i}"), s);
    }
    net.sweep()
}

/// The large tier: `mul_1m` (no seed) and an `alu_stack` drawn from the
/// seed at the `alu_400k` parameters (256-bit operands, 114 stages).
pub fn large(seed: u64) -> Vec<Network> {
    let mut mul = wide_multiplier(355);
    mul.set_name("mul_1m");
    let mut alu = alu_stack(256, 114, derive(seed, "alu_400k"));
    alu.set_name("alu_400k");
    vec![mul, alu]
}

/// One MCNC-scale circuit of a fixed shape, drawn from `seed`. `shape`
/// cycles through a list of random-logic, PLA and datapath shapes from
/// about 100 to about 2,000 gates.
pub fn small_circuit(shape: usize, seed: u64, name: &str) -> Network {
    const RANDOM: [(usize, usize, usize, usize); 6] = [
        (16, 8, 150, 6),
        (24, 12, 400, 10),
        (32, 16, 700, 14),
        (48, 16, 1_000, 20),
        (64, 24, 1_500, 25),
        (96, 32, 2_000, 30),
    ];
    const fn pla(inputs: usize, outputs: usize, cubes: usize, lits: usize) -> PlaParams {
        PlaParams {
            inputs,
            outputs,
            cubes,
            literals: (lits / 2, lits),
            cubes_per_output: cubes / 8,
            seed: 0,
        }
    }
    const PLA: [PlaParams; 3] = [pla(12, 8, 40, 7), pla(16, 12, 80, 9), pla(24, 16, 120, 10)];
    let k = shape % (RANDOM.len() + PLA.len() + 2);
    let mut net = if k < RANDOM.len() {
        let (inputs, outputs, gates, layers) = RANDOM[k];
        layered_random(
            name,
            &RandomLogicParams {
                inputs,
                outputs,
                gates,
                layers,
                seed,
            },
        )
    } else if k < RANDOM.len() + PLA.len() {
        seeded_pla(
            name,
            &PlaParams {
                seed,
                ..PLA[k - RANDOM.len()].clone()
            },
        )
    } else if k == RANDOM.len() + PLA.len() {
        alu_stack(8, 6, seed)
    } else {
        ecc_chain(24, 12, seed)
    };
    net.set_name(name);
    net
}

/// Copies `net` gate by gate into a fresh network, returning it with the
/// old-to-new gate map. Inputs keep their names and order.
fn copy(net: &Network) -> (Network, Vec<GateId>) {
    let mut out = Network::new(net.name());
    let mut map = Vec::with_capacity(net.num_gates());
    let mut names = net.input_names().iter();
    for (_, gate) in net.iter() {
        let id = match gate.kind() {
            GateKind::Input => out.add_input(names.next().expect("one name per input").clone()),
            kind => out.add_gate(kind, gate.fanins().iter().map(|f| map[f.index()]).collect()),
        };
        map.push(id);
    }
    (out, map)
}

/// A balanced tree of 2-input `kind` gates over `leaves`.
fn tree(net: &mut Network, kind: GateKind, mut leaves: Vec<GateId>) -> GateId {
    while leaves.len() > 1 {
        leaves = leaves
            .chunks(2)
            .map(|p| match *p {
                [a, b] => net.add_gate(kind, vec![a, b]),
                [a] => a,
                _ => unreachable!("chunks of two"),
            })
            .collect();
    }
    leaves[0]
}

/// A literal: input index and polarity (`true` = the input itself).
pub type Literal = (usize, bool);

/// `k` literals over distinct inputs, with seeded inputs and polarities.
pub fn literals(rng: &mut SplitMix64, inputs: usize, k: usize) -> Vec<Literal> {
    let mut vars: Vec<usize> = (0..inputs).collect();
    for i in 0..k {
        let j = rng.gen_range(i..inputs);
        vars.swap(i, j);
    }
    vars[..k].iter().map(|&v| (v, rng.gen_bool(0.5))).collect()
}

/// `net` with output `out` replaced by `y ^ AND(lits)`: it differs from
/// `net` exactly on the `2^(n-k)` assignments that make every literal
/// true, and only on that output.
pub fn mutant(net: &Network, out: usize, lits: &[Literal]) -> Network {
    assert!(!lits.is_empty(), "a mutant needs at least one literal");
    let (mut m, map) = copy(net);
    let leaves: Vec<GateId> = lits
        .iter()
        .map(|&(v, pos)| {
            let x = map[net.inputs()[v].index()];
            if pos {
                x
            } else {
                m.not(x)
            }
        })
        .collect();
    let conj = tree(&mut m, GateKind::And, leaves);
    for (i, (name, g)) in net.outputs().iter().enumerate() {
        let g = map[g.index()];
        let g = if i == out { m.xor(g, conj) } else { g };
        m.set_output(name.clone(), g);
    }
    m
}

/// A De Morgan and associativity rewrite of `net`, equivalent by
/// construction: AND/OR become NOR/NAND of complemented fanins, wide
/// gates become chains of 2-input gates, and XNOR, MUX and MAJ are
/// spelled with AND, OR, XOR and NOT.
pub fn demorgan(net: &Network) -> Network {
    let mut m = Network::new(net.name());
    let mut map: Vec<GateId> = Vec::with_capacity(net.num_gates());
    let mut names = net.input_names().iter();
    for (_, gate) in net.iter() {
        let f: Vec<GateId> = gate.fanins().iter().map(|x| map[x.index()]).collect();
        let id = match gate.kind() {
            GateKind::Input => m.add_input(names.next().expect("one name per input").clone()),
            GateKind::And => chain(&mut m, &f, |m, a, b| {
                let (na, nb) = (m.not(a), m.not(b));
                m.add_gate(GateKind::Nor, vec![na, nb])
            }),
            GateKind::Or => chain(&mut m, &f, |m, a, b| {
                let (na, nb) = (m.not(a), m.not(b));
                m.add_gate(GateKind::Nand, vec![na, nb])
            }),
            GateKind::Xor => {
                let rev: Vec<GateId> = f.iter().rev().copied().collect();
                chain(&mut m, &rev, |m, a, b| m.xor(a, b))
            }
            GateKind::Nand => {
                let (na, nb) = (m.not(f[0]), m.not(f[1]));
                m.or(na, nb)
            }
            GateKind::Nor => {
                let (na, nb) = (m.not(f[0]), m.not(f[1]));
                m.and(na, nb)
            }
            GateKind::Xnor => {
                let x = m.xor(f[0], f[1]);
                m.not(x)
            }
            GateKind::Mux => {
                let t = m.and(f[0], f[1]);
                let ns = m.not(f[0]);
                let e = m.and(ns, f[2]);
                m.or(t, e)
            }
            GateKind::Maj => {
                let ab = m.and(f[0], f[1]);
                let a_or_b = m.or(f[0], f[1]);
                let c = m.and(f[2], a_or_b);
                m.or(ab, c)
            }
            kind => m.add_gate(kind, f),
        };
        map.push(id);
    }
    for (name, g) in net.outputs() {
        m.set_output(name.clone(), map[g.index()]);
    }
    m
}

/// Left-leaning chain of a 2-input operator over `f` (at least two).
fn chain(
    m: &mut Network,
    f: &[GateId],
    op: impl Fn(&mut Network, GateId, GateId) -> GateId,
) -> GateId {
    f[1..].iter().fold(f[0], |acc, &x| op(m, acc, x))
}

/// A base circuit of the `equiv` corpus: its shape index and the circuit.
pub fn equiv_base(shape: usize, seed: u64) -> Network {
    // (inputs, outputs, gates, layers) of the random-logic bases: 8 to
    // 1,494 inputs, up to about 100k gates.
    const SHAPES: [(usize, usize, usize, usize); 28] = [
        (8, 4, 60, 4),
        (8, 6, 150, 6),
        (10, 6, 200, 8),
        (10, 4, 400, 10),
        (12, 8, 300, 8),
        (12, 6, 800, 16),
        (13, 8, 500, 12),
        (14, 8, 1_000, 20),
        (14, 10, 1_500, 24),
        (15, 8, 2_000, 30),
        (16, 8, 1_200, 20),
        (16, 12, 3_000, 40),
        (20, 8, 500, 10),
        (24, 12, 800, 16),
        (24, 16, 2_000, 24),
        (32, 16, 1_500, 20),
        (32, 24, 4_000, 40),
        (41, 21, 1_000, 16),
        (48, 24, 6_000, 50),
        (64, 32, 3_000, 30),
        (64, 32, 10_000, 60),
        (128, 64, 8_000, 40),
        (128, 64, 20_000, 80),
        (256, 128, 16_000, 50),
        (416, 115, 14_000, 40),
        (487, 421, 30_000, 60),
        (1_024, 512, 60_000, 80),
        (1_494, 1_571, 100_000, 100),
    ];
    let (inputs, outputs, gates, layers) = SHAPES[shape];
    layered_random(
        &format!("eq{shape}_{inputs}in"),
        &RandomLogicParams {
            inputs,
            outputs,
            gates,
            layers,
            seed,
        },
    )
}

/// Number of base circuits in the `equiv` corpus.
pub const EQUIV_BASES: usize = 28;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, exhaustive_word};

    /// All `2^n` assignments of every output, one bit per assignment.
    fn truth(net: &Network) -> Vec<Vec<bool>> {
        let n = net.num_inputs();
        let w = (1usize << n).div_ceil(64);
        let mut words = vec![0u64; n * w];
        for v in 0..n {
            for j in 0..w {
                words[v * w + j] = exhaustive_word(v, j);
            }
        }
        let out = evaluate(net, &words, w);
        (0..net.num_outputs())
            .map(|o| {
                (0..1usize << n)
                    .map(|p| (out[o * w + p / 64] >> (p % 64)) & 1 == 1)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn mutant_differs_on_exactly_the_intended_minterms() {
        let mut rng = SplitMix64::seed_from_u64(5);
        for n in 2..=12 {
            let base = layered_random(
                "m",
                &RandomLogicParams {
                    inputs: n,
                    outputs: 3,
                    gates: 10 * n,
                    layers: 4,
                    seed: n as u64,
                },
            );
            for k in [1, n / 2, n] {
                let k = k.max(1);
                let lits = literals(&mut rng, n, k);
                let out = rng.gen_range(0..base.num_outputs());
                let m = mutant(&base, out, &lits);
                let (a, b) = (truth(&base), truth(&m));
                let mut differing = 0;
                for (o, (ta, tb)) in a.iter().zip(&b).enumerate() {
                    for p in 0..1usize << n {
                        let hit = lits.iter().all(|&(v, pos)| ((p >> v) & 1 == 1) == pos);
                        let differs = ta[p] != tb[p];
                        assert_eq!(differs, o == out && hit, "n={n} k={k} o={o} p={p}");
                        differing += usize::from(differs);
                    }
                }
                assert_eq!(differing, 1 << (n - k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn demorgan_rewrite_is_equivalent() {
        for shape in [0, 4, 9] {
            let base = equiv_base(shape, 3);
            let dm = demorgan(&base);
            assert_ne!(dm.num_gates(), base.num_gates());
            assert_eq!(truth(&base), truth(&dm), "shape {shape}");
        }
        let alu = mig_benchgen::generate("alu4").unwrap();
        assert_eq!(truth(&alu), truth(&demorgan(&alu)));
    }

    #[test]
    fn table1_keeps_interfaces_and_follows_the_seed() {
        let (a, b) = (table1(1), table1(2));
        for ((x, y), name) in a.iter().zip(&b).zip(MCNC_NAMES) {
            let reference = mig_benchgen::generate(name).unwrap();
            assert_eq!(x.name(), name);
            assert_eq!(x.num_inputs(), reference.num_inputs(), "{name}");
            assert_eq!(x.num_outputs(), reference.num_outputs(), "{name}");
            let seeded = ["bigkey", "b9", "misex3"].contains(&name);
            assert_eq!(
                x.content_hash() != y.content_hash(),
                seeded,
                "{name}: only bigkey and the PLAs follow the seed"
            );
        }
        assert_eq!(table1(1)[3].content_hash(), a[3].content_hash());
    }
}

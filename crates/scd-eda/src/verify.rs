//! Formal-lite equivalence checking between a source netlist and its
//! mapped PCL implementation.
//!
//! Designs up to 16 inputs are checked exhaustively; larger designs use
//! word-parallel random simulation (64 patterns per word), which in
//! practice exposes any mapping bug in the structural flow.
//!
//! The mapped netlist is prepared for simulation once per check (cell
//! order, input slots and constants), and every word reuses it. The
//! exhaustive input words are built in closed form: the six low inputs
//! carry fixed lane patterns and every higher input is constant across
//! a 64-pattern block.

use crate::error::EdaError;
use crate::mapped::{MappedNetlist, WordEvaluator};
use crate::netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks that `mapped` computes the same function as `source`.
///
/// `random_words` controls how many 64-pattern words are simulated when
/// the input count exceeds the exhaustive limit (16).
///
/// # Errors
///
/// Returns [`EdaError::BadArity`] if the two netlists differ in their
/// input or output counts, [`EdaError::NotEquivalent`] with a witness
/// pattern on mismatch, or any simulation error.
pub fn check_equivalent(
    source: &Netlist,
    mapped: &MappedNetlist,
    random_words: usize,
) -> Result<(), EdaError> {
    let n_inputs = source.inputs().len();
    if mapped.inputs().len() != n_inputs {
        return Err(EdaError::BadArity {
            op: "equivalence check",
            expected: "the source's count of primary",
            actual: mapped.inputs().len(),
        });
    }
    if mapped.outputs().len() != source.outputs().len() {
        return Err(EdaError::BadArity {
            op: "output comparison",
            expected: "one mapped output per source output as",
            actual: mapped.outputs().len(),
        });
    }
    let mut eval = mapped.prepare()?;
    if n_inputs <= 16 {
        check_exhaustive(source, &mut eval, n_inputs)
    } else {
        check_random(source, &mut eval, n_inputs, random_words)
    }
}

/// Bit `k` of lane pattern `i` is bit `i` of `k`.
const LANES: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Fills `words` so that bit `k` of input word `i` is bit `i` of
/// `base + k`; `base` must be a multiple of 64.
fn exhaustive_words(base: u64, words: &mut [u64]) {
    debug_assert_eq!(base % 64, 0);
    for (i, w) in words.iter_mut().enumerate() {
        *w = match LANES.get(i) {
            Some(&lane) => lane,
            None if base >> i & 1 == 1 => u64::MAX,
            None => 0,
        };
    }
}

fn check_exhaustive(
    source: &Netlist,
    mapped: &mut WordEvaluator<'_>,
    n_inputs: usize,
) -> Result<(), EdaError> {
    let total: u64 = 1 << n_inputs;
    let mut words = vec![0u64; n_inputs];
    let mut pattern = 0u64;
    while pattern < total {
        // Below 6 inputs the single block is partial: its lanes at or
        // above `block` repeat earlier patterns and are masked off.
        let block = (total - pattern).min(64);
        exhaustive_words(pattern, &mut words);
        compare_words(source, mapped, &words, pattern, block)?;
        pattern += block;
    }
    Ok(())
}

fn check_random(
    source: &Netlist,
    mapped: &mut WordEvaluator<'_>,
    n_inputs: usize,
    words: usize,
) -> Result<(), EdaError> {
    let mut rng = StdRng::seed_from_u64(0x5cd_eda);
    for _ in 0..words.max(1) {
        let ws: Vec<u64> = (0..n_inputs).map(|_| rng.gen()).collect();
        compare_words(source, mapped, &ws, 0, 64)?;
    }
    Ok(())
}

fn compare_words(
    source: &Netlist,
    mapped: &mut WordEvaluator<'_>,
    words: &[u64],
    base_pattern: u64,
    valid_bits: u64,
) -> Result<(), EdaError> {
    let a = source.eval_word(words)?;
    let b = mapped.eval_word(words)?;
    let mask = if valid_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << valid_bits) - 1
    };
    for (out_idx, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let diff = (x ^ y) & mask;
        if diff != 0 {
            let k = diff.trailing_zeros() as u64;
            return Err(EdaError::NotEquivalent {
                output: out_idx,
                pattern: base_pattern + k,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped::Pin;
    use crate::netlist::LogicOp;
    use scd_tech::pcl::PclCell;

    #[test]
    fn equivalent_designs_pass() {
        let mut n = Netlist::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(LogicOp::And, vec![a, b]).unwrap();
        n.add_output("y", g);

        let mut m = MappedNetlist::new("and");
        let ma = m.add_input("a");
        let mb = m.add_input("b");
        let mg = m.add_cell(PclCell::And2, vec![Pin::of(ma), Pin::of(mb)]);
        m.add_output("y", Pin::of(mg));

        assert!(check_equivalent(&n, &m, 4).is_ok());
    }

    #[test]
    fn inequivalent_designs_yield_witness() {
        let mut n = Netlist::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(LogicOp::And, vec![a, b]).unwrap();
        n.add_output("y", g);

        let mut m = MappedNetlist::new("or");
        let ma = m.add_input("a");
        let mb = m.add_input("b");
        let mg = m.add_cell(PclCell::Or2, vec![Pin::of(ma), Pin::of(mb)]);
        m.add_output("y", Pin::of(mg));

        let err = check_equivalent(&n, &m, 4).unwrap_err();
        match err {
            EdaError::NotEquivalent { output: 0, pattern } => {
                // AND != OR exactly when exactly one input is high.
                assert!(pattern == 0b01 || pattern == 0b10);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// A source whose single output is the minterm `pattern` of
    /// `n_inputs` inputs, and a mapped netlist that ties it to 0.
    fn minterm_vs_zero(n_inputs: usize, pattern: u64) -> (Netlist, MappedNetlist) {
        let mut n = Netlist::new("minterm");
        let mut m = MappedNetlist::new("zero");
        let mut literals = Vec::new();
        for i in 0..n_inputs {
            let x = n.add_input(format!("i{i}"));
            m.add_input(format!("i{i}"));
            literals.push(if pattern >> i & 1 == 1 {
                x
            } else {
                n.add_gate(LogicOp::Not, vec![x]).unwrap()
            });
        }
        let g = n.add_gate(LogicOp::And, literals).unwrap();
        n.add_output("y", g);
        let zero = m.add_const(false);
        m.add_output("y", Pin::of(zero));
        (n, m)
    }

    #[test]
    fn closed_form_words_match_bitwise_definition() {
        let mut words = [0u64; 16];
        for base in [0u64, 64, 0x1240, 0xFFC0] {
            exhaustive_words(base, &mut words);
            for (i, &w) in words.iter().enumerate() {
                for k in 0..64 {
                    assert_eq!(w >> k & 1, (base + k) >> i & 1, "input {i} lane {k}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_witness_is_the_single_differing_minterm() {
        let (n, m) = minterm_vs_zero(16, 0xBEEF);
        assert_eq!(
            check_equivalent(&n, &m, 4),
            Err(EdaError::NotEquivalent {
                output: 0,
                pattern: 0xBEEF
            })
        );
    }

    #[test]
    fn partial_block_lanes_never_produce_a_witness() {
        let (n, m) = minterm_vs_zero(3, 5);
        assert_eq!(
            check_equivalent(&n, &m, 4),
            Err(EdaError::NotEquivalent {
                output: 0,
                pattern: 5
            })
        );
    }

    #[test]
    fn input_count_mismatch_is_an_error() {
        let (n, _) = minterm_vs_zero(3, 5);
        let (_, m) = minterm_vs_zero(2, 1);
        assert!(matches!(
            check_equivalent(&n, &m, 4),
            Err(EdaError::BadArity { actual: 2, .. })
        ));
    }

    #[test]
    fn dropped_output_is_an_error() {
        let mut n = Netlist::new("two");
        let a = n.add_input("a");
        n.add_output("y", a);
        n.add_output("z", a);
        let mut m = MappedNetlist::new("one");
        let ma = m.add_input("a");
        m.add_output("y", Pin::of(ma));
        assert!(matches!(
            check_equivalent(&n, &m, 4),
            Err(EdaError::BadArity { actual: 1, .. })
        ));
    }

    #[test]
    fn wide_designs_use_random_path() {
        let mut n = Netlist::new("wide");
        let ins: Vec<_> = (0..20).map(|i| n.add_input(format!("i{i}"))).collect();
        let g = n.add_gate(LogicOp::Xor, ins.clone()).unwrap();
        n.add_output("y", g);

        let mut m = MappedNetlist::new("wide");
        let mut pin = Pin::of(m.add_input("i0"));
        for i in 1..20 {
            let next = m.add_input(format!("i{i}"));
            let x = m.add_cell(PclCell::Xor2, vec![pin, Pin::of(next)]);
            pin = Pin::of(x);
        }
        m.add_output("y", pin);
        assert!(check_equivalent(&n, &m, 16).is_ok());
    }
}

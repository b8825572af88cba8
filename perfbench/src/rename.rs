//! Seeded inputs: a small deterministic generator and label renamings.
//!
//! A renaming permutes a problem's label order and gives every label a
//! fresh name, so the program sees an isomorphic problem whose text shares
//! no label name with the source: no exact-equality memo can recognize it,
//! and any verdict that changes under it is a fault of the method.

use roundelim_core::label::{Alphabet, Label};
use roundelim_core::problem::Problem;
use roundelim_problems::registry::family;

/// The zoo instance `family:k:delta`.
pub fn instantiate(fam: &str, k: usize, delta: usize) -> Result<Problem, String> {
    family(fam).and_then(|f| f.instantiate(k, delta)).map_err(|e| format!("{fam}:{k}:{delta}: {e}"))
}

/// SplitMix64: a tiny seeded generator, enough for choosing inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream, derived from the run seed and a tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `p` with its labels permuted and renamed from `rng`; the problem name
/// gets `tag` appended. No new label name equals any name of `p`.
pub fn rename(p: &Problem, rng: &mut Rng, tag: &str) -> Problem {
    let old = p.alphabet().names();
    let n = old.len();
    // perm[old index] = new index (Fisher–Yates over the new positions).
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut names: Vec<String> = Vec::with_capacity(n);
    while names.len() < n {
        let cand = format!("q{:05x}", rng.next_u64() & 0xf_ffff);
        if !old.contains(&cand) && !names.contains(&cand) {
            names.push(cand);
        }
    }
    let alphabet = Alphabet::from_names(names).expect("fresh distinct names");
    let map = |l: Label| Label::from_index(perm[l.index()]);
    Problem::new(
        format!("{}{tag}", p.name()),
        alphabet,
        p.node().map_labels(map),
        p.edge().map_labels(map),
    )
    .expect("a renaming of a valid problem is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use roundelim_core::iso::isomorphism;
    use roundelim_problems::registry::sweep_specs;

    #[test]
    fn renamed_problem_is_isomorphic_and_shares_no_label_name() {
        for (i, s) in sweep_specs().iter().enumerate() {
            let p = instantiate(s.family, s.k, s.delta).unwrap();
            let mut rng = Rng::new(42, i as u64);
            let q = rename(&p, &mut rng, "~r");
            assert!(isomorphism(&p, &q).is_some(), "{} not isomorphic to its renaming", s.family);
            for name in q.alphabet().names() {
                assert!(!p.alphabet().names().contains(name), "{}: {name} reused", s.family);
            }
            assert_eq!(q.delta(), p.delta());
            assert_ne!(p, q);
            // Same seed, same renaming; another seed, another one.
            assert_eq!(rename(&p, &mut Rng::new(42, i as u64), "~r"), q);
            assert_ne!(rename(&p, &mut Rng::new(43, i as u64), "~r").to_text(), q.to_text());
        }
    }

    #[test]
    fn renaming_round_trips_through_the_text_format() {
        let p = instantiate("coloring", 3, 3).unwrap();
        let q = rename(&p, &mut Rng::new(1, 2), "");
        assert_eq!(Problem::parse(&q.to_text()).unwrap(), q);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(9, 9);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}

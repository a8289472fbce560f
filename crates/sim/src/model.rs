//! Exact analytic model of per-instruction memory-transfer time under the
//! paper's `t_ave` assumption (§3): each array operand is equally likely to
//! reside in any of the `k` modules.
//!
//! For one long instruction the transfer time is `max-load × Δ`, where
//! max-load is the largest number of accesses any single module serves. The
//! scalar fetches contribute a fixed *base load* vector (all ones after a
//! conflict-free assignment); `a` array accesses then fall uniformly and
//! independently. `maxload_distribution` computes the exact probability
//! distribution `p(i) = P(max-load = i)` by dynamic programming over
//! modules, so `t_ave = Σ i·Δ·p(i)` matches the paper's formula with no
//! sampling error.

use std::collections::HashMap;

/// Exact distribution of the maximum per-module load when `a` balls are
/// thrown uniformly into `k` modules that already carry `base` loads
/// (`base.len() == k`). Returns `p[m] = P(max-load = m)`, for
/// `m in 0..=max(base)+a`.
///
/// The DP visits its states in a fixed order, so the result is the same to
/// the last bit on every call.
pub fn maxload_distribution(base: &[u32], a: usize) -> Vec<f64> {
    let k = base.len();
    assert!(k >= 1, "need at least one module");
    let max_possible = (*base.iter().max().unwrap_or(&0) as usize) + a;
    let width = max_possible + 1;

    // DP over modules: state = (balls left, max load so far) → probability,
    // stored densely at `r * width + mx`. Module j receives c of the
    // remaining r balls with probability Binomial(r, 1/(k-j)): the balls
    // destined for modules j..k are uniform over those modules.
    let mut cur = vec![0.0f64; (a + 1) * width];
    cur[a * width] = 1.0;
    let mut next = vec![0.0f64; cur.len()];

    for (j, &base_j) in base.iter().enumerate() {
        let remaining_modules = (k - j) as f64;
        let p_here = 1.0 / remaining_modules;
        next.fill(0.0);
        for r in 0..=a {
            for mx in 0..width {
                let prob = cur[r * width + mx];
                if prob == 0.0 {
                    continue;
                }
                // Probability module j gets exactly c of the r balls.
                // Binomial(r, p_here).
                let mut p_c = (1.0 - p_here).powi(r as i32); // c = 0
                for c in 0..=r {
                    if c > 0 {
                        // Incremental binomial update:
                        // P(c) = P(c-1) * (r-c+1)/c * p/(1-p)
                        if p_here < 1.0 {
                            p_c = p_c * ((r - c + 1) as f64) / (c as f64) * p_here / (1.0 - p_here);
                        } else {
                            p_c = if c == r { 1.0 } else { 0.0 };
                        }
                    }
                    if p_c == 0.0 {
                        continue;
                    }
                    let load = base_j as usize + c;
                    next[(r - c) * width + mx.max(load)] += prob * p_c;
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }

    // Every ball is placed after the last module: only r = 0 remains.
    debug_assert!(cur[width..].iter().all(|&p| p == 0.0));
    cur.truncate(width);
    cur
}

/// Expected max-load (`Σ i·p(i)`), the per-instruction expected transfer
/// time in Δ units.
pub fn expected_maxload(base: &[u32], a: usize) -> f64 {
    maxload_distribution(base, a)
        .iter()
        .enumerate()
        .map(|(i, &p)| i as f64 * p)
        .sum()
}

/// Memoizing wrapper keyed by the (sorted) base-load vector and array count —
/// in practice almost every instruction hits one of a handful of signatures.
/// Each distinct signature is stored once and gets a stable index, so a
/// per-word plan can refer to its entry without holding a copy.
#[derive(Default)]
pub struct MaxloadTable {
    index: HashMap<(Vec<u32>, usize), usize>,
    entries: Vec<(f64, Vec<f64>)>,
}

impl MaxloadTable {
    /// An empty table.
    pub fn new() -> MaxloadTable {
        MaxloadTable::default()
    }

    /// Index of the `(expected max-load, distribution)` entry for the given
    /// base loads and array-access count, computing it on first use. The
    /// base vector is sorted internally (the distribution is
    /// permutation-invariant).
    pub fn intern(&mut self, base: &[u32], a: usize) -> usize {
        let mut key: Vec<u32> = base.to_vec();
        key.sort_unstable_by(|x, y| y.cmp(x));
        let entries = &mut self.entries;
        *self.index.entry((key, a)).or_insert_with_key(|(key, a)| {
            let dist = maxload_distribution(key, *a);
            let e = dist.iter().enumerate().map(|(i, &p)| i as f64 * p).sum();
            entries.push((e, dist));
            entries.len() - 1
        })
    }

    /// `(expected max-load, distribution)` for the given base loads and
    /// array-access count.
    pub fn lookup(&mut self, base: &[u32], a: usize) -> &(f64, Vec<f64>) {
        let i = self.intern(base, a);
        &self.entries[i]
    }

    /// The interned entries, indexed as [`intern`](MaxloadTable::intern)
    /// returned them.
    pub fn into_entries(self) -> Vec<(f64, Vec<f64>)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn distribution_sums_to_one() {
        for (k, a) in [(4, 0), (4, 3), (8, 8), (2, 5), (1, 4)] {
            let base = vec![0u32; k];
            let d = maxload_distribution(&base, a);
            assert_close(d.iter().sum::<f64>(), 1.0, 1e-9);
        }
    }

    #[test]
    fn no_arrays_max_is_base() {
        let d = maxload_distribution(&[1, 1, 0, 0], 0);
        assert_close(d[1], 1.0, 1e-12);
        assert_close(expected_maxload(&[1, 1, 0, 0], 0), 1.0, 1e-12);
    }

    #[test]
    fn one_ball_one_module() {
        let d = maxload_distribution(&[0], 1);
        assert_close(d[1], 1.0, 1e-12);
        // Two balls, one module → max load 2 surely.
        assert_close(expected_maxload(&[0], 2), 2.0, 1e-12);
    }

    #[test]
    fn two_balls_two_modules() {
        // P(max=1) = P(balls split) = 1/2; P(max=2) = 1/2. E = 1.5.
        let d = maxload_distribution(&[0, 0], 2);
        assert_close(d[1], 0.5, 1e-12);
        assert_close(d[2], 0.5, 1e-12);
        assert_close(expected_maxload(&[0, 0], 2), 1.5, 1e-12);
    }

    #[test]
    fn matches_monte_carlo() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let base = [1u32, 1, 0, 0];
        let a = 3;
        let k = base.len();
        let trials = 200_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let mut loads = base;
            for _ in 0..a {
                loads[rng.gen_range(0..k)] += 1;
            }
            sum += *loads.iter().max().unwrap() as u64;
        }
        let mc = sum as f64 / trials as f64;
        let exact = expected_maxload(&base, a);
        assert_close(exact, mc, 0.01);
    }

    #[test]
    fn base_with_scalar_loads() {
        // One scalar in module 0, one array access, k=2:
        // ball lands on module 0 (p=1/2) → max 2; module 1 → max 1.
        let d = maxload_distribution(&[1, 0], 1);
        assert_close(d[1], 0.5, 1e-12);
        assert_close(d[2], 0.5, 1e-12);
    }

    #[test]
    fn table_caches_and_sorts() {
        let mut t = MaxloadTable::new();
        let (e1, _) = t.lookup(&[1, 0, 0, 1], 2).clone();
        let (e2, _) = t.lookup(&[0, 1, 1, 0], 2).clone();
        assert_eq!(e1, e2);
        assert_eq!(t.entries.len(), 1);
        assert_eq!(t.intern(&[0, 0, 1, 1], 2), t.intern(&[1, 1, 0, 0], 2));
    }

    #[test]
    fn distribution_is_bit_reproducible() {
        // The t_ave columns are sums of these entries; equal inputs must
        // give equal bits, whichever table computed them.
        for base in [vec![1u32, 1, 0, 0], vec![2, 1, 1, 0, 0, 0, 0, 0]] {
            for a in 0..5 {
                let x = maxload_distribution(&base, a);
                let y = maxload_distribution(&base, a);
                let bits = |d: &[f64]| d.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&y), "base {base:?}, a {a}");
            }
        }
    }

    #[test]
    fn expectation_grows_with_arrays() {
        let base = vec![1u32, 1, 1, 1, 0, 0, 0, 0];
        let mut prev = 0.0;
        for a in 0..4 {
            let e = expected_maxload(&base, a);
            assert!(e >= prev);
            prev = e;
        }
    }
}

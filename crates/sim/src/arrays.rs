//! Array storage policies — how array elements map to memory modules.
//!
//! Scalar data values get modules from the compile-time assignment; array
//! element accesses are *unpredictable at compile time* (paper §3), so their
//! module is a run-time property of the chosen storage policy. The three
//! policies mirror the paper's Table 2 columns:
//!
//! * [`ArrayPlacement::Ideal`] — array fetches never conflict (`t_min`),
//! * [`ArrayPlacement::SameModule`] — every array lives in one module
//!   (`t_max`),
//! * [`ArrayPlacement::Interleaved`] / [`ArrayPlacement::UniformRandom`] —
//!   realistic layouts (`t_ave`; the paper's analytic model assumes the
//!   uniform distribution),
//! * [`ArrayPlacement::Planned`] — a compile-time [`MemoryLayout`] plan:
//!   each element's module is decided by the planner's per-array scheme
//!   (interleaved / hash / block), making array behaviour as deterministic
//!   as the scalar assignment.
//!
//! ## Seeding
//!
//! The uniform-random policy models the paper's t_ave assumption, so its
//! draws must be reproducible *per workload* but must not be correlated
//! *across* workloads: a fixed constant seed would replay the identical
//! module sequence for every program, silently biasing corpus-level
//! statistics toward one sample path. Callers therefore derive the seed
//! with [`uniform_seed`]`(base_seed, workload_digest)` — the session's
//! user-visible seed mixed (FNV-1a) with the scheduled program's
//! structural digest. Same program + same `--seed` → byte-identical runs
//! (across `--jobs` too, since nothing depends on thread order); different
//! programs → independent sample paths. Scalar-only programs never draw
//! from the RNG, so their outputs are unaffected by the choice of seed.

use std::sync::Arc;

use parmem_core::layout::MemoryLayout;
use parmem_obs::digest::Fnv1a;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Derive the per-workload uniform-random seed: the user-level `base` seed
/// mixed with the workload's structural digest via FNV-1a (see the module
/// docs on seeding).
pub fn uniform_seed(base: u64, workload_digest: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(base);
    h.u64(workload_digest);
    h.finish()
}

/// Module selection for array element accesses.
#[derive(Clone, Debug)]
pub enum ArrayPlacement {
    /// `t_min`: array accesses never collide — each lands on its own
    /// imaginary spare module.
    Ideal,
    /// `t_max`: every array element in module `m`.
    SameModule(u16),
    /// Element `i` of array `a` lives in module `(base_a + i) mod k`, the
    /// classic interleaved layout (deterministic).
    Interleaved,
    /// Every access draws a module uniformly at random (seeded) — exactly
    /// the assumption behind the paper's `t_ave` formula.
    UniformRandom(u64),
    /// The compile-time plan: each element's module comes from the
    /// [`MemoryLayout`]'s per-array scheme (deterministic, stateless).
    Planned(Arc<MemoryLayout>),
}

impl ArrayPlacement {
    /// Stable policy label used in metric names and trace attributes
    /// (deliberately parameter-free so metrics aggregate across seeds; the
    /// planned label folds in the *policy* — the dimension benches compare —
    /// but not the per-program plan).
    pub fn label(&self) -> &'static str {
        match self {
            ArrayPlacement::Ideal => "ideal",
            ArrayPlacement::SameModule(_) => "same_module",
            ArrayPlacement::Interleaved => "interleaved",
            ArrayPlacement::UniformRandom(_) => "uniform_random",
            ArrayPlacement::Planned(layout) => match layout.policy {
                parmem_core::layout::ArrayPolicy::Interleaved => "planned_interleaved",
                parmem_core::layout::ArrayPolicy::Hash => "planned_hash",
                parmem_core::layout::ArrayPolicy::Block => "planned_block",
                parmem_core::layout::ArrayPolicy::Auto => "planned_auto",
            },
        }
    }
}

/// Stateful resolver created per simulation run.
pub struct ArrayModuleMap {
    policy: ArrayPlacement,
    modules: usize,
    rng: Option<ChaCha8Rng>,
}

impl ArrayModuleMap {
    /// Create a resolver for `modules` memory modules under `policy`.
    pub fn new(policy: ArrayPlacement, modules: usize) -> ArrayModuleMap {
        let rng = match &policy {
            ArrayPlacement::UniformRandom(seed) => Some(ChaCha8Rng::seed_from_u64(*seed)),
            _ => None,
        };
        ArrayModuleMap {
            policy,
            modules,
            rng,
        }
    }

    /// Module for accessing element `index` of array `array_id`, or `None`
    /// under the ideal (conflict-free) policy.
    pub fn module_for(&mut self, array_id: u32, index: i64) -> Option<u16> {
        let k = self.modules as i64;
        match &self.policy {
            ArrayPlacement::Ideal => None,
            ArrayPlacement::SameModule(m) => Some((*m as usize % self.modules) as u16),
            ArrayPlacement::Interleaved => Some(((array_id as i64 + index).rem_euclid(k)) as u16),
            ArrayPlacement::UniformRandom(_) => {
                let r = self.rng.as_mut().expect("rng for uniform policy");
                Some(r.gen_range(0..self.modules) as u16)
            }
            ArrayPlacement::Planned(layout) => Some(layout.module_of(array_id, index)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_never_assigns_a_module() {
        let mut m = ArrayModuleMap::new(ArrayPlacement::Ideal, 4);
        assert_eq!(m.module_for(0, 17), None);
    }

    #[test]
    fn same_module_is_constant() {
        let mut m = ArrayModuleMap::new(ArrayPlacement::SameModule(2), 4);
        for i in 0..10 {
            assert_eq!(m.module_for(3, i), Some(2));
        }
        // Out-of-range module wraps.
        let mut m = ArrayModuleMap::new(ArrayPlacement::SameModule(9), 4);
        assert_eq!(m.module_for(0, 0), Some(1));
    }

    #[test]
    fn interleaved_cycles_through_modules() {
        let mut m = ArrayModuleMap::new(ArrayPlacement::Interleaved, 4);
        let mods: Vec<u16> = (0..8).map(|i| m.module_for(0, i).unwrap()).collect();
        assert_eq!(mods, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Different arrays are offset.
        assert_eq!(m.module_for(1, 0), Some(1));
    }

    #[test]
    fn uniform_random_is_seeded() {
        let mut a = ArrayModuleMap::new(ArrayPlacement::UniformRandom(7), 8);
        let mut b = ArrayModuleMap::new(ArrayPlacement::UniformRandom(7), 8);
        for i in 0..100 {
            assert_eq!(a.module_for(0, i), b.module_for(0, i));
        }
        let mut c = ArrayModuleMap::new(ArrayPlacement::UniformRandom(8), 8);
        let diff = (0..100).any(|i| {
            let x = ArrayModuleMap::new(ArrayPlacement::UniformRandom(7), 8).module_for(0, i);
            x != c.module_for(0, i)
        });
        assert!(diff);
    }

    #[test]
    fn uniform_random_covers_all_modules() {
        let mut m = ArrayModuleMap::new(ArrayPlacement::UniformRandom(1), 4);
        let mut seen = [false; 4];
        for i in 0..200 {
            seen[m.module_for(0, i).unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn negative_index_wraps_safely() {
        let mut m = ArrayModuleMap::new(ArrayPlacement::Interleaved, 4);
        // Bounds errors are caught by the executor; the mapper must still be
        // total.
        assert!(m.module_for(0, -1).unwrap() < 4);
    }

    #[test]
    fn planned_interleaved_matches_legacy_interleaved() {
        use parmem_core::layout::{plan, ArrayPolicy, ArrayProfile};
        use parmem_core::Assignment;
        let profiles = vec![
            ArrayProfile {
                name: "a".into(),
                len: 8,
                loads: 1,
                stores: 0,
                dominant_stride: Some(1),
            },
            ArrayProfile {
                name: "b".into(),
                len: 8,
                loads: 0,
                stores: 1,
                dominant_stride: None,
            },
        ];
        let layout = Arc::new(plan(
            4,
            ArrayPolicy::Interleaved,
            Assignment::new(4),
            &profiles,
        ));
        let mut planned = ArrayModuleMap::new(ArrayPlacement::Planned(layout), 4);
        let mut legacy = ArrayModuleMap::new(ArrayPlacement::Interleaved, 4);
        for id in 0..2 {
            for i in -3..20 {
                assert_eq!(planned.module_for(id, i), legacy.module_for(id, i));
            }
        }
    }

    #[test]
    fn planned_labels_name_the_policy() {
        use parmem_core::layout::{plan, ArrayPolicy};
        use parmem_core::Assignment;
        for (policy, label) in [
            (ArrayPolicy::Interleaved, "planned_interleaved"),
            (ArrayPolicy::Hash, "planned_hash"),
            (ArrayPolicy::Block, "planned_block"),
            (ArrayPolicy::Auto, "planned_auto"),
        ] {
            let layout = Arc::new(plan(4, policy, Assignment::new(4), &[]));
            assert_eq!(ArrayPlacement::Planned(layout).label(), label);
        }
    }

    #[test]
    fn uniform_seed_mixes_base_and_digest() {
        // Distinct workloads decorrelate; same inputs reproduce.
        assert_eq!(uniform_seed(0xC0FFEE, 42), uniform_seed(0xC0FFEE, 42));
        assert_ne!(uniform_seed(0xC0FFEE, 42), uniform_seed(0xC0FFEE, 43));
        assert_ne!(uniform_seed(0xC0FFEE, 42), uniform_seed(0xC0FFEF, 42));
        // The mix must not degenerate to the base seed (the old bug: a fixed
        // constant replayed one sample path for every workload).
        assert_ne!(uniform_seed(7, 42), 7);
    }
}

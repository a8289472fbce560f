//! The unified compile-time memory layout: scalar assignment **and**
//! per-array placement in one artifact.
//!
//! The paper places scalars with a real compile-time assignment but only
//! *models* array conflicts statistically (Table 2's t_min/t_ave/t_max).
//! This module closes that gap: [`plan`] combines today's [`Assignment`]
//! with a deterministic per-element module mapping for every array, chosen
//! per [`ArrayPolicy`]:
//!
//! * [`ArrayPolicy::Interleaved`] — element `i` of array `a` lives in
//!   module `(a + i) mod k`, the classic interleaved layout (identical to
//!   the simulator's legacy statistical `Interleaved` policy).
//! * [`ArrayPolicy::Hash`] — Hanlon-style hash distribution (*Emulating a
//!   large memory with a collection of small ones*): the module is a
//!   mixed hash of `(array, index)`, which behaves like the paper's
//!   uniform t_ave assumption but is fully deterministic.
//! * [`ArrayPolicy::Block`] — block-per-module: contiguous `⌈len/k⌉`-sized
//!   chunks, the layout a banked scratchpad would use.
//! * [`ArrayPolicy::Auto`] — stride-aware choice: with a dominant access
//!   stride `s` coprime to `k`, a unit interleave factor already cycles
//!   accesses through all `k` modules, so interleaving is optimal; when
//!   `gcd(s, k) > 1` *no* linear interleave factor `u` can help (every
//!   access step `s·u mod k` stays a multiple of `gcd(s, k)`), so the
//!   planner falls back to the hash distribution to break the resonance.
//!
//! The module also hosts the paper's Fig. 10 copy-placement algorithm
//! ([`place_values`]) — the scalar half of layout planning — and the
//! [`DuplicationIndex`] it keeps current across one hitting-set run.

use std::cmp::Reverse;

use parmem_obs::digest::Fnv1a;

use crate::assignment::Assignment;
use crate::types::{AccessTrace, ModuleId, ModuleSet, ValueId, ValueMask, MAX_MODULES};

/// The compile-time array-placement policy knob surfaced by the driver,
/// the CLI (`--array-policy`), and the serve protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArrayPolicy {
    /// Module-interleaved: `(array + index) mod k`.
    Interleaved,
    /// Hash-distributed (uniform-like, deterministic).
    Hash,
    /// Block-per-module: contiguous `⌈len/k⌉` chunks.
    Block,
    /// Stride-aware per-array choice between interleaving and hashing.
    Auto,
}

impl ArrayPolicy {
    /// Stable lowercase name (CLI/serve spelling).
    pub fn name(self) -> &'static str {
        match self {
            ArrayPolicy::Interleaved => "interleaved",
            ArrayPolicy::Hash => "hash",
            ArrayPolicy::Block => "block",
            ArrayPolicy::Auto => "auto",
        }
    }

    /// Parse the CLI/serve spelling.
    pub fn parse(s: &str) -> Option<ArrayPolicy> {
        match s {
            "interleaved" => Some(ArrayPolicy::Interleaved),
            "hash" => Some(ArrayPolicy::Hash),
            "block" => Some(ArrayPolicy::Block),
            "auto" => Some(ArrayPolicy::Auto),
            _ => None,
        }
    }

    /// Every concrete policy (what benches and tests sweep). `Auto` is a
    /// choice rule, not a scheme, so it is not listed.
    pub const CONCRETE: [ArrayPolicy; 3] = [
        ArrayPolicy::Interleaved,
        ArrayPolicy::Hash,
        ArrayPolicy::Block,
    ];
}

impl std::fmt::Display for ArrayPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ArrayPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<ArrayPolicy, String> {
        ArrayPolicy::parse(s)
            .ok_or_else(|| format!("bad array policy `{s}` (interleaved|hash|block|auto)"))
    }
}

/// Plain-data access profile of one array — everything the planner needs,
/// decoupled from any IR type (`parmem-core` sits below `liw-ir` in the
/// crate graph). Producers: `liw-ir` access metadata enriched by
/// `parmem-lint`'s induction-variable stride analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayProfile {
    /// Source name (reports only).
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Static load sites.
    pub loads: u64,
    /// Static store sites.
    pub stores: u64,
    /// The most common subscript stride across the array's access sites,
    /// when induction-variable analysis could derive one.
    pub dominant_stride: Option<i64>,
}

/// The concrete per-element mapping scheme chosen for one array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayScheme {
    /// `module = (base + index) mod k`.
    Interleaved {
        /// Per-array offset (the array id, for legacy parity).
        base: u32,
    },
    /// `module = mix(salt, index) mod k`.
    Hash {
        /// Per-array salt folded into the mix.
        salt: u64,
    },
    /// `module = min(index / block, k-1)`.
    Block {
        /// Elements per module (`⌈len/k⌉`, at least 1).
        block: usize,
    },
}

impl ArrayScheme {
    /// The module holding element `index`, for a `k`-module machine.
    /// Total: any `i64` index maps to exactly one module in `0..k` (bounds
    /// errors are the executor's job, the mapper never panics).
    pub fn module_of(self, index: i64, k: usize) -> u16 {
        let k = k.max(1);
        match self {
            ArrayScheme::Interleaved { base } => {
                ((i64::from(base) + index).rem_euclid(k as i64)) as u16
            }
            ArrayScheme::Hash { salt } => {
                // SplitMix64-style finalizer: full-avalanche, so consecutive
                // indices (and any fixed stride) spread uniformly.
                let mut x = (index as u64) ^ salt;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                (x % k as u64) as u16
            }
            ArrayScheme::Block { block } => {
                let block = block.max(1) as i64;
                let i = index.rem_euclid((block * k as i64).max(1));
                ((i / block) as usize).min(k - 1) as u16
            }
        }
    }
}

/// The layout planned for one array: its profile echo plus the scheme.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedArray {
    /// Source name.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// The chosen per-element mapping.
    pub scheme: ArrayScheme,
}

/// The unified compile-time memory layout: the scalar [`Assignment`] plus a
/// deterministic per-element module mapping for every array, planned under
/// one [`ArrayPolicy`]. This is the single artifact the compiler emits and
/// the simulator's planned execution mode consumes.
#[derive(Clone, Debug)]
pub struct MemoryLayout {
    /// Memory modules.
    pub k: usize,
    /// The policy the plan was made under.
    pub policy: ArrayPolicy,
    /// Scalar value → module copies (unchanged from the assign stage).
    pub assignment: Assignment,
    /// Per-array plans, indexed by array id.
    pub arrays: Vec<PlannedArray>,
}

impl MemoryLayout {
    /// The module holding element `index` of array `array_id`. Total and
    /// in-range for every input (unknown array ids fall back to the
    /// interleaved rule so the mapper never panics mid-simulation).
    pub fn module_of(&self, array_id: u32, index: i64) -> u16 {
        match self.arrays.get(array_id as usize) {
            Some(a) => a.scheme.module_of(index, self.k),
            None => ArrayScheme::Interleaved { base: array_id }.module_of(index, self.k),
        }
    }

    /// FNV-1a digest over every byte of the plan: `k`, policy, each
    /// array's name/len/scheme, and the full scalar assignment in value
    /// order. Two layouts with equal digests place every scalar and every
    /// array element identically.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.field(&(self.k as u64).to_le_bytes());
        h.field(self.policy.name().as_bytes());
        for a in &self.arrays {
            h.field(a.name.as_bytes());
            h.field(&(a.len as u64).to_le_bytes());
            match a.scheme {
                ArrayScheme::Interleaved { base } => {
                    h.field(b"interleaved");
                    h.field(&u64::from(base).to_le_bytes());
                }
                ArrayScheme::Hash { salt } => {
                    h.field(b"hash");
                    h.field(&salt.to_le_bytes());
                }
                ArrayScheme::Block { block } => {
                    h.field(b"block");
                    h.field(&(block as u64).to_le_bytes());
                }
            }
        }
        // placed_values iterates in value-id order, so this is canonical.
        for (v, set) in self.assignment.placed_values() {
            h.field(&u64::from(v.0).to_le_bytes());
            for m in set.iter() {
                h.field(&(m.index() as u64).to_le_bytes());
            }
        }
        h.finish()
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Per-array salt for the hash scheme: the array id mixed with a fixed
/// constant, so equal indices of different arrays land independently.
fn hash_salt(array_id: u32) -> u64 {
    (u64::from(array_id)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x48_61_6e_6c_6f_6e
    // "Hanlon"
}

/// Plan the scheme for one array under `policy` (see the module docs for
/// the `Auto` rule).
fn plan_array(id: u32, profile: &ArrayProfile, policy: ArrayPolicy, k: usize) -> ArrayScheme {
    match policy {
        ArrayPolicy::Interleaved => ArrayScheme::Interleaved { base: id },
        ArrayPolicy::Hash => ArrayScheme::Hash {
            salt: hash_salt(id),
        },
        ArrayPolicy::Block => ArrayScheme::Block {
            block: profile.len.div_ceil(k.max(1)).max(1),
        },
        ArrayPolicy::Auto => match profile.dominant_stride {
            // gcd(s, k) == 1: the unit interleave factor is already coprime
            // to the stride — successive accesses cycle all k modules.
            Some(s) if gcd(s.unsigned_abs(), k.max(1) as u64) == 1 => {
                ArrayScheme::Interleaved { base: id }
            }
            // gcd(s, k) > 1 (including the degenerate stride 0): linear
            // interleaving resonates with the stride whatever the factor,
            // so hash-distribute instead.
            Some(_) => ArrayScheme::Hash {
                salt: hash_salt(id),
            },
            // Unknown stride: interleaving is the paper's default.
            None => ArrayScheme::Interleaved { base: id },
        },
    }
}

/// Produce the unified [`MemoryLayout`]: adopt the scalar `assignment`
/// verbatim and plan one [`ArrayScheme`] per profile under `policy`.
pub fn plan(
    k: usize,
    policy: ArrayPolicy,
    assignment: Assignment,
    profiles: &[ArrayProfile],
) -> MemoryLayout {
    let arrays = profiles
        .iter()
        .enumerate()
        .map(|(id, p)| PlannedArray {
            name: p.name.clone(),
            len: p.len,
            scheme: plan_array(id as u32, p, policy, k),
        })
        .collect();
    MemoryLayout {
        k,
        policy,
        assignment,
        arrays,
    }
}

/// The trace as the duplication stage sees it: built once per hitting-set
/// run and kept current across its [`place_values`] calls.
///
/// Only instructions with an operand in `V_unassigned` are indexed. The
/// stage copies no other value, so no other instruction can change its
/// conflict status or contribute a candidate set.
#[derive(Debug)]
pub struct DuplicationIndex {
    unassigned: ValueMask,
    /// Trace position of each indexed instruction, ascending.
    insts: Vec<u32>,
    /// Fig. 10 group of each indexed instruction, in `1..=k`.
    group: Vec<u8>,
    /// Whether each indexed instruction (of at most `k` operands) still
    /// conflicts. Adding a copy only ever clears a conflict, and
    /// [`place_values`] re-checks every instruction of a value it copies,
    /// so each flag equals a fresh check of its instruction.
    conflicting: Vec<bool>,
    /// The indexed instructions value `v` occurs in are
    /// `occ[occ_start[v]..occ_start[v + 1]]`, for `v` in `V_unassigned`.
    occ_start: Vec<u32>,
    occ: Vec<u32>,
}

impl DuplicationIndex {
    /// Index `trace` for duplicating the values in `unassigned`, reading
    /// conflict status from `assignment` as it stands.
    pub fn new(
        trace: &AccessTrace,
        unassigned: &[ValueId],
        assignment: &Assignment,
    ) -> DuplicationIndex {
        let k = trace.modules;
        let mask = ValueMask::new(unassigned);
        let table_len = unassigned.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut occ_start = vec![0u32; table_len + 1];
        let (mut insts, mut group, mut conflicting) = (Vec::new(), Vec::new(), Vec::new());
        for (i, inst) in trace.instructions.iter().enumerate() {
            let mut dup = 0;
            for v in inst.iter().filter(|&&v| mask.contains(v)) {
                occ_start[v.index() + 1] += 1;
                dup += 1;
            }
            if dup == 0 {
                continue;
            }
            // The paper groups by the number of single-copy operands, most
            // constrained first (Fig. 10 / §2.2.2.2). For a k-operand
            // instruction, "i operands in V_unassigned" ⇔ "k−i single-copy
            // operands"; for shorter instructions the unused operand slots
            // also add slack, so the group is the instruction's degrees of
            // freedom: duplicable operands + empty slots. Group 1 = exactly
            // one way out.
            insts.push(i as u32);
            group.push((dup + k.saturating_sub(inst.len())).min(k) as u8);
            conflicting.push(inst.len() <= k && !assignment.instruction_conflict_free(inst));
        }
        for v in 0..table_len {
            occ_start[v + 1] += occ_start[v];
        }
        let mut occ = vec![0u32; occ_start[table_len] as usize];
        let mut cursor = occ_start.clone();
        for (pos, &i) in insts.iter().enumerate() {
            for &v in &trace.instructions[i as usize] {
                if mask.contains(v) {
                    occ[cursor[v.index()] as usize] = pos as u32;
                    cursor[v.index()] += 1;
                }
            }
        }
        DuplicationIndex {
            unassigned: mask,
            insts,
            group,
            conflicting,
            occ_start,
            occ,
        }
    }

    /// True if `v` is in `V_unassigned`.
    pub(crate) fn is_unassigned(&self, v: ValueId) -> bool {
        self.unassigned.contains(v)
    }

    /// The indexed instructions that still conflict, in trace order.
    pub(crate) fn conflicting_instructions<'t>(
        &'t self,
        trace: &'t AccessTrace,
    ) -> impl Iterator<Item = &'t [ValueId]> + 't {
        self.insts
            .iter()
            .zip(&self.conflicting)
            .filter(|&(_, &c)| c)
            .map(|(&i, _)| &trace.instructions[i as usize])
    }

    /// Positions (into the index) of the instructions `v` occurs in.
    fn occurrences(&self, v: ValueId) -> &[u32] {
        let (lo, hi) = (self.occ_start[v.index()], self.occ_start[v.index() + 1]);
        &self.occ[lo as usize..hi as usize]
    }

    /// Per-group count of the conflicting instructions among `positions`
    /// for which `keep` holds: entry `g − 1` counts group `I_g`.
    fn group_counts(&self, positions: &[u32], mut keep: impl FnMut(u32) -> bool) -> GroupCounts {
        let mut counts = [0u32; MAX_MODULES];
        for &p in positions {
            if self.conflicting[p as usize] && keep(p) {
                counts[usize::from(self.group[p as usize]) - 1] += 1;
            }
        }
        counts
    }
}

/// Instruction counts per Fig. 10 group `I_1..I_k` (unused entries zero);
/// compared lexicographically, so group `I_1` weighs most.
type GroupCounts = [u32; MAX_MODULES];

/// Place exactly one new copy of each value in `values` (in the paper's
/// grouped priority order), updating `assignment` and the conflict flags of
/// `index`.
///
/// The placement algorithm of paper Fig. 10 — decide *which module* receives
/// each new copy scheduled by the duplication phase. Instructions with
/// access conflicts are grouped by how many of their operands are in
/// `V_unassigned` (group `I_1` = one duplicable operand — the most
/// constrained — up to `I_k`). Values are placed one at a time, most
/// constrained first; each copy goes to the module that frees the
/// lexicographically best vector of conflict counts
/// `(C_{M,I_1} .. C_{M,I_k})`. The paper resolves remaining ties randomly;
/// we use deterministic tie-breaks (fewest pairwise clashes, then lightest
/// module, then lowest index) so runs are reproducible.
///
/// Every value in `values` must be in the index's `V_unassigned`. Values
/// already holding copies in every module are skipped.
pub fn place_values(
    trace: &AccessTrace,
    index: &mut DuplicationIndex,
    values: &[ValueId],
    assignment: &mut Assignment,
) {
    let k = trace.modules;
    debug_assert!(values.iter().all(|&v| index.is_unassigned(v)));
    if values.is_empty() {
        return;
    }

    // Per-module copy load for tie-breaking.
    let mut load = [0usize; MAX_MODULES];
    for (_, set) in assignment.placed_values() {
        for m in set.iter() {
            load[m.index()] += 1;
        }
    }

    // Order the values: descending lexicographic count of conflicting
    // instructions containing the value, per group I_1..I_k; the sort is
    // stable, so ties keep ascending value order.
    let mut ordered: Vec<ValueId> = values.to_vec();
    ordered.sort_unstable();
    ordered.dedup();
    ordered.sort_by_cached_key(|&v| Reverse(index.group_counts(index.occurrences(v), |_| true)));

    let mut relevant: Vec<u32> = Vec::new();
    for v in ordered {
        let existing = assignment.copies(v);
        let candidates = ModuleSet::all(k).difference(existing);
        if candidates.is_empty() {
            continue; // already everywhere
        }

        // Instructions that contain v and currently conflict.
        relevant.clear();
        relevant.extend(
            index
                .occurrences(v)
                .iter()
                .copied()
                .filter(|&p| index.conflicting[p as usize]),
        );

        // Tie-break 1: pairwise clashes with single-copy co-operands, per
        // module (only v's copies change below, so these stay fixed).
        let mut clashes = [0usize; MAX_MODULES];
        for &p in index.occurrences(v) {
            for &o in &trace.instructions[index.insts[p as usize] as usize] {
                let oc = assignment.copies(o);
                match oc.first() {
                    Some(m) if o != v && oc.len() == 1 => clashes[m.index()] += 1,
                    _ => {}
                }
            }
        }

        let mut best: Option<(GroupCounts, usize, usize, ModuleId)> = None;
        for m in candidates.iter() {
            // C vector: conflicts freed per group if v gets a copy in m.
            assignment.add_copy(v, m);
            let freed = index.group_counts(&relevant, |p| {
                assignment.instruction_conflict_free(
                    &trace.instructions[index.insts[p as usize] as usize],
                )
            });
            assignment.set_copies(v, existing);

            let key = (freed, clashes[m.index()], load[m.index()], m);
            let better = match &best {
                None => true,
                Some((bf, bc, bl, bm)) => {
                    // Larger freed vector wins; then fewer clashes; then
                    // lighter module; then lower index.
                    key.0
                        .cmp(bf)
                        .then(bc.cmp(&key.1))
                        .then(bl.cmp(&key.2))
                        .then(bm.0.cmp(&key.3 .0))
                        == std::cmp::Ordering::Greater
                }
            };
            if better {
                best = Some(key);
            }
        }

        if let Some((_, _, _, m)) = best {
            assignment.add_copy(v, m);
            load[m.index()] += 1;
            // Refresh conflict status of instructions containing v.
            for &p in &relevant {
                let inst = &trace.instructions[index.insts[p as usize] as usize];
                if assignment.instruction_conflict_free(inst) {
                    index.conflicting[p as usize] = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AccessTrace;

    /// Place one copy of each of `vals`, which are also all of
    /// `V_unassigned`.
    fn place(t: &AccessTrace, vals: &[u32], a: &mut Assignment) {
        let vals: Vec<ValueId> = vals.iter().map(|&v| ValueId(v)).collect();
        let mut index = DuplicationIndex::new(t, &vals, a);
        place_values(t, &mut index, &vals, a);
    }

    fn profile(name: &str, len: usize, stride: Option<i64>) -> ArrayProfile {
        ArrayProfile {
            name: name.to_string(),
            len,
            loads: 1,
            stores: 1,
            dominant_stride: stride,
        }
    }

    #[test]
    fn interleaved_scheme_matches_legacy_rule() {
        // Parity with the simulator's legacy statistical policy:
        // module = (array_id + index) mod k.
        let layout = plan(
            4,
            ArrayPolicy::Interleaved,
            Assignment::new(4),
            &[profile("a", 8, None), profile("b", 8, None)],
        );
        for id in 0..2u32 {
            for i in 0..16i64 {
                assert_eq!(
                    layout.module_of(id, i),
                    ((i64::from(id) + i).rem_euclid(4)) as u16
                );
            }
        }
    }

    #[test]
    fn every_scheme_is_total_and_in_range() {
        for policy in [
            ArrayPolicy::Interleaved,
            ArrayPolicy::Hash,
            ArrayPolicy::Block,
            ArrayPolicy::Auto,
        ] {
            for k in [1usize, 2, 3, 4, 7, 8] {
                let layout = plan(
                    k,
                    policy,
                    Assignment::new(k),
                    &[profile("a", 13, Some(2)), profile("b", 1, Some(0))],
                );
                for id in 0..2u32 {
                    for i in [-5i64, -1, 0, 1, 6, 12, 13, 1 << 40] {
                        let m = layout.module_of(id, i);
                        assert!((m as usize) < k, "{policy:?} k={k} a{id}[{i}] -> {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_scheme_is_contiguous() {
        let layout = plan(
            4,
            ArrayPolicy::Block,
            Assignment::new(4),
            &[profile("a", 16, None)],
        );
        let mods: Vec<u16> = (0..16).map(|i| layout.module_of(0, i)).collect();
        assert_eq!(mods[..4], [0, 0, 0, 0]);
        assert_eq!(mods[4..8], [1, 1, 1, 1]);
        assert_eq!(mods[12..], [3, 3, 3, 3]);
    }

    #[test]
    fn hash_scheme_covers_all_modules() {
        let layout = plan(
            8,
            ArrayPolicy::Hash,
            Assignment::new(8),
            &[profile("a", 256, None)],
        );
        let mut seen = [0u32; 8];
        for i in 0..256 {
            seen[layout.module_of(0, i) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "uneven: {seen:?}");
        // Different arrays hash independently.
        let layout2 = plan(
            8,
            ArrayPolicy::Hash,
            Assignment::new(8),
            &[profile("a", 256, None), profile("b", 256, None)],
        );
        let same = (0..256).filter(|&i| layout2.module_of(0, i) == layout2.module_of(1, i));
        assert!(same.count() < 256);
    }

    #[test]
    fn auto_interleaves_coprime_strides_and_hashes_resonant_ones() {
        // Stride 3 on k=4: coprime, interleave. Stride 2 on k=4: resonant
        // (gcd 2), hash. Unknown stride: interleave.
        let layout = plan(
            4,
            ArrayPolicy::Auto,
            Assignment::new(4),
            &[
                profile("coprime", 8, Some(3)),
                profile("resonant", 8, Some(2)),
                profile("unknown", 8, None),
            ],
        );
        assert!(matches!(
            layout.arrays[0].scheme,
            ArrayScheme::Interleaved { .. }
        ));
        assert!(matches!(layout.arrays[1].scheme, ArrayScheme::Hash { .. }));
        assert!(matches!(
            layout.arrays[2].scheme,
            ArrayScheme::Interleaved { .. }
        ));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = Assignment::new(4);
        a.add_copy(ValueId(3), ModuleId(1));
        let l1 = plan(4, ArrayPolicy::Hash, a.clone(), &[profile("a", 8, None)]);
        assert_eq!(l1.digest(), l1.clone().digest());
        // Policy, array shape, and scalar assignment all move the digest.
        let l2 = plan(4, ArrayPolicy::Block, a.clone(), &[profile("a", 8, None)]);
        assert_ne!(l1.digest(), l2.digest());
        let l3 = plan(4, ArrayPolicy::Hash, a.clone(), &[profile("a", 9, None)]);
        assert_ne!(l1.digest(), l3.digest());
        let mut a2 = a.clone();
        a2.add_copy(ValueId(5), ModuleId(2));
        let l4 = plan(4, ArrayPolicy::Hash, a2, &[profile("a", 8, None)]);
        assert_ne!(l1.digest(), l4.digest());
    }

    #[test]
    fn policy_parsing_roundtrips() {
        for p in [
            ArrayPolicy::Interleaved,
            ArrayPolicy::Hash,
            ArrayPolicy::Block,
            ArrayPolicy::Auto,
        ] {
            assert_eq!(ArrayPolicy::parse(p.name()), Some(p));
            assert_eq!(p.name().parse::<ArrayPolicy>().unwrap(), p);
        }
        assert!(ArrayPolicy::parse("random").is_none());
        assert!("bogus".parse::<ArrayPolicy>().is_err());
    }

    // ---- Fig. 10 copy placement ----

    #[test]
    fn first_copy_goes_to_conflict_freeing_module() {
        // k=3. V1 fixed M0, V2 fixed M1, V3 unplaced and unassigned.
        // Instruction {1,2,3} becomes free only if V3 lands in M2.
        let t = AccessTrace::from_lists(3, &[&[1, 2, 3]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        place(&t, &[3], &mut a);
        assert_eq!(a.copies(ValueId(3)), ModuleSet::singleton(ModuleId(2)));
        assert!(a.instruction_conflict_free(&t.instructions[0]));
    }

    #[test]
    fn second_copy_lands_in_different_module() {
        let t = AccessTrace::from_lists(3, &[&[1, 2, 3]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(3), ModuleId(0));
        place(&t, &[3], &mut a);
        let copies = a.copies(ValueId(3));
        assert_eq!(copies.len(), 2);
        assert!(copies.contains(ModuleId(0)));
    }

    #[test]
    fn saturated_value_is_skipped() {
        let t = AccessTrace::from_lists(2, &[&[1, 2]]);
        let mut a = Assignment::new(2);
        a.set_copies(ValueId(1), ModuleSet::all(2));
        place(&t, &[1], &mut a);
        assert_eq!(a.copies(ValueId(1)), ModuleSet::all(2));
    }

    #[test]
    fn constrained_instruction_drives_choice() {
        // Paper's motivation: an instruction with only one duplicable operand
        // admits exactly one fixing module; that choice should be taken even
        // when a looser instruction would prefer elsewhere.
        // k=3. Instruction A: {1,2,9} with V1@M0, V2@M1 fixed → V9 must go M2.
        // Instruction B: {3,9} with V3@M2 — would prefer V9 at M0/M1, but A
        // has priority (group I_1, maximal constraint) and B stays fixable
        // later (V9's *second* copy can handle it).
        let t = AccessTrace::from_lists(3, &[&[1, 2, 9], &[3, 9]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        a.add_copy(ValueId(3), ModuleId(2));
        place(&t, &[9], &mut a);
        // The chosen module must free instruction A.
        assert!(
            a.instruction_conflict_free(&t.instructions[0]),
            "copies of V9: {:?}",
            a.copies(ValueId(9))
        );
    }

    #[test]
    fn placement_prefers_freeing_more_conflicts() {
        // V9 conflicts in two instructions; both are freed by M2, only one by
        // M1. Lex-max vector must pick M2.
        let t = AccessTrace::from_lists(3, &[&[1, 2, 9], &[4, 2, 9]]);
        let mut a = Assignment::new(3);
        a.add_copy(ValueId(1), ModuleId(0));
        a.add_copy(ValueId(4), ModuleId(0));
        a.add_copy(ValueId(2), ModuleId(1));
        place(&t, &[9], &mut a);
        assert_eq!(a.copies(ValueId(9)), ModuleSet::singleton(ModuleId(2)));
        assert_eq!(a.residual_conflicts(&t), 0);
    }

    #[test]
    fn empty_values_is_noop() {
        let t = AccessTrace::from_lists(2, &[&[1, 2]]);
        let mut a = Assignment::new(2);
        place(&t, &[], &mut a);
        assert_eq!(a.total_copies(), 0);
    }
}

//! An access trace costs two flat arrays, and every way of building one
//! keeps the form the assignment algorithms read.
//!
//! This binary counts allocations with `parmem_obs::alloc::CountingAlloc`.
//! At the `synth-1e5` benchmark spec, `scale_trace` must leave exactly
//! 4·(I + 1) + 4·O bytes live for I instructions of O operands (one `u32`
//! offset per instruction plus one, one `u32` value id per operand) and
//! make fewer than 100 allocations in all. A property test then checks
//! that every constructor keeps each instruction's operands ascending and
//! distinct, and keeps instruction order.

use proptest::prelude::*;

use parmem_core::synth::{scale_trace, ScaleSpec};
use parmem_core::trace_io::{format_trace, parse_trace};
use parmem_core::types::{AccessTrace, Instructions, ValueId};
use parmem_obs::alloc::{alloc_counters, reset_thread_peak, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The `synth-1e5` benchmark's scale spec.
const SPEC: ScaleSpec = ScaleSpec {
    values: 100_000,
    edges: 400_000,
    cliques: 40,
    clique_size: 16,
    components: 8,
    modules: 8,
};

#[test]
fn scale_trace_leaves_two_exact_arrays_live() {
    // The raw signed live level: this thread may have freed memory another
    // thread allocated, so the clamped reading can be off.
    let live_before = reset_thread_peak();
    let (_, allocs_before) = alloc_counters();
    let trace = scale_trace(&SPEC, 1);
    let (_, allocs_after) = alloc_counters();
    let live_after = reset_thread_peak();

    let (i, o) = (
        trace.instructions.len(),
        trace.instructions.operands().len(),
    );
    // 400,000 edges, every seventh of weight 2, two operands each.
    assert_eq!((i, o), (457_143, 914_286));
    assert_eq!(
        live_after - live_before,
        (4 * (i + 1) + 4 * o) as i64,
        "bytes left live by scale_trace"
    );
    let allocs = allocs_after - allocs_before;
    assert!(allocs < 100, "scale_trace made {allocs} allocations");
}

/// Each list as an instruction reads it: ascending, without repeats.
fn canonical(lists: &[Vec<u32>]) -> Vec<Vec<ValueId>> {
    lists
        .iter()
        .map(|l| {
            let mut ops: Vec<ValueId> = l.iter().copied().map(ValueId).collect();
            ops.sort_unstable();
            ops.dedup();
            ops
        })
        .collect()
}

fn as_lists(insts: &Instructions) -> Vec<Vec<ValueId>> {
    insts.iter().map(<[ValueId]>::to_vec).collect()
}

fn arb_lists() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..12, 0..7), 0..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_constructor_keeps_operands_ascending_and_order(
        lists in arb_lists(),
        lo in 0usize..20,
        len in 0usize..20,
        keep_mod in 1u32..4,
    ) {
        let want = canonical(&lists);
        let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();

        let from_lists = AccessTrace::from_lists(4, &refs);
        prop_assert_eq!(as_lists(&from_lists.instructions), want.clone());

        let mut pushed = Instructions::new();
        for l in &lists {
            pushed.push(l.iter().copied().map(ValueId));
        }
        prop_assert_eq!(&pushed, &from_lists.instructions);
        let collected: Instructions =
            lists.iter().map(|l| l.iter().copied().map(ValueId)).collect();
        prop_assert_eq!(&collected, &pushed);
        let flat: Vec<ValueId> = want.iter().flatten().copied().collect();
        prop_assert_eq!(pushed.operands(), flat.as_slice());

        // The text format renames values in first-appearance order, so the
        // round trip keeps each instruction's names, not its ids. It keeps
        // every instruction, those without operands included.
        let parsed = parse_trace(&format_trace(&from_lists, None)).expect("own output parses");
        prop_assert_eq!(parsed.trace.instructions.len(), want.len());
        for (got, w) in parsed.trace.instructions.iter().zip(&want) {
            prop_assert!(got.windows(2).all(|p| p[0] < p[1]), "{:?} not ascending", got);
            let mut names: Vec<String> =
                got.iter().map(|&v| parsed.name(v).to_string()).collect();
            names.sort();
            let mut expect: Vec<String> = w.iter().map(|v| format!("V{}", v.0)).collect();
            expect.sort();
            prop_assert_eq!(names, expect);
        }
        let reparsed = parse_trace(&format_trace(&parsed.trace, Some(&parsed.names)))
            .expect("own output parses");
        prop_assert_eq!(&reparsed.trace, &parsed.trace);

        // STOR3's chunks and STOR2's regions: a consecutive range.
        let lo = lo.min(want.len());
        let hi = (lo + len).min(want.len());
        let slice = from_lists.instructions.slice(lo..hi);
        prop_assert_eq!(as_lists(&slice), want[lo..hi].to_vec());

        // STOR2's global stage: each instruction cut to the kept values,
        // those left empty dropped.
        let keep = |v: ValueId| v.0.is_multiple_of(keep_mod);
        let projected = from_lists.instructions.projected(keep);
        let expect: Vec<Vec<ValueId>> = want
            .iter()
            .map(|ops| ops.iter().copied().filter(|&v| keep(v)).collect::<Vec<_>>())
            .filter(|ops| !ops.is_empty())
            .collect();
        prop_assert_eq!(as_lists(&projected), expect);
    }
}

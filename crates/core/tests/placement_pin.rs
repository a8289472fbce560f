//! Pins the duplication and placement results byte for byte.
//!
//! Each case digests every value's copy set together with the
//! `AssignmentReport`, under both duplication strategies. The random traces
//! are the inputs whose size-3..=k candidate families are non-empty, so
//! `conflicting_candidate_sets` and the Fig. 9 hitting set do real work
//! there; the 10^4 scale trace is the shape `batch_differential` checks
//! across worker counts. Any change to which module receives which copy
//! moves a digest.

use parmem_core::assignment::{assign_trace, AssignParams, AssignmentReport, DuplicationStrategy};
use parmem_core::synth::{random_trace, scale_trace, ScaleSpec, TraceSpec};
use parmem_core::types::AccessTrace;

/// FNV-1a over every `(value, copy set)` pair and every report field.
fn digest(trace: &AccessTrace, duplication: DuplicationStrategy) -> u64 {
    let params = AssignParams {
        duplication,
        jobs: 1,
        ..AssignParams::default()
    };
    let (a, r) = assign_trace(trace, &params);
    let AssignmentReport {
        single_copy,
        multi_copy,
        extra_copies,
        uncolored,
        atoms,
        residual_conflicts,
        repair_copies,
    } = r;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (v, set) in a.placed_values() {
        eat(u64::from(v.0));
        eat(set.0);
    }
    for field in [
        single_copy,
        multi_copy,
        extra_copies,
        uncolored,
        atoms,
        residual_conflicts,
        repair_copies,
    ] {
        eat(field as u64);
    }
    h
}

fn random_case(k: usize, seed: u64) -> AccessTrace {
    let spec = TraceSpec {
        values: 64,
        instructions: 400,
        modules: k,
        min_ops: 2,
        max_ops: k,
        skew: 0.8,
    };
    random_trace(&spec, seed)
}

/// Expected `(hitting set, backtrack)` digests per `(k, seed)`.
const RANDOM: [(usize, u64, u64, u64); 10] = [
    (4, 0, 0xc3538dc15cc14a67, 0x11872e8433d53ddd),
    (4, 1, 0xd96d6c2bbcd29e81, 0x1c9396286354511f),
    (4, 2, 0x196e969e364bc0c0, 0xa4ee6329f6bbabdd),
    (4, 3, 0x95f70e7d8fb30bcf, 0x17b7066e78dbf277),
    (4, 4, 0xe25c77a9f82c07a6, 0x7ae725c7e9fab220),
    (8, 0, 0xfe528e7bc0297ade, 0x318a5ba73d5eda7f),
    (8, 1, 0x5d0b93d89447831e, 0xd757eeb63f03945d),
    (8, 2, 0xbfc6823842042700, 0x8388c2d7392c4052),
    (8, 3, 0x11097439f19ef123, 0x04c9c3ba66651891),
    (8, 4, 0x7b553683034ddefd, 0x0ea95d44e1bc6881),
];

#[test]
fn random_traces_place_identically() {
    let mut got = Vec::new();
    for &(k, seed, _, _) in &RANDOM {
        let t = random_case(k, seed);
        got.push((
            k,
            seed,
            digest(&t, DuplicationStrategy::HittingSet),
            digest(&t, DuplicationStrategy::Backtrack),
        ));
    }
    assert_eq!(got, RANDOM, "placement moved: {got:#x?}");
}

#[test]
fn scale_trace_places_identically() {
    let spec = ScaleSpec {
        values: 10_000,
        edges: 40_000,
        cliques: 8,
        clique_size: 10,
        components: 8,
        modules: 8,
    };
    let t = scale_trace(&spec, 123);
    let got = (
        digest(&t, DuplicationStrategy::HittingSet),
        digest(&t, DuplicationStrategy::Backtrack),
    );
    assert_eq!(
        got,
        (0xe523fd0c4e4169cd, 0x313c297506e3341b),
        "placement moved: {got:#x?}"
    );
}

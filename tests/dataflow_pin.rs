//! Pins every fact the TAC dataflow analyses hand to the rest of the
//! pipeline to an FNV-1a digest: subscript classes, array stride profiles,
//! lint diagnostics, def-use webs and the optimizer's output. The inputs are
//! every corpus program, with no unroll and unrolled by 4, each as the
//! frontend TAC and as `liw-opt` output with if-conversion on and off.
//! These are the TACs `parmem lint`, `parmem batch` and the planned-layout
//! path analyze, so a change to how any fact is computed shows up here as a
//! failing constant rather than as a silently different output.

use std::fmt::Write as _;

use parallel_memories::driver::Session;
use parallel_memories::ir::tac::{BlockId, TacProgram, VarId};
use parallel_memories::ir::unroll::UnrollConfig;
use parallel_memories::ir::webs::{compute_webs, TERM_IDX};
use parallel_memories::lint::analyses::SubscriptAnalysis;
use parallel_memories::lint::{array_stride_profiles, lint_program, LintOptions};
use parallel_memories::obs::digest::fnv1a;

/// The unroll setting `parmem --unroll 4` uses.
const UNROLL4: UnrollConfig = UnrollConfig {
    factor: 4,
    max_body_stmts: 16,
};

/// The pinned facts of one TAC, one canonical text each.
fn facts(p: &TacProgram) -> [String; 5] {
    let mut subscripts = String::new();
    let sa = SubscriptAnalysis::compute(p);
    let mut classes: Vec<_> = sa.classes.iter().collect();
    classes.sort_by_key(|((b, i), _)| (b.0, *i));
    for ((b, i), class) in classes {
        let _ = writeln!(subscripts, "B{}:{i} {class:?}", b.0);
    }

    let mut profiles = String::new();
    for a in array_stride_profiles(p) {
        let _ = writeln!(profiles, "{a:?}");
    }

    let mut lints = String::new();
    for k in [4, 8] {
        for d in lint_program(p, &LintOptions { modules: k }) {
            let _ = writeln!(lints, "k={k} {}", d.render());
        }
    }

    let w = compute_webs(p);
    let mut webs = format!("n_webs={} web_var={:?}\n", w.n_webs, w.web_var);
    for v in 0..p.vars.len() as u32 {
        let _ = writeln!(webs, "entry v{v} {:?}", w.of_entry(VarId(v)));
    }
    for (bi, b) in p.blocks.iter().enumerate() {
        let block = BlockId(bi as u32);
        for (ii, inst) in b.instrs.iter().enumerate() {
            for v in inst.reads() {
                let web = w.of_use(block, ii as u32, v);
                let _ = writeln!(webs, "use B{bi}:{ii} v{} {web:?}", v.0);
            }
            if inst.writes().is_some() {
                let _ = writeln!(webs, "def B{bi}:{ii} {:?}", w.of_def(block, ii as u32));
            }
        }
        for v in b.term.reads() {
            let web = w.of_use(block, TERM_IDX, v);
            let _ = writeln!(webs, "use B{bi}:term v{} {web:?}", v.0);
        }
    }

    [subscripts, profiles, lints, webs, p.to_text()]
}

const FACTS: [&str; 5] = ["subscripts", "profiles", "lints", "webs", "tac"];

/// Per (program, unroll): one digest per fact, each over the frontend TAC
/// and the optimized TAC with if-conversion on and off, in that order.
fn digests(source: &str, unroll: Option<UnrollConfig>) -> [u64; 5] {
    let mut session = Session::new(4);
    session.opts.unroll = unroll;
    let tac = session.frontend(source).expect("corpus program compiles");
    let variants = [
        tac.clone(),
        liw_opt::optimize_with(&tac, liw_opt::OptConfig { if_convert: true }).0,
        liw_opt::optimize_with(&tac, liw_opt::OptConfig { if_convert: false }).0,
    ];
    let mut texts: [String; 5] = Default::default();
    for p in &variants {
        for (acc, fact) in texts.iter_mut().zip(facts(p)) {
            acc.push_str(&fact);
            acc.push('\u{1}');
        }
    }
    texts.map(|t| fnv1a(t.as_bytes()))
}

/// `(program, unrolled, [subscripts, profiles, lints, webs, tac])`.
const PINS: &[(&str, bool, [u64; 5])] = &[
    (
        "TAYLOR1",
        false,
        [
            0x814c_e03f_cdd4_bd99,
            0x6d0d_e60d_a457_2cae,
            0xd0a6_fc18_672a_1282,
            0x157f_72f2_3309_cebc,
            0xb6ab_52f0_abc5_eab2,
        ],
    ),
    (
        "TAYLOR1",
        true,
        [
            0xb162_25f7_89db_984c,
            0x54de_0c83_bd52_1433,
            0x9fea_bef4_3af6_e18a,
            0xaa58_c692_f8c1_488d,
            0x7278_fd0f_28f1_a604,
        ],
    ),
    (
        "TAYLOR2",
        false,
        [
            0xc1eb_60c0_2ecb_760d,
            0x71e2_fd6c_33a5_7d56,
            0x1e47_3321_f308_23ae,
            0xc81d_4802_281b_0104,
            0xff45_e9e3_4c76_8783,
        ],
    ),
    (
        "TAYLOR2",
        true,
        [
            0x7dec_4265_f549_5e0b,
            0x86df_e67d_1c3d_7bba,
            0x1eb8_7eb4_56a4_c87c,
            0x3abf_1b52_211a_7c69,
            0xa897_0249_51b1_136c,
        ],
    ),
    (
        "EXACT",
        false,
        [
            0x55eb_6847_98bb_e02f,
            0x05fa_e5a5_efba_aba6,
            0x3f4e_22bf_e2f5_ca90,
            0x3aa8_7728_01e5_9307,
            0x19bf_236d_b135_26f2,
        ],
    ),
    (
        "EXACT",
        true,
        [
            0x1fd6_a4c9_d209_cc37,
            0xd9e2_8530_44c7_00ea,
            0xef19_30cb_71fd_ac9a,
            0x1533_afad_bbaf_ddb0,
            0x0237_d83b_be74_b7bc,
        ],
    ),
    (
        "FFT",
        false,
        [
            0x072d_f77c_afff_fe9d,
            0x9dbb_f8d5_3ed5_d9f1,
            0xd0a6_fc18_672a_1282,
            0x35a5_eb66_c909_847d,
            0x55fa_6e94_293f_d6ca,
        ],
    ),
    (
        "FFT",
        true,
        [
            0x85ef_79f6_d1bf_4f05,
            0x4f62_8323_779d_8853,
            0xa74e_bfc1_e8b6_c458,
            0x145e_e5a5_6d4e_9008,
            0x93a2_67d1_aa5d_78bd,
        ],
    ),
    (
        "SORT",
        false,
        [
            0x6b58_b4ec_8371_ff59,
            0x1197_5d4a_4893_1c34,
            0xd0a6_fc18_672a_1282,
            0xba41_be14_2947_ab13,
            0x1827_de12_a0a8_0011,
        ],
    ),
    (
        "SORT",
        true,
        [
            0x35c7_0540_721c_75a7,
            0x3068_7903_0ec2_9cb0,
            0x1db4_ed7b_792d_7276,
            0xfa63_12ca_e371_29d6,
            0xcf5a_7e8a_f902_1f5a,
        ],
    ),
    (
        "COLOR",
        false,
        [
            0x6ef4_7096_f7cb_c4bb,
            0x0fbc_c704_aa31_7939,
            0xd0a6_fc18_672a_1282,
            0x275d_f4ab_906a_6545,
            0xc0ed_8f04_5040_83ef,
        ],
    ),
    (
        "COLOR",
        true,
        [
            0x2b63_4476_f9ec_0a1e,
            0x928f_6334_636a_633b,
            0x0de0_82c7_aacf_5612,
            0x733f_a73e_1828_3964,
            0x0203_8edd_2a28_638f,
        ],
    ),
    (
        "MATMUL",
        false,
        [
            0x1967_acf8_6bb9_0d41,
            0x980a_ed67_382c_b2ff,
            0xd0a6_fc18_672a_1282,
            0xa0d7_8576_507c_58e0,
            0x58b7_da0d_7c36_7cf3,
        ],
    ),
    (
        "MATMUL",
        true,
        [
            0x1040_6b67_41a3_f5c9,
            0x7d9e_7bd5_5a24_e3ea,
            0x1d82_f25f_88ef_3982,
            0x3116_7254_bab4_12fe,
            0x4ceb_d1ed_bb85_d562,
        ],
    ),
    (
        "STENCIL",
        false,
        [
            0x1aa9_b840_595c_0f0b,
            0x8cb9_b82b_26f7_90ec,
            0xac05_3d34_6500_222e,
            0xc7e6_9d38_b284_760a,
            0x4720_0459_86b2_6182,
        ],
    ),
    (
        "STENCIL",
        true,
        [
            0xd822_bd6b_c5ed_de63,
            0xeeb8_9a92_d93f_be7e,
            0x1131_1cc7_6a79_538c,
            0xb997_d363_e555_6956,
            0x1c7d_5087_3857_a669,
        ],
    ),
    (
        "HIST",
        false,
        [
            0x2736_ebe7_f60a_67f1,
            0x6938_b56e_2e4d_ba3b,
            0xd0a6_fc18_672a_1282,
            0x2395_32a1_06bb_6cf9,
            0xe953_2b60_7b53_1975,
        ],
    ),
    (
        "HIST",
        true,
        [
            0xd169_9827_5de4_7b5f,
            0xc0b3_5b1b_97c1_cb87,
            0xa1d9_3237_8ecc_ed45,
            0x0ddd_2309_d497_de18,
            0xa59e_9ea7_0ea4_3ab8,
        ],
    ),
    (
        "LIVERMORE",
        false,
        [
            0x2d20_ea54_1b4d_ac81,
            0xd605_4d6a_98d4_d205,
            0xd0a6_fc18_672a_1282,
            0x0594_7190_62c1_56a0,
            0xe232_6dd3_77dd_4dbe,
        ],
    ),
    (
        "LIVERMORE",
        true,
        [
            0x927c_238a_7f53_b9e7,
            0x79fe_f8ed_d477_5007,
            0x50db_3d75_bb38_7d16,
            0x16a4_fa4a_8fe6_1d98,
            0x729a_3def_ad54_28b4,
        ],
    ),
    (
        "SYNTH",
        false,
        [
            0xd0a6_fc18_672a_1282,
            0xd0a6_fc18_672a_1282,
            0xd0a6_fc18_672a_1282,
            0x4e98_d7c0_9ced_08c1,
            0x4d11_f7b7_2a79_7551,
        ],
    ),
    (
        "SYNTH",
        true,
        [
            0xd0a6_fc18_672a_1282,
            0xd0a6_fc18_672a_1282,
            0xd0a6_fc18_672a_1282,
            0xdaee_be68_6895_33ae,
            0xd5cc_69df_edef_b1cb,
        ],
    ),
];

#[test]
fn dataflow_facts_are_pinned() {
    let mut got = Vec::new();
    for bench in parallel_memories::workloads::all_benchmarks() {
        for (unrolled, unroll) in [(false, None), (true, Some(UNROLL4))] {
            got.push((bench.name, unrolled, digests(bench.source, unroll)));
        }
    }
    let mut drift = String::new();
    for (name, unrolled, d) in &got {
        let want = PINS
            .iter()
            .find(|(n, u, _)| n == name && u == unrolled)
            .map(|(_, _, w)| *w);
        for (i, fact) in FACTS.iter().enumerate() {
            if want.map(|w| w[i]) != Some(d[i]) {
                let _ = writeln!(
                    drift,
                    "{name} unrolled={unrolled} {fact}: got {:#018x}, pinned {:?}",
                    d[i],
                    want.map(|w| format!("{:#018x}", w[i]))
                );
            }
        }
    }
    assert_eq!(got.len(), PINS.len(), "corpus size changed");
    assert!(drift.is_empty(), "dataflow facts drifted:\n{drift}");
}

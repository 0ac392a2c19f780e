//! Known-answer pins on the text of every experiment report.
//!
//! FNV-1a-64 of `run_by_id(id, ExpOptions::default()).render()` for each of
//! the [`ALL_IDS`]. The e2e digests never read the DAG reference `Tg` or
//! the side-mode correction; these do: `run_clock`'s `err_abs = Ca − Tg`
//! reaches most reports, and `fig3` runs `correct_side_modes_drifting`. A
//! change that moves one of these moves a printed number, and has to say
//! so and re-pin (the failure message prints the new table).

use tsc_experiments::{run_by_id, ExpOptions, ALL_IDS};

const GOLDEN: [(&str, u64); 22] = [
    ("table1", 0x53bb_244a_ec32_3cac),
    ("table2", 0x3089_a25c_30ba_69a0),
    ("fig2", 0xf789_6052_58bb_a4f1),
    ("fig3", 0xa696_88c2_3204_08f3),
    ("fig4", 0xbd60_6af4_3a1d_4b0f),
    ("fig5", 0x9ab0_d98b_5656_2c96),
    ("fig6", 0xdb80_8706_e11e_e819),
    ("fig7", 0xf8c4_5444_e8ef_07ab),
    ("fig8", 0x5181_9355_d7c4_29f5),
    ("fig9a", 0x6806_e934_6105_74ad),
    ("fig9b", 0x9a4f_9a4d_88b0_04e2),
    ("fig9c", 0x6e57_9f86_4908_ebbb),
    ("fig10", 0xceb4_890c_f8c1_d46c),
    ("fig11a", 0x71bc_9b9b_45c7_3711),
    ("fig11b", 0xb92c_85d0_6c88_21be),
    ("fig11c", 0x0bcc_7abb_6fad_f13d),
    ("fig11d", 0x541e_2962_185a_2290),
    ("fig12", 0xdb03_91ee_3a89_5608),
    ("baseline", 0xf3f3_a643_7efa_a252),
    ("ablation", 0xbdfb_227c_95a4_8442),
    ("quorum", 0x7c0d_88c0_a7da_df70),
    ("population", 0x0947_b841_e17e_b017),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_report_renders_its_pinned_text() {
    let got: Vec<(&str, u64)> = ALL_IDS
        .iter()
        .map(|&id| {
            let report = run_by_id(id, ExpOptions::default()).expect("known id");
            (id, fnv1a(report.render().as_bytes()))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(id, h)| format!("    (\"{id}\", {h:#018x}),\n"))
        .collect();
    assert!(got == GOLDEN, "moved; new table:\n{table}");
}

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
    ("fig2", 0x0d76_3fd4_e792_8f40),
    ("fig3", 0xa2f2_5768_1f75_c0c2),
    ("fig4", 0xbd60_6af4_3a1d_4b0f),
    ("fig5", 0x43a7_d15d_f37b_e241),
    ("fig6", 0x8e26_cf1e_110d_5927),
    ("fig7", 0x7e4d_1035_dfca_369f),
    ("fig8", 0x2b59_3e3b_83a9_5c0b),
    ("fig9a", 0xf454_1f2e_6219_e9b3),
    ("fig9b", 0xc522_716c_2bd2_c29b),
    ("fig9c", 0x09f2_01a9_eb1a_131c),
    ("fig10", 0x44c6_b7ed_8920_1512),
    ("fig11a", 0x4e8b_15d7_18a2_635d),
    ("fig11b", 0x08d5_6c16_35a8_42ed),
    ("fig11c", 0xfc56_166d_f94e_9047),
    ("fig11d", 0x93df_62bf_c815_ef3e),
    ("fig12", 0x530e_3811_aafa_b5e9),
    ("baseline", 0xd8ca_3689_f4f1_871c),
    ("ablation", 0xd646_527e_3ba8_c6c7),
    ("quorum", 0x31c1_7a5d_0747_0c05),
    ("population", 0x68e1_dd1a_ad0b_6e11),
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

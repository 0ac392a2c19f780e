//! Bench: regenerates every experiment of `repro` end-to-end (reduced
//! scale), one bench per id in `tsc_experiments::ALL_IDS`.
//!
//! Bench names are `<group>/<id>`, the group being the figure the id is a
//! panel of (`fig9/fig9a`, `fig2/fig2`, `baseline_ablation/baseline`), so
//! `cargo bench --bench bench_experiments -- fig9` selects one figure.

use criterion::{criterion_group, criterion_main, Criterion};
use tsc_experiments::{run_by_id, ExpOptions, ALL_IDS};

/// The figure an experiment id belongs to: panel letters are dropped
/// (`fig11c` → `fig11`) and the two X-experiments share one group.
fn group_of(id: &str) -> &str {
    match id {
        "baseline" | "ablation" => "baseline_ablation",
        _ if id.starts_with("fig") => id.trim_end_matches(|c: char| c.is_ascii_lowercase()),
        _ => id,
    }
}

fn bench(c: &mut Criterion) {
    for &id in ALL_IDS {
        let mut g = c.benchmark_group(group_of(id));
        g.sample_size(10);
        g.bench_function(id, |b| {
            b.iter(|| {
                let r = run_by_id(id, ExpOptions { seed: 42, full: false })
                    .expect("known id");
                std::hint::black_box(r.metrics.len())
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

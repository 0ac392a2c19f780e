//! Experiment runners reproducing every table and figure of the paper.
//!
//! Each module corresponds to one artifact of the evaluation (see
//! [`ALL_IDS`] for the full index) and produces a [`Report`]: a plain-text
//! block with the same rows/series the paper reports, plus the structured
//! numbers so integration tests can assert on shapes. The `repro` binary
//! exposes them as subcommands.
//!
//! Durations default to shortened-but-representative runs so the whole
//! suite completes in seconds; `--full` restores the paper's spans
//! (months) — still only tens of seconds of wall clock thanks to the
//! event-driven simulator.

pub mod ablation;
mod asym;
pub mod baseline;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fmt;
pub mod population;
pub mod quorum;
pub mod runner;
mod sidemode;
mod swclock;
pub mod table1;
pub mod table2;

pub use fmt::Report;
pub use runner::{run_clock, ClockRun, PacketOut};

/// Common knobs for every experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Master random seed.
    pub seed: u64,
    /// Use the paper's full durations instead of shortened defaults.
    pub full: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            full: false,
        }
    }
}

/// Runs one experiment by id (`table1`, `fig9a`, …). Returns `None` for an
/// unknown id.
pub fn run_by_id(id: &str, opt: ExpOptions) -> Option<Report> {
    Some(match id {
        "table1" => table1::run(),
        "table2" => table2::run(opt),
        "fig2" => fig2::run(opt),
        "fig3" => fig3::run(opt),
        "fig4" => fig4::run(opt),
        "fig5" => fig5::run(opt),
        "fig6" => fig6::run(opt),
        "fig7" => fig7::run(opt),
        "fig8" => fig8::run(opt),
        "fig9a" => fig9::run_tau_prime(opt),
        "fig9b" => fig9::run_quality(opt),
        "fig9c" => fig9::run_polling(opt),
        "fig10" => fig10::run(opt),
        "fig11a" => fig11::run_outage(opt),
        "fig11b" => fig11::run_server_fault(opt),
        "fig11c" => fig11::run_upward_shifts(opt),
        "fig11d" => fig11::run_downward_shift(opt),
        "fig12" => fig12::run(opt),
        "baseline" => baseline::run(opt),
        "ablation" => ablation::run(opt),
        "quorum" => quorum::run(opt),
        "population" => population::run(opt),
        _ => return None,
    })
}

/// All experiment ids in paper order.
pub const ALL_IDS: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b",
    "fig9c", "fig10", "fig11a", "fig11b", "fig11c", "fig11d", "fig12", "baseline", "ablation",
    "quorum", "population",
];

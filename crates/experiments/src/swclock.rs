//! The SW-NTP baseline: an ntpd-style feedback-disciplined software clock.
//!
//! The paper's motivation (§1) is that the standard SW-NTP solution — the
//! system clock disciplined by the NTP daemon's feedback loop — "is not
//! reliable enough and lacks robustness": offset errors exceed RTTs in
//! practice, occasional resets reach seconds, and because "the rate or
//! frequency of the clock is deliberately varied as a means to adjust
//! offset", its rate is erratic.
//!
//! To *compare* against that baseline, this module implements a faithful
//! miniature of the classic Mills clock discipline:
//!
//! * per-exchange offset/delay computation from the four timestamps;
//! * the 8-stage **clock filter** (minimum-delay sample selection with a
//!   dispersion-style freshness preference);
//! * a hybrid **PLL/FLL feedback loop** that steers the clock frequency
//!   from the filtered offset;
//! * the **step threshold** (128 ms): larger offsets step the clock
//!   outright — the paper's dreaded "larger reset adjustments".
//!
//! The result is a clock whose *offset* behaviour is reasonable under calm
//! conditions but whose *rate* is deliberately perturbed — exactly the
//! trade-off the TSC-NTP clock refuses to make. The `baseline` experiment,
//! its one user, runs both on identical traces.

mod discipline;
mod filter;

pub(crate) use discipline::DisciplinedClock;

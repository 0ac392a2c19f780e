//! The served-error bound policy: one floor, one widening rate, one
//! staleness horizon and one aging rule, shared by every reader that
//! serves a time with a bound — the serving plane's snapshots
//! (`tsc-serve`) and the client lifecycle's verdicts (`tsc-fleet`).
//!
//! A bound is the clock error at the moment it was last established (a
//! seal, an accepted sample), never below [`BOUND_FLOOR`]. It then ages:
//! point errors grow with their age (§5.3(i)), and without fresh data
//! the rate estimate can drift by up to the oscillator's stability, the
//! paper's γ* ≈ 0.05–0.1 PPM (§5.2), so the bound widens by
//! [`WIDEN_RATE`] per second of age ([`aged`]). Past [`STALE_HORIZON`] a
//! reader refuses rather than vouch for the time.
//!
//! The floor is applied once, where a bound enters state; [`aged`] does
//! not re-apply it.

/// Floor of a bound as it enters state (seconds): never claim tighter
/// than this however good the point errors look.
pub const BOUND_FLOOR: f64 = 50e-6;

/// Bound widening per second of age (s/s): the paper's 0.1 PPM rate
/// bound, the holdover drift allowance.
pub const WIDEN_RATE: f64 = 1e-7;

/// Age past which a reader refuses to serve (seconds): 4 h.
pub const STALE_HORIZON: f64 = 4.0 * 3600.0;

/// The bound `age` seconds after it was established: `bound +
/// WIDEN_RATE·max(age, 0)`. A negative age (a reading that predates the
/// bound) ages nothing, so the bound is monotone in age.
#[inline]
pub fn aged(bound: f64, age: f64) -> f64 {
    bound + WIDEN_RATE * age.max(0.0)
}

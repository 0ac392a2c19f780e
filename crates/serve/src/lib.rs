//! `tsc-serve` — the `ntpd`-style serving plane: answer NTP client
//! requests off the disciplined TSC clock at millions of responses per
//! second, without ever making the response path wait on the discipline
//! loop.
//!
//! Three layers (see `README.md` for the full design):
//!
//! - [`cell`]: the lock-free published clock snapshot. The discipline
//!   loop seals `(Ca(t0), p̂, error bound, era)` into a seqlock
//!   [`SnapshotCell`]; readers evaluate `Ca(t) = base + rate·(t − t0)`
//!   with zero locks and retry only on a torn generation.
//! - [`publish`]: the writer side — [`Publisher`] turns a `TscNtpClock`
//!   and its point errors (EMA-smoothed, floored once at the seal) into
//!   sealed snapshots.
//! - [`transport`] + [`plane`]: the batched datagram front-end — a
//!   recvmmsg/sendmmsg-shaped [`DatagramBatch`] trait over one contiguous
//!   buffer per direction, implemented by real UDP sockets and an
//!   in-process [`SimTransport`]; [`ServePlane::serve_batch`] decodes,
//!   decides serve-or-refuse, stamps and encodes whole batches
//!   allocation-free, and [`spawn_udp`] runs it as a daemon thread.
//!
//! Every response carries a served-error bound (clock error at seal,
//! aged by staleness under the one rule of `tscclock::bound`) in its
//! root-dispersion field, and requests past the staleness horizon are
//! refused with a stratum-0 Kiss-o'-Death (`STAL`) rather than answered
//! stale.

pub mod cell;
pub mod plane;
pub mod publish;
pub mod transport;

pub use cell::{ClockSnapshot, SnapshotCell};
pub use plane::{
    decide, instant_counter, spawn_udp, Decision, ServeConfig, ServeDaemonHandle, ServePlane,
    ServeStats, Stamper, REFUSE_INIT, REFUSE_STALE, REFUSE_UNSYNC,
};
pub use publish::{PublishPolicy, Publisher};
pub use transport::{BatchBufs, DatagramBatch, SimTransport, UdpBatchTransport, SLOT_LEN};

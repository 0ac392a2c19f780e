//! Multi-source fleet replay: each fleet entry is one *quorum* — K
//! per-server clocks plus the robust combiner — driven by its own seeded
//! multi-server scenario.
//!
//! The unit of work stays one whole entry: a quorum's round stream is
//! totally ordered and stateful, so an entry is never split across
//! threads; parallelism comes from the fleet axis exactly as in
//! [`crate::replay`]. Every entry is a pure function of
//! `(template, base_seed + entry id)` and lands in its own result slot,
//! so multi-source fleet results are **bit-identical across thread
//! counts and chunk sizes** — the digest folds every round's
//! [`tsc_quorum::QuorumOutput`] (masks, reference instant, combined
//! time/rate bit patterns) plus the final per-server trust scores, and
//! `tests/parity.rs` pins it at {1, 2, 4, 8} threads.

use crate::recovery::{open_sidecar, Interrupts};
use crate::replay::{fnv, Workload, FNV_OFFSET};
use tsc_netsim::multi::splitmix64;
use tsc_netsim::{MultiServerScenario, RoundSample};
use tsc_quorum::{QuorumClock, QuorumConfig, QuorumOutput};
use tscclock::snapshot::{self, SnapshotWriter};
use tscclock::RawExchange;

/// Configuration of one multi-source fleet replay.
#[derive(Debug, Clone)]
pub struct QuorumFleetConfig {
    /// Number of independent quorum entries.
    pub entries: usize,
    /// Entry `i` runs the scenario template with seed
    /// `splitmix64(base_seed + i)` — hashed, not additive, because the
    /// multi-server seed contract derives per-stream seeds by small
    /// additive offsets: plain `base + i` would hand adjacent entries
    /// bit-identical ChaCha streams in different roles.
    pub base_seed: u64,
    /// Multi-server scenario template (seed overridden per entry).
    pub scenario: MultiServerScenario,
    /// Quorum parameters, identical for every entry.
    pub quorum: QuorumConfig,
    /// Entries claimed from the shared pile per steal; `0` = auto.
    pub chunk: usize,
}

impl QuorumFleetConfig {
    /// A fleet of `entries` reseeded copies of `scenario`.
    pub fn new(
        entries: usize,
        base_seed: u64,
        scenario: MultiServerScenario,
        quorum: QuorumConfig,
    ) -> Self {
        Self {
            entries,
            base_seed,
            scenario,
            quorum,
            chunk: 0,
        }
    }
}

/// Result of replaying one quorum entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumSummary {
    /// Fleet index of this entry.
    pub entry: usize,
    /// Rounds replayed.
    pub rounds: u64,
    /// Per-server exchanges delivered (lost polls excluded) across all
    /// rounds — one round of a K-server quorum contributes up to K.
    pub delivered: u64,
    /// Rounds that produced a combination.
    pub combined_rounds: u64,
    /// Final combined rate estimate.
    pub p_hat: Option<f64>,
    /// Final demotion mask.
    pub demoted_mask: u32,
    /// Final per-server trust scores.
    pub trust: Vec<f64>,
    /// FNV-1a digest over every round's [`QuorumOutput`] bit patterns
    /// plus the final trust scores — the bit-exactness witness.
    pub digest: u64,
}

/// Folds one round's output into a digest.
fn fold_output(mut h: u64, o: &QuorumOutput) -> u64 {
    h = fnv(h, o.round);
    h = fnv(
        h,
        (o.delivered_mask as u64)
            | ((o.candidate_mask as u64) << 32),
    );
    h = fnv(
        h,
        (o.excluded_mask as u64) | ((o.demoted_mask as u64) << 32),
    );
    h = fnv(h, o.tsc_ref);
    h = fnv(h, o.utc_ref.to_bits());
    h = fnv(h, o.p_hat.to_bits());
    h
}

/// Rounds accumulated per [`QuorumClock::process_batch`] call in the
/// replay loop.
const BATCH_ROUNDS: usize = 64;

impl Workload for QuorumFleetConfig {
    type Summary = QuorumSummary;

    fn items(&self) -> usize {
        self.entries
    }

    fn chunk(&self) -> usize {
        self.chunk
    }

    /// Streams the scenario template, reseeded for entry `i`. Ingest is
    /// batched ([`QuorumClock::process_batch`] over [`BATCH_ROUNDS`]-round
    /// flattened chunks — bit-identical to the per-round loop) and
    /// allocation-free in steady state: the round, batch and output
    /// buffers are all reused across the whole replay. Progress is
    /// counted in rounds.
    fn item(&self, i: usize, intr: &mut Interrupts<'_>) -> QuorumSummary {
        let seed = splitmix64(self.base_seed.wrapping_add(i as u64));
        let k = self.scenario.k();
        let mut q = QuorumClock::new(k, self.quorum);
        let mut stream = self.scenario.stream_with_seed(seed);
        let mut samples: Vec<RoundSample> = Vec::with_capacity(k);
        let mut flat: Vec<Option<RawExchange>> = Vec::with_capacity(k * BATCH_ROUNDS);
        let mut outs: Vec<QuorumOutput> = Vec::with_capacity(BATCH_ROUNDS);
        let mut digest = FNV_OFFSET;
        let (mut rounds, mut combined_rounds, mut delivered) = (0u64, 0u64, 0u64);
        loop {
            flat.clear();
            let want = k * intr.budget(rounds, BATCH_ROUNDS as u64) as usize;
            while flat.len() < want && stream.next_round(&mut samples) {
                flat.extend(samples.iter().map(|s| s.delivered.then_some(s.raw)));
            }
            if flat.is_empty() {
                break;
            }
            outs.clear();
            q.process_batch(&flat, &mut outs);
            for out in &outs {
                rounds += 1;
                combined_rounds += u64::from(out.combined);
                delivered += u64::from(out.delivered_mask.count_ones());
                digest = fold_output(digest, out);
            }
            intr.checkpoint(rounds, digest, || {
                let mut w = SnapshotWriter::new();
                w.put_u64(combined_rounds);
                w.put_u64(delivered);
                w.put_bytes(&q.snapshot());
                w.seal(snapshot::kind::CHECKPOINT)
            });
            intr.recover(rounds, |ck| {
                (q, combined_rounds, delivered, rounds, digest) = match ck {
                    Some(ck) => {
                        let (combined, exchanges, quorum) = open_sidecar(&ck.blob, |r| {
                            Ok((r.get_u64()?, r.get_u64()?, r.get_bytes()?))
                        })?;
                        (QuorumClock::restore(quorum)?, combined, exchanges, ck.delivered, ck.digest)
                    }
                    None => (QuorumClock::new(k, self.quorum), 0, 0, 0, FNV_OFFSET),
                };
                // Regenerate the stream and fast-forward to the resume
                // point without feeding the quorum (its state covers it).
                stream = self.scenario.stream_with_seed(seed);
                for _ in 0..rounds {
                    stream.next_round(&mut samples);
                }
                Ok(rounds)
            });
        }
        let trust: Vec<f64> = (0..k).map(|s| q.trust(s)).collect();
        let mut demoted_mask = 0u32;
        for (s, t) in trust.iter().enumerate() {
            digest = fnv(digest, t.to_bits());
            demoted_mask |= u32::from(q.demoted(s)) << s;
        }
        QuorumSummary {
            entry: i,
            rounds,
            delivered,
            combined_rounds,
            p_hat: q.p_hat(),
            demoted_mask,
            trust,
            digest,
        }
    }
}

/// Total rounds replayed across the fleet (scheduled polls of one server
/// each round; lost polls included).
pub fn total_quorum_rounds(summaries: &[QuorumSummary]) -> u64 {
    summaries.iter().map(|s| s.rounds).sum()
}

/// Total per-server exchanges delivered across the fleet — the mirror of
/// [`crate::replay::total_delivered`], and the numerator of the
/// aggregate exchanges/s figure the benches report.
pub fn total_quorum_delivered(summaries: &[QuorumSummary]) -> u64 {
    summaries.iter().map(|s| s.delivered).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use crate::replay::replay;

    fn small_cfg(entries: usize, k: usize) -> QuorumFleetConfig {
        let scenario = MultiServerScenario::baseline(k, 0)
            .with_poll_period(64.0)
            .with_duration(64.0 * 250.0);
        QuorumFleetConfig::new(
            entries,
            404,
            scenario,
            QuorumConfig::paper_defaults(64.0),
        )
    }

    #[test]
    fn quorum_replay_produces_estimates_and_distinct_digests() {
        let cfg = small_cfg(4, 3);
        let summaries = replay(None, &cfg);
        assert_eq!(summaries.len(), 4);
        for (i, s) in summaries.iter().enumerate() {
            assert_eq!(s.entry, i);
            assert_eq!(s.rounds, 250, "entry {i}");
            // 3 servers × 250 rounds, minus ~1.5e-3 loss
            assert!(
                s.delivered > 700 && s.delivered <= 750,
                "entry {i}: {} delivered",
                s.delivered
            );
            assert!(s.combined_rounds > 200, "entry {i}: {}", s.combined_rounds);
            let p = s.p_hat.expect("combined rate");
            assert!((p - 1e-9).abs() / 1e-9 < 1e-3, "entry {i} p̂ {p}");
            assert_eq!(s.demoted_mask, 0, "healthy fleet entry {i}");
            assert_eq!(s.trust.len(), 3);
            assert!(s.trust.iter().all(|&t| t > 0.6));
        }
        let mut digests: Vec<u64> = summaries.iter().map(|s| s.digest).collect();
        digests.dedup();
        assert_eq!(digests.len(), 4, "per-entry streams must be distinct");
    }

    #[test]
    fn quorum_fleet_runs_on_a_pool() {
        let cfg = small_cfg(9, 2);
        let mut pool = WorkerPool::new(3);
        let got = replay(Some(&mut pool), &cfg);
        assert_eq!(got, replay(None, &cfg));
        assert_eq!(total_quorum_rounds(&got), 9 * 250);
        let delivered = total_quorum_delivered(&got);
        assert!(delivered > 0 && delivered <= 9 * 250 * 2);
    }
}

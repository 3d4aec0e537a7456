//! The benchmark's own arithmetic: tail percentiles, the SLO ladder's
//! stop rule, backlog growth and the error tally. Medians of repeated
//! measurements go through `tclose_perf::summarize`, the repository's
//! one sample-summary implementation.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile actually reported (e.g. `99.0`, or lower when the
    /// phase had too few samples for the requested one).
    pub percentile: f64,
    /// Number of samples in the set.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`, under the
/// rule that at least [`MIN_BEYOND`] samples must lie beyond the reported
/// rank: when the requested percentile leaves fewer, the highest
/// percentile that still leaves [`MIN_BEYOND`] is reported instead, and
/// named in [`Tail::percentile`]. `None` when there are not even
/// `MIN_BEYOND + 1` samples.
pub fn tail(samples: &[f64], p: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n - MIN_BEYOND);
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    tclose_perf::summarize(samples).median_ns
}

/// How one request (or one batch release) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the offline reference.
    Ok,
    /// Answered with bytes that differ from the reference, or a release
    /// that failed its audit.
    Mismatch,
    /// The daemon's queue was full.
    Busy,
    /// The request waited in the daemon's queue past its budget.
    TimedOut,
    /// An error response, or a process that exited nonzero.
    Error,
    /// No response arrived before the phase deadline.
    Missing,
}

/// Counts of each [`Outcome`] over a set of operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended in anything but [`Outcome::Ok`].
    pub failed: u64,
    /// [`Outcome::Busy`] answers.
    pub busy: u64,
    /// [`Outcome::TimedOut`] answers.
    pub timed_out: u64,
    /// [`Outcome::Missing`] answers.
    pub missing: u64,
}

impl Tally {
    /// Records one operation.
    pub fn add(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => return,
            Outcome::Busy => self.busy += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::Missing => self.missing += 1,
            Outcome::Mismatch | Outcome::Error => {}
        }
        self.failed += 1;
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.timed_out += other.timed_out;
        self.missing += other.missing;
    }

    /// Failed operations divided by attempted ones (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// True when the outstanding-request count grew over a phase: the mean
/// backlog of its second half exceeds the first half's by more than two
/// requests and by more than half. A server keeping up holds a flat
/// backlog (a brief stall only bumps a few samples); one falling behind
/// accumulates a linearly growing queue.
pub fn backlog_grew(backlog: &[u32]) -> bool {
    if backlog.len() < 2 {
        return false;
    }
    let (first, second) = backlog.split_at(backlog.len() / 2);
    let mean = |xs: &[u32]| xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64;
    let (m1, m2) = (mean(first), mean(second));
    m2 - m1 > (0.5 * m1).max(2.0)
}

/// What one rung of the rate ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungResult {
    /// Tail latency (ms) under the [`tail`] rule, `None` with too few
    /// samples.
    pub p99_ms: Option<f64>,
    /// Operations that did not end in [`Outcome::Ok`].
    pub errors: u64,
    /// Whether the backlog grew over the rung ([`backlog_grew`]).
    pub backlog_grew: bool,
    /// Whether the generator fell behind its own schedule.
    pub generator_late: bool,
}

/// Tail-latency ceiling of the SLO, in milliseconds.
pub const SLO_P99_MS: f64 = 25.0;

impl RungResult {
    /// True when the rung meets every SLO condition: p99 ≤ 25 ms, zero
    /// errors, no backlog growth, and a generator that kept its schedule.
    pub fn meets_slo(&self) -> bool {
        self.p99_ms.is_some_and(|p| p <= SLO_P99_MS)
            && self.errors == 0
            && !self.backlog_grew
            && !self.generator_late
    }
}

/// Offered rate of the ladder's first rung (and of the `high` phase),
/// req/s.
pub const LADDER_BASE_RPS: f64 = 150.0;

/// Offered rate of ladder rung `i`: [`LADDER_BASE_RPS`], ×1.1 per rung.
pub fn ladder_rate(i: usize) -> f64 {
    LADDER_BASE_RPS * 1.1f64.powi(i as i32)
}

/// The ladder's stop rule: rungs run in order and the first one that
/// misses the SLO ends the climb. Returns the index of the highest rung
/// that met the SLO before the first miss, or `None` when the first rung
/// already missed. Rungs after the first miss are ignored.
pub fn highest_passing(rungs: &[RungResult]) -> Option<usize> {
    rungs
        .iter()
        .take_while(|r| r.meets_slo())
        .count()
        .checked_sub(1)
}

/// The error tally of a whole load run. Every answer of the `low`
/// phase, of every ladder rung that met the SLO, of the first rung
/// (`high`) and of the saturation loop counts. The rung that ended the
/// climb was overloaded on purpose: its `Busy`/`TimedOut` answers are the
/// stop signal, not errors — a wrong, failed or missing answer there
/// still is one.
pub fn load_tally(
    low: &Tally,
    rungs: &[RungResult],
    rung_tallies: &[Tally],
    saturation: &Tally,
) -> Tally {
    let mut total = *low;
    for (i, (r, t)) in rungs.iter().zip(rung_tallies).enumerate() {
        let mut t = *t;
        if i > 0 && i + 1 == rungs.len() && !r.meets_slo() {
            t.failed -= t.busy + t.timed_out;
            t.busy = 0;
            t.timed_out = 0;
        }
        total.merge(&t);
    }
    total.merge(saturation);
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_with_a_thousand_samples_is_the_true_p99() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn short_phases_report_the_highest_percentile_with_ten_beyond() {
        // 500 samples: p99 would leave 5 beyond; rank 490 leaves 10.
        let t = tail(&ramp(500), 99.0).unwrap();
        assert_eq!(t.value, 490.0);
        assert_eq!(t.percentile, 98.0);
        // 999 samples: p99 is rank 990 (9 beyond), so rank 989.
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!(t.value, 989.0);
        // exactly 11 samples: rank 1 is the only one with 10 beyond
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!(t.value, 1.0);
        assert!(tail(&ramp(10), 99.0).is_none());
    }

    #[test]
    fn tail_ignores_input_order_and_keeps_low_percentiles() {
        let mut xs = ramp(200);
        xs.reverse();
        let t = tail(&xs, 50.0).unwrap();
        assert_eq!(t.value, 100.0);
        assert_eq!(t.percentile, 50.0);
    }

    #[test]
    fn median_matches_the_perf_harness() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn busy_timeout_and_missing_count_as_errors() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Busy,
            Outcome::TimedOut,
            Outcome::Missing,
            Outcome::Mismatch,
            Outcome::Error,
            Outcome::Ok,
        ] {
            t.add(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed, 5);
        assert_eq!((t.busy, t.timed_out, t.missing), (1, 1, 1));
        assert_eq!(t.error_rate(), 5.0 / 8.0);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.failed, 10);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn backlog_growth_is_detected_only_when_the_queue_builds() {
        assert!(!backlog_grew(&[1, 2, 1, 2, 1, 2, 1, 2]));
        assert!(!backlog_grew(&[3, 3, 3, 3, 4, 4, 4, 4]));
        assert!(backlog_grew(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(!backlog_grew(&[5]));
        // a transient stall late in the phase is not growth
        assert!(!backlog_grew(&[0, 1, 0, 1, 0, 1, 4, 1]));
        assert!(backlog_grew(&[10, 12, 14, 16, 18, 20, 22, 24]));
    }

    fn rung(p99: f64) -> RungResult {
        RungResult {
            p99_ms: Some(p99),
            errors: 0,
            backlog_grew: false,
            generator_late: false,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_miss() {
        // rung 2 misses on latency; rung 3 would pass but is never counted
        let rungs = [rung(5.0), rung(9.0), rung(30.0), rung(4.0)];
        assert_eq!(highest_passing(&rungs), Some(1));

        let mut errs = rung(5.0);
        errs.errors = 1;
        assert_eq!(highest_passing(&[rung(5.0), errs]), Some(0));

        let mut grew = rung(5.0);
        grew.backlog_grew = true;
        assert_eq!(highest_passing(&[grew, rung(5.0)]), None);

        let mut late = rung(5.0);
        late.generator_late = true;
        assert_eq!(highest_passing(&[rung(5.0), late]), Some(0));

        let mut thin = rung(5.0);
        thin.p99_ms = None;
        assert_eq!(highest_passing(&[thin]), None);

        assert_eq!(highest_passing(&[rung(1.0), rung(1.0)]), Some(1));
        assert_eq!(highest_passing(&[]), None);
    }

    #[test]
    fn only_the_stopping_rung_may_answer_busy() {
        let busy_then_ok = |busy: u64| {
            let mut t = Tally::default();
            (0..busy).for_each(|_| t.add(Outcome::Busy));
            t.add(Outcome::TimedOut);
            t.add(Outcome::Missing);
            t.add(Outcome::Ok);
            t
        };
        let clean = {
            let mut t = Tally::default();
            t.add(Outcome::Ok);
            t
        };
        let mut stop = rung(40.0);
        stop.errors = 4;
        let rungs = [rung(5.0), rung(6.0), stop];
        let total = load_tally(&clean, &rungs, &[clean, clean, busy_then_ok(2)], &clean);
        // the stopping rung's 2 Busy + 1 TimedOut are the stop signal; its
        // missing answer still counts
        assert_eq!(total.attempted, 1 + 1 + 1 + 5 + 1);
        assert_eq!(
            (total.failed, total.busy, total.timed_out, total.missing),
            (1, 0, 0, 1)
        );

        // Busy at the `high` rate (rung 0) always counts, even when it stops
        let stop_high = [stop];
        let total = load_tally(&clean, &stop_high, &[busy_then_ok(1)], &clean);
        assert_eq!((total.failed, total.busy, total.timed_out), (3, 1, 1));

        // ...and so does Busy in the low phase or the saturation loop
        let total = load_tally(&busy_then_ok(1), &rungs[..1], &[clean], &busy_then_ok(1));
        assert_eq!(total.failed, 6);
        assert_eq!(total.error_rate(), 6.0 / 9.0);
    }

    #[test]
    fn adjacent_rungs_are_a_tenth_apart() {
        for i in 0..10 {
            let step = ladder_rate(i + 1) / ladder_rate(i);
            assert!((step - 1.1).abs() < 1e-12);
        }
        assert_eq!(ladder_rate(0), LADDER_BASE_RPS);
        assert!((ladder_rate(1) - 165.0).abs() < 1e-9);
    }
}

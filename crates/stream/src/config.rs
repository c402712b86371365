//! Stream configuration.

/// Everything that defines a stream's deterministic behaviour.
///
/// Two engines opened with equal configurations and fed the same
/// record multiset produce byte-identical state regardless of delivery
/// order (within the lateness bound) or batch boundaries — the config
/// is therefore part of the stream's identity, and resuming a durable
/// stream with a *different* config is refused as corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Stream name: tags every `stream_windows` checkpoint, every
    /// flight-recorder mark, and the service registry entry.
    pub name: String,
    /// Window length in days. Windows are aligned to the epoch
    /// (`day.div_euclid(window_days)`), not to the first record, so
    /// window boundaries never depend on arrival order.
    pub window_days: i64,
    /// Allowed lateness in days: the watermark trails the newest
    /// timestamp seen by this much, and a window only closes once the
    /// watermark passes its end. Larger values tolerate more disorder
    /// at the cost of buffering and result latency.
    pub lateness_days: i64,
    /// Number of clusters mined.
    pub k: usize,
    /// Master seed for every K-means initialization (warm updates
    /// inherit centroids instead of re-initializing, so the seed only
    /// re-enters on full re-fits — which is what makes a drift re-fit
    /// equal a cold fit).
    pub seed: u64,
    /// Lloyd iteration budget of one warm mini-batch update (small:
    /// the model moves a bounded amount per window).
    pub update_iters: usize,
    /// Lloyd iteration budget of a full (cold) re-fit.
    pub refit_iters: usize,
    /// Drift escalation threshold: a warm update whose SSE-per-row
    /// exceeds `threshold ×` the last full fit's baseline triggers a
    /// full re-fit.
    pub drift_threshold: f64,
    /// Minimum active patients (non-zero rows) before the first model
    /// is fit; below this the stream folds records but reports no
    /// model.
    pub min_rows: usize,
    /// Whether every window close runs a model update. `false` folds
    /// and checkpoints only (the model then moves on demand via
    /// [`crate::StreamEngine::force_refit`]) — the smoke bench uses
    /// this to measure the pure ingest path.
    pub mine_on_close: bool,
    /// Bounded ingestion-channel capacity in *batches*; a full channel
    /// pushes back on the producer (wire callers see `Busy`).
    pub channel_capacity: usize,
}

impl StreamConfig {
    /// A sensible default stream: weekly windows, two weeks of
    /// lateness, k=4, mining on every close.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            window_days: 7,
            lateness_days: 14,
            k: 4,
            seed: 0,
            update_iters: 5,
            refit_iters: 100,
            drift_threshold: 1.25,
            min_rows: 16,
            mine_on_close: true,
            channel_capacity: 64,
        }
    }

    /// Sets the window length in days.
    #[must_use]
    pub fn window_days(mut self, days: i64) -> Self {
        self.window_days = days;
        self
    }

    /// Sets the allowed lateness in days.
    #[must_use]
    pub fn lateness_days(mut self, days: i64) -> Self {
        self.lateness_days = days;
        self
    }

    /// Sets the number of clusters.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the warm-update iteration budget.
    #[must_use]
    pub fn update_iters(mut self, iters: usize) -> Self {
        self.update_iters = iters;
        self
    }

    /// Sets the full re-fit iteration budget.
    #[must_use]
    pub fn refit_iters(mut self, iters: usize) -> Self {
        self.refit_iters = iters;
        self
    }

    /// Sets the drift escalation threshold.
    #[must_use]
    pub fn drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Sets the minimum active rows before the first fit.
    #[must_use]
    pub fn min_rows(mut self, rows: usize) -> Self {
        self.min_rows = rows;
        self
    }

    /// Enables or disables mining on window close.
    #[must_use]
    pub fn mine_on_close(mut self, mine: bool) -> Self {
        self.mine_on_close = mine;
        self
    }

    /// Sets the ingestion-channel capacity (batches).
    #[must_use]
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let c = StreamConfig::new("feed")
            .window_days(3)
            .lateness_days(9)
            .k(7)
            .seed(11)
            .update_iters(2)
            .refit_iters(50)
            .drift_threshold(2.0)
            .min_rows(5)
            .mine_on_close(false)
            .channel_capacity(8);
        assert_eq!(c.name, "feed");
        assert_eq!(c.window_days, 3);
        assert_eq!(c.lateness_days, 9);
        assert_eq!(c.k, 7);
        assert_eq!(c.seed, 11);
        assert_eq!(c.update_iters, 2);
        assert_eq!(c.refit_iters, 50);
        assert_eq!(c.drift_threshold, 2.0);
        assert_eq!(c.min_rows, 5);
        assert!(!c.mine_on_close);
        assert_eq!(c.channel_capacity, 8);
    }
}

//! Cached profiled runs of the workload suite, shared across experiments.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tpupoint::prelude::*;

type Key = (WorkloadId, TpuGeneration, u8);

/// One cache slot. The outer map lock is held only long enough to find or
/// insert the slot; the slot's own lock serializes the (expensive) profiling
/// of that cell, so concurrent requests for *different* cells profile in
/// parallel while concurrent requests for the *same* cell profile it exactly
/// once.
#[derive(Default)]
struct CacheCell(Mutex<Option<Arc<ProfiledRun>>>);

/// Lazily profiles each (workload, generation, variant) once and caches
/// the result; every figure draws from the same runs, exactly as the
/// paper's figures all come from one set of profiled executions.
///
/// The cache is thread-safe: experiments may request cells concurrently
/// (e.g. from a `tpupoint_par::par_map` grid sweep) and each cell is still
/// profiled exactly once.
#[derive(Default)]
pub struct Suite {
    cache: Mutex<BTreeMap<Key, Arc<CacheCell>>>,
    profiles_run: AtomicU64,
}

impl Suite {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn variant_key(variant: Variant) -> u8 {
        match variant {
            Variant::Tuned => 0,
            Variant::Naive => 1,
        }
    }

    /// Builds the job config used for profiled runs (simulation scale).
    pub fn config(&self, id: WorkloadId, generation: TpuGeneration, variant: Variant) -> JobConfig {
        build(
            id,
            generation,
            &BuildOptions {
                scale: id.default_sim_scale(),
                variant,
                ..BuildOptions::default()
            },
        )
    }

    /// Number of profiling runs actually executed (cache misses). Always
    /// the number of distinct cells requested, regardless of concurrency.
    pub fn profiles_run(&self) -> u64 {
        self.profiles_run.load(Ordering::Relaxed)
    }

    /// Profiles every given cell, in parallel on the shared
    /// [`tpupoint_par`] pool, so later cache hits are instant. Duplicate
    /// cells in the input are profiled once.
    pub fn prewarm(&self, cells: &[(WorkloadId, TpuGeneration, Variant)]) {
        tpupoint_par::pool().par_map(cells, |_, &(id, generation, variant)| {
            self.profiled(id, generation, variant);
        });
    }

    /// Profiled run of a workload (cached).
    pub fn profiled(
        &self,
        id: WorkloadId,
        generation: TpuGeneration,
        variant: Variant,
    ) -> Arc<ProfiledRun> {
        let key = (id, generation, Self::variant_key(variant));
        let cell = {
            let mut table = self.cache.lock().expect("suite cache poisoned");
            table.entry(key).or_default().clone()
        };
        let mut slot = cell.0.lock().expect("suite cell poisoned");
        if let Some(hit) = slot.as_ref() {
            return hit.clone();
        }
        self.profiles_run.fetch_add(1, Ordering::Relaxed);
        let tp = TpuPoint::builder().analyzer(false).build();
        let run = Arc::new(
            tp.profile(self.config(id, generation, variant))
                .expect("in-memory profiling cannot fail"),
        );
        *slot = Some(run.clone());
        run
    }

    /// Profiled run of the tuned variant.
    pub fn tuned(&self, id: WorkloadId, generation: TpuGeneration) -> Arc<ProfiledRun> {
        self.profiled(id, generation, Variant::Tuned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_returns_the_same_run() {
        let suite = Suite::new();
        let a = suite.tuned(WorkloadId::BertMrpc, TpuGeneration::V2);
        let b = suite.tuned(WorkloadId::BertMrpc, TpuGeneration::V2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.report.steps_completed > 0);
        assert_eq!(suite.profiles_run(), 1);
    }

    #[test]
    fn variants_are_cached_separately() {
        let suite = Suite::new();
        let tuned = suite.profiled(WorkloadId::BertMrpc, TpuGeneration::V2, Variant::Tuned);
        let naive = suite.profiled(WorkloadId::BertMrpc, TpuGeneration::V2, Variant::Naive);
        assert!(!Arc::ptr_eq(&tuned, &naive));
        assert!(
            naive.report.tpu_idle_fraction() >= tuned.report.tpu_idle_fraction(),
            "naive pipelines idle the TPU at least as much"
        );
    }

    #[test]
    fn concurrent_requests_profile_each_cell_exactly_once() {
        tpupoint_par::set_threads(4);
        let suite = Suite::new();
        // 8 concurrent requests for 2 distinct cells.
        let cells: Vec<_> = (0..8)
            .map(|i| {
                let variant = if i % 2 == 0 {
                    Variant::Tuned
                } else {
                    Variant::Naive
                };
                (WorkloadId::BertMrpc, TpuGeneration::V2, variant)
            })
            .collect();
        suite.prewarm(&cells);
        tpupoint_par::set_threads(0);
        assert_eq!(suite.profiles_run(), 2);
        // And hits afterwards are free.
        suite.tuned(WorkloadId::BertMrpc, TpuGeneration::V2);
        assert_eq!(suite.profiles_run(), 2);
    }
}

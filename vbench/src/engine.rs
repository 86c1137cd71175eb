//! A forwarding placement engine that times every decision.
//!
//! Installed with `Dispatcher::set_engine` in traced runs, it wraps the
//! same `vsched::CostEngine` the dispatcher would build for itself and
//! forwards every call unchanged, so placement decisions — and with them
//! every virtual metric — stay bit-identical to the untraced run.

use std::cell::Cell;
use std::rc::Rc;

use std::time::Instant;

use vsched::{Candidate, CostEngine, DispatcherConfig, PlacementEngine, WarmPolicy, WarmVerdict};

/// Shared tallies of one or more [`TimedEngine`]s.
#[derive(Debug, Default)]
pub struct PlacementTally {
    pub calls: Cell<u64>,
    pub ns: Cell<u64>,
}

impl PlacementTally {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

/// The dispatcher's default engine for `config`, as `Dispatcher::new`
/// builds it.
pub fn default_engine(config: &DispatcherConfig) -> CostEngine {
    let topology = config
        .topology
        .clone()
        .unwrap_or_else(|| vsched::Topology::flat(config.shards));
    CostEngine::new(
        config.placement,
        topology,
        config.batch_size,
        WarmPolicy {
            global_budget: config.warm_budget,
            tenant_quota: config.warm_tenant_quota,
        },
    )
}

/// Wraps an engine and times each scoring call into a shared tally.
#[derive(Debug)]
pub struct TimedEngine<E> {
    inner: E,
    tally: Rc<PlacementTally>,
}

impl<E: PlacementEngine> TimedEngine<E> {
    pub fn new(inner: E, tally: Rc<PlacementTally>) -> TimedEngine<E> {
        TimedEngine { inner, tally }
    }
}

impl<E: PlacementEngine> PlacementEngine for TimedEngine<E> {
    fn admit(&self, tenant: usize, candidates: &[Candidate]) -> usize {
        self.tally.time(|| self.inner.admit(tenant, candidates))
    }

    fn admit_reads_warm(&self) -> bool {
        self.inner.admit_reads_warm()
    }

    fn steal_clean(&self, candidates: &[Candidate]) -> Option<usize> {
        self.tally.time(|| self.inner.steal_clean(candidates))
    }

    fn steal_warm(&self, candidates: &[Candidate]) -> Option<usize> {
        self.tally.time(|| self.inner.steal_warm(candidates))
    }

    fn resume(&self, candidates: &[Candidate]) -> usize {
        self.tally.time(|| self.inner.resume(candidates))
    }

    fn warm_release(&self, tenant_resident: usize, global_resident: usize) -> WarmVerdict {
        self.tally
            .time(|| self.inner.warm_release(tenant_resident, global_resident))
    }

    fn warm_policy_active(&self) -> bool {
        self.inner.warm_policy_active()
    }

    fn set_warm_policy(&mut self, policy: WarmPolicy) {
        self.inner.set_warm_policy(policy);
    }

    fn evacuate(&self, candidates: &[Candidate]) -> Option<usize> {
        self.tally.time(|| self.inner.evacuate(candidates))
    }
}

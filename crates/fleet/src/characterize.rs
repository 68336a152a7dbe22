//! Characterize once, run everywhere.
//!
//! A fleet of simulated nodes shares one set of immutable test artifacts:
//! the graded schedule (routine programs + watchdog budgets), the golden
//! [`SignatureStore`], the per-component characterization coverage, and
//! the fault-mountable components, each compiled once into an evaluation
//! tape. [`Characterizer`] builds them exactly once — on whichever worker
//! thread asks first — and hands out `Arc` clones; atomic counters prove
//! the "exactly once" claims (one characterization, one tape compilation
//! per mountable target) for any node count and any worker count, the
//! same way the compiled-tape engine's `tape_compilations` counter proves
//! tapes are never rebuilt per pattern.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sbst_core::plan::build_managed_schedule_graded;
use sbst_core::Cut;
use sbst_cpu::faulty::CompiledTarget;
use sbst_cpu::mac::MacKey;
use sbst_cpu::manager::{ManagedComponent, SignatureStore};
use sbst_gates::FaultSimConfig;

use crate::profile::TargetSpec;

/// A fault-mountable target, compiled once per characterization.
#[derive(Debug, Clone)]
pub struct FaultTarget {
    /// Component name — matches the managed schedule's key.
    pub name: String,
    /// The shared component and its compiled tape; mounting an
    /// [`sbst_cpu::ArchFault`] on it ([`sbst_cpu::ArchFault::mount`]) is a
    /// refcount bump plus the mount's own value buffers — never a netlist
    /// clone or a recompilation.
    pub compiled: Arc<CompiledTarget>,
    /// Site description (port + width) used when planning faults.
    pub spec: TargetSpec,
}

/// The immutable artifacts every node shares.
#[derive(Debug)]
pub struct SharedArtifacts {
    /// One managed routine per routine-capable CUT, shared fleet-wide.
    pub components: Arc<[ManagedComponent]>,
    /// The sealed golden store each node's private copy starts from —
    /// keyed with [`SharedArtifacts::store_key`] at seal epoch 0.
    pub store: SignatureStore,
    /// The per-characterization MAC key sealing the store, provisioned
    /// once here and threaded to every node's manager.
    /// [`MacKey::UNKEYED`] unless the characterizer was given a key seed.
    pub store_key: MacKey,
    /// Per-component fault coverage measured at characterization time
    /// (component name, percent).
    pub coverage: Vec<(String, f64)>,
    /// Mountable fault targets, in inventory order.
    pub targets: Vec<FaultTarget>,
}

/// Builds [`SharedArtifacts`] at most once per fleet run.
#[derive(Debug)]
pub struct Characterizer {
    cuts: Vec<Cut>,
    sim: FaultSimConfig,
    key_seed: Option<u64>,
    cell: OnceLock<Arc<SharedArtifacts>>,
    runs: AtomicU64,
    target_compiles: AtomicU64,
}

impl Characterizer {
    /// Prepares a characterizer over `cuts` (nothing runs yet).
    pub fn new(cuts: Vec<Cut>) -> Self {
        Self::with_sim(cuts, FaultSimConfig::default())
    }

    /// [`Characterizer::new`] with an explicit fault-simulator
    /// configuration for the grading pass.
    pub fn with_sim(cuts: Vec<Cut>, sim: FaultSimConfig) -> Self {
        Characterizer {
            cuts,
            sim,
            key_seed: None,
            cell: OnceLock::new(),
            runs: AtomicU64::new(0),
            target_compiles: AtomicU64::new(0),
        }
    }

    /// Provisions a per-characterization MAC key derived from `seed`
    /// ([`MacKey::from_seed`]): the golden store is sealed keyed and every
    /// node's manager receives the same key through the shared artifacts.
    /// Without this the fleet runs on the [`MacKey::UNKEYED`]
    /// compatibility key (tamper-evident, not forgery-proof).
    #[must_use]
    pub fn with_key_seed(mut self, seed: u64) -> Self {
        self.key_seed = Some(seed);
        self
    }

    /// The target specs derivable without characterizing — profile
    /// assignment needs these before any routine has been built.
    pub fn target_specs(&self) -> Vec<TargetSpec> {
        self.cuts
            .iter()
            .filter_map(|cut| TargetSpec::for_kind(cut.kind(), cut.component.width))
            .collect()
    }

    /// The shared artifacts, characterizing on first call. Concurrent
    /// callers block on the one in-flight characterization; the counter
    /// records how many actually ran.
    ///
    /// # Panics
    ///
    /// Panics if a routine fails to build or execute — characterization
    /// failures are configuration bugs, not runtime conditions.
    pub fn artifacts(&self) -> Arc<SharedArtifacts> {
        Arc::clone(self.cell.get_or_init(|| {
            self.runs.fetch_add(1, Ordering::Relaxed);
            let schedule = build_managed_schedule_graded(&self.cuts, self.sim)
                .expect("fleet characterization succeeds");
            let coverage = schedule
                .coverage
                .iter()
                .map(|(name, cov)| (name.clone(), cov.percent()))
                .collect();
            let targets = self
                .cuts
                .iter()
                .filter_map(|cut| {
                    let spec = TargetSpec::for_kind(cut.kind(), cut.component.width)?;
                    self.target_compiles.fetch_add(1, Ordering::Relaxed);
                    Some(FaultTarget {
                        name: cut.name().to_owned(),
                        compiled: Arc::new(CompiledTarget::compile(Arc::clone(&cut.component))),
                        spec,
                    })
                })
                .collect();
            let store_key = self.key_seed.map(MacKey::from_seed).unwrap_or_default();
            // Re-seal the characterization's store under the provisioned
            // key (epoch 0) — the snapshot itself is sealed unkeyed.
            let store =
                SignatureStore::with_key(schedule.store_snapshot().entries().to_vec(), &store_key);
            Arc::new(SharedArtifacts {
                components: schedule.shared_components(),
                store,
                store_key,
                coverage,
                targets,
            })
        }))
    }

    /// How many characterizations actually ran (the fleet invariant is
    /// exactly 1 after any run, for any node and worker count).
    pub fn characterizations(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// How many mountable targets were compiled into evaluation tapes (the
    /// fleet invariant is one per target after any run, for any node and
    /// worker count: nodes mount faults on the shared compiled targets).
    pub fn target_compilations(&self) -> u64 {
        self.target_compiles.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterizes_exactly_once_across_threads() {
        let chr = Arc::new(Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]));
        assert_eq!(chr.characterizations(), 0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let chr = Arc::clone(&chr);
                scope.spawn(move || {
                    let artifacts = chr.artifacts();
                    assert_eq!(artifacts.components.len(), 2);
                    assert!(artifacts.store.verify());
                });
            }
        });
        assert_eq!(chr.characterizations(), 1);
        assert_eq!(chr.target_compilations(), 2);
        // A later call reuses the same allocation.
        let a = chr.artifacts();
        let b = chr.artifacts();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(chr.characterizations(), 1);
        assert_eq!(chr.target_compilations(), 2);
    }

    #[test]
    fn key_seed_provisions_a_keyed_store() {
        let chr = Characterizer::new(vec![Cut::alu(32)]).with_key_seed(0xFEED);
        let artifacts = chr.artifacts();
        assert_eq!(artifacts.store_key, MacKey::from_seed(0xFEED));
        assert!(!artifacts.store_key.is_unkeyed());
        // Legacy checksum still verifies; the keyed audit passes under the
        // provisioned key and fails under any other.
        assert!(artifacts.store.verify());
        assert!(artifacts.store.audit(&artifacts.store_key, 0).is_clean());
        assert!(!artifacts.store.audit(&MacKey::UNKEYED, 0).is_clean());
        // Without a key seed the fleet runs on the compatibility key.
        let plain = Characterizer::new(vec![Cut::alu(32)]).artifacts();
        assert!(plain.store_key.is_unkeyed());
        assert!(plain.store.audit(&MacKey::UNKEYED, 0).is_clean());
    }

    #[test]
    fn artifacts_carry_coverage_and_targets() {
        let chr = Characterizer::new(vec![Cut::alu(32), Cut::shifter(32)]);
        let artifacts = chr.artifacts();
        assert_eq!(artifacts.coverage.len(), 2);
        for (name, pct) in &artifacts.coverage {
            assert!(*pct > 50.0, "{name} coverage {pct}");
        }
        assert_eq!(artifacts.targets.len(), 2);
        for target in &artifacts.targets {
            assert_eq!(target.compiled.component().width, 32);
            assert!(target.spec.width >= 32);
        }
        assert_eq!(chr.target_specs().len(), 2);
    }
}

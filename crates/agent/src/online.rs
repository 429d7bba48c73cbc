//! Online learning: experience feedback from served traffic plus a
//! versioned hot policy swap.
//!
//! Three pieces close the serving → training loop:
//!
//! * [`ExperienceStream`] — a bounded multi-producer queue the service's
//!   workers feed on every `Completed` response. Producers never wait on
//!   the trainer: a full queue drops the experience and bumps a counter,
//!   so the serving hot path pays one short lock per sampled response (and
//!   nothing at all when online training is disabled).
//! * [`OnlineTrainer`] — a background thread that takes buffered
//!   experiences as replay batches and runs PPO iterations against a
//!   *private* policy clone, in a private environment with its own
//!   evaluation cache, so training never perturbs serving metrics.
//! * [`PolicyRegistry`] — double-buffered `Arc` snapshots with a
//!   monotonically increasing version. Workers check out the current
//!   snapshot per run; the trainer builds the next snapshot off to the
//!   side and swaps the publication slot. A request admitted under version
//!   `v` finishes under version `v` no matter how many swaps happen while
//!   it is queued or running.
//!
//! # Synchronisation
//!
//! One `Mutex` and one `Condvar`, both owned by the stream, carry the whole
//! loop. The mutex guards the queue, the trainer's paused / shutdown / busy
//! flags and its counters; every change a waiter cares about notifies the
//! condvar. The trainer waits for `min_batch` buffered experiences (or for
//! resume or shutdown), [`OnlineTrainer::pause`] waits until no step is in
//! flight. The lock is held only to move experiences, flip flags and bump
//! counters — never across a train step, a gate probe, a publish or a probe
//! event — so a panicking trainer cannot poison it and a serving worker
//! never waits on a train step.
//!
//! # Promotion gate
//!
//! By default the trainer only publishes a candidate that is at least as
//! good as the incumbent: both are greedy-decoded over the probe set (the
//! distinct modules seen in served traffic) and scored through the
//! noise-free cache peek — exactly how the `greedy` searcher scores served
//! requests — and the candidate is published iff its geometric-mean
//! speedup is `>=` the incumbent's. Publishing on *equality* matters: a
//! single PPO step rarely changes the argmax decode, and version bumps
//! must still flow so per-version determinism stays observable.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_env::OptimizationEnv;
use mlir_rl_ir::Module;
use mlir_rl_nn::Adam;
use mlir_rl_obs::{EventKind, ProbeRef};

use crate::policy::PolicyNetwork;
use crate::ppo::{PpoConfig, PpoTrainer};
use crate::value::ValueNetwork;

// ---------------------------------------------------------------------------
// Experience
// ---------------------------------------------------------------------------

/// One served module, as fed back into training.
#[derive(Debug, Clone)]
pub struct Experience {
    /// The module the request optimized (the training dataset is the
    /// workload the service actually sees).
    pub module: Module,
    /// Structural fingerprint of `module`
    /// (`mlir_rl_costmodel::module_fingerprint`), used to deduplicate the
    /// replay batch and bound the probe set.
    pub module_fingerprint: u64,
}

// ---------------------------------------------------------------------------
// ExperienceStream
// ---------------------------------------------------------------------------

/// Everything the stream's one mutex guards.
#[derive(Debug, Default)]
struct StreamState {
    queue: VecDeque<Experience>,
    accepted: u64,
    dropped: u64,
    /// Set by [`OnlineTrainer::pause`]: the trainer starts no step.
    paused: bool,
    /// Set by [`OnlineTrainer::shutdown`] and when the trainer thread
    /// exits (also by unwinding): no step starts again.
    shutdown: bool,
    /// A step is in flight: set when the trainer takes its batch, cleared
    /// after the publish or the gate's refusal.
    busy: bool,
    stats: OnlineTrainerStats,
}

/// A bounded multi-producer experience queue, and the control block of
/// the one [`OnlineTrainer`] that consumes it.
///
/// `push` never waits for room: on a full queue it drops the experience
/// and bumps [`ExperienceStream::dropped`].
#[derive(Debug)]
pub struct ExperienceStream {
    capacity: usize,
    state: Mutex<StreamState>,
    changed: Condvar,
}

impl ExperienceStream {
    /// Creates a stream holding at most `capacity` experiences.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(StreamState {
                queue: VecDeque::with_capacity(capacity),
                ..StreamState::default()
            }),
            changed: Condvar::new(),
        }
    }

    /// The most experiences the stream buffers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues an experience. Returns `false` (and counts a drop) when
    /// the queue is full.
    pub fn push(&self, experience: Experience) -> bool {
        let mut state = self.lock();
        if state.queue.len() >= self.capacity {
            state.dropped += 1;
            return false;
        }
        state.queue.push_back(experience);
        state.accepted += 1;
        drop(state);
        self.changed.notify_all();
        true
    }

    /// Dequeues the oldest experience, or `None` when the queue is empty.
    pub fn pop(&self) -> Option<Experience> {
        self.lock().queue.pop_front()
    }

    /// Experiences currently buffered.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether no experience is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Experiences accepted since creation.
    pub fn accepted(&self) -> u64 {
        self.lock().accepted
    }

    /// Experiences dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Every update under the lock leaves the state valid at each step, so
    /// a guard poisoned by a panicking holder is still sound to use.
    fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `change` under the lock, then wakes every waiter.
    fn update<R>(&self, change: impl FnOnce(&mut StreamState) -> R) -> R {
        let result = change(&mut self.lock());
        self.changed.notify_all();
        result
    }

    /// Blocks until `min_batch` experiences are buffered and the trainer
    /// is not paused, then marks a step in flight and takes every buffered
    /// experience. `None` once shut down.
    fn begin_step(&self, min_batch: usize) -> Option<Vec<Experience>> {
        let mut state = self
            .changed
            .wait_while(self.lock(), |s| {
                !s.shutdown && (s.paused || s.queue.len() < min_batch)
            })
            .unwrap_or_else(PoisonError::into_inner);
        if state.shutdown {
            return None;
        }
        let batch: Vec<Experience> = state.queue.drain(..).collect();
        state.busy = true;
        state.stats.experiences_consumed += batch.len() as u64;
        Some(batch)
    }
}

// ---------------------------------------------------------------------------
// PolicyRegistry
// ---------------------------------------------------------------------------

/// An immutable published policy snapshot.
#[derive(Debug)]
pub struct PolicySnapshot {
    /// The snapshot's version (0 is the policy the service started with).
    pub version: u64,
    /// The policy weights at this version.
    pub policy: PolicyNetwork,
}

/// Versioned policy publication: double-buffered `Arc` snapshots behind a
/// swap slot. Versions start at 0 and only [`PolicyRegistry::publish`]
/// advances them, so the current version is also the number of swaps.
///
/// [`PolicyRegistry::checkout`] clones the current `Arc` (a pointer bump
/// under a momentary lock — the snapshot itself is never copied);
/// [`PolicyRegistry::publish`] builds the next snapshot off to the side
/// and swaps the slot. Checkouts taken before a swap keep the old
/// snapshot alive for as long as they need it.
#[derive(Debug)]
pub struct PolicyRegistry {
    current: Mutex<Arc<PolicySnapshot>>,
}

impl PolicyRegistry {
    /// Creates a registry publishing `policy` as version 0.
    pub fn new(policy: PolicyNetwork) -> Self {
        Self {
            current: Mutex::new(Arc::new(PolicySnapshot { version: 0, policy })),
        }
    }

    /// Checks out the currently published snapshot.
    pub fn checkout(&self) -> Arc<PolicySnapshot> {
        self.current.lock().expect("registry lock poisoned").clone()
    }

    /// The currently published version.
    pub fn version(&self) -> u64 {
        self.checkout().version
    }

    /// Publishes `policy` as the next version and returns that version.
    pub fn publish(&self, policy: PolicyNetwork) -> u64 {
        let mut slot = self.current.lock().expect("registry lock poisoned");
        let version = slot.version + 1;
        *slot = Arc::new(PolicySnapshot { version, policy });
        version
    }
}

// ---------------------------------------------------------------------------
// OnlineTrainingConfig
// ---------------------------------------------------------------------------

/// Knobs of the online learning subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineTrainingConfig {
    /// Feed every `sample_every`-th `Completed` response into the stream
    /// (1 = every response). The gate is one atomic increment plus a
    /// modulo on the serving path.
    pub sample_every: u64,
    /// The most experiences the stream buffers; more are dropped.
    pub capacity: usize,
    /// Minimum buffered experiences before the trainer runs a PPO step.
    pub min_batch: usize,
    /// Seed of the trainer's private RNG stream.
    pub train_seed: u64,
    /// PPO hyper-parameters of the online updates.
    pub ppo: PpoConfig,
    /// Publish a candidate only when its greedy geomean speedup over the
    /// probe set is `>=` the incumbent's. When `false` every train step
    /// publishes.
    pub promotion_gate: bool,
    /// Most distinct modules kept in the promotion-gate probe set.
    pub max_probe_modules: usize,
}

impl Default for OnlineTrainingConfig {
    fn default() -> Self {
        Self {
            sample_every: 1,
            capacity: 1024,
            min_batch: 8,
            train_seed: 0xC0DE,
            ppo: PpoConfig::small(),
            promotion_gate: true,
            max_probe_modules: 32,
        }
    }
}

impl OnlineTrainingConfig {
    /// Validates the knobs, mirroring `ServiceConfig::try_validate`.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.sample_every == 0 {
            return Err("online sample_every must be at least 1 (0 never samples)".into());
        }
        if self.capacity == 0 {
            return Err("online capacity must be at least 1 (0 drops every experience)".into());
        }
        if self.min_batch == 0 {
            return Err("online min_batch must be at least 1 (PPO needs a dataset)".into());
        }
        if self.min_batch > self.capacity {
            return Err(format!(
                "online min_batch ({}) exceeds the stream capacity ({}) — the trainer would never wake",
                self.min_batch, self.capacity
            ));
        }
        Adam::try_new(self.ppo.learning_rate).map_err(|e| format!("online ppo: {e}"))?;
        if self.max_probe_modules == 0 {
            return Err(
                "online max_probe_modules must be at least 1 (the gate needs a probe set)".into(),
            );
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// OnlineTrainer
// ---------------------------------------------------------------------------

/// Counters exported by the online trainer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineTrainerStats {
    /// PPO iterations run.
    pub train_steps: u64,
    /// Candidates rejected by the promotion gate.
    pub gate_rejects: u64,
    /// Experiences drained from the stream.
    pub experiences_consumed: u64,
}

/// The background online-training thread.
///
/// Takes [`ExperienceStream`] batches, runs PPO iterations on a private
/// policy clone, and publishes gate-passing candidates through the
/// [`PolicyRegistry`].
#[derive(Debug)]
pub struct OnlineTrainer {
    handle: Option<JoinHandle<()>>,
    stream: Arc<ExperienceStream>,
}

impl OnlineTrainer {
    /// Spawns the trainer thread.
    ///
    /// `env` must be a *private* environment (its own evaluation cache):
    /// training rollouts must not warm or evict the serving cache. `probe`
    /// receives `train_step` and `policy_swap` events (pass
    /// [`ProbeRef::none`] when tracing is off).
    pub fn spawn(
        config: OnlineTrainingConfig,
        registry: Arc<PolicyRegistry>,
        stream: Arc<ExperienceStream>,
        env: OptimizationEnv,
        probe: ProbeRef,
    ) -> Self {
        let worker = TrainerWorker {
            config,
            registry,
            stream: Arc::clone(&stream),
            env,
            probe,
        };
        let handle = std::thread::Builder::new()
            .name("mlir-rl-online-trainer".into())
            .spawn(move || worker.run())
            .expect("spawn online trainer");
        Self {
            handle: Some(handle),
            stream,
        }
    }

    /// Pauses training: buffered and future experiences are left in the
    /// stream and no further versions are published until
    /// [`OnlineTrainer::resume`]. Blocks until any in-flight train step
    /// has finished (or the trainer thread has died), so after `pause`
    /// returns the published version is stable.
    pub fn pause(&self) {
        let mut state = self.stream.lock();
        state.paused = true;
        let _idle = self
            .stream
            .changed
            .wait_while(state, |s| s.busy)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Resumes training after [`OnlineTrainer::pause`].
    pub fn resume(&self) {
        self.stream.update(|s| s.paused = false);
    }

    /// Counters exported by the trainer.
    pub fn stats(&self) -> OnlineTrainerStats {
        self.stream.lock().stats
    }

    /// Signals shutdown and joins the trainer thread. An in-flight step
    /// finishes first.
    pub fn shutdown(&mut self) {
        self.stream.update(|s| s.shutdown = true);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OnlineTrainer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct TrainerWorker {
    config: OnlineTrainingConfig,
    registry: Arc<PolicyRegistry>,
    stream: Arc<ExperienceStream>,
    env: OptimizationEnv,
    probe: ProbeRef,
}

/// Runs on every exit of the trainer thread, a panic's unwind included, so
/// a `pause` waiting on the step in flight returns.
impl Drop for TrainerWorker {
    fn drop(&mut self) {
        self.stream.update(|s| {
            s.busy = false;
            s.shutdown = true;
        });
    }
}

impl TrainerWorker {
    fn run(mut self) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.train_seed);
        // The private clone PPO updates run against; seeded lazily from
        // the first checkout so pre-serve swaps are reflected.
        let mut trainer: Option<PpoTrainer<PolicyNetwork>> = None;
        // Probe set: distinct served modules, insertion-ordered.
        let mut probe_fps: Vec<u64> = Vec::new();
        let mut probe_modules: Vec<Module> = Vec::new();

        while let Some(batch) = self.stream.begin_step(self.config.min_batch) {
            // Dataset: the batch's distinct modules.
            let mut dataset_fps: Vec<u64> = Vec::new();
            let mut dataset: Vec<Module> = Vec::new();
            for experience in batch {
                let fingerprint = experience.module_fingerprint;
                if !probe_fps.contains(&fingerprint) {
                    if probe_modules.len() >= self.config.max_probe_modules {
                        probe_fps.remove(0);
                        probe_modules.remove(0);
                    }
                    probe_fps.push(fingerprint);
                    probe_modules.push(experience.module.clone());
                }
                if !dataset_fps.contains(&fingerprint) {
                    dataset_fps.push(fingerprint);
                    dataset.push(experience.module);
                }
            }

            let trainer = trainer.get_or_insert_with(|| {
                let incumbent = self.registry.checkout();
                let value = ValueNetwork::new(
                    incumbent.policy.env_config(),
                    incumbent.policy.hyperparams(),
                    &mut rng,
                );
                PpoTrainer::with_policy(
                    incumbent.policy.clone(),
                    value,
                    self.config.ppo,
                    ChaCha8Rng::seed_from_u64(self.config.train_seed ^ 0x5eed),
                )
            });
            let stats = trainer.train_iteration(&mut self.env, &dataset);
            let step = self.stream.update(|s| {
                s.stats.train_steps += 1;
                s.stats.train_steps
            });
            self.probe.emit(
                EventKind::TrainStep,
                None,
                [step, dataset.len() as u64, to_milli(stats.geomean_speedup)],
            );

            let publish = if self.config.promotion_gate {
                let incumbent = self.registry.checkout();
                let mut incumbent_policy = incumbent.policy.clone();
                let incumbent_score = greedy_geomean(
                    &mut self.env,
                    &mut incumbent_policy,
                    &probe_modules,
                    &mut rng,
                );
                let candidate_score =
                    greedy_geomean(&mut self.env, &mut trainer.policy, &probe_modules, &mut rng);
                candidate_score >= incumbent_score
            } else {
                true
            };
            if publish {
                let version = self.registry.publish(trainer.policy.clone());
                self.probe.emit(
                    EventKind::PolicySwap,
                    None,
                    [version, probe_modules.len() as u64, step],
                );
            }
            self.stream.update(|s| {
                s.busy = false;
                s.stats.gate_rejects += u64::from(!publish);
            });
        }
    }
}

/// Milli-units fixed-point encoding for probe args.
fn to_milli(x: f64) -> u64 {
    if x.is_finite() && x > 0.0 {
        (x * 1000.0).round() as u64
    } else {
        0
    }
}

/// Geometric-mean greedy speedup of `policy` over `modules`, scored the
/// same way the `greedy` searcher scores served requests: one argmax
/// episode per module, baseline and final schedule estimated through the
/// noise-free cache peek. Greedy decoding consumes no RNG draws, so `rng`
/// is never advanced.
pub fn greedy_geomean(
    env: &mut OptimizationEnv,
    policy: &mut PolicyNetwork,
    modules: &[Module],
    rng: &mut ChaCha8Rng,
) -> f64 {
    if modules.is_empty() {
        return 1.0;
    }
    let mut log_sum = 0.0;
    for module in modules {
        let mut obs = env.reset(module.clone());
        let baseline_s = env.peek_time_s();
        while let Some(current) = obs {
            let record = policy.select_action(&current, true, rng);
            env.step(&record.action);
            obs = env.current_observation();
        }
        let final_s = env.peek_time_s();
        let speedup = if final_s > 0.0 {
            baseline_s / final_s
        } else {
            1.0
        };
        log_sum += speedup.max(f64::MIN_POSITIVE).ln();
    }
    (log_sum / modules.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experience(tag: u64) -> Experience {
        Experience {
            module: test_module(),
            module_fingerprint: tag,
        }
    }

    fn test_module() -> Module {
        use mlir_rl_ir::ModuleBuilder;
        let mut b = ModuleBuilder::new("online-test");
        let a = b.argument("A", vec![8, 8]);
        let w = b.argument("B", vec![8, 8]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        b.finish()
    }

    fn test_policy(seed: u64) -> PolicyNetwork {
        use crate::policy::PolicyHyperparams;
        use mlir_rl_env::EnvConfig;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let hyper = PolicyHyperparams {
            hidden_size: 16,
            backbone_layers: 1,
        };
        PolicyNetwork::new(EnvConfig::small(), hyper, &mut rng)
    }

    #[test]
    fn stream_pushes_and_pops_in_fifo_order() {
        let stream = ExperienceStream::new(8);
        for i in 0..5 {
            assert!(stream.push(experience(i)));
        }
        assert_eq!(stream.len(), 5);
        for i in 0..5 {
            assert_eq!(stream.pop().expect("buffered").module_fingerprint, i);
        }
        assert!(stream.pop().is_none());
        assert_eq!(stream.accepted(), 5);
        assert_eq!(stream.dropped(), 0);
    }

    #[test]
    fn stream_drops_when_full_and_counts_it() {
        let stream = ExperienceStream::new(2);
        assert_eq!(stream.capacity(), 2);
        assert!(stream.push(experience(0)));
        assert!(stream.push(experience(1)));
        assert!(!stream.push(experience(2)));
        assert_eq!(stream.dropped(), 1);
        assert_eq!(stream.accepted(), 2);
        // Draining frees capacity again.
        assert_eq!(stream.pop().expect("buffered").module_fingerprint, 0);
        assert!(stream.push(experience(3)));
        // Capacity is exact: three fit, the fourth drops.
        let stream = ExperienceStream::new(3);
        assert_eq!(stream.capacity(), 3);
        assert!((0..3).all(|i| stream.push(experience(i))));
        assert!(!stream.push(experience(3)));
    }

    #[test]
    fn stream_survives_concurrent_producers() {
        let stream = Arc::new(ExperienceStream::new(1024));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let stream = stream.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    stream.push(experience(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().expect("producer");
        }
        assert_eq!(stream.accepted(), 400);
        let mut drained = 0;
        while stream.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 400);
    }

    #[test]
    fn registry_checkout_pins_a_version_across_swaps() {
        let registry = PolicyRegistry::new(test_policy(1));
        let pinned = registry.checkout();
        assert_eq!(pinned.version, 0);
        let v1 = registry.publish(test_policy(2));
        assert_eq!(v1, 1);
        assert_eq!(registry.version(), 1);
        // The pre-swap checkout still sees version 0.
        assert_eq!(pinned.version, 0);
        assert_eq!(registry.checkout().version, 1);
    }

    #[test]
    fn a_published_version_is_immune_to_the_trainer() {
        use crate::snapshot::WeightSnapshot;
        use mlir_rl_costmodel::{CostModel, MachineModel};
        // Version 0 and the trainer's network start on the same buffers.
        let policy = test_policy(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let value = ValueNetwork::new(policy.env_config(), policy.hyperparams(), &mut rng);
        let registry = PolicyRegistry::new(policy.clone());
        let mut trainer = PpoTrainer::with_policy(policy, value, PpoConfig::small(), rng);
        let image = |snapshot: &PolicySnapshot| {
            let mut network = snapshot.policy.clone();
            (network.weights_to_bytes(), network.weights_fingerprint())
        };
        let mut env = OptimizationEnv::new(
            trainer.policy.env_config().clone(),
            CostModel::new(MachineModel::default()),
        );
        let v0 = registry.checkout();
        let v0_image = image(&v0);
        trainer.train_iteration(&mut env, &[test_module()]);
        // ... and so do version 1 and the trainer, right after the publish.
        registry.publish(trainer.policy.clone());
        let v1 = registry.checkout();
        let v1_image = image(&v1);
        assert_ne!(v0_image.1, v1_image.1, "the step must have moved weights");
        trainer.train_iteration(&mut env, &[test_module()]);
        assert_ne!(trainer.policy.weights_fingerprint(), v1_image.1);
        assert!(image(&v0) == v0_image && image(&v1) == v1_image);
    }

    #[test]
    fn config_validation_rejects_zero_knobs() {
        let ok = OnlineTrainingConfig::default();
        assert!(ok.try_validate().is_ok());
        for bad in [
            OnlineTrainingConfig {
                sample_every: 0,
                ..ok.clone()
            },
            OnlineTrainingConfig {
                capacity: 0,
                ..ok.clone()
            },
            OnlineTrainingConfig {
                min_batch: 0,
                ..ok.clone()
            },
            OnlineTrainingConfig {
                min_batch: 4096,
                capacity: 16,
                ..ok.clone()
            },
            OnlineTrainingConfig {
                min_batch: 6,
                capacity: 5,
                ..ok.clone()
            },
            OnlineTrainingConfig {
                max_probe_modules: 0,
                ..ok.clone()
            },
            OnlineTrainingConfig {
                ppo: PpoConfig {
                    learning_rate: f64::NAN,
                    ..ok.ppo
                },
                ..ok.clone()
            },
        ] {
            assert!(bad.try_validate().is_err());
        }
    }

    #[test]
    fn greedy_geomean_is_deterministic_and_rng_free() {
        use mlir_rl_costmodel::{CostModel, MachineModel};
        use mlir_rl_env::EnvConfig;
        let config = EnvConfig::small();
        let mut env = OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()));
        let mut policy = test_policy(7);
        let modules = vec![test_module()];
        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(1234);
        let a = greedy_geomean(&mut env, &mut policy, &modules, &mut rng_a);
        let mut env2 = OptimizationEnv::new(config, CostModel::new(MachineModel::default()));
        let b = greedy_geomean(&mut env2, &mut policy, &modules, &mut rng_b);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// A trainer with `min_batch: 1` and a tiny PPO update over a fresh
    /// registry and stream.
    fn spawn_trainer(
        probe: ProbeRef,
    ) -> (OnlineTrainer, Arc<PolicyRegistry>, Arc<ExperienceStream>) {
        use mlir_rl_costmodel::{CostModel, MachineModel};
        use mlir_rl_env::EnvConfig;
        let registry = Arc::new(PolicyRegistry::new(test_policy(5)));
        let stream = Arc::new(ExperienceStream::new(16));
        let config = OnlineTrainingConfig {
            min_batch: 1,
            ppo: PpoConfig {
                trajectories_per_iteration: 2,
                minibatch_size: 4,
                update_epochs: 1,
                ..PpoConfig::small()
            },
            ..OnlineTrainingConfig::default()
        };
        let env = OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
        let trainer = OnlineTrainer::spawn(
            config,
            Arc::clone(&registry),
            Arc::clone(&stream),
            env,
            probe,
        );
        (trainer, registry, stream)
    }

    /// Kills the trainer thread mid-step: after it counted the step, before
    /// it published or refused the candidate.
    struct PanicOnTrainStep;

    impl mlir_rl_obs::Probe for PanicOnTrainStep {
        fn emit(&self, kind: EventKind, _: u64, _: Option<&str>, _: [u64; 3]) {
            if kind == EventKind::TrainStep {
                panic!("test probe: the trainer thread dies mid-step");
            }
        }
    }

    #[test]
    fn pause_returns_after_the_trainer_thread_dies() {
        use std::time::{Duration, Instant};
        let (trainer, _, stream) = spawn_trainer(ProbeRef::new(Arc::new(PanicOnTrainStep)));
        assert!(stream.push(experience(1)));
        let deadline = Instant::now() + Duration::from_secs(120);
        while trainer.stats().train_steps < 1 {
            assert!(Instant::now() < deadline, "the trainer ran no step");
            std::thread::sleep(Duration::from_millis(1));
        }
        let trainer = Arc::new(trainer);
        let (done, paused) = std::sync::mpsc::channel();
        let helper = {
            let trainer = Arc::clone(&trainer);
            std::thread::spawn(move || {
                trainer.pause();
                let _ = done.send(());
            })
        };
        assert!(
            paused.recv_timeout(Duration::from_secs(5)).is_ok(),
            "pause() did not return after the trainer thread died"
        );
        helper.join().expect("pause helper");
        let mut trainer = Arc::try_unwrap(trainer).expect("the helper dropped its handle");
        assert_eq!(trainer.stats().train_steps, 1);
        trainer.shutdown();
    }

    #[test]
    fn a_returned_pause_holds_the_version_and_the_step_count() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        let (mut trainer, registry, stream) = spawn_trainer(ProbeRef::none());
        // Keeps the stream at or above `min_batch` for the whole test.
        let stop = Arc::new(AtomicBool::new(false));
        let producer = {
            let (stop, stream) = (Arc::clone(&stop), Arc::clone(&stream));
            std::thread::spawn(move || {
                let mut tag = 0;
                while !stop.load(Ordering::SeqCst) {
                    if !stream.push(experience(tag % 3)) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    tag += 1;
                }
            })
        };
        for cycle in 0..100u64 {
            trainer.resume();
            // Land the pause at different phases of the loop: before it
            // wakes, while it takes a batch, mid-step.
            std::thread::sleep(Duration::from_millis(cycle % 4));
            trainer.pause();
            let held = (registry.version(), trainer.stats().train_steps);
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                (registry.version(), trainer.stats().train_steps),
                held,
                "cycle {cycle}: the trainer moved after pause() returned"
            );
        }
        stop.store(true, Ordering::SeqCst);
        producer.join().expect("producer");
        assert!(trainer.stats().train_steps >= 1, "no cycle ran a step");
        trainer.shutdown();
    }
}

//! Online learning: experience feedback from served traffic plus a
//! versioned hot policy swap.
//!
//! Three pieces close the serving → training loop:
//!
//! * [`ExperienceStream`] — a bounded lock-free multi-producer queue the
//!   service's workers feed on every `Completed` response. Producers never
//!   block: a full ring drops the experience and bumps a counter, so the
//!   serving hot path pays one branch (and nothing at all when online
//!   training is disabled).
//! * [`OnlineTrainer`] — a background thread that drains experiences into
//!   replay batches and runs PPO iterations against a *private* policy
//!   clone, in a private environment with its own evaluation cache, so
//!   training never perturbs serving metrics.
//! * [`PolicyRegistry`] — double-buffered `Arc` snapshots with a
//!   monotonically increasing version. Workers check out the current
//!   snapshot per run; the trainer builds the next snapshot off to the
//!   side and atomically swaps the publication slot. A request admitted
//!   under version `v` finishes under version `v` no matter how many swaps
//!   happen while it is queued or running.
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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_env::{Action, OptimizationEnv};
use mlir_rl_ir::Module;
use mlir_rl_obs::{EventKind, ProbeRef};

use crate::policy::PolicyNetwork;
use crate::ppo::{PpoConfig, PpoTrainer};
use crate::value::ValueNetwork;

// ---------------------------------------------------------------------------
// Experience
// ---------------------------------------------------------------------------

/// One served optimization outcome, as fed back into training.
#[derive(Debug, Clone)]
pub struct Experience {
    /// The module the request optimized (the training dataset is the
    /// workload the service actually sees).
    pub module: Module,
    /// Structural fingerprint of `module`
    /// (`mlir_rl_costmodel::module_fingerprint`), used to deduplicate the
    /// replay batch and bound the probe set.
    pub module_fingerprint: u64,
    /// Name of the searcher that produced the outcome.
    pub searcher: String,
    /// The request seed.
    pub seed: u64,
    /// The best action trace found while serving the request.
    pub actions: Vec<Action>,
    /// The speedup of that trace over the baseline.
    pub speedup: f64,
    /// The policy version the request ran under.
    pub policy_version: u64,
}

// ---------------------------------------------------------------------------
// ExperienceStream
// ---------------------------------------------------------------------------

/// One ring slot. The sequence number implements the classic bounded-MPMC
/// handshake (Vyukov): a slot is writable when `seq == pos` and readable
/// when `seq == pos + 1`. The handshake guarantees exactly one thread
/// touches `value` at a time, so the per-slot mutex below is never
/// contended — it exists to keep the crate `unsafe`-free, not to
/// serialize anything.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    value: Mutex<Option<Experience>>,
}

/// A bounded lock-free multi-producer/multi-consumer experience queue.
///
/// `push` never blocks and never spins on a full ring: it drops the
/// experience and bumps [`ExperienceStream::dropped`]. Capacity is rounded
/// up to a power of two.
#[derive(Debug)]
pub struct ExperienceStream {
    slots: Box<[Slot]>,
    mask: u64,
    enqueue: AtomicU64,
    dequeue: AtomicU64,
    accepted: AtomicU64,
    dropped: AtomicU64,
}

impl ExperienceStream {
    /// Creates a stream holding at least `capacity` experiences
    /// (rounded up to a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                value: Mutex::new(None),
            })
            .collect();
        Self {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            enqueue: AtomicU64::new(0),
            dequeue: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Capacity of the ring (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enqueues an experience. Returns `false` (and counts a drop) when
    /// the ring is full.
    pub fn push(&self, experience: Experience) -> bool {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos) as i64;
            if dif == 0 {
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        *slot.value.lock().expect("slot lock poisoned") = Some(experience);
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        self.accepted.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(found) => pos = found,
                }
            } else if dif < 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest experience, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<Experience> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos.wrapping_add(1)) as i64;
            if dif == 0 {
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let experience = slot
                            .value
                            .lock()
                            .expect("slot lock poisoned")
                            .take()
                            .expect("readable slot holds a value");
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(experience);
                    }
                    Err(found) => pos = found,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }

    /// Experiences currently buffered (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.enqueue.load(Ordering::Relaxed);
        let head = self.dequeue.load(Ordering::Relaxed);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Experiences accepted since creation.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Experiences dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
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
/// swap slot, plus a monotonically increasing version counter.
///
/// [`PolicyRegistry::checkout`] clones the current `Arc` (a pointer bump
/// under a momentary lock — the snapshot itself is never copied);
/// [`PolicyRegistry::publish`] builds the next snapshot off to the side
/// and swaps the slot. Checkouts taken before a swap keep the old
/// snapshot alive for as long as they need it.
#[derive(Debug)]
pub struct PolicyRegistry {
    current: Mutex<Arc<PolicySnapshot>>,
    version: AtomicU64,
    swaps: AtomicU64,
}

impl PolicyRegistry {
    /// Creates a registry publishing `policy` as version 0.
    pub fn new(policy: PolicyNetwork) -> Self {
        Self {
            current: Mutex::new(Arc::new(PolicySnapshot { version: 0, policy })),
            version: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// Checks out the currently published snapshot.
    pub fn checkout(&self) -> Arc<PolicySnapshot> {
        self.current.lock().expect("registry lock poisoned").clone()
    }

    /// The currently published version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Number of swaps published since creation.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Publishes `policy` as the next version and returns that version.
    pub fn publish(&self, policy: PolicyNetwork) -> u64 {
        let mut slot = self.current.lock().expect("registry lock poisoned");
        let version = slot.version + 1;
        *slot = Arc::new(PolicySnapshot { version, policy });
        self.version.store(version, Ordering::Relaxed);
        self.swaps.fetch_add(1, Ordering::Relaxed);
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
    /// Capacity of the experience ring (rounded up to a power of two).
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
    /// Stop training (and publishing) after this many train steps
    /// (`None` = train for the lifetime of the service).
    pub max_steps: Option<u64>,
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
            max_steps: None,
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
        if self.min_batch > self.capacity.max(2).next_power_of_two() {
            return Err(format!(
                "online min_batch ({}) exceeds the stream capacity ({}) — the trainer would never wake",
                self.min_batch,
                self.capacity.max(2).next_power_of_two()
            ));
        }
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
/// Drains [`ExperienceStream`] into replay batches, runs PPO iterations on
/// a private policy clone, and publishes gate-passing candidates through
/// the [`PolicyRegistry`].
#[derive(Debug)]
pub struct OnlineTrainer {
    handle: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    pause_acked: Arc<AtomicBool>,
    train_steps: Arc<AtomicU64>,
    gate_rejects: Arc<AtomicU64>,
    consumed: Arc<AtomicU64>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let pause_acked = Arc::new(AtomicBool::new(false));
        let train_steps = Arc::new(AtomicU64::new(0));
        let gate_rejects = Arc::new(AtomicU64::new(0));
        let consumed = Arc::new(AtomicU64::new(0));
        let worker = TrainerWorker {
            config,
            registry,
            stream,
            env,
            probe,
            shutdown: shutdown.clone(),
            paused: paused.clone(),
            pause_acked: pause_acked.clone(),
            train_steps: train_steps.clone(),
            gate_rejects: gate_rejects.clone(),
            consumed: consumed.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("mlir-rl-online-trainer".into())
            .spawn(move || worker.run())
            .expect("spawn online trainer");
        Self {
            handle: Some(handle),
            shutdown,
            paused,
            pause_acked,
            train_steps,
            gate_rejects,
            consumed,
        }
    }

    /// Pauses training: buffered and future experiences are left in the
    /// stream and no further versions are published until
    /// [`OnlineTrainer::resume`]. Blocks until any in-flight train step
    /// has finished, so after `pause` returns the published version is
    /// stable.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
        // One train step is bounded; wait for the loop to acknowledge.
        while !self.shutdown.load(Ordering::SeqCst) && !self.pause_acked.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Resumes training after [`OnlineTrainer::pause`].
    pub fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
    }

    /// Counters exported by the trainer.
    pub fn stats(&self) -> OnlineTrainerStats {
        OnlineTrainerStats {
            train_steps: self.train_steps.load(Ordering::Relaxed),
            gate_rejects: self.gate_rejects.load(Ordering::Relaxed),
            experiences_consumed: self.consumed.load(Ordering::Relaxed),
        }
    }

    /// Signals shutdown and joins the trainer thread.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
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
    shutdown: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    pause_acked: Arc<AtomicBool>,
    train_steps: Arc<AtomicU64>,
    gate_rejects: Arc<AtomicU64>,
    consumed: Arc<AtomicU64>,
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
        let mut buffer: Vec<Experience> = Vec::new();

        while !self.shutdown.load(Ordering::SeqCst) {
            if self.paused.load(Ordering::SeqCst) {
                self.pause_acked.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            self.pause_acked.store(false, Ordering::SeqCst);
            if let Some(max) = self.config.max_steps {
                if self.train_steps.load(Ordering::Relaxed) >= max {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
            while let Some(experience) = self.stream.pop() {
                buffer.push(experience);
                if buffer.len() >= self.config.capacity {
                    break;
                }
            }
            if buffer.len() < self.config.min_batch {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let batch: Vec<Experience> = std::mem::take(&mut buffer);
            self.consumed
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            for experience in &batch {
                if !probe_fps.contains(&experience.module_fingerprint) {
                    if probe_modules.len() >= self.config.max_probe_modules {
                        probe_fps.remove(0);
                        probe_modules.remove(0);
                    }
                    probe_fps.push(experience.module_fingerprint);
                    probe_modules.push(experience.module.clone());
                }
            }
            // Dataset: the batch's distinct modules.
            let mut dataset_fps: Vec<u64> = Vec::new();
            let mut dataset: Vec<Module> = Vec::new();
            for experience in &batch {
                if !dataset_fps.contains(&experience.module_fingerprint) {
                    dataset_fps.push(experience.module_fingerprint);
                    dataset.push(experience.module.clone());
                }
            }
            if dataset.is_empty() {
                continue;
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
            let step = self.train_steps.fetch_add(1, Ordering::Relaxed) + 1;
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
            } else {
                self.gate_rejects.fetch_add(1, Ordering::Relaxed);
            }
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
        let max_steps = (module.ops().len() + 1) * (env.config().max_schedule_len + 3);
        let mut steps = 0usize;
        while let Some(current) = obs {
            let record = policy.select_action(&current, true, rng);
            let outcome = env.step(&record.action);
            obs = outcome.observation;
            steps += 1;
            if steps > max_steps {
                break;
            }
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
            searcher: "greedy-policy".into(),
            seed: tag,
            actions: Vec::new(),
            speedup: 1.0,
            policy_version: 0,
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
        assert_eq!(registry.swaps(), 1);
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
                max_probe_modules: 0,
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
}

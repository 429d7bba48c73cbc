//! The six workloads: what a job is, how its inputs are generated from the
//! seed, and how the program is configured for it.
//!
//! `--seed` decides the job stream: the order modules are served in, every
//! request and rollout seed, and the dataset shuffles (`train-ppo` is the
//! exception, see [`TRAIN_SEED`]). Two things
//! are deliberately *not* derived from it, because they would make every
//! number a property of the seed instead of the code (measured: 8–11 %
//! inter-quartile spread across seeds on `serve-wide-direct`, against
//! ~2 % with them fixed):
//!
//! * the **module pools** come from the fixed [`DATA_SEED`] — a pool of a
//!   few hundred random modules has a seed-dependent mix of 1-op and 5-op
//!   modules, and a 5-op module is five times the work;
//! * the **policy weights** come from the fixed [`WEIGHT_SEED`] — a
//!   seeded-init policy's episode lengths swing several-fold with its
//!   weights. They are the program's configuration, not its input.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mlir_rl_agent::{
    episode_seed, PolicyHyperparams, PolicyNetwork, PpoConfig, PpoTrainer, ValueNetwork,
};
use mlir_rl_core::service::{OptimizationRequest, ServiceConfig};
use mlir_rl_costmodel::{CostModel, MachineModel};
use mlir_rl_env::{EnvConfig, OptimizationEnv};
use mlir_rl_ir::parser::parse_module;
use mlir_rl_ir::printer::print_module;
use mlir_rl_ir::Module;
use mlir_rl_search::SearchSpec;
use mlir_rl_workloads::{dl_ops, full_training_dataset, sequences, DlOperator};

use std::sync::Arc;

use crate::probe::{PolicyProbe, Probed};

/// Seed of every workload's policy/value weight initialisation (see the
/// module docs for why it is not `--seed`).
pub const WEIGHT_SEED: u64 = 0x6d6c_6972;

/// Seed of every workload's module pool (see the module docs).
pub const DATA_SEED: u64 = 2026;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWideDirect,
    ServeWideBatched,
    ServeRandomCold,
    ServeMixedWarm,
    RolloutCollect,
    TrainPpo,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ServeWideDirect,
        Workload::ServeWideBatched,
        Workload::ServeRandomCold,
        Workload::ServeMixedWarm,
        Workload::RolloutCollect,
        Workload::TrainPpo,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWideDirect => "serve-wide-direct",
            Workload::ServeWideBatched => "serve-wide-batched",
            Workload::ServeRandomCold => "serve-random-cold",
            Workload::ServeMixedWarm => "serve-mixed-warm",
            Workload::RolloutCollect => "rollout-collect",
            Workload::TrainPpo => "train-ppo",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one job of the workload is.
    pub fn job(self) -> &'static str {
        match self {
            Workload::ServeWideDirect | Workload::ServeWideBatched => {
                "one OptimizationRequest (75% greedy, 25% beam-4) through OptimizationService"
            }
            Workload::ServeRandomCold => {
                "one random(32) OptimizationRequest with a unique seed, evicting cache"
            }
            Workload::ServeMixedWarm => {
                "one OptimizationRequest from a nine-spec mix on 15 modules, warm cache"
            }
            Workload::RolloutCollect => {
                "one collect_rollouts call of 4 sampled episodes, 2 workers"
            }
            Workload::TrainPpo => "one PpoTrainer::train_iteration (12 trajectories, 2 epochs)",
        }
    }

    pub fn is_serve(self) -> bool {
        !matches!(self, Workload::RolloutCollect | Workload::TrainPpo)
    }
}

/// How much of each workload a run does besides the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `--smoke`: every phase shrunk so all six workloads finish in
    /// seconds (numbers are meaningless, names and checks are not).
    pub smoke: bool,
}

impl Scale {
    fn pick(self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Stable 64-bit FNV-1a, for job-stream and response digests that must
/// compare across processes and builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hands the program only the printed text of the generated modules,
/// parsed back — the benchmark's inputs enter through the same door a
/// client's would. Parsing renumbers values (arguments first), so the
/// check is on the text: the parsed module must print identically. Panics
/// otherwise (an `ir` bug, which no workload may paper over).
pub fn through_text(modules: Vec<Module>) -> Vec<Module> {
    modules
        .into_iter()
        .map(|module| {
            let text = print_module(&module);
            let parsed = parse_module(&text)
                .unwrap_or_else(|e| panic!("module {} does not re-parse: {e}", module.name()));
            assert_eq!(
                print_module(&parsed),
                text,
                "print/parse round trip changed module {}",
                module.name()
            );
            parsed
        })
        .collect()
}

fn shuffled_indices(len: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..len as u32).collect();
    order.shuffle(rng);
    order
}

/// How a serve workload turns a job index into a request.
#[derive(Debug, Clone)]
enum Mix {
    /// `serve-wide-*`: every fourth module of the pool is searched with
    /// beam-4, the rest greedily; unique request seeds.
    Wide,
    /// `serve-random-cold`: random(32), unique request seeds.
    Cold,
    /// `serve-mixed-warm`: the (module, spec) grid in shuffled order with
    /// one fixed request seed ([`WARM_REQUEST_SEED`]: what an MCTS or
    /// random search costs depends on its seed), so every lookup after the
    /// warm-up hits — except each [`FRESH_EVERY`]-th job, a random(24)
    /// search on a fresh seed, which keeps `evals_per_job` a non-zero,
    /// comparable number.
    Warm { specs: Vec<SearchSpec> },
}

/// One in this many `serve-mixed-warm` jobs searches on a fresh seed.
pub const FRESH_EVERY: u64 = 60;

/// The request seed of every other `serve-mixed-warm` job.
pub const WARM_REQUEST_SEED: u64 = 7;

/// A deterministic, unbounded stream of requests over a fixed module pool.
#[derive(Debug, Clone)]
pub struct JobStream {
    pool: Vec<Module>,
    order: Vec<u32>,
    mix: Mix,
    seed: u64,
}

impl JobStream {
    /// The request of job `index` (the pool cycles; seeds never repeat on
    /// the unique-seed mixes).
    pub fn request(&self, index: u64) -> OptimizationRequest {
        let slot = self.order[(index % self.order.len() as u64) as usize] as usize;
        match &self.mix {
            Mix::Wide => {
                let spec = if slot % 4 == 3 {
                    SearchSpec::beam(4)
                } else {
                    SearchSpec::Greedy
                };
                OptimizationRequest::new(self.pool[slot].clone(), spec)
                    .with_seed(episode_seed(self.seed, index))
            }
            Mix::Cold => OptimizationRequest::new(self.pool[slot].clone(), SearchSpec::random(32))
                .with_seed(episode_seed(self.seed, index)),
            Mix::Warm { specs } => {
                let modules = self.pool.len();
                let request = if index % FRESH_EVERY == FRESH_EVERY - 1 {
                    // Fresh-seed jobs walk the modules in order, so a whole
                    // number of walks puts the same load on every module.
                    let module = ((index / FRESH_EVERY) % modules as u64) as usize;
                    OptimizationRequest::new(self.pool[module].clone(), SearchSpec::random(24))
                        .with_seed(episode_seed(self.seed, index))
                } else {
                    OptimizationRequest::new(
                        self.pool[slot % modules].clone(),
                        specs[slot / modules].clone(),
                    )
                    .with_seed(WARM_REQUEST_SEED)
                };
                match index % 3 {
                    0 => request.with_client("alice"),
                    1 => request.with_client("bob"),
                    _ => request,
                }
            }
        }
    }

    /// Digest of the first `jobs` requests (module text, spec, seed,
    /// client): equal streams have equal digests, and the self-tests check
    /// that the same seed reproduces it and another seed does not.
    pub fn digest(&self, jobs: u64) -> u64 {
        let mut h = Fnv::default();
        for index in 0..jobs {
            let r = self.request(index);
            h.write(print_module(&r.module).as_bytes());
            h.write(r.spec.name().as_bytes());
            h.write(&r.seed.to_le_bytes());
            h.write(r.client.as_deref().unwrap_or("").as_bytes());
        }
        h.0
    }
}

/// A serve workload, ready to spawn its service.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pub config: ServiceConfig,
    pub policy: PolicyNetwork,
    pub stream: JobStream,
    /// Outstanding jobs the closed-loop generator keeps in flight.
    pub window: usize,
    /// Untimed jobs served before the window opens (fills caches, faults
    /// in the workers' scratch buffers).
    pub warmup: u64,
    /// The first `prefix` timed jobs are the fixed set the quality numbers
    /// (`geomean_speedup`, `evals_per_job`, the fingerprint digest) are
    /// taken over, so they do not move with how many jobs a run finishes.
    pub prefix: u64,
    /// A traced run keeps one in this many replies for its replays.
    pub sample_every: u64,
}

fn policy(env: &EnvConfig, hidden_size: usize, backbone_layers: usize) -> PolicyNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(WEIGHT_SEED);
    PolicyNetwork::new(
        env.clone(),
        PolicyHyperparams {
            hidden_size,
            backbone_layers,
        },
        &mut rng,
    )
}

/// The deployment defaults (`ServiceConfig::quick`: bounded queue, no
/// budget) under the workload's environment.
fn service_config(env: &EnvConfig) -> ServiceConfig {
    ServiceConfig {
        env: env.clone(),
        ..ServiceConfig::quick()
    }
}

fn random_sequences(count: usize, rng: &mut ChaCha8Rng) -> Vec<Module> {
    (0..count)
        .map(|_| sequences::random_sequence(sequences::SEQUENCE_LENGTH, rng))
        .collect()
}

/// Builds a serve workload's inputs and configuration from the seed.
pub fn serve_plan(workload: Workload, seed: u64, scale: Scale) -> ServePlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data_rng = ChaCha8Rng::seed_from_u64(DATA_SEED);
    match workload {
        Workload::ServeWideDirect | Workload::ServeWideBatched => {
            let env = EnvConfig::paper();
            let mut modules = full_training_dataset(scale.pick(5, 1) as f64 / 100.0, DATA_SEED);
            modules.extend(random_sequences(scale.pick(20, 2), &mut data_rng));
            let pool = through_text(modules);
            let order = shuffled_indices(pool.len(), &mut rng);
            // One whole pass over the pool: the same (module, spec) set
            // under every seed, only its order and request seeds differ.
            let prefix = pool.len() as u64;
            let config = service_config(&env);
            let (config, window) = if workload == Workload::ServeWideDirect {
                (config.with_workers(2), 4)
            } else {
                (config.with_workers(4).with_inference_batching(16, 200), 8)
            };
            ServePlan {
                config,
                // A quarter of the paper's 512 units, so a 15 s window holds
                // hundreds of jobs; inference is still > 95 % of a job.
                policy: policy(&env, 128, 3),
                stream: JobStream {
                    pool,
                    order,
                    mix: Mix::Wide,
                    seed,
                },
                window,
                warmup: scale.pick(16, 2) as u64,
                prefix,
                sample_every: 4,
            }
        }
        Workload::ServeRandomCold => {
            let env = EnvConfig::paper();
            let count = scale.pick(600, 30);
            let mut modules = random_sequences(count / 3, &mut data_rng);
            modules.extend((0..count - count / 3).map(|i| {
                dl_ops::random_operator(DlOperator::ALL[i % DlOperator::ALL.len()], &mut data_rng)
            }));
            let pool = through_text(modules);
            let order = shuffled_indices(pool.len(), &mut rng);
            ServePlan {
                // ~25 estimator runs per job fill 8192 entries within the
                // warm-up, so the whole timed window inserts *and* evicts.
                config: service_config(&env)
                    .with_workers(2)
                    .with_cache_capacity(scale.pick(8192, 256)),
                // Random search never calls the policy; the service still
                // needs one.
                policy: policy(&env, 16, 1),
                stream: JobStream {
                    pool,
                    order,
                    mix: Mix::Cold,
                    seed,
                },
                window: 4,
                warmup: scale.pick(500, 20) as u64,
                // Two whole passes over the pool.
                prefix: 2 * count as u64,
                sample_every: 50,
            }
        }
        Workload::ServeMixedWarm => {
            let env = EnvConfig::small();
            let pool = through_text(
                dl_ops::evaluation_benchmark()
                    .into_iter()
                    .map(|(_, m)| m)
                    .collect(),
            );
            let members = || {
                vec![
                    SearchSpec::Greedy,
                    SearchSpec::beam(2),
                    SearchSpec::random(8),
                ]
            };
            let specs = vec![
                SearchSpec::Greedy,
                SearchSpec::Greedy,
                SearchSpec::Greedy,
                SearchSpec::Greedy,
                SearchSpec::beam(4),
                SearchSpec::random(24),
                SearchSpec::Mcts {
                    iterations: 24,
                    branch: 4,
                    widening: Some((1.0, 0.6)),
                },
                SearchSpec::round_robin(members()),
                SearchSpec::racing(members(), 2.0),
            ];
            let order = shuffled_indices(pool.len() * specs.len(), &mut rng);
            ServePlan {
                config: service_config(&env)
                    .with_workers(2)
                    .with_client_quota(2)
                    .with_client_weight("alice", 3),
                policy: policy(&env, 16, 1),
                stream: JobStream {
                    pool,
                    order,
                    mix: Mix::Warm { specs },
                    seed,
                },
                window: 4,
                warmup: scale.pick(2000, 150) as u64,
                // Whole passes over the 135-slot grid that are also whole
                // walks of the fresh-seed jobs over the 15 modules
                // (lcm(135, 60 * 15) = 2700).
                prefix: 2700 * scale.pick(3, 0) as u64 + scale.pick(0, 180) as u64,
                sample_every: 300,
            }
        }
        Workload::RolloutCollect | Workload::TrainPpo => {
            panic!("{} is not a serve workload", workload.name())
        }
    }
}

/// `rollout-collect`, ready to run.
#[derive(Debug, Clone)]
pub struct RolloutPlan {
    pub env: OptimizationEnv,
    pub policy: PolicyNetwork,
    pub value: ValueNetwork,
    pub dataset: Vec<Module>,
    pub episodes_per_job: usize,
    pub workers: usize,
    pub warmup: u64,
    pub prefix: u64,
    /// Jobs in the fixed reference set the quality number is taken over.
    pub reference_jobs: u64,
    pub seed: u64,
}

/// The modules of rollout job `index`: `per_job` consecutive dataset
/// entries, cycling. (A free function: the job itself needs the plan's
/// other fields mutably while these borrow the dataset.)
pub fn job_modules(dataset: &[Module], per_job: usize, index: u64) -> Vec<&Module> {
    (0..per_job)
        .map(|e| &dataset[(index as usize * per_job + e) % dataset.len()])
        .collect()
}

impl RolloutPlan {
    /// The modules of job `index`.
    pub fn modules(&self, index: u64) -> Vec<&Module> {
        job_modules(&self.dataset, self.episodes_per_job, index)
    }

    /// The rollout seed of job `index`.
    pub fn base_seed(&self, index: u64) -> u64 {
        episode_seed(self.seed, index)
    }
}

fn fresh_env(config: &EnvConfig) -> OptimizationEnv {
    OptimizationEnv::new(config.clone(), CostModel::new(MachineModel::default()))
}

pub fn rollout_plan(seed: u64, scale: Scale) -> RolloutPlan {
    let config = EnvConfig::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dataset = through_text(full_training_dataset(
        scale.pick(5, 1) as f64 / 100.0,
        DATA_SEED,
    ));
    dataset.shuffle(&mut rng);
    let hyper = PolicyHyperparams {
        hidden_size: 32,
        backbone_layers: 2,
    };
    let mut weights = ChaCha8Rng::seed_from_u64(WEIGHT_SEED);
    let policy = PolicyNetwork::new(config.clone(), hyper, &mut weights);
    let value = ValueNetwork::new(&config, hyper, &mut weights);
    let episodes_per_job = 4;
    // One whole pass over the dataset.
    let prefix = dataset.len().div_ceil(episodes_per_job) as u64;
    RolloutPlan {
        env: fresh_env(&config),
        policy,
        value,
        dataset,
        episodes_per_job,
        workers: 2,
        warmup: scale.pick(6, 1) as u64,
        prefix,
        reference_jobs: scale.pick(12, 1) as u64,
        seed,
    }
}

/// `train-ppo`, ready to run. The trainer holds a [`Probed`] policy: the
/// trainer does not report environment steps, and the rollout engine takes
/// exactly one `select_action` per step.
#[derive(Debug)]
pub struct TrainPlan {
    pub env: OptimizationEnv,
    pub trainer: PpoTrainer<Probed<PolicyNetwork>>,
    pub probe: Arc<PolicyProbe>,
    pub dataset: Vec<Module>,
    pub warmup: u64,
    pub prefix: u64,
}

/// Seed of `train-ppo`'s trainer (action sampling, minibatch shuffles) and
/// dataset order. PPO is chaotic in its seed: across ten seeds the same
/// code measured a 21 % inter-quartile spread in iterations per second and
/// 45 % in the trained policy's geomean speedup, against ~10 % between
/// runs of one seed. A training workload whose numbers are to be compared
/// between two builds has to train the same trajectory on both, so this
/// workload takes nothing from `--seed`.
pub const TRAIN_SEED: u64 = 17;

pub fn train_plan(scale: Scale, probe: Arc<PolicyProbe>) -> TrainPlan {
    let config = EnvConfig::small();
    let mut rng = ChaCha8Rng::seed_from_u64(TRAIN_SEED);
    let mut dataset = through_text(full_training_dataset(
        scale.pick(2, 1) as f64 / 100.0,
        DATA_SEED,
    ));
    dataset.shuffle(&mut rng);
    let hyper = PolicyHyperparams {
        hidden_size: 32,
        backbone_layers: 2,
    };
    let ppo = PpoConfig {
        trajectories_per_iteration: 12,
        minibatch_size: 16,
        update_epochs: 2,
        ..PpoConfig::paper()
    };
    // Exactly `PpoTrainer::new`, with the policy wrapped.
    let mut weights = ChaCha8Rng::seed_from_u64(WEIGHT_SEED);
    let policy = PolicyNetwork::new(config.clone(), hyper, &mut weights);
    let value = ValueNetwork::new(&config, hyper, &mut weights);
    let trainer = PpoTrainer::with_policy(
        Probed::new(policy, Arc::clone(&probe)),
        value,
        ppo,
        ChaCha8Rng::seed_from_u64(TRAIN_SEED),
    );
    TrainPlan {
        env: fresh_env(&config),
        trainer,
        probe,
        dataset,
        warmup: scale.pick(5, 1) as u64,
        prefix: scale.pick(100, 2) as u64,
    }
}

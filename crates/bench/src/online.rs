//! Closed-loop online learning on served traffic.

use std::time::Duration;

use mlir_rl_agent::{OnlineTrainingConfig, PolicyHyperparams, PolicyNetwork, PpoConfig};
use mlir_rl_core::{
    wait_all, OptimizationRequest, OptimizationService, ResponseStatus, ServiceConfig,
};
use mlir_rl_env::EnvConfig;
use mlir_rl_ir::ModuleBuilder;
use mlir_rl_obs::TraceSnapshot;
use mlir_rl_search::SearchSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::{ensure_all, report, Report};
use crate::{geomean, ExperimentScale};

report! {
    /// The `exp online` report: a served traffic stream feeds the online
    /// trainer, the trainer hot-swaps promoted policy versions, and the
    /// replay phases lock the per-version determinism contract plus the
    /// promotion gate's no-regression guarantee.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OnlineReport {
        /// Distinct modules in the served workload.
        modules: usize = "modules",
        /// Service worker threads.
        workers: usize = "workers",
        /// Serving rounds run to feed the trainer before the first swap.
        training_rounds: usize = "training rounds",
        /// Policy version of the pre-training replay phase (always 0).
        pre_version: u64 = "version before training",
        /// Policy version of the post-training replay phase.
        post_version: u64 = "version after training",
        /// Policy snapshots published by the trainer.
        swaps: u64 = "swaps published",
        /// PPO train steps the trainer ran.
        train_steps: u64 = "train steps",
        /// Candidates the promotion gate refused.
        gate_rejects: u64 = "gate rejects",
        /// Experiences accepted into the stream.
        experiences_accepted: u64 = "experiences accepted",
        /// Experiences dropped by the bounded stream.
        experiences_dropped: u64 = "experiences dropped",
        /// Geomean greedy speedup served at version 0.
        pre_geomean: f64 = "geomean speedup before",
        /// Geomean greedy speedup served at `post_version`.
        post_geomean: f64 = "geomean speedup after",
        /// Replaying the stream at version 0 reproduced every fingerprint.
        pre_fingerprints_stable: bool = "replay before bit-identical",
        /// Replaying the stream at `post_version` reproduced every
        /// fingerprint.
        post_fingerprints_stable: bool = "replay after bit-identical",
        /// Every response reported exactly the version it was admitted with.
        versions_pinned: bool = "versions pinned at admission",
    }
}

impl Report for OnlineReport {
    fn check(&self) -> Result<(), String> {
        ensure_all!(
            // The loop closes: a version trained on served traffic was
            // published and is being served.
            self.swaps >= 1 && self.post_version >= 1,
            self.train_steps >= 1 && self.experiences_accepted >= 1,
            // Replays at a fixed version are bit-identical, and every
            // response reports its admission version.
            self.pre_fingerprints_stable && self.post_fingerprints_stable,
            self.versions_pinned,
            // The promotion gate never lets the served geomean regress.
            self.post_geomean >= self.pre_geomean * (1.0 - 1e-9),
        )
    }
}

/// The closed online-learning loop, end to end: a fixed module set is
/// served twice at version 0 (replay — per-version determinism), then
/// served in rounds that feed the background trainer until it publishes at
/// least one gate-passing version, then served twice again at the final
/// version. The promotion gate scores candidates with the same noise-free
/// greedy decode the served `Greedy` spec uses, so a published version can
/// never regress the served geomean.
///
/// `trace_capacity` is the per-ring event capacity of optional structured
/// tracing ([`ServiceConfig::with_tracing`]).
pub fn online_learning(
    scale: &ExperimentScale,
    workers: usize,
    trace_capacity: Option<usize>,
) -> (OnlineReport, Option<TraceSnapshot>) {
    let chain = |name: &str, m: u64, n: u64, k: u64| {
        let mut b = ModuleBuilder::new(name);
        let a = b.argument("A", vec![m, k]);
        let w = b.argument("B", vec![k, n]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        b.finish()
    };
    let modules = [
        chain("online_a", 64, 64, 64),
        chain("online_b", 96, 48, 64),
        chain("online_c", 48, 96, 32),
    ];
    let workers = workers.max(1);

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let policy = PolicyNetwork::new(
        EnvConfig::small(),
        PolicyHyperparams {
            hidden_size: scale.hidden_size,
            backbone_layers: 1,
        },
        &mut rng,
    );
    let online = OnlineTrainingConfig {
        sample_every: 1,
        capacity: 256,
        // One serving round fills exactly one replay batch, so every train
        // step sees (and probes) the full module set.
        min_batch: modules.len(),
        train_seed: 0xC0DE,
        ppo: PpoConfig {
            trajectories_per_iteration: scale.trajectories_per_iteration.max(2),
            minibatch_size: 4,
            update_epochs: 1,
            ..PpoConfig::paper()
        },
        promotion_gate: true,
        max_probe_modules: 16,
    };
    let mut config = ServiceConfig::quick()
        .with_workers(workers)
        .with_online_training(online);
    if let Some(capacity) = trace_capacity {
        config = config.with_tracing(capacity);
    }
    let service = OptimizationService::new(config, policy);
    // One pass over the workload: greedy requests seeded from `first_seed`.
    let serve = |first_seed: u64| {
        let requests = modules.iter().enumerate().map(|(i, module)| {
            OptimizationRequest::new(module.clone(), SearchSpec::Greedy)
                .with_seed(first_seed + i as u64)
        });
        wait_all(&service.submit_batch(requests.collect()))
    };
    // One replay: (fingerprints, versions, geomean speedup).
    let replay = || -> (Vec<u64>, Vec<u64>, f64) {
        let responses = serve(100);
        for response in &responses {
            assert_eq!(response.status, ResponseStatus::Completed);
        }
        (
            responses.iter().map(|r| r.fingerprint()).collect(),
            responses.iter().map(|r| r.policy_version).collect(),
            geomean(responses.iter().map(|r| r.speedup())),
        )
    };

    // --- pre: two replays at version 0, trainer quiesced ----------------
    service.pause_online_training();
    let (pre_a, pre_versions, pre_geomean) = replay();
    let (pre_b, _, _) = replay();
    let mut versions_pinned = pre_versions.iter().all(|&v| v == 0);

    // --- train: serve rounds until the trainer publishes ----------------
    service.resume_online_training();
    let max_rounds = 400usize;
    let mut training_rounds = 0usize;
    while service.policy_version() == 0 && training_rounds < max_rounds {
        let _ = serve(10_000 + (training_rounds * modules.len()) as u64);
        training_rounds += 1;
        std::thread::sleep(Duration::from_millis(2));
    }

    // --- post: two replays at the promoted version, trainer quiesced ----
    service.pause_online_training();
    let post_version = service.policy_version();
    let (post_a, post_versions, post_geomean) = replay();
    let (post_b, _, _) = replay();
    versions_pinned &= post_versions.iter().all(|&v| v == post_version);

    let stats = service.online_stats().expect("online training is on");
    let metrics = service.metrics();
    let report = OnlineReport {
        modules: modules.len(),
        workers,
        training_rounds,
        pre_version: 0,
        post_version,
        swaps: metrics.policy_swaps,
        train_steps: stats.train_steps,
        gate_rejects: stats.gate_rejects,
        experiences_accepted: metrics.online_experiences_accepted,
        experiences_dropped: metrics.online_experiences_dropped,
        pre_geomean,
        post_geomean,
        pre_fingerprints_stable: pre_a == pre_b,
        post_fingerprints_stable: post_a == post_b,
        versions_pinned,
    };
    (report, service.trace_snapshot())
}

//! Versioned binary weight snapshots for the policy and value networks.
//!
//! The vendored `serde` is a no-op stub (nothing in the tree performs real
//! serialization through it), so network snapshots are images of the
//! workspace's one framed layout ([`mlir_rl_ir::frame`], shared with the
//! cost-model cache's `MLRC` snapshot): the `MLRW` magic tag, a format
//! version, little-endian shapes and `f64` bit patterns, and an FNV-1a
//! checksum trailer. Round-tripping is *bitwise*:
//! a restored network ranks and samples exactly like the original, which is
//! what lets a deserialized snapshot be swapped into the service's
//! [`crate::online::PolicyRegistry`] without perturbing the per-version
//! determinism contract.

use mlir_rl_ir::frame::{self, FrameError};
use mlir_rl_ir::Fnv1a;
use mlir_rl_nn::Param;

use crate::flat::FlatPolicyNetwork;
use crate::policy::PolicyNetwork;
use crate::ppo::PolicyModel;
use crate::value::ValueNetwork;

/// Magic tag of the weight-snapshot format ("MLir Rl Weights").
pub const WEIGHTS_MAGIC: [u8; 4] = *b"MLRW";
/// Version of the weight-snapshot format.
pub const WEIGHTS_VERSION: u32 = 1;

/// Why a weight snapshot failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightsError {
    /// The byte stream ended early.
    Truncated,
    /// The magic tag did not match [`WEIGHTS_MAGIC`].
    BadMagic,
    /// The format version is not [`WEIGHTS_VERSION`].
    BadVersion(u32),
    /// The snapshot holds a different number of parameter tensors.
    ParamCount {
        /// Tensors the network has.
        expected: usize,
        /// Tensors the snapshot holds.
        found: usize,
    },
    /// Tensor `index` has a different shape in the snapshot.
    ShapeMismatch {
        /// Position of the tensor in `parameters_mut()` order.
        index: usize,
        /// The network's `(rows, cols)`.
        expected: (usize, usize),
        /// The snapshot's `(rows, cols)`.
        found: (usize, usize),
    },
    /// The checksum trailer did not match the payload, or bytes remain
    /// after the last tensor.
    Corrupt,
}

impl std::fmt::Display for WeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "weight snapshot truncated"),
            Self::BadMagic => write!(f, "weight snapshot has wrong magic tag"),
            Self::BadVersion(v) => write!(
                f,
                "weight snapshot format version {v} (expected {WEIGHTS_VERSION})"
            ),
            Self::ParamCount { expected, found } => write!(
                f,
                "weight snapshot holds {found} tensors, network has {expected}"
            ),
            Self::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "tensor {index} shape {found:?} does not match network shape {expected:?}"
            ),
            Self::Corrupt => write!(f, "weight snapshot checksum mismatch"),
        }
    }
}

impl std::error::Error for WeightsError {}

impl From<FrameError> for WeightsError {
    fn from(err: FrameError) -> Self {
        match err {
            FrameError::Truncated => Self::Truncated,
            FrameError::BadMagic => Self::BadMagic,
            FrameError::BadVersion(v) => Self::BadVersion(v),
            FrameError::Checksum | FrameError::Trailing => Self::Corrupt,
        }
    }
}

/// Encodes `params` (in `parameters_mut()` order) into the snapshot format,
/// each tensor's values in logical (row, col) order.
fn encode(params: &[&mut Param]) -> Vec<u8> {
    let mut out = frame::begin(WEIGHTS_MAGIC, WEIGHTS_VERSION);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for param in params {
        out.extend_from_slice(&(param.rows as u32).to_le_bytes());
        out.extend_from_slice(&(param.cols as u32).to_le_bytes());
        for v in param.logical_values() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    frame::seal(out)
}

/// Decodes a snapshot produced by [`encode`] back into `params`.
///
/// Validation happens before any write: a failed restore leaves the
/// network untouched.
fn decode(params: &mut [&mut Param], bytes: &[u8]) -> Result<(), WeightsError> {
    let mut reader = frame::open(bytes, WEIGHTS_MAGIC, WEIGHTS_VERSION)?;
    let count = reader.u32()? as usize;
    if count != params.len() {
        return Err(WeightsError::ParamCount {
            expected: params.len(),
            found: count,
        });
    }
    // Pass 1: validate every shape and stage the decoded values.
    let mut staged: Vec<Vec<f64>> = Vec::with_capacity(count);
    for (index, param) in params.iter().enumerate() {
        let rows = reader.u32()? as usize;
        let cols = reader.u32()? as usize;
        if rows != param.rows || cols != param.cols {
            return Err(WeightsError::ShapeMismatch {
                index,
                expected: (param.rows, param.cols),
                found: (rows, cols),
            });
        }
        let raw = reader.take(param.len() * 8)?;
        let values = raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        staged.push(values);
    }
    reader.finish()?;
    // Pass 2: commit.
    for (param, values) in params.iter_mut().zip(staged) {
        param.set_value(values);
    }
    Ok(())
}

/// Fingerprints `params`: FNV-1a over shapes and weight bit patterns.
fn fingerprint(params: &[&mut Param]) -> u64 {
    let mut fnv = Fnv1a::new();
    for param in params {
        fnv.write(&(param.rows as u64).to_le_bytes());
        fnv.write(&(param.cols as u64).to_le_bytes());
        for v in param.logical_values() {
            fnv.write(&v.to_bits().to_le_bytes());
        }
    }
    fnv.finish()
}

/// Bitwise weight snapshots over a network's `parameters_mut()` order.
///
/// The only method an implementor supplies is [`WeightSnapshot::snapshot_params`];
/// encode/decode/fingerprint ride on top.
pub trait WeightSnapshot {
    /// The network's parameter tensors in stable snapshot order.
    fn snapshot_params(&mut self) -> Vec<&mut Param>;

    /// Serializes the weights into the versioned binary snapshot format.
    fn weights_to_bytes(&mut self) -> Vec<u8> {
        encode(&self.snapshot_params())
    }

    /// Restores weights from [`WeightSnapshot::weights_to_bytes`] output.
    /// Validation (magic, version, checksum, shapes) happens before any
    /// write; on error the network is unchanged.
    fn restore_weights(&mut self, bytes: &[u8]) -> Result<(), WeightsError> {
        decode(&mut self.snapshot_params(), bytes)
    }

    /// FNV-1a fingerprint of the weight bit patterns; two networks with
    /// equal fingerprints rank and sample identically.
    fn weights_fingerprint(&mut self) -> u64 {
        fingerprint(&self.snapshot_params())
    }
}

impl WeightSnapshot for PolicyNetwork {
    fn snapshot_params(&mut self) -> Vec<&mut Param> {
        self.parameters_mut()
    }
}

impl WeightSnapshot for FlatPolicyNetwork {
    fn snapshot_params(&mut self) -> Vec<&mut Param> {
        self.parameters_mut()
    }
}

impl WeightSnapshot for ValueNetwork {
    fn snapshot_params(&mut self) -> Vec<&mut Param> {
        self.parameters_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyHyperparams;
    use crate::ppo::PolicyModel;
    use mlir_rl_costmodel::{CostModel, MachineModel};
    use mlir_rl_env::{EnvConfig, OptimizationEnv};
    use mlir_rl_ir::{Module, ModuleBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const HYPER: PolicyHyperparams = PolicyHyperparams {
        hidden_size: 16,
        backbone_layers: 1,
    };

    fn module() -> Module {
        let mut b = ModuleBuilder::new("snapshot-test");
        let a = b.argument("A", vec![16, 16]);
        let w = b.argument("B", vec![16, 16]);
        let mm = b.matmul(a, w);
        b.relu(mm);
        b.finish()
    }

    fn observation() -> mlir_rl_env::Observation {
        let mut env =
            OptimizationEnv::new(EnvConfig::small(), CostModel::new(MachineModel::default()));
        env.reset(module()).expect("live episode")
    }

    #[test]
    fn policy_roundtrip_ranks_and_samples_bit_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut original = PolicyNetwork::new(EnvConfig::small(), HYPER, &mut rng);
        let bytes = original.weights_to_bytes();
        // Restore into a *differently initialized* network of the same shape.
        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        let mut restored = PolicyNetwork::new(EnvConfig::small(), HYPER, &mut rng2);
        assert_ne!(
            original.weights_fingerprint(),
            restored.weights_fingerprint()
        );
        restored.restore_weights(&bytes).expect("roundtrip");
        assert_eq!(
            original.weights_fingerprint(),
            restored.weights_fingerprint()
        );

        let obs = observation();
        // Greedy decode (deployment behavior) is bit-identical.
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        let a = original.select_action(&obs, true, &mut r1);
        let b = restored.select_action(&obs, true, &mut r2);
        assert_eq!(a.action, b.action);
        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
        // Sampling consumes the same draws and lands on the same action.
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        let a = original.select_action(&obs, false, &mut r1);
        let b = restored.select_action(&obs, false, &mut r2);
        assert_eq!(a.action, b.action);
        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
        assert_eq!(a.entropy.to_bits(), b.entropy.to_bits());
        // Ranking agrees too.
        let mut r1 = ChaCha8Rng::seed_from_u64(13);
        let mut r2 = ChaCha8Rng::seed_from_u64(13);
        let ra = original.rank_actions(&obs, 4, &mut r1);
        let rb = restored.rank_actions(&obs, 4, &mut r2);
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.action, y.action);
            assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits());
        }
    }

    #[test]
    fn flat_policy_roundtrip_is_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut original = FlatPolicyNetwork::new(EnvConfig::small(), HYPER, &mut rng);
        let bytes = original.weights_to_bytes();
        let mut rng2 = ChaCha8Rng::seed_from_u64(22);
        let mut restored = FlatPolicyNetwork::new(EnvConfig::small(), HYPER, &mut rng2);
        restored.restore_weights(&bytes).expect("roundtrip");
        assert_eq!(
            original.weights_fingerprint(),
            restored.weights_fingerprint()
        );

        let obs = observation();
        let mut r1 = ChaCha8Rng::seed_from_u64(3);
        let mut r2 = ChaCha8Rng::seed_from_u64(3);
        let a = PolicyModel::select_action(&mut original, &obs, false, &mut r1);
        let b = PolicyModel::select_action(&mut restored, &obs, false, &mut r2);
        assert_eq!(a.action, b.action);
        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
    }

    #[test]
    fn value_roundtrip_predicts_bit_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut original = ValueNetwork::new(&EnvConfig::small(), HYPER, &mut rng);
        let bytes = original.weights_to_bytes();
        let mut rng2 = ChaCha8Rng::seed_from_u64(32);
        let mut restored = ValueNetwork::new(&EnvConfig::small(), HYPER, &mut rng2);
        restored.restore_weights(&bytes).expect("roundtrip");
        assert_eq!(
            original.weights_fingerprint(),
            restored.weights_fingerprint()
        );
        let obs = observation();
        let a = original.predict(&obs);
        let b = restored.predict(&obs);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Two bare tensors: the smallest thing that has a weight image.
    struct Pair([Param; 2]);

    impl WeightSnapshot for Pair {
        fn snapshot_params(&mut self) -> Vec<&mut Param> {
            self.0.iter_mut().collect()
        }
    }

    #[test]
    fn an_image_written_before_weights_were_shared_round_trips_byte_for_byte() {
        // Written by the PR 15 encoder (plain `Vec` values, eager gradient)
        // for `[[1.5, -0.0]]` and `[[-2.25], [f64::MIN_POSITIVE]]`, whose
        // fingerprint it reported as below.
        const IMAGE: [u8; 68] = [
            77, 76, 82, 87, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 248,
            63, 0, 0, 0, 0, 0, 0, 0, 128, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 192, 0, 0,
            0, 0, 0, 0, 16, 0, 207, 176, 115, 49, 184, 162, 67, 46,
        ];
        const FINGERPRINT: u64 = 0xc70b_3e9b_0368_896e;
        let mut pair = Pair([Param::zeros(1, 2), Param::zeros(2, 1)]);
        let before = pair.0.clone();
        pair.restore_weights(&IMAGE).expect("a version-1 image");
        let bits = |p: &Param| p.value().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pair.0[0]), [1.5f64.to_bits(), (-0.0f64).to_bits()]);
        assert_eq!(
            bits(&pair.0[1]),
            [(-2.25f64).to_bits(), f64::MIN_POSITIVE.to_bits()]
        );
        assert_eq!(pair.weights_to_bytes(), IMAGE);
        assert_eq!(pair.weights_fingerprint(), FINGERPRINT);
        // The load replaced the buffers; holders of the old ones keep them.
        assert!(before.iter().all(|p| p.value().iter().all(|v| *v == 0.0)));
    }

    #[test]
    fn restore_validates_before_writing() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut policy = PolicyNetwork::new(EnvConfig::small(), HYPER, &mut rng);
        let before = policy.weights_fingerprint();
        let mut bytes = policy.weights_to_bytes();

        // Corrupt one payload byte: checksum catches it, weights untouched.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert_eq!(policy.restore_weights(&bytes), Err(WeightsError::Corrupt));
        assert_eq!(policy.weights_fingerprint(), before);

        // Truncation is detected.
        let good = policy.weights_to_bytes();
        assert_eq!(
            policy.restore_weights(&good[..8]),
            Err(WeightsError::Truncated)
        );

        // A value-network snapshot does not restore into a policy.
        let mut value = ValueNetwork::new(&EnvConfig::small(), HYPER, &mut rng);
        let foreign = value.weights_to_bytes();
        assert!(policy.restore_weights(&foreign).is_err());
        assert_eq!(policy.weights_fingerprint(), before);
    }
}

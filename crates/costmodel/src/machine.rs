//! Machine descriptions for the analytical CPU performance model.

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// Usable capacity in bytes (per core for private caches, total for
    /// shared ones).
    pub capacity_bytes: u64,
    /// Sustained bandwidth in bytes per second available to one core when
    /// data resides in this level.
    pub bandwidth_bytes_per_s: f64,
    /// Whether the cache is shared by all cores (the capacity is then split
    /// among the cores that are active).
    pub shared: bool,
}

/// A CPU description sufficient for the roofline-style cost model.
///
/// The default models the machine used in the paper's evaluation: a
/// dual-socket Intel Xeon E5-2680 v4 node (2 x 14 Broadwell cores @ 2.4 GHz,
/// AVX2, 64 GB RAM).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Human-readable name of the machine.
    pub name: String,
    /// Number of physical cores available to the OpenMP runtime.
    pub cores: u32,
    /// Core clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Number of f32 lanes of the vector unit (8 for AVX2).
    pub vector_lanes_f32: u32,
    /// Scalar floating-point operations retired per cycle per core
    /// (accounting for the two FMA ports but scalar issue limits).
    pub scalar_flops_per_cycle: f64,
    /// Fraction of peak throughput reachable by compiler-generated generic
    /// loop nests (no register tiling, no software pipelining).
    pub generic_codegen_efficiency: f64,
    /// Fraction of peak throughput reachable by hand-tuned vendor kernels
    /// (oneDNN-style register tiling and prefetching).
    pub expert_kernel_efficiency: f64,
    /// L1 data cache (per core).
    pub l1: CacheLevel,
    /// L2 cache (per core).
    pub l2: CacheLevel,
    /// Last-level cache (shared).
    pub l3: CacheLevel,
    /// Main-memory bandwidth in bytes per second (shared by all cores).
    pub dram_bandwidth_bytes_per_s: f64,
    /// Fixed cost of launching a parallel region (fork/join), in seconds.
    pub fork_join_overhead_s: f64,
    /// Cost of dispatching one parallel task (one tile of an `scf.forall`),
    /// in seconds.
    pub per_task_overhead_s: f64,
    /// Branch/index overhead of one iteration of a scalar innermost loop, in
    /// seconds.
    pub loop_iteration_overhead_s: f64,
}

impl MachineModel {
    /// The paper's evaluation machine: dual-socket Xeon E5-2680 v4.
    pub fn xeon_e5_2680_v4() -> Self {
        Self {
            name: "2x Intel Xeon E5-2680 v4 (Broadwell, 28 cores, AVX2)".to_string(),
            cores: 28,
            frequency_ghz: 2.4,
            vector_lanes_f32: 8,
            scalar_flops_per_cycle: 2.0,
            generic_codegen_efficiency: 0.30,
            expert_kernel_efficiency: 0.85,
            l1: CacheLevel {
                capacity_bytes: 32 * 1024,
                bandwidth_bytes_per_s: 150.0e9,
                shared: false,
            },
            l2: CacheLevel {
                capacity_bytes: 256 * 1024,
                bandwidth_bytes_per_s: 75.0e9,
                shared: false,
            },
            l3: CacheLevel {
                capacity_bytes: 35 * 1024 * 1024,
                bandwidth_bytes_per_s: 40.0e9,
                shared: true,
            },
            dram_bandwidth_bytes_per_s: 60.0e9,
            fork_join_overhead_s: 8.0e-6,
            per_task_overhead_s: 0.4e-6,
            loop_iteration_overhead_s: 0.9e-9,
        }
    }

    /// Peak floating-point throughput of one core in FLOP/s, given whether
    /// the code is vectorized.
    pub fn peak_flops_per_core(&self, vectorized: bool) -> f64 {
        let lanes = if vectorized {
            f64::from(self.vector_lanes_f32)
        } else {
            1.0
        };
        self.frequency_ghz * 1.0e9 * self.scalar_flops_per_cycle * lanes
    }

    /// Aggregate DRAM bandwidth available to `cores_used` cores: a single
    /// core cannot saturate the memory controllers, and many cores share the
    /// same total bandwidth.
    pub fn dram_bandwidth_for(&self, cores_used: u32) -> f64 {
        let single_core_share = self.dram_bandwidth_bytes_per_s * 0.25;
        let scaled = single_core_share * f64::from(cores_used.max(1));
        scaled.min(self.dram_bandwidth_bytes_per_s)
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        Self::xeon_e5_2680_v4()
    }
}

/// Which code-generation quality a schedule is evaluated under.
///
/// The RL agent, the Halide-style baselines, and the untransformed baseline
/// are evaluated with [`CodegenQuality::Generic`] (MLIR's generic loop-nest
/// code generation). The PyTorch / PyTorch-compiler analogues are evaluated
/// with [`CodegenQuality::ExpertKernel`], modelling the architecture-
/// specialized oneDNN kernels that the paper identifies as the reason those
/// frameworks win on Matmul and Conv2D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodegenQuality {
    /// Compiler-generated generic loop nests.
    Generic,
    /// Hand-tuned vendor kernels (register tiling, prefetching).
    ExpertKernel,
}

impl MachineModel {
    /// Efficiency factor for the given code-generation quality.
    pub fn efficiency(&self, quality: CodegenQuality) -> f64 {
        match quality {
            CodegenQuality::Generic => self.generic_codegen_efficiency,
            CodegenQuality::ExpertKernel => self.expert_kernel_efficiency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let m = MachineModel::default();
        assert_eq!(m.cores, 28);
        assert_eq!(m.vector_lanes_f32, 8);
        assert!(m.name.contains("E5-2680"));
    }

    #[test]
    fn peak_flops_scale_with_vectorization() {
        let m = MachineModel::default();
        let scalar = m.peak_flops_per_core(false);
        let vector = m.peak_flops_per_core(true);
        assert!((vector / scalar - 8.0).abs() < 1e-9);
        assert!(scalar > 1.0e9);
    }

    #[test]
    fn dram_bandwidth_saturates() {
        let m = MachineModel::default();
        let one = m.dram_bandwidth_for(1);
        let four = m.dram_bandwidth_for(4);
        let all = m.dram_bandwidth_for(m.cores);
        assert!(one < four);
        assert!(four <= all);
        assert!((all - m.dram_bandwidth_bytes_per_s).abs() < 1.0);
        // More cores than exist cannot exceed the total.
        assert_eq!(m.dram_bandwidth_for(1000), m.dram_bandwidth_bytes_per_s);
    }

    #[test]
    fn efficiency_ordering() {
        let m = MachineModel::default();
        assert!(m.efficiency(CodegenQuality::ExpertKernel) > m.efficiency(CodegenQuality::Generic));
    }
}

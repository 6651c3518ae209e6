//! Multithreaded-CPU (MKL-like) cost model.

use crate::trace::TraceOp;

/// Roofline-style cost model for multithreaded BLAS on a dual-socket CPU.
///
/// A call of `f` flops touching `b` bytes costs
///
/// ```text
/// t = overhead(threads) + f / min(R_compute, B_mem · f/b)
/// ```
///
/// with `R_compute = threads · per_core_peak · eff(threads)` and
/// `B_mem = peak_bandwidth · threads / (threads + bw_half_threads)`.
/// The `eff` term models MKL's sub-linear scaling; the bandwidth term
/// saturates once enough cores are active. Small calls are dominated by
/// `overhead` and the bandwidth ceiling, which is why keeping small
/// supernodes on the CPU (and the "best of 8…128 threads" baseline) behave
/// as in the paper.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Active BLAS threads.
    pub threads: usize,
    /// Peak double-precision flops of one core (FMA throughput).
    pub per_core_peak: f64,
    /// Thread-scaling efficiency loss factor (`eff = 1/(1 + c·t)`).
    pub eff_loss_per_thread: f64,
    /// Peak achievable memory bandwidth of the node, bytes/s.
    pub peak_bandwidth: f64,
    /// Thread count at which half the peak bandwidth is reached.
    pub bw_half_threads: f64,
    /// Fixed per-call overhead, seconds.
    pub call_overhead_base: f64,
    /// Additional per-call overhead per thread (fork/join sync), seconds.
    pub call_overhead_per_thread: f64,
    /// Bandwidth used by pure data-movement work (the OpenMP assembly
    /// scatter), bytes/s. Like `peak_bandwidth` it is never reduced by
    /// [`scale_compute`](Self::scale_compute): data volumes shrink with
    /// the square of the linear problem size, so bandwidth-bound work
    /// already scales uniformly with the rest of the model.
    pub scatter_bandwidth: f64,
}

impl CpuModel {
    /// Effective compute rate, flops/s.
    pub fn compute_rate(&self) -> f64 {
        let t = self.threads as f64;
        let eff = 1.0 / (1.0 + self.eff_loss_per_thread * t);
        t * self.per_core_peak * eff
    }

    /// Effective memory bandwidth, bytes/s.
    pub fn bandwidth(&self) -> f64 {
        let t = self.threads as f64;
        self.peak_bandwidth * t / (t + self.bw_half_threads)
    }

    /// Effective scatter (assembly) bandwidth, bytes/s.
    pub fn scatter_rate(&self) -> f64 {
        let t = self.threads as f64;
        self.scatter_bandwidth * t / (t + self.bw_half_threads)
    }

    /// Per-call overhead, seconds.
    pub fn overhead(&self) -> f64 {
        self.call_overhead_base + self.call_overhead_per_thread * self.threads as f64
    }

    /// Matches the machine to a suite shrunk by `s` in linear problem
    /// size. Flops shrink like `s³` and data volumes like `s²`, so
    /// dividing compute rates by `s` and fixed per-call overheads by `s²`
    /// — while keeping every bandwidth untouched — makes *all* modeled
    /// times exactly `1/s²` of their full-scale values: every ratio the
    /// paper reports (speedups, thresholds, latency-vs-bandwidth) is
    /// preserved (see `rlchol_matgen::suite::SuiteConfig::machine_scale`).
    pub fn scale_compute(mut self, s: f64) -> Self {
        self.per_core_peak /= s;
        self.call_overhead_base /= s * s;
        self.call_overhead_per_thread /= s * s;
        self
    }

    /// Time for one BLAS call / assembly record under this model.
    pub fn op_time(&self, op: &TraceOp) -> f64 {
        debug_assert!(!op.is_transfer(), "CPU model cannot cost transfers");
        let f = op.flops();
        let b = op.bytes();
        if f == 0.0 {
            // Pure data movement (assembly scatter): bandwidth + overhead.
            return self.overhead() + b / self.scatter_rate();
        }
        let intensity = f / b.max(1.0);
        let rate = self.compute_rate().min(self.bandwidth() * intensity);
        self.overhead() + f / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::perlmutter_cpu;

    #[test]
    fn big_gemm_approaches_peak() {
        let m = perlmutter_cpu(128);
        let op = TraceOp::Gemm {
            m: 4096,
            n: 4096,
            k: 4096,
        };
        let t = m.op_time(&op);
        let achieved = op.flops() / t;
        assert!(achieved > 0.5 * m.compute_rate());
    }

    #[test]
    fn tiny_calls_are_overhead_bound() {
        let m = perlmutter_cpu(128);
        let op = TraceOp::Gemm { m: 4, n: 4, k: 4 };
        let t = m.op_time(&op);
        assert!(t > 0.9 * m.overhead());
        let achieved = op.flops() / t;
        assert!(achieved < 0.01 * m.compute_rate());
    }

    #[test]
    fn more_threads_help_large_not_small() {
        let small = TraceOp::Syrk { n: 24, k: 8 };
        let large = TraceOp::Syrk { n: 3000, k: 1500 };
        let t8 = perlmutter_cpu(8);
        let t128 = perlmutter_cpu(128);
        // Large call: 128 threads much faster.
        assert!(t128.op_time(&large) < t8.op_time(&large) / 3.0);
        // Small call: 128 threads no better (sync overhead dominates).
        assert!(t128.op_time(&small) >= t8.op_time(&small));
    }

    #[test]
    fn rates_monotone_in_threads() {
        let mut prev_rate = 0.0;
        for t in [8, 16, 32, 64, 128] {
            let m = perlmutter_cpu(t);
            assert!(m.compute_rate() > prev_rate);
            prev_rate = m.compute_rate();
            assert!(m.bandwidth() <= m.peak_bandwidth);
        }
    }

    #[test]
    fn assembly_costed_by_bandwidth() {
        let m = perlmutter_cpu(8);
        let op = TraceOp::Assemble { entries: 1_000_000 };
        let t = m.op_time(&op);
        let expect = m.overhead() + 24e6 / m.scatter_rate();
        assert!((t - expect).abs() < 1e-12);
    }
}

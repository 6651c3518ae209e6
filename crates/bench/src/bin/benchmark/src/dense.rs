//! Dense-kernel time, measured from outside the engines.
//!
//! The CPU engines record every BLAS-shaped call they make in
//! `FactorInfo::trace`. [`replay`] issues the same calls, in the same
//! order and of the same shapes, through the public `rlchol_dense`
//! kernels on scratch operands, and times each class. The sum is the
//! kernel share of a refactorization; what is left is assembly.

use std::hint::black_box;
use std::time::Instant;

use rlchol_dense::{gemm_nt, potrf, syrk_ln, trsm_rlt};
use rlchol_perfmodel::{Trace, TraceOp};

use crate::spans::Tracer;
use crate::stats::median;

/// Kernel classes, in the order [`replay`] returns them.
pub const CLASSES: [&str; 4] = ["potrf", "trsm", "syrk", "gemm"];

#[derive(Debug, Default, Clone, Copy)]
pub struct ClassTime {
    pub seconds: f64,
    pub flops: f64,
}

/// Operand values: small and constant, so no call meets a denormal or an
/// overflow however often the scratch is reused.
const FILL: f64 = 1e-3;

pub fn replay(trace: &Trace, tr: &mut Tracer) -> [ClassTime; 4] {
    // One scratch per operand role, as in the engines: the diagonal
    // triangle, the panel below it, and the update the panel produces.
    let (mut tri_len, mut panel_len, mut upd_len) = (1, 1, 1);
    for op in &trace.ops {
        let (tri, panel, upd) = match *op {
            TraceOp::Potrf { n } => (n * n, 0, 0),
            TraceOp::Trsm { m, n } => (n * n, m * n, 0),
            TraceOp::Syrk { n, k } => (0, n * k, n * n),
            TraceOp::Gemm { m, n, k } => (0, m.max(n) * k, m * n),
            _ => (0, 0, 0),
        };
        tri_len = tri_len.max(tri);
        panel_len = panel_len.max(panel);
        upd_len = upd_len.max(upd);
    }
    let mut tri = vec![FILL; tri_len];
    let mut panel = vec![FILL; panel_len];
    let mut upd = vec![FILL; upd_len];

    let span = tr.open("dense.replay", None, 0);
    let mut out = [ClassTime::default(); 4];
    let mut class_ns = [0u64; 4];
    for op in &trace.ops {
        let class = match *op {
            TraceOp::Potrf { n } => {
                // A fresh diagonally dominant block: POTRF overwrites it.
                tri[..n * n].fill(FILL);
                for i in 0..n {
                    tri[i + i * n] = 1.0 + n as f64 * FILL;
                }
                let t0 = Instant::now();
                potrf(n, &mut tri[..n * n], n).expect("diagonally dominant block is SPD");
                class_ns[0] += t0.elapsed().as_nanos() as u64;
                0
            }
            TraceOp::Trsm { m, n } => {
                // Unit-diagonal triangle and a fresh panel: the solve
                // overwrites the panel, and repeated solves would drift.
                tri[..n * n].fill(FILL);
                for i in 0..n {
                    tri[i + i * n] = 1.0;
                }
                panel[..m * n].fill(FILL);
                let t0 = Instant::now();
                trsm_rlt(m, n, &tri[..n * n], n, &mut panel[..m * n], m.max(1));
                class_ns[1] += t0.elapsed().as_nanos() as u64;
                1
            }
            // The updates read the panel the TRSM just wrote, as the
            // engines do, so it is as warm here as it is there.
            TraceOp::Syrk { n, k } => {
                let t0 = Instant::now();
                // RL's one coarse update per supernode: U := L21 L21ᵀ.
                syrk_ln(
                    n,
                    k,
                    1.0,
                    &panel[..n * k],
                    n.max(1),
                    0.0,
                    &mut upd[..n * n],
                    n.max(1),
                );
                class_ns[2] += t0.elapsed().as_nanos() as u64;
                2
            }
            TraceOp::Gemm { m, n, k } => {
                let t0 = Instant::now();
                gemm_nt(
                    m,
                    n,
                    k,
                    -1.0,
                    &panel[..m * k],
                    m.max(1),
                    &panel[..n * k],
                    n.max(1),
                    1.0,
                    &mut upd[..m * n],
                    m.max(1),
                );
                class_ns[3] += t0.elapsed().as_nanos() as u64;
                3
            }
            _ => continue,
        };
        out[class].flops += op.flops();
    }
    tr.close(span);
    black_box((&tri, &panel, &upd));
    for (class, ns) in out.iter_mut().zip(class_ns) {
        class.seconds = ns as f64 * 1e-9;
    }
    out
}

/// Fixed shapes on either side of the 2 MiB L2: `(metric, GF/s)`. Each
/// number is the median of repeated calls. Computed operations per byte
/// (operand bytes once through, 8-byte words): `gemm_nt` 256 → 16,
/// `gemm_nt` 1024 → 64, `syrk` 1024 → 64. No roofline ratio is given: the
/// run measures no peak.
pub fn fixed_shapes(tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let span = tr.open("dense.fixed_shapes", None, 0);
    let mut out = Vec::new();
    for (name, n, reps) in [
        ("dense.gemm_nt_256_gflops", 256usize, 24),
        ("dense.gemm_nt_1024_gflops", 1024, 3),
    ] {
        let a = vec![FILL; n * n];
        let b = vec![FILL; n * n];
        let mut c = vec![FILL; n * n];
        let op = TraceOp::Gemm { m: n, n, k: n };
        let rates: Vec<f64> = (0..reps)
            .map(|i| {
                let (_, d) = tr.time("dense.gemm_nt", span, i, || {
                    gemm_nt(n, n, n, -1.0, &a, n, &b, n, 1.0, &mut c, n)
                });
                op.flops() / d.as_secs_f64() / 1e9
            })
            .collect();
        black_box(&c);
        out.push((name, median(&rates)));
    }
    let n = 1024;
    let a = vec![FILL; n * n];
    let mut c = vec![FILL; n * n];
    let op = TraceOp::Syrk { n, k: n };
    let rates: Vec<f64> = (0..3)
        .map(|i| {
            let (_, d) = tr.time("dense.syrk_ln", span, i, || {
                syrk_ln(n, n, -1.0, &a, n, 1.0, &mut c, n)
            });
            op.flops() / d.as_secs_f64() / 1e9
        })
        .collect();
    black_box(&c);
    out.push(("dense.syrk_1024_gflops", median(&rates)));
    tr.close(span);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_attributes_every_blas_call_to_its_class() {
        let mut t = Trace::new();
        t.push(TraceOp::Potrf { n: 8 });
        t.push(TraceOp::Trsm { m: 12, n: 8 });
        t.push(TraceOp::Syrk { n: 12, k: 8 });
        t.push(TraceOp::Assemble { entries: 78 });
        t.push(TraceOp::Gemm { m: 5, n: 4, k: 8 });
        t.push(TraceOp::Gemm { m: 0, n: 4, k: 8 });
        let mut tr = Tracer::new(true, Instant::now());
        let r = replay(&t, &mut tr);
        assert_eq!(r[0].flops, TraceOp::Potrf { n: 8 }.flops());
        assert_eq!(r[1].flops, 12.0 * 64.0);
        assert_eq!(r[2].flops, TraceOp::Syrk { n: 12, k: 8 }.flops());
        assert_eq!(r[3].flops, 2.0 * 5.0 * 4.0 * 8.0);
        let total: f64 = r.iter().map(|c| c.flops).sum();
        assert_eq!(total, t.total_flops());
        assert_eq!(tr.spans().len(), 1);
    }
}

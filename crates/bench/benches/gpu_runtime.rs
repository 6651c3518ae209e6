//! Criterion benches of the simulated GPU runtime itself: how much real
//! wall time the simulation layer adds per device operation (allocation,
//! transfer, kernel dispatch; the device does no arithmetic).

use criterion::{criterion_group, criterion_main, Criterion};
use rlchol_gpu::Gpu;
use rlchol_perfmodel::perlmutter_gpu;
use std::time::Duration;

fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu_runtime");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    g.bench_function("alloc_free", |b| {
        let gpu = Gpu::new(perlmutter_gpu());
        b.iter(|| {
            let buf = gpu.alloc(4096).unwrap();
            gpu.free(buf).unwrap();
        })
    });

    g.bench_function("h2d_d2h_64k", |b| {
        let gpu = Gpu::new(perlmutter_gpu());
        let s = gpu.default_stream();
        let buf = gpu.alloc(8192).unwrap();
        let src = vec![1.0f64; 8192];
        b.iter(|| {
            gpu.memcpy_h2d(s, buf, 0, &src).unwrap();
            gpu.memcpy_d2h(s, buf, 0, src.len()).unwrap();
            gpu.sync_stream(s);
        })
    });

    g.bench_function("syrk_dispatch_128", |b| {
        let gpu = Gpu::new(perlmutter_gpu());
        let s = gpu.default_stream();
        let (n, k) = (128usize, 64usize);
        let a_buf = gpu.alloc(n * k).unwrap();
        let c_buf = gpu.alloc(n * n).unwrap();
        let src = vec![0.5f64; n * k];
        gpu.memcpy_h2d(s, a_buf, 0, &src).unwrap();
        b.iter(|| {
            gpu.syrk(s, a_buf, 0, n, n, k, c_buf, 0, n).unwrap();
        })
    });

    g.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);

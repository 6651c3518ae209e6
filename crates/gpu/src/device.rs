//! The simulated device: memory, streams, events, transfers and kernels.

use parking_lot::Mutex;
use rlchol_perfmodel::{GpuModel, TraceOp};

use crate::error::GpuError;
use crate::faults::{FaultKind, FaultPlan};
use crate::stats::{GpuStats, StreamStats};

/// Stream-pair count for the pipelined engines: `RLCHOL_STREAMS` if set
/// to a positive integer, otherwise 2 (one pair overlapping another —
/// the smallest configuration that pipelines at all). Engines treat an
/// explicit stream count in their options as overriding this.
pub fn default_streams() -> usize {
    rlchol_dense::pool::env_positive("RLCHOL_STREAMS").unwrap_or(2)
}

/// Handle to a device memory buffer (`f64` elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    id: usize,
    len: usize,
}

impl Buffer {
    /// Number of `f64` elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Handle to an in-order execution stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(usize);

/// A recorded timestamp on a stream, usable for cross-stream or host
/// synchronization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event(f64);

impl Event {
    /// The simulated completion time this event captured. Schedulers use
    /// it to pick which in-flight work item completes earliest — the
    /// simulated analogue of polling `cudaEventQuery`.
    pub fn time(&self) -> f64 {
        self.0
    }
}

struct State {
    buffers: Vec<Option<Vec<f64>>>,
    streams: Vec<f64>,
    host_clock: f64,
    blocking: bool,
    stats: GpuStats,
    /// Reused triangle copy for [`Gpu::trsm_panel`]; grows to the largest
    /// diagonal block so repeated panel TRSMs allocate nothing.
    l11_scratch: Vec<f64>,
    faults: FaultState,
}

/// Per-device fault-injection bookkeeping: the installed plan plus the
/// per-kind operation ordinals it is matched against (see
/// [`crate::faults`] for the ordinal semantics). Counters start at zero
/// per device, which is what makes a plan deterministic per run.
#[derive(Default)]
struct FaultState {
    plan: Option<FaultPlan>,
    transfer_ops: u64,
    kernel_ops: u64,
    stream_ops: u64,
}

impl FaultState {
    /// Advances the transfer ordinal; `Some` if the plan strikes it.
    fn next_transfer(&mut self) -> Option<GpuError> {
        let idx = self.transfer_ops;
        self.transfer_ops += 1;
        self.plan
            .as_ref()
            .and_then(|p| p.strike(FaultKind::TransferFail, idx))
            .map(GpuError::Fault)
    }

    /// Advances the kernel ordinal; `Some` if the plan strikes it.
    fn next_kernel(&mut self) -> Option<GpuError> {
        let idx = self.kernel_ops;
        self.kernel_ops += 1;
        self.plan
            .as_ref()
            .and_then(|p| p.strike(FaultKind::KernelFault, idx))
            .map(GpuError::Fault)
    }

    /// `Some` if the plan turns allocation ordinal `idx` into an OOM.
    fn alloc_fault(&self, idx: u64) -> Option<GpuError> {
        self.plan
            .as_ref()
            .and_then(|p| p.strike(FaultKind::DeviceOom, idx))
            .map(GpuError::Fault)
    }

    /// Advances the stream-op ordinal; extra stall seconds for this op.
    fn next_stall(&mut self) -> f64 {
        let idx = self.stream_ops;
        self.stream_ops += 1;
        self.plan.as_ref().map_or(0.0, |p| p.stall(idx))
    }
}

/// The simulated GPU.
///
/// All methods are interior-mutable behind a lock, mirroring how a real
/// device handle is shared across host code.
pub struct Gpu {
    model: GpuModel,
    state: Mutex<State>,
}

impl Gpu {
    /// Creates a device with the given performance/capacity model and one
    /// default stream (`StreamId(0)`).
    pub fn new(model: GpuModel) -> Self {
        Gpu {
            model,
            state: Mutex::new(State {
                buffers: Vec::new(),
                streams: vec![0.0],
                host_clock: 0.0,
                blocking: false,
                stats: GpuStats {
                    per_stream: vec![StreamStats::default()],
                    ..GpuStats::default()
                },
                l11_scratch: Vec::new(),
                faults: FaultState::default(),
            }),
        }
    }

    /// [`Gpu::new`] with a fault-injection plan installed (operation
    /// ordinals start at zero on the fresh device).
    pub fn with_faults(model: GpuModel, plan: FaultPlan) -> Self {
        let gpu = Gpu::new(model);
        gpu.set_faults(Some(plan));
        gpu
    }

    /// Installs (or clears) the fault-injection plan. The per-kind
    /// operation ordinals are reset so the plan's indices count from the
    /// next operation.
    pub fn set_faults(&self, plan: Option<FaultPlan>) {
        let mut st = self.state.lock();
        st.faults = FaultState {
            plan: plan.filter(|p| !p.is_empty()),
            ..FaultState::default()
        };
    }

    /// The model this device simulates.
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// The default stream.
    pub fn default_stream(&self) -> StreamId {
        StreamId(0)
    }

    /// Creates an additional stream.
    pub fn create_stream(&self) -> StreamId {
        let mut st = self.state.lock();
        let now = st.host_clock;
        st.streams.push(now);
        st.stats.per_stream.push(StreamStats::default());
        StreamId(st.streams.len() - 1)
    }

    /// When `true`, every enqueue synchronizes the host with the stream —
    /// the "no overlap" ablation mode.
    pub fn set_blocking(&self, blocking: bool) {
        self.state.lock().blocking = blocking;
    }

    /// Declares what `stream` is used for; reported per stream in
    /// [`GpuStats`] so utilization can be split by role.
    pub fn set_stream_role(&self, stream: StreamId, role: crate::stats::StreamRole) {
        self.state.lock().stats.per_stream[stream.0].role = role;
    }

    /// Rewinds the device to the start of a new factorization session
    /// while keeping its memory contents: clocks return to zero and the
    /// activity counters reset, but buffers (and their data), allocation
    /// bookkeeping (`used_bytes`, with `peak_bytes` restarting from it)
    /// and stream roles survive. This is what makes warm refactorization
    /// on a resident device meaningful — the next run's stats describe
    /// only its own work.
    pub fn reset_session(&self) {
        let mut st = self.state.lock();
        st.host_clock = 0.0;
        for c in st.streams.iter_mut() {
            *c = 0.0;
        }
        let used = st.stats.used_bytes;
        let alloc_count = st.stats.alloc_count;
        let roles: Vec<_> = st.stats.per_stream.iter().map(|s| s.role).collect();
        st.stats = GpuStats {
            used_bytes: used,
            peak_bytes: used,
            alloc_count,
            per_stream: roles
                .into_iter()
                .map(|role| StreamStats {
                    role,
                    ..StreamStats::default()
                })
                .collect(),
            ..GpuStats::default()
        };
    }

    /// Allocates `len` doubles of device memory.
    pub fn alloc(&self, len: usize) -> Result<Buffer, GpuError> {
        let bytes = (len * 8) as u64;
        let mut st = self.state.lock();
        let ordinal = st.stats.alloc_count;
        st.stats.alloc_count += 1;
        if let Some(err) = st.faults.alloc_fault(ordinal) {
            return Err(err);
        }
        if st.stats.used_bytes + bytes > self.model.memory_capacity {
            return Err(GpuError::OutOfMemory {
                requested_bytes: bytes,
                used_bytes: st.stats.used_bytes,
                capacity_bytes: self.model.memory_capacity,
            });
        }
        st.stats.used_bytes += bytes;
        st.stats.peak_bytes = st.stats.peak_bytes.max(st.stats.used_bytes);
        // Reuse a free slot if possible.
        let id = match st.buffers.iter().position(|b| b.is_none()) {
            Some(i) => {
                st.buffers[i] = Some(vec![0.0; len]);
                i
            }
            None => {
                st.buffers.push(Some(vec![0.0; len]));
                st.buffers.len() - 1
            }
        };
        Ok(Buffer { id, len })
    }

    /// Frees a buffer. Double-frees return `InvalidBuffer`.
    pub fn free(&self, buf: Buffer) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        match st.buffers.get_mut(buf.id) {
            Some(slot @ Some(_)) => {
                *slot = None;
                st.stats.used_bytes -= (buf.len * 8) as u64;
                Ok(())
            }
            _ => Err(GpuError::InvalidBuffer { id: buf.id }),
        }
    }

    /// Registers `seconds` of host-side compute on the host timeline.
    pub fn host_compute(&self, seconds: f64) {
        let mut st = self.state.lock();
        st.host_clock += seconds;
        st.stats.host_seconds += seconds;
    }

    /// Blocks the host until `stream` has drained.
    pub fn sync_stream(&self, stream: StreamId) {
        let mut st = self.state.lock();
        st.host_clock = st.host_clock.max(st.streams[stream.0]);
    }

    /// Blocks the host until all streams have drained.
    pub fn synchronize(&self) {
        let mut st = self.state.lock();
        let m = st.streams.iter().fold(st.host_clock, |acc, &c| acc.max(c));
        st.host_clock = m;
    }

    /// Records an event capturing `stream`'s current completion time.
    pub fn record_event(&self, stream: StreamId) -> Event {
        Event(self.state.lock().streams[stream.0])
    }

    /// Makes `stream` wait for `event`.
    pub fn stream_wait_event(&self, stream: StreamId, event: Event) {
        let mut st = self.state.lock();
        st.streams[stream.0] = st.streams[stream.0].max(event.0);
    }

    /// Blocks the host until `event` has completed.
    pub fn host_wait_event(&self, event: Event) {
        let mut st = self.state.lock();
        st.host_clock = st.host_clock.max(event.0);
    }

    /// Current simulated time: the furthest point any timeline reached.
    pub fn elapsed(&self) -> f64 {
        let st = self.state.lock();
        st.streams.iter().fold(st.host_clock, |acc, &c| acc.max(c))
    }

    /// Host timeline position (excludes unfinished asynchronous work).
    pub fn host_now(&self) -> f64 {
        self.state.lock().host_clock
    }

    /// Resets all clocks to zero (buffers and stats are kept).
    pub fn reset_clocks(&self) {
        let mut st = self.state.lock();
        st.host_clock = 0.0;
        for c in st.streams.iter_mut() {
            *c = 0.0;
        }
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> GpuStats {
        self.state.lock().stats.clone()
    }

    fn check_range(st: &State, buf: Buffer, offset: usize, len: usize) -> Result<(), GpuError> {
        match st.buffers.get(buf.id) {
            Some(Some(v)) => {
                if offset + len > v.len() {
                    Err(GpuError::OutOfBounds {
                        id: buf.id,
                        offset,
                        len,
                        buffer_len: v.len(),
                    })
                } else {
                    Ok(())
                }
            }
            _ => Err(GpuError::InvalidBuffer { id: buf.id }),
        }
    }

    /// Advances `stream` by `dur`, starting no earlier than the host clock
    /// (the host must have issued the work).
    fn advance(st: &mut State, stream: StreamId, dur: f64) {
        let start = st.streams[stream.0].max(st.host_clock);
        st.streams[stream.0] = start + dur;
        if st.blocking {
            st.host_clock = st.streams[stream.0];
        }
    }

    /// Asynchronous host→device copy.
    pub fn memcpy_h2d(
        &self,
        stream: StreamId,
        buf: Buffer,
        offset: usize,
        src: &[f64],
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        Self::check_range(&st, buf, offset, src.len())?;
        if let Some(err) = st.faults.next_transfer() {
            return Err(err);
        }
        let bytes = src.len() * 8;
        st.buffers[buf.id].as_mut().unwrap()[offset..offset + src.len()].copy_from_slice(src);
        let dur = self.model.transfer_time(bytes) + st.faults.next_stall();
        st.stats.h2d_count += 1;
        st.stats.h2d_bytes += bytes as u64;
        st.stats.transfer_seconds += dur;
        st.stats.per_stream[stream.0].transfer_count += 1;
        st.stats.per_stream[stream.0].transfer_seconds += dur;
        Self::advance(&mut st, stream, dur);
        Ok(())
    }

    /// Asynchronous device→host copy.
    ///
    /// Data lands in `dst` immediately (host execution is eager); the
    /// *simulated* completion is the stream cursor — callers must
    /// [`sync_stream`](Self::sync_stream) (or wait on an event) before the
    /// simulated host may observe it, exactly as with a real `cudaMemcpyAsync`.
    pub fn memcpy_d2h(
        &self,
        stream: StreamId,
        buf: Buffer,
        offset: usize,
        dst: &mut [f64],
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        Self::check_range(&st, buf, offset, dst.len())?;
        if let Some(err) = st.faults.next_transfer() {
            return Err(err);
        }
        let bytes = dst.len() * 8;
        dst.copy_from_slice(&st.buffers[buf.id].as_ref().unwrap()[offset..offset + dst.len()]);
        let dur = self.model.transfer_time(bytes) + st.faults.next_stall();
        st.stats.d2h_count += 1;
        st.stats.d2h_bytes += bytes as u64;
        st.stats.transfer_seconds += dur;
        st.stats.per_stream[stream.0].transfer_count += 1;
        st.stats.per_stream[stream.0].transfer_seconds += dur;
        Self::advance(&mut st, stream, dur);
        Ok(())
    }

    fn launch(&self, st: &mut State, stream: StreamId, op: TraceOp) {
        let dur = self.model.kernel_time(&op) + st.faults.next_stall();
        st.stats.kernel_launches += 1;
        st.stats.kernel_seconds += dur;
        st.stats.per_stream[stream.0].kernel_launches += 1;
        st.stats.per_stream[stream.0].kernel_seconds += dur;
        Self::advance(st, stream, dur);
    }

    /// `DPOTRF` on the `n x n` block at `offset` (leading dimension `ld`).
    pub fn potrf(
        &self,
        stream: StreamId,
        buf: Buffer,
        offset: usize,
        n: usize,
        ld: usize,
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        if n > 0 {
            Self::check_range(&st, buf, offset, (n - 1) * ld + n)?;
        }
        if let Some(err) = st.faults.next_kernel() {
            return Err(err);
        }
        let data = st.buffers[buf.id].as_mut().unwrap();
        rlchol_dense::potrf(n, &mut data[offset..], ld)
            .map_err(|e| GpuError::Numerical { pivot: e.pivot })?;
        self.launch(&mut st, stream, TraceOp::Potrf { n });
        Ok(())
    }

    /// `DTRSM` for a supernode panel stored in one buffer: the `c x c`
    /// lower triangle at `offset` is the (already factored) diagonal
    /// block; the `m` rows directly below it are solved in place
    /// (`B := B · L^{-T}`).
    pub fn trsm_panel(
        &self,
        stream: StreamId,
        buf: Buffer,
        offset: usize,
        ld: usize,
        c: usize,
        m: usize,
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        if c > 0 && m > 0 {
            Self::check_range(&st, buf, offset, (c - 1) * ld + c + m)?;
        }
        if let Some(err) = st.faults.next_kernel() {
            return Err(err);
        }
        // The diagonal block and the panel interleave by columns; copy the
        // triangle out (exactly what the blocked host POTRF does) into the
        // device-wide reusable scratch.
        let mut l11 = std::mem::take(&mut st.l11_scratch);
        if l11.len() < c * c {
            l11.resize(c * c, 0.0);
        }
        let data = st.buffers[buf.id].as_mut().unwrap();
        for j in 0..c {
            for i in j..c {
                l11[j * c + i] = data[offset + j * ld + i];
            }
        }
        rlchol_dense::trsm_rlt(m, c, &l11[..c * c], c, &mut data[offset + c..], ld);
        st.l11_scratch = l11;
        self.launch(&mut st, stream, TraceOp::Trsm { m, n: c });
        Ok(())
    }

    /// `DSYRK`: `C := alpha · A Aᵀ + beta · C` (lower), where `A` is the
    /// `n x k` block of `a_buf` at `a_off` and `C` the `n x n` block of
    /// `c_buf` at `c_off`. The two buffers must be distinct.
    #[allow(clippy::too_many_arguments)]
    pub fn syrk(
        &self,
        stream: StreamId,
        a_buf: Buffer,
        a_off: usize,
        lda: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        c_buf: Buffer,
        c_off: usize,
        ldc: usize,
    ) -> Result<(), GpuError> {
        assert_ne!(a_buf.id, c_buf.id, "SYRK operands must not alias");
        let mut st = self.state.lock();
        if n > 0 {
            if k > 0 {
                Self::check_range(&st, a_buf, a_off, (k - 1) * lda + n)?;
            }
            Self::check_range(&st, c_buf, c_off, (n - 1) * ldc + n)?;
        }
        if let Some(err) = st.faults.next_kernel() {
            return Err(err);
        }
        let mut c_data = st.buffers[c_buf.id]
            .take()
            .ok_or(GpuError::InvalidBuffer { id: c_buf.id })?;
        {
            let a_data = st.buffers[a_buf.id].as_ref().unwrap();
            rlchol_dense::syrk_ln(
                n,
                k,
                alpha,
                &a_data[a_off..],
                lda,
                beta,
                &mut c_data[c_off..],
                ldc,
            );
        }
        st.buffers[c_buf.id] = Some(c_data);
        self.launch(&mut st, stream, TraceOp::Syrk { n, k });
        Ok(())
    }

    /// `DGEMM` (`C := alpha · A Bᵀ + beta · C`): `A` is `m x k` at
    /// `a_off` of `a_buf`, `B` is `n x k` at `b_off` of `b_buf` (the two
    /// may alias — RLB multiplies two row blocks of the same supernode),
    /// `C` is `m x n` in a distinct buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_nt(
        &self,
        stream: StreamId,
        a_buf: Buffer,
        a_off: usize,
        lda: usize,
        b_buf: Buffer,
        b_off: usize,
        ldb: usize,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
        c_buf: Buffer,
        c_off: usize,
        ldc: usize,
    ) -> Result<(), GpuError> {
        assert_ne!(a_buf.id, c_buf.id, "GEMM output must not alias A");
        assert_ne!(b_buf.id, c_buf.id, "GEMM output must not alias B");
        let mut st = self.state.lock();
        if m > 0 && n > 0 && k > 0 {
            Self::check_range(&st, a_buf, a_off, (k - 1) * lda + m)?;
            Self::check_range(&st, b_buf, b_off, (k - 1) * ldb + n)?;
            Self::check_range(&st, c_buf, c_off, (n - 1) * ldc + m)?;
        }
        if let Some(err) = st.faults.next_kernel() {
            return Err(err);
        }
        let mut c_data = st.buffers[c_buf.id]
            .take()
            .ok_or(GpuError::InvalidBuffer { id: c_buf.id })?;
        {
            let a_data = st.buffers[a_buf.id].as_ref().unwrap();
            let b_data = st.buffers[b_buf.id].as_ref().unwrap();
            rlchol_dense::gemm_nt(
                m,
                n,
                k,
                alpha,
                &a_data[a_off..],
                lda,
                &b_data[b_off..],
                ldb,
                beta,
                &mut c_data[c_off..],
                ldc,
            );
        }
        st.buffers[c_buf.id] = Some(c_data);
        self.launch(&mut st, stream, TraceOp::Gemm { m, n, k });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_dense::DMat;
    use rlchol_perfmodel::perlmutter_gpu;

    fn small_gpu(capacity_bytes: u64) -> Gpu {
        let mut model = perlmutter_gpu();
        model.memory_capacity = capacity_bytes;
        Gpu::new(model)
    }

    #[test]
    fn alloc_tracks_capacity_and_oom() {
        let gpu = small_gpu(1024); // 128 doubles
        let b1 = gpu.alloc(100).unwrap();
        assert!(matches!(gpu.alloc(50), Err(GpuError::OutOfMemory { .. })));
        gpu.free(b1).unwrap();
        let b2 = gpu.alloc(120).unwrap();
        assert_eq!(gpu.stats().peak_bytes, 120 * 8);
        assert!(gpu.free(b2).is_ok());
        assert!(gpu.free(b2).is_err()); // double free
    }

    #[test]
    fn device_factorization_matches_host() {
        // Factor a 12x3 supernode panel (3 cols, 9 rows below) on device
        // and compare against the host kernels.
        let (c, len) = (3usize, 12usize);
        let mut host = DMat::from_fn(len, c, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                ((i * 7 + j * 3) % 5) as f64 * 0.1
            }
        });
        let gpu = small_gpu(1 << 20);
        let s = gpu.default_stream();
        let buf = gpu.alloc(len * c).unwrap();
        gpu.memcpy_h2d(s, buf, 0, host.as_slice()).unwrap();
        gpu.potrf(s, buf, 0, c, len).unwrap();
        gpu.trsm_panel(s, buf, 0, len, c, len - c).unwrap();
        let mut back = vec![0.0; len * c];
        gpu.memcpy_d2h(s, buf, 0, &mut back).unwrap();
        gpu.sync_stream(s);
        // Host reference.
        rlchol_dense::potrf(c, host.as_mut_slice(), len).unwrap();
        let mut l11 = vec![0.0; c * c];
        for j in 0..c {
            for i in j..c {
                l11[j * c + i] = host[(i, j)];
            }
        }
        {
            let hs = host.as_mut_slice();
            rlchol_dense::trsm_rlt(len - c, c, &l11, c, &mut hs[c..], len);
        }
        for (x, y) in back.iter().zip(host.as_slice()) {
            assert!((x - y).abs() < 1e-13);
        }
        assert_eq!(gpu.stats().kernel_launches, 2);
    }

    #[test]
    fn syrk_and_gemm_numerics() {
        let gpu = small_gpu(1 << 20);
        let s = gpu.default_stream();
        let (n, k) = (5usize, 3usize);
        let a: Vec<f64> = (0..n * k).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let abuf = gpu.alloc(n * k).unwrap();
        let cbuf = gpu.alloc(n * n).unwrap();
        gpu.memcpy_h2d(s, abuf, 0, &a).unwrap();
        gpu.syrk(s, abuf, 0, n, n, k, -1.0, 0.0, cbuf, 0, n)
            .unwrap();
        let mut c_dev = vec![0.0; n * n];
        gpu.memcpy_d2h(s, cbuf, 0, &mut c_dev).unwrap();
        let mut c_ref = vec![0.0; n * n];
        rlchol_dense::syrk_ln(n, k, -1.0, &a, n, 0.0, &mut c_ref, n);
        for j in 0..n {
            for i in j..n {
                assert!((c_dev[j * n + i] - c_ref[j * n + i]).abs() < 1e-14);
            }
        }
        // GEMM with aliased A/B (two views of the same buffer).
        let gbuf = gpu.alloc(4).unwrap();
        gpu.gemm_nt(s, abuf, 0, n, abuf, 2, n, 2, 2, k, 1.0, 0.0, gbuf, 0, 2)
            .unwrap();
        let mut g_dev = vec![0.0; 4];
        gpu.memcpy_d2h(s, gbuf, 0, &mut g_dev).unwrap();
        let mut g_ref = vec![0.0; 4];
        rlchol_dense::gemm_nt(2, 2, k, 1.0, &a, n, &a[2..], n, 0.0, &mut g_ref, 2);
        assert_eq!(g_dev, g_ref);
    }

    #[test]
    fn async_d2h_overlaps_host_compute() {
        let gpu = small_gpu(1 << 24);
        let s = gpu.default_stream();
        let buf = gpu.alloc(1 << 18).unwrap(); // 2 MiB transfer
        let src = vec![1.0; 1 << 18];
        gpu.memcpy_h2d(s, buf, 0, &src).unwrap();
        gpu.sync_stream(s);
        let t0 = gpu.elapsed();
        let mut dst = vec![0.0; 1 << 18];
        gpu.memcpy_d2h(s, buf, 0, &mut dst).unwrap();
        let transfer = gpu.model().transfer_time(8 << 18);
        // Overlapped host work shorter than the transfer.
        gpu.host_compute(transfer * 0.5);
        gpu.sync_stream(s);
        let total = gpu.elapsed() - t0;
        assert!((total - transfer).abs() < 1e-12, "overlap not modeled");

        // Blocking mode serializes instead.
        gpu.reset_clocks();
        gpu.set_blocking(true);
        gpu.memcpy_d2h(s, buf, 0, &mut dst).unwrap();
        gpu.host_compute(transfer * 0.5);
        gpu.sync_stream(s);
        assert!(gpu.elapsed() >= transfer * 1.5 - 1e-12);
    }

    #[test]
    fn events_order_streams() {
        let gpu = small_gpu(1 << 20);
        let s0 = gpu.default_stream();
        let s1 = gpu.create_stream();
        let buf = gpu.alloc(1000).unwrap();
        let src = vec![0.5; 1000];
        gpu.memcpy_h2d(s0, buf, 0, &src).unwrap();
        let ev = gpu.record_event(s0);
        gpu.stream_wait_event(s1, ev);
        // s1's next op starts no earlier than the copy's completion.
        gpu.potrf(s1, buf, 0, 0, 1).unwrap();
        gpu.synchronize();
        assert!(gpu.elapsed() >= gpu.model().transfer_time(8000));
    }

    #[test]
    fn bounds_and_handles_are_checked() {
        let gpu = small_gpu(1 << 20);
        let s = gpu.default_stream();
        let buf = gpu.alloc(10).unwrap();
        let src = vec![0.0; 11];
        assert!(matches!(
            gpu.memcpy_h2d(s, buf, 0, &src),
            Err(GpuError::OutOfBounds { .. })
        ));
        assert!(gpu.potrf(s, buf, 8, 2, 2).is_err());
        gpu.free(buf).unwrap();
        assert!(matches!(
            gpu.memcpy_h2d(s, buf, 0, &src[..1]),
            Err(GpuError::InvalidBuffer { .. })
        ));
    }

    #[test]
    fn injected_faults_strike_the_planned_ordinals() {
        use crate::faults::{DeviceError, FaultKind, FaultPlan};
        let model = perlmutter_gpu();

        // oom@1: the second allocation fails, the first succeeds.
        let gpu = Gpu::with_faults(model, FaultPlan::new().oom_at(1));
        gpu.alloc(8).unwrap();
        assert!(matches!(
            gpu.alloc(8),
            Err(GpuError::Fault(DeviceError {
                kind: FaultKind::DeviceOom,
                index: 1,
                ..
            }))
        ));
        assert_eq!(gpu.stats().alloc_count, 2);

        // transfer@1: H2D and D2H share the ordinal space; no data moves.
        let gpu = Gpu::with_faults(model, FaultPlan::new().transfer_at(1));
        let s = gpu.default_stream();
        let buf = gpu.alloc(4).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut back = [0.0; 4];
        assert!(matches!(
            gpu.memcpy_d2h(s, buf, 0, &mut back),
            Err(GpuError::Fault(DeviceError {
                kind: FaultKind::TransferFail,
                index: 1,
                ..
            }))
        ));
        assert_eq!(back, [0.0; 4], "failed transfer must not move data");

        // kernel@1: potrf succeeds, the following trsm faults before
        // touching the panel.
        let gpu = Gpu::with_faults(model, FaultPlan::new().kernel_at(1));
        let s = gpu.default_stream();
        let buf = gpu.alloc(6).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[4.0, 1.0, 1.0, 0.0, 9.0, 2.0])
            .unwrap();
        gpu.potrf(s, buf, 0, 2, 3).unwrap();
        let mut snap = [0.0; 6];
        gpu.memcpy_d2h(s, buf, 0, &mut snap).unwrap();
        assert!(matches!(
            gpu.trsm_panel(s, buf, 0, 3, 2, 1),
            Err(GpuError::Fault(DeviceError {
                kind: FaultKind::KernelFault,
                index: 1,
                ..
            }))
        ));
        let mut after = [0.0; 6];
        gpu.memcpy_d2h(s, buf, 0, &mut after).unwrap();
        assert_eq!(snap, after, "faulted kernel must not run numerics");

        // stall@N adds simulated time without failing the op.
        let gpu = Gpu::new(model);
        let s = gpu.default_stream();
        let buf = gpu.alloc(4).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[0.0; 4]).unwrap();
        gpu.synchronize();
        let clean = gpu.elapsed();
        let gpu = Gpu::with_faults(model, FaultPlan::new().stall_at(0, 2.5));
        let s = gpu.default_stream();
        let buf = gpu.alloc(4).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[0.0; 4]).unwrap();
        gpu.synchronize();
        assert!((gpu.elapsed() - clean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn transient_fault_spares_a_rebuilt_device() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan::new().kernel_at(0).transient();
        let model = perlmutter_gpu();
        let gpu = Gpu::with_faults(model, plan.clone());
        let s = gpu.default_stream();
        let buf = gpu.alloc(4).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[4.0, 1.0, 1.0, 3.0]).unwrap();
        assert!(matches!(
            gpu.potrf(s, buf, 0, 2, 2),
            Err(GpuError::Fault(_))
        ));
        // A retry on a fresh device built from the same plan succeeds.
        let gpu = Gpu::with_faults(model, plan);
        let s = gpu.default_stream();
        let buf = gpu.alloc(4).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[4.0, 1.0, 1.0, 3.0]).unwrap();
        gpu.potrf(s, buf, 0, 2, 2).unwrap();
    }

    #[test]
    fn potrf_surfaces_numerical_failures() {
        let gpu = small_gpu(1 << 20);
        let s = gpu.default_stream();
        let buf = gpu.alloc(4).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[0.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(
            gpu.potrf(s, buf, 0, 2, 2),
            Err(GpuError::Numerical { pivot: 0 })
        );
    }
}

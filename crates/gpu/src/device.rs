//! The simulated device: memory, streams, events, transfers and kernels,
//! as a clock over shapes. Buffers are lengths and kernels are prices:
//! no operation moves a value or does arithmetic.

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

/// Handle to a device memory buffer of `f64` elements (a length: the
/// simulated device holds no values).
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
    /// Each live buffer's length; `None` once freed.
    buffers: Vec<Option<usize>>,
    streams: Vec<f64>,
    host_clock: f64,
    blocking: bool,
    stats: GpuStats,
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
    /// while keeping its memory: clocks return to zero and the
    /// activity counters reset, but buffers, allocation
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

    /// Allocates `len` doubles of device memory: capacity and fault plan
    /// are checked, no host memory is taken.
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
                st.buffers[i] = Some(len);
                i
            }
            None => {
                st.buffers.push(Some(len));
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
            Some(&Some(buffer_len)) => {
                if offset + len > buffer_len {
                    Err(GpuError::OutOfBounds {
                        id: buf.id,
                        offset,
                        len,
                        buffer_len,
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

    /// Asynchronous host→device copy of `src`, priced by its length
    /// (no value moves).
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
        let dur = self.model.transfer_time(bytes) + st.faults.next_stall();
        st.stats.h2d_count += 1;
        st.stats.h2d_bytes += bytes as u64;
        st.stats.transfer_seconds += dur;
        st.stats.per_stream[stream.0].transfer_count += 1;
        st.stats.per_stream[stream.0].transfer_seconds += dur;
        Self::advance(&mut st, stream, dur);
        Ok(())
    }

    /// Asynchronous device→host copy of `len` doubles, priced by its
    /// length (no value lands anywhere). Its simulated completion is the
    /// stream cursor: callers [`sync_stream`](Self::sync_stream) (or wait
    /// on an event) before the simulated host may use it, exactly as with
    /// a real `cudaMemcpyAsync`.
    pub fn memcpy_d2h(
        &self,
        stream: StreamId,
        buf: Buffer,
        offset: usize,
        len: usize,
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        Self::check_range(&st, buf, offset, len)?;
        if let Some(err) = st.faults.next_transfer() {
            return Err(err);
        }
        let bytes = len * 8;
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
        self.launch(&mut st, stream, TraceOp::Potrf { n });
        Ok(())
    }

    /// `DTRSM` for a supernode panel stored in one buffer: the `c x c`
    /// lower triangle at `offset` is the (already factored) diagonal
    /// block; the `m` rows directly below it are solved in place
    /// (`B := B · L^{-T}`). Like every kernel here it checks its ranges,
    /// takes its fault ordinal and charges the model's time.
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
        self.launch(&mut st, stream, TraceOp::Trsm { m, n: c });
        Ok(())
    }

    /// `DSYRK`: `C := A Aᵀ` (lower), where `A` is the `n x k` block of
    /// `a_buf` at `a_off` and `C` the `n x n` block of `c_buf` at `c_off`.
    /// The two buffers must be distinct.
    pub fn syrk(
        &self,
        stream: StreamId,
        a_buf: Buffer,
        a_off: usize,
        lda: usize,
        n: usize,
        k: usize,
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
        self.launch(&mut st, stream, TraceOp::Syrk { n, k });
        Ok(())
    }

    /// `DGEMM` (`C := A Bᵀ`): `A` is `m x k` at `a_off` of `a_buf`, `B`
    /// is `n x k` at `b_off` of `b_buf` (the two may alias — RLB
    /// multiplies two row blocks of the same supernode), `C` is `m x n`
    /// in a distinct buffer.
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
        self.launch(&mut st, stream, TraceOp::Gemm { m, n, k });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn kernels_and_transfers_charge_shapes_without_host_memory() {
        // 2^33 doubles (64 GiB) under a 1 TiB device: a device that held
        // values could not allocate this, nor factor it in a test's time.
        let gpu = small_gpu(1 << 40);
        let model = *gpu.model();
        let s = gpu.default_stream();
        let (len, n, k) = (1usize << 33, 1usize << 16, 1usize << 15);
        let rss = resident_bytes();
        let a = gpu.alloc(len).unwrap();
        let c = gpu.alloc(n * n).unwrap();
        gpu.memcpy_h2d(s, a, 0, &[0.0; 4]).unwrap();
        gpu.potrf(s, a, 0, n, n).unwrap();
        gpu.syrk(s, a, 0, n, n, k, c, 0, n).unwrap();
        gpu.memcpy_d2h(s, c, 0, n * n).unwrap();
        gpu.synchronize();
        if let (Some(before), Some(after)) = (rss, resident_bytes()) {
            assert!(
                after < before + (256 << 20),
                "{before} -> {after} resident bytes"
            );
        }
        let (h2d, d2h) = (model.transfer_time(32), model.transfer_time(8 * n * n));
        let (potrf, syrk) = (
            model.kernel_time(&TraceOp::Potrf { n }),
            model.kernel_time(&TraceOp::Syrk { n, k }),
        );
        let st = gpu.stats();
        assert_eq!(st.kernel_launches, 2);
        assert_eq!(st.kernel_seconds.to_bits(), (potrf + syrk).to_bits());
        assert_eq!((st.h2d_count, st.h2d_bytes), (1, 32));
        assert_eq!((st.d2h_count, st.d2h_bytes), (1, 8 * (n * n) as u64));
        assert_eq!(st.transfer_seconds.to_bits(), (h2d + d2h).to_bits());
        assert_eq!(st.peak_bytes, 8 * (len + n * n) as u64);
        // One stream: the four operations back to back, in issue order.
        assert_eq!(
            gpu.elapsed().to_bits(),
            (h2d + potrf + syrk + d2h).to_bits()
        );
    }

    /// This process's resident set in bytes, where `/proc` reports it.
    fn resident_bytes() -> Option<u64> {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        Some(pages * 4096)
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
        gpu.memcpy_d2h(s, buf, 0, 1 << 18).unwrap();
        let transfer = gpu.model().transfer_time(8 << 18);
        // Overlapped host work shorter than the transfer.
        gpu.host_compute(transfer * 0.5);
        gpu.sync_stream(s);
        let total = gpu.elapsed() - t0;
        assert!((total - transfer).abs() < 1e-12, "overlap not modeled");

        // Blocking mode serializes instead.
        gpu.reset_clocks();
        gpu.set_blocking(true);
        gpu.memcpy_d2h(s, buf, 0, 1 << 18).unwrap();
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

        // transfer@1: H2D and D2H share the ordinal space; a failed
        // transfer charges nothing.
        let gpu = Gpu::with_faults(model, FaultPlan::new().transfer_at(1));
        let s = gpu.default_stream();
        let buf = gpu.alloc(4).unwrap();
        gpu.memcpy_h2d(s, buf, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(matches!(
            gpu.memcpy_d2h(s, buf, 0, 4),
            Err(GpuError::Fault(DeviceError {
                kind: FaultKind::TransferFail,
                index: 1,
                ..
            }))
        ));
        assert_eq!(gpu.stats().d2h_count, 0, "a failed transfer is not charged");

        // kernel@1: potrf succeeds, the following trsm faults before it
        // is charged.
        let gpu = Gpu::with_faults(model, FaultPlan::new().kernel_at(1));
        let s = gpu.default_stream();
        let buf = gpu.alloc(6).unwrap();
        gpu.potrf(s, buf, 0, 2, 3).unwrap();
        assert!(matches!(
            gpu.trsm_panel(s, buf, 0, 3, 2, 1),
            Err(GpuError::Fault(DeviceError {
                kind: FaultKind::KernelFault,
                index: 1,
                ..
            }))
        ));
        assert_eq!(
            gpu.stats().kernel_launches,
            1,
            "a faulted kernel is not charged"
        );

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
}

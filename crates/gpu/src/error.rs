//! Errors of the simulated GPU runtime.

use std::fmt;

use crate::faults::DeviceError;

/// Failures surfaced by the device API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// An allocation would exceed the device memory capacity. This is the
    /// failure mode of Table I's `nlpkkt120` row: RL's full update matrix
    /// does not fit.
    OutOfMemory {
        requested_bytes: u64,
        used_bytes: u64,
        capacity_bytes: u64,
    },
    /// A buffer handle is stale (already freed) or out of range.
    InvalidBuffer { id: usize },
    /// An access would run past the end of a buffer.
    OutOfBounds {
        id: usize,
        offset: usize,
        len: usize,
        buffer_len: usize,
    },
    /// An injected fault from the device's [`FaultPlan`](crate::FaultPlan)
    /// struck this operation (fault-injection testing).
    Fault(DeviceError),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested_bytes,
                used_bytes,
                capacity_bytes,
            } => write!(
                f,
                "device out of memory: requested {requested_bytes} B with {used_bytes} B in use of {capacity_bytes} B"
            ),
            GpuError::InvalidBuffer { id } => write!(f, "invalid device buffer handle {id}"),
            GpuError::OutOfBounds {
                id,
                offset,
                len,
                buffer_len,
            } => write!(
                f,
                "device access out of bounds: buffer {id} ({buffer_len} elems), offset {offset}, len {len}"
            ),
            GpuError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GpuError {}

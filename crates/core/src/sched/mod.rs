//! Elimination-tree scheduling: an engine-agnostic update sequencer plus
//! the CPU executor and the pipelined device simulation built on it.
//!
//! Two supernodes in disjoint subtrees of the supernodal elimination
//! tree touch disjoint storage and can be processed concurrently (the
//! fan-both task model of Jacquelin et al.). What "processed" means is up
//! to the executor; the dependency machinery is not:
//!
//! * [`driver`] — the [`Sequencer`]: each target's updaters in ascending
//!   source order with a cursor at the next, derived from the symbolic
//!   row structure. Applying updates only at the cursor keeps every
//!   factor bit-identical to the serial sweep. It knows nothing about
//!   threads, locks, or devices.
//! * [`cpu`] — the CPU tree executor every method's factor is computed
//!   on: *factor s* and *apply s → t* units on `SolverOptions::threads`
//!   lanes, the factor the one-lane sweep's at any lane count; kernels
//!   split across the persistent [`rlchol_dense::pool`].
//! * [`gpu`] — the **pipelined multi-stream GPU simulation**, a clock
//!   over shapes: ready supernodes are dispatched onto `RLCHOL_STREAMS`
//!   simulated compute/copy stream pairs (least-loaded assignment,
//!   `Event`-gated buffer reuse) and retire in order or out of order
//!   (`RLCHOL_RETIRE`); on staged handles the device session stays
//!   resident across same-pattern refactorizations. Its factor is the
//!   single-stream methods', computed on [`cpu`].

pub mod cpu;
pub mod driver;
pub mod gpu;

pub use driver::Sequencer;

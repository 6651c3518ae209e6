//! Elimination-tree scheduling: an engine-agnostic frontier driver plus
//! the executors built on it.
//!
//! Two supernodes in disjoint subtrees of the supernodal elimination
//! tree touch disjoint storage and can be processed concurrently (the
//! fan-out / right-looking task model — cf. the asynchronous fan-both
//! solver of Jacquelin et al.). What "processed" means is up to the
//! executor; the dependency machinery is not:
//!
//! * [`driver`] — the **frontier driver**: per-supernode dependency
//!   counts derived from the symbolic block/row structure (supernode `p`
//!   may start once every descendant that updates it has applied its
//!   updates), leaf seeding, and fan-out release. It knows nothing about
//!   threads, locks, or devices — executors layer their own queueing and
//!   synchronization over it.
//! * [`cpu`] — the task-parallel CPU executor: a fixed team of scheduler
//!   workers over the persistent [`rlchol_dense::pool`], per-target
//!   locks, composable node-level BLAS striping, and clean error/panic
//!   propagation out of the team.
//! * [`gpu`] — the **pipelined multi-stream GPU executor**: independent
//!   ready supernodes are dispatched onto `RLCHOL_STREAMS` simulated
//!   compute/copy stream pairs (per-pair device buffers, `Event`-gated
//!   buffer reuse, least-loaded assignment), while
//!   supernodes retire — host assembly, CPU-path work, frontier
//!   release — under one of two disciplines selected by
//!   `RLCHOL_RETIRE`: **in-order** (ascending supernode order, the
//!   conservative default) or **out-of-order** (a supernode's host
//!   effects apply as soon as its device→host copy lands, with
//!   per-target sequence counters forcing each destination's updates
//!   into ascending-source order and an adaptive lookahead window
//!   pacing issue against retirement — the asynchronous fan-both
//!   discipline). Both keep the factor bit-identical to the
//!   single-stream engines at any stream count; out-of-order stops the
//!   host timeline from serializing on the oldest in-flight supernode.
//!   On staged handles the executor also keeps its device session
//!   resident across same-pattern refactorizations (buffers and
//!   uploaded pattern metadata survive between calls).

pub mod cpu;
pub mod driver;
pub mod gpu;

pub use driver::Frontier;

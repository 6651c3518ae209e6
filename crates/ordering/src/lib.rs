//! # rlchol-ordering — fill-reducing orderings
//!
//! The paper orders matrices with METIS nested dissection before symbolic
//! analysis (§IV-A). This crate provides the from-scratch substitute:
//!
//! * [`nested_dissection`] — recursive bisection with BFS level-set
//!   separators grown from pseudo-peripheral vertices, separator cleanup
//!   passes, and minimum-degree leaf ordering; [`nested_dissection_par`]
//!   orders the halves of the top split on the shared pool, with the
//!   same result;
//! * [`min_degree`] — exact external-degree minimum degree, on `u128`
//!   bitsets up to 128 vertices and on a quotient graph above (element
//!   absorption keeps lists compact), with identical output;
//! * [`rcm`] — reverse Cuthill–McKee, a bandwidth-oriented baseline;
//! * [`order`] / [`order_graph`] / [`order_graph_par`] — dispatchers
//!   over [`OrderingMethod`].
//!
//! All functions return a [`Permutation`] in the convention
//! `old_of[new] = old`: position `k` of the returned ordering names the
//! vertex eliminated `k`-th.

mod levels;
pub mod mindeg;
pub mod nd;
pub mod rcm;

pub use mindeg::min_degree;
pub use nd::{nested_dissection, nested_dissection_par};
pub use rcm::{pseudo_peripheral, rcm};

use rlchol_sparse::{Graph, Permutation, SymCsc};

/// Fill-reducing ordering algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMethod {
    /// Keep the input ordering.
    Natural,
    /// Exact minimum degree.
    MinDegree,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Nested dissection (the paper's choice).
    NestedDissection,
}

/// Orders the adjacency graph of `a` with the chosen method.
pub fn order(a: &SymCsc, method: OrderingMethod) -> Permutation {
    let g = a.to_graph();
    order_graph(&g, method)
}

/// Orders an explicit graph with the chosen method.
pub fn order_graph(g: &Graph, method: OrderingMethod) -> Permutation {
    order_graph_par(g, method, 1)
}

/// [`order_graph`] on `threads` lanes of the shared pool: nested
/// dissection forks its top split ([`nested_dissection_par`]); the other
/// methods are serial. The ordering is the same at any lane count.
pub fn order_graph_par(g: &Graph, method: OrderingMethod, threads: usize) -> Permutation {
    match method {
        OrderingMethod::Natural => Permutation::identity(g.n()),
        OrderingMethod::MinDegree => min_degree(g),
        OrderingMethod::Rcm => rcm(g),
        OrderingMethod::NestedDissection => nested_dissection_par(g, threads),
    }
}

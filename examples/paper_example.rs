//! The paper's worked example (Figures 1 and 2): the 15×15 factor, its
//! supernodes, the supernodal elimination tree, supernode J1's update
//! matrix, and the relative indices used for assembly.
//!
//! ```sh
//! cargo run --release --example paper_example
//! ```

use rlchol::sparse::{Permutation, SymCsc, TripletMatrix};
use rlchol::symbolic::colcount::col_counts;
use rlchol::symbolic::etree::EliminationTree;
use rlchol::symbolic::relind::{generalized_from_bottom, relative_indices};
use rlchol::symbolic::supernodes::{
    find_supernodes, paper_fig1_edges, supernodal_etree, supernode_rows,
};
use rlchol::symbolic::NONE;

fn main() {
    // Build the Figure 1 pattern (0-based indices internally; the paper
    // numbers columns 1..15).
    let n = 15;
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, 4.0);
    }
    for (i, j) in paper_fig1_edges() {
        t.push(i, j, -0.5);
    }
    let a = SymCsc::from_lower_triplets(&t).unwrap();

    let etree = EliminationTree::from_matrix(&a);
    let counts = col_counts(&a, &etree);
    let sn = find_supernodes(&etree, &counts, false);
    let rows = supernode_rows(&a.to_graph(), &sn, &Permutation::identity(n));
    let parent = supernodal_etree(&sn, &rows);

    println!("Figure 1 — supernodes of the 15x15 factor (columns are 1-based):\n");
    for s in 0..sn.nsup() {
        let cols: Vec<usize> = (sn.first_col(s)..sn.end_col(s)).map(|c| c + 1).collect();
        let below: Vec<usize> = rows[s].iter().map(|&r| r + 1).collect();
        println!(
            "  J{} = {:?}  rows below: {:?}  (stored as a {}x{} dense array)",
            s + 1,
            cols,
            below,
            sn.ncols(s) + rows[s].len(),
            sn.ncols(s)
        );
    }

    println!("\nSupernodal elimination tree:");
    for s in 0..sn.nsup() {
        if parent[s] == NONE {
            println!("  J{} is the root", s + 1);
        } else {
            println!("  J{} -> J{}", s + 1, parent[s] + 1);
        }
    }

    // Figure 2: the update matrix of J1.
    println!("\nFigure 2 — update matrix of J1 (rows/cols indexed by J1's rows):");
    let j1 = 0;
    let below: Vec<usize> = rows[j1].iter().map(|&r| r + 1).collect();
    println!(
        "  U_J1 is {}x{} over global rows {:?}",
        below.len(),
        below.len(),
        below
    );
    println!("  (entries L[i, J1] . L[j, J1]^T for i >= j in that set)");

    // Relative indices: where J1's rows land inside J3 and J6.
    let j3 = 2;
    let j6 = 5;
    for (name, p) in [("J3", j3), ("J6", j6)] {
        let p_first = sn.first_col(p);
        let p_ncols = sn.ncols(p);
        let p_rows = &rows[p];
        let sub: Vec<usize> = rows[j1]
            .iter()
            .copied()
            .filter(|&r| r >= p_first && (r < sn.end_col(p) || p_rows.binary_search(&r).is_ok()))
            .collect();
        if sub.is_empty() {
            continue;
        }
        let rel = relative_indices(&sub, p_first, p_ncols, p_rows);
        let list_len = p_ncols + p_rows.len();
        println!(
            "\n  relind(J1, {name}): global rows {:?} -> positions {:?} in {name}'s index list",
            sub.iter().map(|&r| r + 1).collect::<Vec<_>>(),
            rel
        );
        println!(
            "    bottom-based (the paper's generalized convention): {:?}",
            generalized_from_bottom(&rel, list_len)
        );
    }
    println!(
        "\nThe paper reports relind(J3,J6) = [2,1,0] (bottom-based) and a single\n\
         index relind(J1,J6) = [1] for J1's lone row in J6 — matching the output\n\
         above. See rlchol-symbolic's relind module docs for the convention map."
    );
}

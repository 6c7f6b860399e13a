//! Transportation-problem solver (Eqs. 7–11 of the paper).
//!
//! A from-scratch transportation simplex (Rubner et al., IJCV 2000):
//!
//! 1. zero supplies/demands are filtered out;
//! 2. the unbalanced problem is balanced with a zero-cost slack node on
//!    the deficit side (the textbook reduction — slack flow is "not
//!    transported" mass, which Eq. 11 permits);
//! 3. an initial basic feasible solution comes from the northwest-corner
//!    rule (which yields exactly `m + n - 1` basic cells including
//!    degenerate zero-flow ones);
//! 4. MODI (u-v) optimality testing with stepping-stone pivots improves
//!    it to optimality. Entering variables are chosen by most-negative
//!    reduced cost, switching to Bland's smallest-index rule after a
//!    grace period so cycling under degeneracy is impossible.
//!
//! The basis (a spanning tree over `m` row and `n` column nodes) stays
//! a tree rooted at row 0 for the whole solve: parent, parent edge,
//! depth, MODI potentials and a flat adjacency. Per pivot, **pricing**
//! is one branch-free sweep of 8-lane row minima of `c − u_i − v_j`
//! (basic cells hold `+∞`); the entering cell is the first, row-major,
//! equal to the least minimum below `−tol` (or, under Bland's rule, the
//! first improving cell of the first row with one) — the cell a
//! row-major strict-`<` scan picks. **The cycle** walks `ej` and `ei` up
//! to their lowest common ancestor. **The re-hang** moves only the
//! subtree the leaving edge cuts off under the entering edge and
//! recomputes its potentials top-down (`v_j = c_ij − u_i`,
//! `u_i = c_ij − v_j`). No bit moves: a potential is a root-first sum
//! along the node's unique root path, and only re-hung nodes change that
//! path; the tree path is unique, so cycle, θ, leaving cell and basis
//! slot order, hence every pivot, are those of any other path search.
//!
//! There is exactly one solver body, and it runs entirely out of a
//! [`TransportScratch`]: the allocating [`solve_transportation`] is a
//! thin wrapper that hands it a fresh scratch, while hot-path callers
//! keep one scratch alive and call [`solve_transportation_with`] (or the
//! cost-only `emd` entry points in the crate root), which touches no
//! heap in steady state.

use crate::error::EmdError;

/// An optimal transportation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportPlan {
    flows: Vec<(usize, usize, f64)>,
    total_cost: f64,
    total_flow: f64,
}

impl TransportPlan {
    /// Non-zero flows `(supply index, demand index, amount)` between real
    /// (non-slack) nodes, in unspecified order.
    pub fn flows(&self) -> &[(usize, usize, f64)] {
        &self.flows
    }

    /// Total transported mass (equals `min(Σ supplies, Σ demands)`).
    pub fn total_flow(&self) -> f64 {
        self.total_flow
    }

    /// Total transport cost `Σ f_kl d_kl`.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }
}

/// Internal basic cell of the simplex tableau.
#[derive(Debug, Clone, Copy)]
struct BasicCell {
    i: usize,
    j: usize,
    flow: f64,
    /// The cell's cost (the tableau holds `+∞` there while it is basic).
    cost: f64,
}

/// Every buffer the transportation simplex touches, reusable across
/// solves: the filtered row/column index maps, the balanced tableau
/// (costs and marginals), the basic-cell set, the basis tree, and the
/// stepping-stone path — plus the event list of the closed-form line
/// solve that stands in for it on balanced 1-D pairs
/// ([`crate::emd_line_with`]). One scratch serves problems of any shape —
/// buffers are resized (never shrunk) per solve, so after the largest
/// problem has been seen once, further solves allocate nothing.
///
/// Results are bit-identical to the allocating entry points regardless
/// of what a previous solve left behind: every cell of every buffer that
/// a solve reads is overwritten first.
#[derive(Debug, Clone, Default)]
pub struct TransportScratch {
    /// Original indices of the retained (positive-supply) rows.
    rows: Vec<usize>,
    /// Original indices of the retained (positive-demand) columns.
    cols: Vec<usize>,
    /// Balanced cost matrix, row-major `m x n` (slack cells cost zero);
    /// basic cells hold `+∞`, so pricing needs no basis mask.
    c: Vec<f64>,
    /// Balanced supplies (consumed by the northwest-corner rule).
    a: Vec<f64>,
    /// Balanced demands (consumed by the northwest-corner rule).
    b: Vec<f64>,
    /// Basic cells of the current tableau (`m + n - 1` of them).
    basis: Vec<BasicCell>,
    /// The basis as a rooted tree, with the MODI potentials.
    tree: BasisTree,
    /// The stepping-stone cycle (basis-cell indices).
    path: Vec<usize>,
    /// Ground-distance cost matrix for the crate-root `emd_with` entry
    /// points (kept here so one scratch covers the whole EMD solve).
    pub(crate) ground: Vec<f64>,
    /// Signed `(position, weight)` events of the closed-form line solve
    /// ([`crate::emd_line_with`]).
    pub(crate) events: Vec<(f64, f64)>,
    /// Solves completed through this scratch (cumulative; plain `u64`,
    /// so counting costs nothing on the hot path — callers who want
    /// rates read [`TransportScratch::stats`] and difference). A
    /// closed-form line solve counts as one solve with no pivots.
    pub(crate) solves: u64,
    /// Simplex pivots applied across those solves (cumulative).
    pivots: u64,
}

impl TransportScratch {
    /// Empty scratch; buffers grow to each problem's shape on first use.
    pub fn new() -> Self {
        TransportScratch::default()
    }

    /// Cumulative solve counters. These only ever grow (cloning a
    /// scratch clones its history); consumers that want per-interval
    /// rates snapshot and difference.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            solves: self.solves,
            pivots: self.pivots,
        }
    }
}

/// Cumulative counters of the work a [`TransportScratch`] has carried:
/// how many transportation problems reached optimality and how many
/// stepping-stone pivots they took in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Solves that reached optimality.
    pub solves: u64,
    /// Pivots applied across all solves.
    pub pivots: u64,
}

/// Shape of a solved (balanced) tableau, for plan extraction.
struct Dims {
    /// Leading rows that map to real supplies (the rest is slack).
    real_rows: usize,
    /// Leading columns that map to real demands (the rest is slack).
    real_cols: usize,
}

/// Solve the (possibly unbalanced) transportation problem.
///
/// `costs` is row-major `supplies.len() x demands.len()`. Supplies and
/// demands must be non-negative and finite; costs must be finite.
///
/// Equivalent to [`solve_transportation_with`] with a fresh
/// [`TransportScratch`].
///
/// # Errors
/// [`EmdError::NonFiniteInput`] for NaN/infinite input,
/// [`EmdError::ZeroMass`] if either side has zero total mass, and
/// [`EmdError::DidNotConverge`] if the iteration cap is hit.
pub fn solve_transportation(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
) -> Result<TransportPlan, EmdError> {
    solve_transportation_with(costs, supplies, demands, &mut TransportScratch::new())
}

/// As [`solve_transportation`], running out of a caller-kept scratch:
/// in steady state the only allocation is the returned plan's flow list.
/// Bit-identical to [`solve_transportation`], including on a scratch
/// dirtied by previous solves of other shapes.
///
/// # Errors
/// As [`solve_transportation`].
pub fn solve_transportation_with(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
    scratch: &mut TransportScratch,
) -> Result<TransportPlan, EmdError> {
    let dims = solve_core(costs, supplies, demands, scratch, None)?;
    // lint:allow(NO_ALLOC_HOT_PATH, this variant materializes the plan by contract; the zero-alloc path is solve_cost_flow)
    let mut flows = Vec::new();
    let (total_cost, total_flow) = finish(scratch, &dims, |i, j, f| flows.push((i, j, f)));
    Ok(TransportPlan {
        flows,
        total_cost,
        total_flow,
    })
}

/// Optimal `(total cost, total flow)` without materializing the plan —
/// the zero-allocation form behind the crate root's `emd_with`.
///
/// # Errors
/// As [`solve_transportation`].
pub(crate) fn solve_cost_flow(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
    scratch: &mut TransportScratch,
) -> Result<(f64, f64), EmdError> {
    let dims = solve_core(costs, supplies, demands, scratch, None)?;
    Ok(finish(scratch, &dims, |_, _, _| {}))
}

/// The single solver body: filter, balance, northwest-corner start, and
/// MODI/stepping-stone pivots to optimality, leaving the optimal basis
/// (and index maps) in `scratch`.
///
/// `bland_after` overrides the anti-cycling grace period (iterations of
/// most-negative-reduced-cost selection before switching to Bland's
/// rule); `None` is the production default of half the iteration cap.
/// Tests pass `Some(0)` to drive every pivot through the Bland's-rule
/// branch.
fn solve_core(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
    s: &mut TransportScratch,
    bland_after: Option<usize>,
) -> Result<Dims, EmdError> {
    let m0 = supplies.len();
    let n0 = demands.len();
    assert_eq!(
        costs.len(),
        m0 * n0,
        "solve_transportation: cost matrix shape mismatch"
    );
    if supplies
        .iter()
        .chain(demands)
        .any(|x| !x.is_finite() || *x < 0.0)
        || costs.iter().any(|c| !c.is_finite())
    {
        return Err(EmdError::NonFiniteInput);
    }

    // Filter zero-mass rows/columns, remembering original indices.
    s.rows.clear();
    s.rows.extend((0..m0).filter(|&i| supplies[i] > 0.0));
    s.cols.clear();
    s.cols.extend((0..n0).filter(|&j| demands[j] > 0.0));
    if s.rows.is_empty() || s.cols.is_empty() {
        return Err(EmdError::ZeroMass);
    }

    let sa: f64 = s.rows.iter().map(|&i| supplies[i]).sum();
    let sb: f64 = s.cols.iter().map(|&j| demands[j]).sum();
    let diff = sa - sb;
    // Tolerance for treating the problem as balanced.
    let scale = sa.max(sb);
    let balanced = diff.abs() <= 1e-12 * scale;

    // Dimensions of the balanced tableau (possibly one slack row/col).
    let extra_col = !balanced && diff > 0.0;
    let extra_row = !balanced && diff < 0.0;
    let m = s.rows.len() + usize::from(extra_row);
    let n = s.cols.len() + usize::from(extra_col);

    // Balanced cost matrix and marginals. Slack cells cost zero.
    s.c.clear();
    s.c.resize(m * n, 0.0);
    for (ri, &i) in s.rows.iter().enumerate() {
        for (cj, &j) in s.cols.iter().enumerate() {
            s.c[ri * n + cj] = costs[i * n0 + j];
        }
    }
    s.a.clear();
    s.a.extend(s.rows.iter().map(|&i| supplies[i]));
    s.b.clear();
    s.b.extend(s.cols.iter().map(|&j| demands[j]));
    if extra_col {
        s.b.push(diff);
    }
    if extra_row {
        s.a.push(-diff);
    }
    if balanced {
        // Snap the (tiny) imbalance onto the largest demand so row and
        // column sums agree exactly; the last of equal maxima wins.
        let mut jmax = 0;
        for (j, &bj) in s.b.iter().enumerate() {
            if bj >= s.b[jmax] {
                jmax = j;
            }
        }
        s.b[jmax] += diff;
    }

    let max_iters = (200 * (m + n) * (m + n)).max(2000);
    let bland_after = bland_after.unwrap_or(max_iters / 2);
    // Scaled before the northwest-corner rule masks basic cells to +∞.
    let cost_scale = s.c.iter().fold(1.0f64, |acc, &x| acc.max(x.abs()));
    let tol = 1e-10 * cost_scale;

    // The marginals are working copies: the northwest-corner rule
    // consumes them in place (nothing reads them afterwards).
    northwest_corner(&mut s.a, &mut s.b, &mut s.c, &mut s.basis);
    debug_assert_eq!(s.basis.len(), m + n - 1);

    s.tree.plant(&s.basis, m, n);
    s.path.clear();
    s.path.reserve(m + n);

    for iter in 0..max_iters {
        let (u, v) = s.tree.pot.split_at(m);
        let Some((ei, ej)) = price(&s.c, u, v, tol, iter >= bland_after) else {
            s.solves += 1;
            return Ok(Dims {
                real_rows: s.rows.len(),
                real_cols: s.cols.len(),
            });
        };
        s.pivots += 1;

        // Unique cycle: the tree path from col node ej to row node ei,
        // closed by the entering cell. `up` edges lie on ej's side.
        let up = s.tree.cycle_into(ei, ej, &mut s.path);

        // Flow change theta: minimum flow among odd-position (donor)
        // cells of the cycle. Position 0 is the entering cell (+).
        let mut theta = f64::INFINITY;
        let mut leave_pos = usize::MAX;
        for (pos, &cell_idx) in s.path.iter().enumerate() {
            if pos % 2 == 0 {
                // positions 0,2,4.. in `path` are donors (see cycle_into).
                let f = s.basis[cell_idx].flow;
                // Bland-compatible tie-break: smallest tableau index.
                if f < theta - 1e-15
                    || (f < theta + 1e-15
                        && leave_pos != usize::MAX
                        && tableau_index(&s.basis[cell_idx], n)
                            < tableau_index(&s.basis[s.path[leave_pos]], n))
                {
                    theta = f;
                    leave_pos = pos;
                }
            }
        }
        debug_assert!(leave_pos != usize::MAX, "cycle must contain a donor cell");
        let theta = theta.max(0.0);

        // Apply the pivot: donors lose theta, receivers gain theta.
        for (pos, &cell_idx) in s.path.iter().enumerate() {
            if pos % 2 == 0 {
                s.basis[cell_idx].flow -= theta;
            } else {
                s.basis[cell_idx].flow += theta;
            }
        }
        // The entering cell takes the leaving cell's basis slot.
        let slot = s.path[leave_pos];
        let leaving = s.basis[slot];
        s.c[leaving.i * n + leaving.j] = leaving.cost;
        let cost = std::mem::replace(&mut s.c[ei * n + ej], f64::INFINITY);
        s.basis[slot] = BasicCell {
            i: ei,
            j: ej,
            flow: theta,
            cost,
        };
        s.tree.rehang(&s.basis, leaving, slot, leave_pos < up);
    }
    Err(EmdError::DidNotConverge)
}

/// Totals (and optionally flows) of the solved basis over real
/// (non-slack) nodes, mapping back to the caller's original indices.
/// The single extraction body shared by the plan-building and the
/// cost-only entry points.
fn finish(
    s: &TransportScratch,
    dims: &Dims,
    mut on_flow: impl FnMut(usize, usize, f64),
) -> (f64, f64) {
    let mut total_cost = 0.0;
    let mut total_flow = 0.0;
    for cell in &s.basis {
        if cell.flow <= 0.0 || cell.i >= dims.real_rows || cell.j >= dims.real_cols {
            continue;
        }
        total_cost += cell.flow * cell.cost;
        total_flow += cell.flow;
        on_flow(s.rows[cell.i], s.cols[cell.j], cell.flow);
    }
    (total_cost, total_flow)
}

#[inline]
fn tableau_index(cell: &BasicCell, n: usize) -> usize {
    cell.i * n + cell.j
}

/// Northwest-corner initial basic feasible solution: exactly
/// `m + n - 1` basic cells (some possibly zero-flow). Consumes the
/// marginals in place and moves each basic cell's cost out of the
/// row-major `m x n` matrix `c`, leaving `+∞` there.
fn northwest_corner(a: &mut [f64], b: &mut [f64], c: &mut [f64], cells: &mut Vec<BasicCell>) {
    let m = a.len();
    let n = b.len();
    cells.clear();
    cells.reserve(m + n - 1);
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let flow = a[i].min(b[j]).max(0.0);
        let cost = std::mem::replace(&mut c[i * n + j], f64::INFINITY);
        cells.push(BasicCell { i, j, flow, cost });
        a[i] -= flow;
        b[j] -= flow;
        if i + 1 == m && j + 1 == n {
            break;
        }
        // Advance toward the exhausted side; at the borders only one
        // direction remains legal.
        if i + 1 < m && (j + 1 == n || a[i] <= b[j]) {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Lanes of the pricing sweep's running row minima.
const LANES: usize = 8;

/// The entering cell, or `None` at optimality: one sweep over the
/// row-major cost matrix `c` (basic cells `+∞`) keeps 8-lane minima of
/// the reduced costs `c_ij − u_i − v_j` per row. The most-negative rule
/// takes the first cell, row-major, that equals the smallest row minimum
/// below `−tol`; Bland's rule (`bland`) the first cell below `−tol` of
/// the first row whose minimum is.
fn price(c: &[f64], u: &[f64], v: &[f64], tol: f64, bland: bool) -> Option<(usize, usize)> {
    let n = v.len();
    let tail = n - n % LANES;
    let mut best = -tol;
    let mut enter_row = None;
    for (i, (row, &ui)) in c.chunks_exact(n).zip(u).enumerate() {
        let mut lanes = [f64::INFINITY; LANES];
        for (cs, vs) in row.chunks_exact(LANES).zip(v.chunks_exact(LANES)) {
            for k in 0..LANES {
                let r = cs[k] - ui - vs[k];
                lanes[k] = if r < lanes[k] { r } else { lanes[k] };
            }
        }
        for (k, (&cj, &vj)) in row[tail..].iter().zip(&v[tail..]).enumerate() {
            let r = cj - ui - vj;
            lanes[k] = if r < lanes[k] { r } else { lanes[k] };
        }
        let min = lanes
            .iter()
            .fold(f64::INFINITY, |a, &r| if r < a { r } else { a });
        if min < best {
            best = min;
            enter_row = Some(i);
            if bland {
                break;
            }
        }
    }
    let i = enter_row?;
    let ui = u[i];
    let hit = |r: f64| (bland && r < -tol) || (!bland && r <= best);
    let mut row = c[i * n..(i + 1) * n].iter().zip(v);
    row.position(|(&cj, &vj)| hit(cj - ui - vj)).map(|j| (i, j))
}

/// The basis as a spanning tree rooted at row node 0. Node ids `0..m`
/// are rows and `m..m + n` columns; each basic cell is the edge between
/// its row and its column, named by its slot in the basis. Row `i`'s
/// incident slots sit at `adj[i * n..][..deg[i]]` and column `j`'s at
/// `adj[m * n + j * m..][..deg[m + j]]` (a row meets at most `n`
/// columns, a column at most `m` rows), so edits never reallocate.
#[derive(Debug, Clone, Default)]
struct BasisTree {
    m: usize,
    n: usize,
    /// Parent node per node (the root's is unused).
    parent: Vec<usize>,
    /// Basis slot of the edge to the parent (`usize::MAX` at the root).
    parent_edge: Vec<usize>,
    /// Edges between each node and the root.
    depth: Vec<usize>,
    /// MODI potentials: `u` for the rows, then `v` for the columns.
    pot: Vec<f64>,
    /// Flat adjacency (see the type docs).
    adj: Vec<usize>,
    /// Incident edges per node.
    deg: Vec<usize>,
    /// DFS stack of [`BasisTree::hang`].
    stack: Vec<usize>,
    /// Row-side half of the cycle in [`BasisTree::cycle_into`].
    back: Vec<usize>,
}

impl BasisTree {
    /// Build the tree over `basis` (an `m x n` tableau's spanning tree)
    /// and compute every potential with `u_0 = 0`. Buffers are sized to
    /// the shape here, so the pivots that follow never allocate.
    fn plant(&mut self, basis: &[BasicCell], m: usize, n: usize) {
        let nodes = m + n;
        self.m = m;
        self.n = n;
        self.deg.clear();
        self.deg.resize(nodes, 0);
        self.adj.clear();
        self.adj.resize(2 * m * n, 0);
        for (e, cell) in basis.iter().enumerate() {
            self.link(cell.i, e);
            self.link(m + cell.j, e);
        }
        self.parent.clear();
        self.parent.resize(nodes, 0);
        self.parent_edge.clear();
        self.parent_edge.resize(nodes, usize::MAX);
        self.depth.clear();
        self.depth.resize(nodes, 0);
        self.pot.clear();
        self.pot.resize(nodes, 0.0);
        self.stack.clear();
        self.stack.reserve(nodes);
        self.back.clear();
        self.back.reserve(nodes);
        self.hang(basis, 0);
    }

    /// Start of `node`'s adjacency segment.
    fn base(&self, node: usize) -> usize {
        if node < self.m {
            node * self.n
        } else {
            self.m * self.n + (node - self.m) * self.m
        }
    }

    fn link(&mut self, node: usize, e: usize) {
        let at = self.base(node) + self.deg[node];
        self.adj[at] = e;
        self.deg[node] += 1;
    }

    fn unlink(&mut self, node: usize, e: usize) {
        let base = self.base(node);
        let last = base + self.deg[node] - 1;
        let mut at = base;
        while self.adj[at] != e {
            at += 1;
        }
        self.adj[at] = self.adj[last];
        self.deg[node] -= 1;
    }

    /// Set parent, depth and potential of every node below `top`, whose
    /// own are already set, top-down from `top`.
    fn hang(&mut self, basis: &[BasicCell], top: usize) {
        self.stack.clear();
        self.stack.push(top);
        while let Some(node) = self.stack.pop() {
            let base = self.base(node);
            for at in base..base + self.deg[node] {
                let e = self.adj[at];
                if e == self.parent_edge[node] {
                    continue;
                }
                let cell = basis[e];
                // The other end of the edge: the column of a row node,
                // the row of a column node.
                let child = cell.i + self.m + cell.j - node;
                self.parent[child] = node;
                self.parent_edge[child] = e;
                self.depth[child] = self.depth[node] + 1;
                // v_j = c_ij − u_i from a row, u_i = c_ij − v_j from a column.
                self.pot[child] = cell.cost - self.pot[node];
                self.stack.push(child);
            }
        }
    }

    /// Write the tree path from column `ej` to row `ei` into `path`, as
    /// basis slots starting at `ej`'s end, and return how many of them
    /// lie between `ej` and the two ends' lowest common ancestor.
    ///
    /// The first edge is a donor (receives `-theta`): adding `+theta` at
    /// the entering cell `(ei, ej)` over-fills column `ej`, so the basic
    /// edge leaving it must shed flow. Donor/receiver then alternate, so
    /// even positions are donors.
    fn cycle_into(&mut self, ei: usize, ej: usize, path: &mut Vec<usize>) -> usize {
        path.clear();
        self.back.clear();
        let (mut a, mut b) = (self.m + ej, ei);
        while self.depth[a] > self.depth[b] {
            path.push(self.parent_edge[a]);
            a = self.parent[a];
        }
        while self.depth[b] > self.depth[a] {
            self.back.push(self.parent_edge[b]);
            b = self.parent[b];
        }
        while a != b {
            path.push(self.parent_edge[a]);
            a = self.parent[a];
            self.back.push(self.parent_edge[b]);
            b = self.parent[b];
        }
        let up = path.len();
        path.extend(self.back.iter().rev());
        up
    }

    /// Replace edge `slot` (formerly the cell `old`, now the entering
    /// cell `basis[slot]`) and re-hang the subtree the old edge cut off.
    /// That subtree holds the entering column when the old edge lay on
    /// the column's side of the cycle (`col_side`), else the entering
    /// row; it hangs from the other end of the entering edge.
    fn rehang(&mut self, basis: &[BasicCell], old: BasicCell, slot: usize, col_side: bool) {
        let m = self.m;
        let new = basis[slot];
        self.unlink(old.i, slot);
        self.unlink(m + old.j, slot);
        self.link(new.i, slot);
        self.link(m + new.j, slot);
        let (top, anchor) = if col_side {
            (m + new.j, new.i)
        } else {
            (new.i, m + new.j)
        };
        self.parent[top] = anchor;
        self.parent_edge[top] = slot;
        self.depth[top] = self.depth[anchor] + 1;
        self.pot[top] = new.cost - self.pot[anchor];
        self.hang(basis, top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(costs: &[&[f64]], supplies: &[f64], demands: &[f64]) -> TransportPlan {
        let flat: Vec<f64> = costs.iter().flat_map(|r| r.iter().copied()).collect();
        solve_transportation(&flat, supplies, demands).unwrap()
    }

    #[test]
    fn textbook_balanced_3x3() {
        // Hitchcock-style instance with hand-verified optimum 1920
        // (basis s1->d1:70, s1->d3:50, s2->d2:70, s2->d3:10, s3->d1:80;
        // all reduced costs non-negative under u=(0,6,-5), v=(8,4,6)).
        // costs:      d1  d2  d3   supply
        //   s1         8   5   6     120
        //   s2        15  10  12      80
        //   s3         3   9  10      80
        // demand     150  70  60
        let plan = solve(
            &[&[8.0, 5.0, 6.0], &[15.0, 10.0, 12.0], &[3.0, 9.0, 10.0]],
            &[120.0, 80.0, 80.0],
            &[150.0, 70.0, 60.0],
        );
        assert!((plan.total_flow() - 280.0).abs() < 1e-9);
        assert!(
            (plan.total_cost() - 1920.0).abs() < 1e-9,
            "cost {}",
            plan.total_cost()
        );
    }

    #[test]
    fn trivial_1x1() {
        let plan = solve(&[&[7.0]], &[2.0], &[2.0]);
        assert_eq!(plan.flows(), &[(0, 0, 2.0)]);
        assert!((plan.total_cost() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn single_row_distributes_to_all() {
        let plan = solve(&[&[1.0, 2.0, 3.0]], &[6.0], &[1.0, 2.0, 3.0]);
        assert!((plan.total_flow() - 6.0).abs() < 1e-12);
        assert!((plan.total_cost() - (1.0 + 4.0 + 9.0)).abs() < 1e-12);
    }

    #[test]
    fn single_col_collects_from_all() {
        let plan = solve(&[&[4.0], &[2.0]], &[1.0, 1.0], &[2.0]);
        assert!((plan.total_cost() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn unbalanced_excess_supply() {
        // Supply 10 vs demand 4: the cheap supplier should serve it all.
        let plan = solve(&[&[1.0], &[5.0]], &[4.0, 6.0], &[4.0]);
        assert!((plan.total_flow() - 4.0).abs() < 1e-12);
        assert!(
            (plan.total_cost() - 4.0).abs() < 1e-12,
            "cost {}",
            plan.total_cost()
        );
    }

    #[test]
    fn unbalanced_excess_demand() {
        let plan = solve(&[&[1.0, 5.0]], &[4.0], &[4.0, 6.0]);
        assert!((plan.total_flow() - 4.0).abs() < 1e-12);
        assert!((plan.total_cost() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_entries_filtered() {
        let plan = solve(
            &[&[9.0, 1.0], &[1.0, 9.0], &[5.0, 5.0]],
            &[1.0, 0.0, 1.0],
            &[1.0, 1.0],
        );
        // Row 1 has zero supply; optimal assigns row0->col1, row2->col0.
        assert!((plan.total_cost() - 6.0).abs() < 1e-12);
        assert!(plan.flows().iter().all(|&(i, _, _)| i != 1));
    }

    #[test]
    fn degenerate_equal_supplies_demands() {
        // Every supply equals every demand: heavily degenerate pivots.
        let plan = solve(
            &[&[1.0, 2.0, 3.0], &[2.0, 1.0, 2.0], &[3.0, 2.0, 1.0]],
            &[1.0, 1.0, 1.0],
            &[1.0, 1.0, 1.0],
        );
        assert!((plan.total_cost() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn flow_conservation_constraints() {
        let supplies = [3.0, 2.0, 5.0];
        let demands = [4.0, 6.0];
        let costs = [1.0, 4.0, 2.0, 1.0, 3.0, 2.0];
        let plan = solve_transportation(&costs, &supplies, &demands).unwrap();
        let mut row_out = [0.0; 3];
        let mut col_in = [0.0; 2];
        for &(i, j, f) in plan.flows() {
            assert!(f > 0.0);
            row_out[i] += f;
            col_in[j] += f;
        }
        for (out, s) in row_out.iter().zip(&supplies) {
            assert!(*out <= s + 1e-9, "row constraint violated");
        }
        for (inn, d) in col_in.iter().zip(&demands) {
            assert!(*inn <= d + 1e-9, "col constraint violated");
        }
        assert!((plan.total_flow() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_nan_cost() {
        assert_eq!(
            solve_transportation(&[f64::NAN], &[1.0], &[1.0]),
            Err(EmdError::NonFiniteInput)
        );
    }

    #[test]
    fn rejects_negative_supply() {
        assert_eq!(
            solve_transportation(&[1.0], &[-1.0], &[1.0]),
            Err(EmdError::NonFiniteInput)
        );
    }

    #[test]
    fn rejects_all_zero_mass() {
        assert_eq!(
            solve_transportation(&[1.0], &[0.0], &[1.0]),
            Err(EmdError::ZeroMass)
        );
    }

    #[test]
    fn nw_corner_cell_count() {
        let mut a = [1.0, 2.0, 3.0];
        let mut b = [2.0, 2.0, 2.0];
        let mut c = vec![1.0; a.len() * b.len()];
        let mut cells = Vec::new();
        northwest_corner(&mut a, &mut b, &mut c, &mut cells);
        assert_eq!(cells.len(), 5);
        let total: f64 = cells.iter().map(|c| c.flow).sum();
        assert!((total - 6.0).abs() < 1e-12);
    }

    #[test]
    fn nw_corner_degenerate_ties() {
        // Supplies exactly match demands pairwise -> degenerate cells.
        let mut a = [2.0, 2.0];
        let mut b = [2.0, 2.0];
        let mut c = vec![1.0; a.len() * b.len()];
        let mut cells = Vec::new();
        northwest_corner(&mut a, &mut b, &mut c, &mut cells);
        assert_eq!(cells.len(), 3);
        let total: f64 = cells.iter().map(|c| c.flow).sum();
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn larger_random_instance_satisfies_duality() {
        // Optimality certificate: complementary slackness via potentials
        // is internal; instead verify against brute force on a small
        // instance (enumerate vertex solutions indirectly by comparing
        // with a known-good greedy lower bound: cost >= total_flow * min
        // cost and <= NW-corner cost).
        let costs: Vec<f64> = (0..16).map(|k| ((k * 7 + 3) % 11) as f64 + 1.0).collect();
        let supplies = [5.0, 3.0, 8.0, 2.0];
        let demands = [4.0, 6.0, 5.0, 3.0];
        let plan = solve_transportation(&costs, &supplies, &demands).unwrap();
        let min_c = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_c = costs.iter().cloned().fold(0.0, f64::max);
        assert!(plan.total_cost() >= min_c * plan.total_flow() - 1e-9);
        assert!(plan.total_cost() <= max_c * plan.total_flow() + 1e-9);
        assert!((plan.total_flow() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_reuse_matches_fresh_across_shapes() {
        // One dirty scratch driven across problems of different shapes
        // must reproduce the allocating path exactly (bit-identical
        // plans), regardless of what earlier solves left behind.
        let problems: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = vec![
            (
                vec![8.0, 5.0, 6.0, 15.0, 10.0, 12.0, 3.0, 9.0, 10.0],
                vec![120.0, 80.0, 80.0],
                vec![150.0, 70.0, 60.0],
            ),
            (vec![7.0], vec![2.0], vec![2.0]),
            (vec![1.0, 5.0], vec![4.0], vec![4.0, 6.0]),
            (
                (0..16).map(|k| ((k * 7 + 3) % 11) as f64 + 1.0).collect(),
                vec![5.0, 3.0, 8.0, 2.0],
                vec![4.0, 6.0, 5.0, 3.0],
            ),
            (
                vec![9.0, 1.0, 1.0, 9.0, 5.0, 5.0],
                vec![1.0, 0.0, 1.0],
                vec![1.0, 1.0],
            ),
        ];
        let mut scratch = TransportScratch::new();
        for (costs, a, b) in &problems {
            let fresh = solve_transportation(costs, a, b).unwrap();
            let reused = solve_transportation_with(costs, a, b, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn blands_rule_from_first_pivot_converges_to_optimum() {
        // Regression for the anti-cycling fallback: drive every pivot
        // through Bland's smallest-index rule (grace period zero) on
        // heavily degenerate instances — all marginals equal, tie-heavy
        // costs — where most-negative selection has maximal freedom to
        // cycle. Bland's rule must terminate at the same optimum.
        let mut scratch = TransportScratch::new();

        // 4x4 assignment-like instance, optimum 4 (diagonal).
        let n = 4usize;
        let mut costs = vec![2.0; n * n];
        for i in 0..n {
            costs[i * n + i] = 1.0;
        }
        let ones = vec![1.0; n];
        let dims = solve_core(&costs, &ones, &ones, &mut scratch, Some(0)).unwrap();
        let (cost, flow) = finish(&scratch, &dims, |_, _, _| {});
        assert!((flow - 4.0).abs() < 1e-12);
        assert!((cost - 4.0).abs() < 1e-12, "bland cost {cost}");

        // A degenerate instance with many equal reduced costs: every
        // cost equal, so every basis is optimal and every pivot is a
        // zero-theta tie. Bland must stop rather than loop.
        let flat = vec![3.0; 6 * 6];
        let ones6 = vec![1.0; 6];
        let dims = solve_core(&flat, &ones6, &ones6, &mut scratch, Some(0)).unwrap();
        let (cost, flow) = finish(&scratch, &dims, |_, _, _| {});
        assert!((flow - 6.0).abs() < 1e-12);
        assert!((cost - 18.0).abs() < 1e-12);

        // And the default path agrees on the first instance.
        let plan = solve_transportation(&costs, &ones, &ones).unwrap();
        assert!((plan.total_cost() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn blands_rule_bits_are_pinned() {
        // Production never reaches the Bland branch (its grace period
        // is half the iteration cap), so this grid is its bit pin: every
        // plan and total over seeded problems, solved with Bland's rule
        // from the first pivot and from the fourth, folded into one
        // FNV-1a hash with the scratch's final pivot count. Shapes run
        // 1..=32 per side with integer, real, zero and unequal
        // marginals and either continuous or tied (0..3) costs.
        fn word(h: &mut u64, w: u64) {
            for b in w.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut state = 0x0b1a_2d5e_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut scratch = TransportScratch::new();
        for m in 1..=32usize {
            for n in (1..=32usize).filter(|n| (n + 2 * m) % 4 == 0) {
                let mode = next() % 4;
                let tied = next() % 2 == 0;
                let costs: Vec<f64> = (0..m * n)
                    .map(|_| {
                        if tied {
                            (next() % 3) as f64
                        } else {
                            (next() >> 11) as f64 / (1u64 << 53) as f64
                        }
                    })
                    .collect();
                let mut marginal = |k: usize, scale: f64| -> Vec<f64> {
                    let mut w: Vec<f64> = (0..k)
                        .map(|_| match mode {
                            0 => (1 + next() % 5) as f64,
                            1 => 1.0 - (next() >> 11) as f64 / (1u64 << 53) as f64,
                            _ if next() % 3 == 0 => 0.0,
                            _ => (1 + next() % 4) as f64 * 0.25,
                        })
                        .collect();
                    w[0] += 1.0;
                    w.iter_mut().for_each(|x| *x *= scale);
                    w
                };
                // mode 3 is unequal: a slack column or a slack row.
                let (sa, sb) = match (mode, m % 2) {
                    (3, 0) => (1.6, 1.0),
                    (3, _) => (1.0, 1.9),
                    _ => (1.0, 1.0),
                };
                let a = marginal(m, sa);
                let b = marginal(n, sb);
                for bland_after in [0, 3] {
                    let dims = solve_core(&costs, &a, &b, &mut scratch, Some(bland_after)).unwrap();
                    let mut flows = Vec::new();
                    let (cost, flow) = finish(&scratch, &dims, |i, j, f| flows.push((i, j, f)));
                    word(&mut h, cost.to_bits());
                    word(&mut h, flow.to_bits());
                    for (i, j, f) in flows {
                        word(&mut h, (i * n + j) as u64);
                        word(&mut h, f.to_bits());
                    }
                }
            }
        }
        let stats = scratch.stats();
        word(&mut h, stats.pivots);
        assert_eq!((stats.solves, stats.pivots), (512, 51340));
        assert_eq!(h, 4_563_105_463_068_809_450);
    }
}

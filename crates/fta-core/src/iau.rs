//! Inequity Aversion based Utility (IAU, Equations 5–7).
//!
//! IAU is the utility function of the classical (FGT) game: a worker's raw
//! payoff minus penalties for *disadvantageous* inequity (`MP`, others
//! earning more) and *advantageous* inequity (`LP`, the worker earning more
//! than others), following Fehr–Schmidt inequity aversion.

use serde::{Deserialize, Serialize};

/// Weights of the two inequity penalties.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IauParams {
    /// Weight `α` of the disadvantageous-inequity term `MP` (envy).
    pub alpha: f64,
    /// Weight `β` of the advantageous-inequity term `LP` (guilt).
    pub beta: f64,
}

impl Default for IauParams {
    /// The paper's experimental setting: `α = β = 0.5` (Section VII-A).
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.5,
        }
    }
}

/// Total disadvantageous inequity `MP(w_i)` (Equation 6): the summed payoff
/// surplus of every worker earning more than `own`.
#[must_use]
pub fn disadvantageous_inequity(own: f64, others: &[f64]) -> f64 {
    others.iter().filter(|&&p| p > own).map(|p| p - own).sum()
}

/// Total advantageous inequity `LP(w_i)` (Equation 7): the summed payoff
/// surplus of `own` over every worker earning less.
#[must_use]
pub fn advantageous_inequity(own: f64, others: &[f64]) -> f64 {
    others.iter().filter(|&&p| p < own).map(|p| own - p).sum()
}

/// `IAU(w_i, VDPS(w_i))` (Equation 5) given the worker's own payoff, the
/// payoffs of all *other* workers, and the penalty weights.
///
/// `others` must not include the worker's own payoff; `|W| - 1` in the
/// normalisation is `others.len()`. With no other workers the utility is
/// just the raw payoff.
///
/// ```
/// use fta_core::iau::{iau, IauParams};
///
/// // Equal payoffs carry no inequity penalty…
/// assert_eq!(iau(2.0, &[2.0, 2.0], IauParams::default()), 2.0);
/// // …while being ahead of the pack costs guilt (β) utility.
/// assert!(iau(4.0, &[1.0, 1.0], IauParams::default()) < 4.0);
/// ```
#[must_use]
pub fn iau(own: f64, others: &[f64], params: IauParams) -> f64 {
    if others.is_empty() {
        return own;
    }
    let n_minus_1 = others.len() as f64;
    own - params.alpha / n_minus_1 * disadvantageous_inequity(own, others)
        - params.beta / n_minus_1 * advantageous_inequity(own, others)
}

/// Incremental IAU evaluator for a fixed set of other workers' payoffs.
///
/// Best-response search evaluates `IAU(p)` for many candidate own-payoffs
/// `p` against the *same* rivals. Sorting the rivals once and prefix-summing
/// makes each evaluation `O(log n)` instead of `O(n)`; with hundreds of
/// candidate strategies per worker per round this is the hot path of FGT.
#[derive(Debug, Clone)]
pub struct IauEvaluator {
    sorted: Vec<f64>,
    prefix: Vec<f64>,
    params: IauParams,
}

impl IauEvaluator {
    /// Builds an evaluator over the payoffs of the other workers.
    #[must_use]
    pub fn new(others: &[f64], params: IauParams) -> Self {
        let mut sorted = others.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &p in &sorted {
            acc += p;
            prefix.push(acc);
        }
        Self {
            sorted,
            prefix,
            params,
        }
    }

    /// Number of other workers.
    #[must_use]
    pub fn rivals(&self) -> usize {
        self.sorted.len()
    }

    /// Evaluates `IAU(own)` against the fixed rival payoffs.
    #[must_use]
    pub fn eval(&self, own: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return own;
        }
        // k = number of rivals with payoff strictly below `own`.
        let k = self.sorted.partition_point(|&p| p < own);
        let below_sum = self.prefix[k];
        let above_sum = self.prefix[n] - self.prefix[k];
        // Rivals equal to `own` contribute zero to both terms; treating the
        // `>= own` block as "above" is safe because (p - own) = 0 for ties.
        let mp = above_sum - (n - k) as f64 * own;
        let lp = k as f64 * own - below_sum;
        let n_minus_1 = n as f64;
        own - self.params.alpha / n_minus_1 * mp - self.params.beta / n_minus_1 * lp
    }
}

/// One node of the [`RivalSet`] order-statistic treap: a distinct payoff
/// value with its multiplicity, plus subtree aggregates.
#[derive(Debug, Clone)]
struct Node {
    /// The distinct payoff value this node stores.
    value: f64,
    /// How many copies of `value` the set holds.
    copies: i64,
    /// Treap heap priority (max-heap).
    priority: u64,
    /// Total copies in this subtree (including this node's).
    count: i64,
    /// Total payoff sum in this subtree (including this node's copies).
    sum: f64,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

fn subtree_count(node: &Option<Box<Node>>) -> i64 {
    node.as_ref().map_or(0, |n| n.count)
}

fn subtree_sum(node: &Option<Box<Node>>) -> f64 {
    node.as_ref().map_or(0.0, |n| n.sum)
}

impl Node {
    fn leaf(value: f64, priority: u64) -> Box<Self> {
        Box::new(Self {
            value,
            copies: 1,
            priority,
            count: 1,
            sum: value,
            left: None,
            right: None,
        })
    }

    /// Recomputes this node's subtree aggregates from its children.
    fn pull(&mut self) {
        self.count = self.copies + subtree_count(&self.left) + subtree_count(&self.right);
        self.sum =
            self.value * self.copies as f64 + subtree_sum(&self.left) + subtree_sum(&self.right);
    }
}

/// Rotates `n`'s left child up; both touched nodes are re-aggregated.
fn rotate_right(mut n: Box<Node>) -> Box<Node> {
    let mut l = n.left.take().expect("rotate_right requires a left child");
    n.left = l.right.take();
    n.pull();
    l.right = Some(n);
    l.pull();
    l
}

/// Rotates `n`'s right child up; both touched nodes are re-aggregated.
fn rotate_left(mut n: Box<Node>) -> Box<Node> {
    let mut r = n.right.take().expect("rotate_left requires a right child");
    n.right = r.left.take();
    n.pull();
    r.left = Some(n);
    r.pull();
    r
}

/// Inserts one copy of `value` (treap insert, rebalancing by priority).
fn insert_node(node: Option<Box<Node>>, value: f64, priority: u64) -> Box<Node> {
    let Some(mut n) = node else {
        return Node::leaf(value, priority);
    };
    if value == n.value {
        n.copies += 1;
        n.pull();
        n
    } else if value < n.value {
        n.left = Some(insert_node(n.left.take(), value, priority));
        if n.left.as_ref().is_some_and(|l| l.priority > n.priority) {
            rotate_right(n)
        } else {
            n.pull();
            n
        }
    } else {
        n.right = Some(insert_node(n.right.take(), value, priority));
        if n.right.as_ref().is_some_and(|r| r.priority > n.priority) {
            rotate_left(n)
        } else {
            n.pull();
            n
        }
    }
}

/// Deletes the root node of a subtree by rotating it down to a leaf,
/// preserving the heap property among the remaining nodes.
fn delete_root(mut n: Box<Node>) -> Option<Box<Node>> {
    match (n.left.take(), n.right.take()) {
        (None, r) => r,
        (l @ Some(_), None) => l,
        (Some(l), Some(r)) => {
            if l.priority > r.priority {
                let mut new_root = l;
                n.left = new_root.right.take();
                n.right = Some(r);
                new_root.right = delete_root(n);
                new_root.pull();
                Some(new_root)
            } else {
                let mut new_root = r;
                n.right = new_root.left.take();
                n.left = Some(l);
                new_root.left = delete_root(n);
                new_root.pull();
                Some(new_root)
            }
        }
    }
}

/// Removes one copy of `value`; the boolean reports whether a copy existed.
fn remove_node(node: Option<Box<Node>>, value: f64) -> (Option<Box<Node>>, bool) {
    let Some(mut n) = node else {
        return (None, false);
    };
    if value < n.value {
        let (l, removed) = remove_node(n.left.take(), value);
        n.left = l;
        n.pull();
        (Some(n), removed)
    } else if value > n.value {
        let (r, removed) = remove_node(n.right.take(), value);
        n.right = r;
        n.pull();
        (Some(n), removed)
    } else if n.copies > 1 {
        n.copies -= 1;
        n.pull();
        (Some(n), true)
    } else {
        (delete_root(n), true)
    }
}

/// Incremental rival-payoff engine: IAU evaluation, payoff difference,
/// average, and potential over a *mutable* population of payoffs.
///
/// [`IauEvaluator`] fixes the rivals once, which forces best-response loops
/// to rebuild it for every worker in every round (`O(n² log n)` per round).
/// `RivalSet` instead maintains **all** `n` payoffs in an augmented
/// order-statistic treap keyed by payoff value, with per-subtree copy counts
/// and payoff sums, so a best-response sweep becomes:
///
/// ```text
/// for each worker w:
///     set.remove(payoff(w));          // O(log n)
///     best = argmax over candidates of set.eval(candidate);  // O(log n) each
///     set.insert(best_payoff);        // O(log n)
/// ```
///
/// One structure survives the whole equilibrium loop — `n` point updates per
/// round instead of `n` full rebuilds, and no precomputed value universe:
/// the tree holds only the `n` payoffs currently in play, so construction is
/// `O(n log n)` regardless of how many candidate strategies exist. (An
/// earlier design compressed values into Fenwick trees over the full set of
/// admissible payoffs; with worker-dependent payoffs that universe grows as
/// `O(|W| · |pool|)` and its sort dwarfed the game itself.) Alongside
/// utilities it keeps the sum of pairwise absolute differences up to date,
/// so the fairness metric (Equation 2), the population average, and the
/// potential function are all `O(1)` reads at any time.
///
/// ```
/// use fta_core::iau::{iau, IauParams, RivalSet};
///
/// let params = IauParams::default();
/// let mut set = RivalSet::new(params);
/// for p in [1.0, 2.0, 4.0] {
///     set.insert(p);
/// }
/// // Evaluate worker 0's candidates against its rivals {2.0, 4.0}.
/// set.remove(1.0);
/// assert!((set.eval(1.0) - iau(1.0, &[2.0, 4.0], params)).abs() < 1e-12);
/// set.insert(1.0);
/// assert_eq!(set.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RivalSet {
    /// Order-statistic treap over the stored payoffs.
    root: Option<Box<Node>>,
    /// Number of payoffs currently stored.
    len: usize,
    /// Sum of all stored payoffs.
    total: f64,
    /// `S = Σ_{i<j} |p_i − p_j|` over the stored payoffs.
    pair_abs_sum: f64,
    /// Xorshift state generating treap priorities (deterministic).
    rng: u64,
    params: IauParams,
}

impl RivalSet {
    /// Builds an empty engine.
    #[must_use]
    pub fn new(params: IauParams) -> Self {
        Self {
            root: None,
            len: 0,
            total: 0.0,
            pair_abs_sum: 0.0,
            rng: 0x9E37_79B9_7F4A_7C15,
            params,
        }
    }

    /// Convenience constructor: builds the engine and inserts every payoff
    /// in `payoffs`.
    #[must_use]
    pub fn with_payoffs(payoffs: &[f64], params: IauParams) -> Self {
        let mut set = Self::new(params);
        for &p in payoffs {
            set.insert(p);
        }
        set
    }

    /// Next treap priority (xorshift64; deterministic across runs).
    fn next_priority(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The inequity-aversion weights this engine evaluates with.
    #[must_use]
    pub fn params(&self) -> IauParams {
        self.params
    }

    /// Number of payoffs currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no payoffs are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all stored payoffs.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Mean of the stored payoffs (`0.0` when empty).
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.total / self.len as f64
        }
    }

    /// `Σ_{i<j} |p_i − p_j|` over the stored payoffs, maintained
    /// incrementally.
    #[must_use]
    pub fn pairwise_diff_sum(&self) -> f64 {
        self.pair_abs_sum
    }

    /// Payoff difference (Equation 2): mean pairwise absolute difference,
    /// `2S / (n(n−1))`. Zero for fewer than two payoffs. Clamped at zero to
    /// absorb floating-point drift from incremental maintenance.
    #[must_use]
    pub fn payoff_difference(&self) -> f64 {
        if self.len < 2 {
            return 0.0;
        }
        let n = self.len as f64;
        (2.0 * self.pair_abs_sum / (n * (n - 1.0))).max(0.0)
    }

    /// The FGT potential `Φ = Σ P_i − (α+β) · n · P_dif / 2`, which
    /// simplifies to `total − (α+β) · S / (n−1)`. Equals `total` for fewer
    /// than two payoffs.
    #[must_use]
    pub fn potential(&self) -> f64 {
        if self.len < 2 {
            return self.total;
        }
        let n_minus_1 = (self.len - 1) as f64;
        self.total - (self.params.alpha + self.params.beta) * self.pair_abs_sum / n_minus_1
    }

    /// (count, sum) of stored copies with value strictly below `v`.
    /// `O(log n)`.
    fn below(&self, v: f64) -> (i64, f64) {
        let mut count = 0;
        let mut sum = 0.0;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            if v <= n.value {
                cur = n.left.as_deref();
            } else {
                count += subtree_count(&n.left) + n.copies;
                sum += subtree_sum(&n.left) + n.value * n.copies as f64;
                cur = n.right.as_deref();
            }
        }
        (count, sum)
    }

    /// `Σ_{p ∈ set} |p − v|` against the *current* contents. Copies equal
    /// to `v` contribute zero, so they can be lumped with the upper block.
    fn abs_dev_sum(&self, v: f64) -> f64 {
        let (c_lt, s_lt) = self.below(v);
        let c_ge = self.len as i64 - c_lt;
        let s_ge = self.total - s_lt;
        (c_lt as f64 * v - s_lt) + (s_ge - c_ge as f64 * v)
    }

    /// Adds one copy of `v`. `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn insert(&mut self, v: f64) {
        assert!(!v.is_nan(), "cannot insert NaN into a RivalSet");
        // Delta computed against the set *before* the copy joins.
        self.pair_abs_sum += self.abs_dev_sum(v);
        let priority = self.next_priority();
        self.root = Some(insert_node(self.root.take(), v, priority));
        self.len += 1;
        self.total += v;
    }

    /// Removes one copy of `v`. `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics if no copy of `v` is stored.
    pub fn remove(&mut self, v: f64) {
        // The removed copy's own |v − v| = 0 term is included harmlessly.
        let delta = self.abs_dev_sum(v);
        let (root, removed) = remove_node(self.root.take(), v);
        self.root = root;
        assert!(removed, "remove({v}): no copy is stored in the RivalSet");
        self.pair_abs_sum -= delta;
        self.len -= 1;
        self.total -= v;
    }

    /// Evaluates `IAU(own)` against the stored payoffs (Equation 5). The
    /// focal worker's payoff must have been [`RivalSet::remove`]d first so
    /// the contents are exactly its rivals. `O(log n)`.
    #[must_use]
    pub fn eval(&self, own: f64) -> f64 {
        if self.len == 0 {
            return own;
        }
        let (c_lt, s_lt) = self.below(own);
        let k = c_lt as f64;
        let n = self.len as f64;
        // Ties contribute zero to both terms, so the `>= own` block is
        // safely treated as "above" (same convention as `IauEvaluator`).
        let mp = (self.total - s_lt) - (n - k) * own;
        let lp = k * own - s_lt;
        own - self.params.alpha / n * mp - self.params.beta / n * lp
    }

    /// The `k`-th smallest stored payoff (0-based, copies counted), found
    /// by descending the treap's subtree counts. `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    #[must_use]
    pub(crate) fn select(&self, k: usize) -> f64 {
        assert!(k < self.len, "select({k}) on a RivalSet of {}", self.len);
        let mut rank = k as i64;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            let left = subtree_count(&n.left);
            if rank < left {
                cur = n.left.as_deref();
            } else if rank < left + n.copies {
                return n.value;
            } else {
                rank -= left + n.copies;
                cur = n.right.as_deref();
            }
        }
        unreachable!("subtree counts cover every rank below len")
    }

    /// Which candidates a best response against the stored rivals must
    /// IAU-evaluate (see [`PeakBracket`]). The rule depends on the weights
    /// alone; a [`PeakBracket::Peak`]'s bounds are two order statistics of
    /// the rivals, `O(log n)` each.
    #[must_use]
    pub fn peak_bracket(&self) -> PeakBracket {
        let IauParams { alpha, beta } = self.params;
        if beta < 1.0 && alpha > -1.0 {
            return PeakBracket::Monotone;
        }
        // NaN weights land here too: every utility is NaN, so nothing
        // beats null.
        if alpha + beta <= 0.0 || (alpha + beta).is_nan() {
            return PeakBracket::Ends;
        }
        let m = self.len;
        // The peak is the 1-based order statistic c* = ⌈m(1+α)/(α+β)⌉;
        // α ≤ −1 puts it below every rival and rounding may push it past
        // the last one, hence the clamp.
        let c = (m as f64 * (1.0 + alpha) / (alpha + beta))
            .ceil()
            .clamp(0.0, (m + 1) as f64) as usize;
        // One rival kink of slack on each side covers the flat piece after
        // an integral c* and a c* that rounding moved by one.
        let lo = if c >= 2 {
            self.select(c - 2)
        } else {
            f64::NEG_INFINITY
        };
        let hi = if c < m { self.select(c) } else { f64::INFINITY };
        PeakBracket::Peak { lo, hi }
    }
}

/// Which candidates a best response must IAU-evaluate, given the rivals.
///
/// With the `m = n−1` rival payoffs fixed, `U(p)` (Equation 5) is
/// continuous and piecewise linear in the own payoff `p`, with kinks at the
/// rivals. On the piece with `c` rivals at or below `p` its slope is
///
/// ```text
/// 1 + (α·(m−c) − β·c)/m  =  ((m−c)·(1+α) + c·(1−β)) / m,
/// ```
///
/// so every rival kink changes the slope by `−(α+β)/m`. The exhaustive
/// rule (first strict maximum over null, then candidates in ascending pool
/// index) only ever picks a candidate no other candidate strictly beats,
/// so it is reproduced by applying the same rule to any subset that keeps,
/// for every dropped candidate, one that strictly beats it. Each variant
/// names such a subset. The argument is exact in real arithmetic; in
/// floating point it holds unless two distinct payoffs' utilities round to
/// the same `f64` (the caveat the monotone scan has always carried).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeakBracket {
    /// `β < 1` and `α > −1`: every slope is positive, `U` is strictly
    /// increasing, and the best response is the highest-payoff available
    /// strategy (null unless that payoff exceeds 0).
    Monotone,
    /// `α + β > 0` otherwise: `U` is concave and stops increasing at the
    /// `c* = ⌈m(1+α)/(α+β)⌉`-th smallest rival. `U` strictly increases
    /// below `lo` and strictly decreases above `hi`, which sit one rival
    /// kink either side of that peak, so the argmax is among the nearest
    /// available payoff above `hi`, every available payoff in
    /// `[lo, hi]`, the nearest available payoff below `lo`, and null.
    /// Equal payoffs have equal utilities, so of a nearest payoff only its
    /// lowest pool index needs evaluating.
    Peak {
        /// Lower bound of the peak's bracket (`−∞` below every rival).
        lo: f64,
        /// Upper bound of the peak's bracket (`+∞` above every rival).
        hi: f64,
    },
    /// `α + β ≤ 0` otherwise: `U` is convex or linear, so the argmax is
    /// null or one of the two extreme available payoffs.
    Ends,
}

impl PeakBracket {
    /// Stable lowercase name of the rule (`monotone`, `peak`, `ends`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Monotone => "monotone",
            Self::Peak { .. } => "peak",
            Self::Ends => "ends",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalties_split_by_comparison() {
        let others = [1.0, 3.0, 5.0];
        assert_eq!(disadvantageous_inequity(2.0, &others), 1.0 + 3.0);
        assert_eq!(advantageous_inequity(2.0, &others), 1.0);
    }

    #[test]
    fn equal_payoffs_have_no_penalty() {
        let others = [2.0, 2.0, 2.0];
        let params = IauParams::default();
        assert_eq!(iau(2.0, &others, params), 2.0);
    }

    #[test]
    fn iau_is_penalised_from_both_sides() {
        let params = IauParams {
            alpha: 0.5,
            beta: 0.5,
        };
        // own=4, others=[1, 2]: LP = 3+2 = 5, MP = 0, n-1 = 2.
        let u = iau(4.0, &[1.0, 2.0], params);
        assert!((u - (4.0 - 0.25 * 5.0)).abs() < 1e-12);
        // own=1, others=[2, 4]: MP = 1+3 = 4.
        let u = iau(1.0, &[2.0, 4.0], params);
        assert!((u - (1.0 - 0.25 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn figure1_fair_joint_strategy_utility() {
        // Paper Section V-B: IAU(w1, {dp1, dp2}) = 2.42 when w1's payoff is
        // 2.55 and w2's is 2.29 with α = β = 0.5.
        let u = iau(2.55, &[2.29], IauParams::default());
        assert!((u - 2.42).abs() < 5e-3, "got {u}");
    }

    #[test]
    fn singleton_population_utility_is_payoff() {
        assert_eq!(iau(3.7, &[], IauParams::default()), 3.7);
    }

    #[test]
    fn evaluator_matches_direct_formula() {
        let others = [0.5, 2.0, 2.0, 3.75, 9.1];
        let params = IauParams {
            alpha: 0.8,
            beta: 0.3,
        };
        let eval = IauEvaluator::new(&others, params);
        for own in [0.0, 0.5, 1.0, 2.0, 3.0, 3.75, 5.0, 9.1, 12.0] {
            let direct = iau(own, &others, params);
            let fast = eval.eval(own);
            assert!(
                (direct - fast).abs() < 1e-10,
                "own={own}: {direct} vs {fast}"
            );
        }
    }

    #[test]
    fn evaluator_with_no_rivals() {
        let eval = IauEvaluator::new(&[], IauParams::default());
        assert_eq!(eval.rivals(), 0);
        assert_eq!(eval.eval(1.5), 1.5);
    }

    /// Brute-force mirror of the incremental S maintenance.
    fn direct_pair_abs_sum(values: &[f64]) -> f64 {
        let mut s = 0.0;
        for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                s += (values[i] - values[j]).abs();
            }
        }
        s
    }

    #[test]
    fn rival_set_eval_matches_direct_iau() {
        let params = IauParams {
            alpha: 0.8,
            beta: 0.3,
        };
        let payoffs = [0.5, 2.0, 2.0, 3.75, 9.1];
        let mut set = RivalSet::with_payoffs(&payoffs, params);
        // Focal worker holds 2.0; its rivals are the other four payoffs.
        set.remove(2.0);
        let rivals = [0.5, 2.0, 3.75, 9.1];
        for own in [0.0, 0.5, 1.0, 2.0, 3.0, 3.75, 5.0, 9.1, 12.0] {
            let direct = iau(own, &rivals, params);
            let fast = set.eval(own);
            assert!(
                (direct - fast).abs() < 1e-10,
                "own={own}: {direct} vs {fast}"
            );
        }
    }

    #[test]
    fn rival_set_tracks_pairwise_diffs_through_updates() {
        let params = IauParams::default();
        let mut set = RivalSet::new(params);
        let mut shadow: Vec<f64> = Vec::new();
        let script: [(bool, f64); 9] = [
            (true, 1.0),
            (true, 4.0),
            (true, 4.0),
            (true, 0.0),
            (false, 4.0),
            (true, 7.0),
            (false, 1.0),
            (true, 2.5),
            (false, 0.0),
        ];
        for (add, v) in script {
            if add {
                set.insert(v);
                shadow.push(v);
            } else {
                set.remove(v);
                let pos = shadow.iter().position(|&p| p == v).unwrap();
                shadow.swap_remove(pos);
            }
            assert_eq!(set.len(), shadow.len());
            let want_total: f64 = shadow.iter().sum();
            assert!((set.total() - want_total).abs() < 1e-9);
            let want_s = direct_pair_abs_sum(&shadow);
            assert!(
                (set.pairwise_diff_sum() - want_s).abs() < 1e-9,
                "after {:?}: {} vs {}",
                (add, v),
                set.pairwise_diff_sum(),
                want_s
            );
        }
    }

    #[test]
    fn rival_set_summary_statistics() {
        let params = IauParams::default();
        let set = RivalSet::with_payoffs(&[1.0, 3.0, 5.0], params);
        assert_eq!(set.len(), 3);
        assert!((set.average() - 3.0).abs() < 1e-12);
        // S = |1−3| + |1−5| + |3−5| = 8; P_dif = 2·8 / (3·2) = 8/3.
        assert!((set.payoff_difference() - 8.0 / 3.0).abs() < 1e-12);
        // Φ = 9 − (0.5+0.5)·8/2 = 5.
        assert!((set.potential() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rival_set_degenerate_sizes() {
        let params = IauParams::default();
        let mut set = RivalSet::new(params);
        assert!(set.is_empty());
        assert_eq!(set.payoff_difference(), 0.0);
        assert_eq!(set.average(), 0.0);
        assert_eq!(set.eval(2.0), 2.0);
        set.insert(2.0);
        assert_eq!(set.payoff_difference(), 0.0);
        assert_eq!(set.potential(), 2.0);
    }

    #[test]
    #[should_panic(expected = "no copy is stored")]
    fn rival_set_rejects_removing_absent_values() {
        let mut set = RivalSet::with_payoffs(&[0.0, 1.0], IauParams::default());
        set.remove(0.75);
    }

    #[test]
    fn rival_set_survives_many_ordered_inserts() {
        // An ascending insertion order is the worst case for a naive BST;
        // the treap's random priorities must keep it balanced enough to
        // finish instantly and agree with the brute force.
        let params = IauParams::default();
        let mut set = RivalSet::new(params);
        let values: Vec<f64> = (0..2000).map(f64::from).collect();
        for &v in &values {
            set.insert(v);
        }
        assert_eq!(set.len(), 2000);
        // S = Σ_{i<j} (j − i) for 0..2000 = Σ_d d·(2000−d).
        let want: f64 = (1..2000).map(|d| (d * (2000 - d)) as f64).sum();
        assert!((set.pairwise_diff_sum() - want).abs() / want < 1e-12);
        set.remove(0.0);
        set.remove(1999.0);
        assert_eq!(set.len(), 1998);
    }

    #[test]
    fn rival_set_select_matches_sorted_vector_with_duplicates() {
        let mut set = RivalSet::new(IauParams::default());
        let mut shadow = Vec::new();
        // Duplicates, interleaved with removals, exercise the per-node
        // copy counts the rank descent skips over.
        for (i, v) in [3.0, 1.0, 3.0, 0.5, 3.0, 7.25, 1.0, 0.0, 7.25, 2.0]
            .into_iter()
            .enumerate()
        {
            set.insert(v);
            shadow.push(v);
            if i == 6 {
                set.remove(3.0);
                let pos = shadow.iter().position(|&p| p == 3.0).unwrap();
                shadow.swap_remove(pos);
            }
        }
        shadow.sort_by(f64::total_cmp);
        assert_eq!(set.len(), shadow.len());
        for (k, &want) in shadow.iter().enumerate() {
            assert_eq!(set.select(k), want, "rank {k}");
        }
    }

    #[test]
    #[should_panic(expected = "select(3)")]
    fn rival_set_select_rejects_out_of_range_ranks() {
        let _ = RivalSet::with_payoffs(&[1.0, 2.0, 2.0], IauParams::default()).select(3);
    }

    #[test]
    fn peak_bracket_classifies_weights_and_brackets_the_peak() {
        let rivals: Vec<f64> = (0..8).map(f64::from).collect();
        let bracket =
            |alpha, beta| RivalSet::with_payoffs(&rivals, IauParams { alpha, beta }).peak_bracket();
        assert_eq!(bracket(0.5, 0.5), PeakBracket::Monotone);
        assert_eq!(bracket(-0.5, 0.9), PeakBracket::Monotone);
        assert_eq!(bracket(-1.5, 1.5), PeakBracket::Ends);
        assert_eq!(bracket(-2.0, 0.5), PeakBracket::Ends);
        assert_eq!(bracket(f64::NAN, 2.0), PeakBracket::Ends);
        // m = 8, α = 0.5, β = 1.5: c* = ⌈8·1.5/2⌉ = 6, an integral peak
        // (flat on [r_6, r_7] = [5, 6]); the bracket is [r_5, r_7].
        assert_eq!(bracket(0.5, 1.5), PeakBracket::Peak { lo: 4.0, hi: 6.0 });
        // β = 1: the last piece is flat, so the bracket is unbounded above.
        assert_eq!(
            bracket(0.5, 1.0),
            PeakBracket::Peak {
                lo: 6.0,
                hi: f64::INFINITY
            }
        );
        // α ≤ −1 with α + β > 0: U never increases; the peak is below
        // every rival.
        assert_eq!(
            bracket(-1.5, 2.0),
            PeakBracket::Peak {
                lo: f64::NEG_INFINITY,
                hi: 0.0
            }
        );
        for (alpha, beta) in [(0.5, 1.5), (1.0, 1.0), (0.25, 2.5), (2.0, 3.0)] {
            let params = IauParams { alpha, beta };
            let PeakBracket::Peak { lo, hi } = bracket(alpha, beta) else {
                panic!("({alpha}, {beta}) is concave");
            };
            // U strictly increases up to lo and strictly decreases past hi.
            let u = |p: f64| iau(p, &rivals, params);
            let grid: Vec<f64> = (-4..=44).map(|i| f64::from(i) * 0.25).collect();
            for w in grid.windows(2) {
                if w[1] <= lo {
                    assert!(u(w[0]) < u(w[1]), "({alpha}, {beta}) not rising at {w:?}");
                }
                if w[0] >= hi {
                    assert!(u(w[0]) > u(w[1]), "({alpha}, {beta}) not falling at {w:?}");
                }
            }
        }
    }

    #[test]
    fn higher_alpha_punishes_envy_more() {
        let others = [5.0];
        let low = iau(
            1.0,
            &others,
            IauParams {
                alpha: 0.1,
                beta: 0.5,
            },
        );
        let high = iau(
            1.0,
            &others,
            IauParams {
                alpha: 0.9,
                beta: 0.5,
            },
        );
        assert!(high < low);
    }
    #[test]
    fn nan_rival_payoff_does_not_panic() {
        // A NaN that leaks into a rival-payoff vector (e.g. from a
        // degenerate 0/0 payoff) must not crash the evaluator; total_cmp
        // sorts NaN to the top and the IAU value is simply NaN-poisoned.
        let ev = IauEvaluator::new(&[1.0, f64::NAN, 3.0], IauParams::default());
        assert_eq!(ev.rivals(), 3);
        let _ = ev.eval(2.0);
        let _ = iau(2.0, &[1.0, f64::NAN, 3.0], IauParams::default());
    }
}

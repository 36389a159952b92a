//! Root-presorted event columns and zero-copy view partitioning.
//!
//! The classic SPRINT/C4.5 presorting idea applied to UDT's fractional
//! tuples: every numerical attribute's pdf sample points are flattened
//! into one sorted column **once at the root** (`O(n log n)` per
//! attribute, [`build_root`]), and those [`RootColumns`] are **immutable**
//! for the rest of the build. Tree recursion never rewrites them; a node
//! is described by
//!
//! * a sparse list of alive tuples with their fractional weights
//!   ([`NodeTuples::alive`] / [`NodeTuples::weights`]), and
//! * per attribute, a [`ColumnState`]: the surviving events plus a sparse
//!   per-tuple *pdf scale factor* — the reciprocal of the kept pdf
//!   fraction accumulated over every ancestor split on that attribute.
//!
//! An event's current mass is reconstructed on the fly as
//! `root_mass[e] * scale[tuple_of[e]]` (the renormalisation of
//! [`udt_prob::SampledPdf::split_at`], deferred to consumption time).
//! A child's column is just the list of surviving root event ids (`4`
//! bytes per event); positions, owner tuples and masses are read through
//! the shared root columns. A depth-`d` build therefore moves `O(d)`
//! *event ids* per root event instead of `O(d)` copies of the full
//! `(x, tuple, mass)` triple, and parallel subtree workers share the
//! immutable root instead of cloning mass vectors.
//!
//! Each node's cumulative count matrix is built in one fused pass over
//! its view ([`events_from_column`]) and scored by the production batch
//! kernel ([`KernelKind::PRODUCTION`]); [`events_from_column_with`]
//! selects the scalar oracle instead.
//!
//! Splitting on attribute `a` at `z` sends each event of column `a` to
//! the side its position lies on, divides the per-tuple scale by the
//! tuple's kept fraction `p` / `1 − p`, keeps every other column's events
//! wherever the tuple retains weight (scales unchanged), and multiplies
//! tuple weights by their side fractions.
//!
//! Per-node work is `O(events at the node)` for the column walks and
//! `O(alive tuples)` for the weight bookkeeping — no sorting, no dense
//! root-sized child vectors: the per-*tuple* working arrays live in a
//! [`Scratch`] reused across the whole recursion, and child weight
//! vectors are sparse `(tuple, weight)` pairs over the node's live
//! tuples, so deep narrow nodes no longer pay root-sized zeroing costs.

use std::cell::RefCell;
use std::time::Instant;

use crate::config::PartitionMode;
use crate::counts::WEIGHT_EPSILON;
use crate::events::AttributeEvents;
use crate::fractional::FractionalTuple;
use crate::kernel::KernelKind;
use crate::pool::WorkerPool;
use crate::split::SearchStats;

/// One attribute's root event column: parallel arrays sorted by position,
/// built once and immutable thereafter.
#[derive(Debug, Clone)]
pub struct AttrColumn {
    /// The attribute index this column belongs to.
    pub attribute: usize,
    /// Event positions, ascending.
    pub xs: Vec<f64>,
    /// Event owner tuples (indices into the root tuple array).
    pub tuple: Vec<u32>,
    /// Event pdf masses as sampled at the root (they sum to ≈1 per
    /// tuple). Never rescaled — domain restrictions are carried by the
    /// per-node [`ColumnState::scales`] instead.
    pub mass: Vec<f64>,
    /// Precomputed end-point position indices for the unit fast path —
    /// `Some` iff every event clears the mass gate at unit weight/scale
    /// and all positions are distinct, in which case a node that keeps
    /// every event at weight exactly 1 and no scales (the root, always)
    /// shares this tree-invariant end-point structure and its cumulative
    /// matrix can be built by the gate-free fused loop
    /// (`build_events_unit_fast`).
    pub(crate) unit_fast: Option<Vec<usize>>,
}

impl AttrColumn {
    /// Number of events in the column.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the column holds no events.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// The immutable per-attribute root columns shared by every node of a
/// build (and by every subtree worker on the build pool).
#[derive(Debug, Clone)]
pub struct RootColumns {
    /// One column per numerical attribute, in the builder's numerical
    /// attribute order.
    pub columns: Vec<AttrColumn>,
}

/// A node's per-attribute event set: a view of the root column by id.
#[derive(Debug, Clone)]
pub struct ColumnData {
    /// Surviving root event ids, ascending — indices into the root
    /// column's arrays.
    pub events: Vec<u32>,
}

impl ColumnData {
    /// Number of surviving events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every surviving event in ascending position order as
    /// `(position, owner tuple, root mass)`. The mass is the **root**
    /// mass; callers apply the per-tuple scale themselves.
    #[inline]
    pub fn for_each_event(&self, root: &AttrColumn, mut f: impl FnMut(f64, u32, f64)) {
        for &e in &self.events {
            let e = e as usize;
            f(root.xs[e], root.tuple[e], root.mass[e]);
        }
    }

    /// Heap bytes backing this column data (capacities, i.e. what the
    /// allocator actually handed out).
    pub fn heap_bytes(&self) -> u64 {
        (self.events.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// One attribute's state at one node: the surviving events plus the
/// sparse per-tuple pdf scale factors accumulated by ancestor splits on
/// this attribute.
#[derive(Debug, Clone)]
pub struct ColumnState {
    /// `(tuple, scale)` pairs, ascending by tuple; tuples absent from the
    /// list have scale exactly 1. An event's current mass is
    /// `root_mass * scale`.
    pub scales: Vec<(u32, f64)>,
    /// The surviving events.
    pub data: ColumnData,
}

impl ColumnState {
    /// The scale factor of tuple `t` (1 when the tuple's pdf has not been
    /// restricted on this attribute). Binary search — intended for tests
    /// and diagnostics; the hot paths load the scales into a dense
    /// [`Scratch`] array instead.
    pub fn scale_of(&self, t: u32) -> f64 {
        match self.scales.binary_search_by_key(&t, |&(tuple, _)| tuple) {
            Ok(i) => self.scales[i].1,
            Err(_) => 1.0,
        }
    }

    /// Visits every surviving event as `(position, owner tuple, scaled
    /// mass)` — the node-local view of the column, for tests and
    /// diagnostics.
    pub fn for_each_scaled(&self, root: &AttrColumn, mut f: impl FnMut(f64, u32, f64)) {
        self.data
            .for_each_event(root, |x, t, m| f(x, t, m * self.scale_of(t)));
    }

    /// Heap bytes backing this column state.
    pub fn heap_bytes(&self) -> u64 {
        (self.scales.capacity() * std::mem::size_of::<(u32, f64)>()) as u64 + self.data.heap_bytes()
    }
}

/// The per-node tuple state threaded through recursion. All vectors are
/// sparse over the node's live tuples — nothing here is sized to the
/// root tuple count.
#[derive(Debug, Clone)]
pub struct NodeTuples {
    /// Tuples with non-negligible weight, ascending.
    pub alive: Vec<u32>,
    /// Fractional weights, parallel to `alive`.
    pub weights: Vec<f64>,
    /// One state per numerical attribute (same order as the builder's
    /// numerical attribute list / the [`RootColumns`]).
    pub columns: Vec<ColumnState>,
}

impl NodeTuples {
    /// Heap bytes backing this node's partition state (capacities) — the
    /// quantity the partition-traffic instrumentation accumulates. The
    /// partition functions shrink every child vector to fit before
    /// accounting, so this reflects surviving data, not the parent-sized
    /// buffers the filters started from.
    pub fn heap_bytes(&self) -> u64 {
        (self.alive.capacity() * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<f64>()) as u64
            + self
                .columns
                .iter()
                .map(ColumnState::heap_bytes)
                .sum::<u64>()
    }

    /// Shrinks every backing vector to its length. Child states are
    /// built by filtering parent-capacity buffers; without this, a
    /// skewed split would pin a parent-sized buffer for the whole
    /// lifetime of a nearly-empty subtree, making worst-case resident
    /// memory O(depth × root events) instead of O(Σ node sizes).
    fn shrink_to_fit(&mut self) {
        self.alive.shrink_to_fit();
        self.weights.shrink_to_fit();
        for column in &mut self.columns {
            column.scales.shrink_to_fit();
            column.data.events.shrink_to_fit();
        }
    }
}

/// Reusable per-tuple scratch buffers (all sized to the root tuple
/// count), so the recursion's *working* passes never allocate per-tuple
/// arrays per node. Dense arrays obey a load/use/unload discipline: they
/// are all-zero (or all-one for `scale`) between uses, and resets walk
/// only the entries that were touched.
#[derive(Debug)]
pub struct Scratch {
    /// Mass at or below the split point per tuple (pass 1), then the
    /// tuple's left kept-fraction `p` (pass 2 onward).
    left_mass: Vec<f64>,
    /// Mass above the split point per tuple, then the right fraction.
    right_mass: Vec<f64>,
    /// Left-child tuple weights during one partition call.
    left_w: Vec<f64>,
    /// Right-child tuple weights during one partition call.
    right_w: Vec<f64>,
    /// The current node's tuple weights, loaded from the sparse
    /// [`NodeTuples`] lists (0 for tuples absent from the node).
    weight: Vec<f64>,
    /// The current column's per-tuple pdf scale (default 1).
    scale: Vec<f64>,
    /// Position index (into the structure being built) of the first
    /// surviving event per tuple in the current column.
    lo_idx: Vec<u32>,
    /// Position index of the last surviving event per tuple.
    hi_idx: Vec<u32>,
    /// Whether the tuple has been touched in the current pass.
    seen: Vec<bool>,
    /// Touched tuples, for cheap resets.
    touched: Vec<u32>,
    /// Reusable running per-class totals (`n_classes`-sized).
    running: Vec<f64>,
    /// Whether every weight loaded by [`load_weights`](Self::load_weights)
    /// was exactly 1.0 — one precondition of the unit fast path.
    unit_weights: bool,
}

impl Scratch {
    /// Creates scratch buffers for `n_tuples` root tuples.
    pub fn new(n_tuples: usize) -> Scratch {
        Scratch {
            left_mass: vec![0.0; n_tuples],
            right_mass: vec![0.0; n_tuples],
            left_w: vec![0.0; n_tuples],
            right_w: vec![0.0; n_tuples],
            weight: vec![0.0; n_tuples],
            scale: vec![1.0; n_tuples],
            lo_idx: vec![0; n_tuples],
            hi_idx: vec![0; n_tuples],
            seen: vec![false; n_tuples],
            touched: Vec::with_capacity(n_tuples),
            running: Vec::new(),
            unit_weights: false,
        }
    }

    /// Root tuple count these buffers were sized for.
    pub fn n_tuples(&self) -> usize {
        self.weight.len()
    }

    /// Loads the node's sparse weights into the dense `weight` array.
    /// Callers must pair this with [`unload_weights`](Self::unload_weights)
    /// on the same node before reusing the scratch for another node.
    pub fn load_weights(&mut self, node: &NodeTuples) {
        for (&t, &w) in node.alive.iter().zip(&node.weights) {
            self.weight[t as usize] = w;
        }
        self.unit_weights = node.weights.iter().all(|&w| w == 1.0);
    }

    /// Clears the dense weights loaded from `node`.
    pub fn unload_weights(&mut self, node: &NodeTuples) {
        for &t in &node.alive {
            self.weight[t as usize] = 0.0;
        }
        self.unit_weights = false;
    }

    /// Loads a column's sparse scales into the dense `scale` array.
    fn load_scales(&mut self, scales: &[(u32, f64)]) {
        for &(t, s) in scales {
            self.scale[t as usize] = s;
        }
    }

    /// Resets the dense scales loaded from `scales` back to 1.
    fn unload_scales(&mut self, scales: &[(u32, f64)]) {
        for &(t, _) in scales {
            self.scale[t as usize] = 1.0;
        }
    }

    fn reset_touched(&mut self) {
        for &t in &self.touched {
            self.seen[t as usize] = false;
            self.left_mass[t as usize] = 0.0;
            self.right_mass[t as usize] = 0.0;
            self.left_w[t as usize] = 0.0;
            self.right_w[t as usize] = 0.0;
        }
        self.touched.clear();
    }
}

thread_local! {
    /// Per-thread cache of [`Scratch`] buffers for pool tasks. A stack
    /// (not a single slot) so nested pool work on one thread — a
    /// subtree job helping with another node's event fan-out — pops a
    /// distinct scratch instead of aliasing the one in use.
    static SCRATCH_CACHE: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-cached [`Scratch`] sized for at least
/// `n_tuples` root tuples. Pool workers call this once per task, so
/// steady-state parallel building allocates no per-task scratch; the
/// cache lives as long as the (persistent) worker thread. A cached
/// scratch is only reused while its size is within 4× of the request
/// (with a small absolute floor) — within one build every request has
/// the same `n_tuples`, so reuse is perfect, while a long-lived process
/// that once built a huge model does not pin huge buffers on every
/// pool thread forever once its workloads shrink.
pub(crate) fn with_scratch<R>(n_tuples: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    let reuse_cap = n_tuples.saturating_mul(4).max(4096);
    let mut scratch = SCRATCH_CACHE
        .with(|cache| cache.borrow_mut().pop())
        .filter(|s| s.n_tuples() >= n_tuples && s.n_tuples() <= reuse_cap)
        .unwrap_or_else(|| Scratch::new(n_tuples));
    let result = f(&mut scratch);
    // On panic inside `f` the scratch is simply dropped — a possibly
    // dirty buffer must not be returned to the cache.
    SCRATCH_CACHE.with(|cache| cache.borrow_mut().push(scratch));
    result
}

/// Tuples with non-negligible weight, ascending — the shared alive list
/// every root column is built over.
fn alive_tuples(tuples: &[FractionalTuple]) -> Vec<u32> {
    tuples
        .iter()
        .enumerate()
        .filter(|(_, tuple)| tuple.weight > WEIGHT_EPSILON)
        .map(|(t, _)| t as u32)
        .collect()
}

/// Builds one attribute's sorted root event column — the per-attribute
/// unit of the root presort, independent of every other attribute and
/// therefore freely parallel.
fn build_attr_column(tuples: &[FractionalTuple], alive: &[u32], attribute: usize) -> AttrColumn {
    let mut order: Vec<(f64, u32, f64)> = Vec::new();
    for &t in alive {
        let Some(pdf) = tuples[t as usize].values[attribute].as_numeric() else {
            continue;
        };
        for (x, m) in pdf.iter() {
            order.push((x, t, m));
        }
    }
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sample points"));
    let mut xs = Vec::with_capacity(order.len());
    let mut tuple = Vec::with_capacity(order.len());
    let mut mass = Vec::with_capacity(order.len());
    for (x, t, m) in order {
        xs.push(x);
        tuple.push(t);
        mass.push(m);
    }
    let unit_fast = unit_fast_structure(&xs, &tuple, &mass, tuples.len());
    AttrColumn {
        attribute,
        xs,
        tuple,
        mass,
        unit_fast,
    }
}

/// Precomputes [`AttrColumn::unit_fast`]: `Some(end-point position
/// indices)` iff the fused construction loop over this column with every
/// weight and scale exactly 1 would open a new position for every event
/// and gate none out — i.e. all sample points are distinct and every
/// mass clears `WEIGHT_EPSILON`. Under those preconditions position `p`
/// *is* event `p`, so the per-tuple end points are the tuples'
/// first/last event indices — a tree-invariant worth computing once at
/// the root presort.
fn unit_fast_structure(
    xs: &[f64],
    tuple: &[u32],
    mass: &[f64],
    n_tuples: usize,
) -> Option<Vec<usize>> {
    if xs.is_empty() {
        return None;
    }
    let mut last = f64::NAN;
    for (&x, &m) in xs.iter().zip(mass) {
        if m <= WEIGHT_EPSILON || x == last {
            return None;
        }
        last = x;
    }
    let mut lo = vec![u32::MAX; n_tuples];
    let mut hi = vec![0u32; n_tuples];
    for (e, &t) in tuple.iter().enumerate() {
        let t = t as usize;
        if lo[t] == u32::MAX {
            lo[t] = e as u32;
        }
        hi[t] = e as u32;
    }
    let mut end: Vec<usize> = lo
        .iter()
        .zip(&hi)
        .filter(|&(&l, _)| l != u32::MAX)
        .flat_map(|(&l, &h)| [l as usize, h as usize])
        .collect();
    end.sort_unstable();
    end.dedup();
    Some(end)
}

/// Builds the immutable [`RootColumns`]: per-attribute event columns
/// sorted once — the single `O(E log E)` pass; recursion below only
/// partitions. Sequential convenience over [`build_root_with`].
pub fn build_root(tuples: &[FractionalTuple], numerical: &[usize]) -> RootColumns {
    let alive = alive_tuples(tuples);
    RootColumns {
        columns: numerical
            .iter()
            .map(|&attribute| build_attr_column(tuples, &alive, attribute))
            .collect(),
    }
}

/// Builds the immutable [`RootColumns`] with the per-attribute presort
/// fanned out across `pool` (the columns come back in attribute order,
/// and each column's construction is independent, so the result is
/// bit-identical to [`build_root`] at every thread count).
pub fn build_root_with(
    tuples: &[FractionalTuple],
    numerical: &[usize],
    pool: &WorkerPool,
) -> RootColumns {
    let alive = alive_tuples(tuples);
    RootColumns {
        columns: pool.map(numerical.len(), |slot| {
            build_attr_column(tuples, &alive, numerical[slot])
        }),
    }
}

/// Builds the root [`NodeTuples`] over the given root columns: every
/// tuple with non-negligible weight is alive, no scales, and each column
/// is the identity view of its root column.
pub fn root_state(
    tuples: &[FractionalTuple],
    root: &RootColumns,
    mode: PartitionMode,
) -> NodeTuples {
    let mut alive = Vec::with_capacity(tuples.len());
    let mut weights = Vec::with_capacity(tuples.len());
    for (t, tuple) in tuples.iter().enumerate() {
        if tuple.weight > WEIGHT_EPSILON {
            alive.push(t as u32);
            weights.push(tuple.weight);
        }
    }
    let columns = root
        .columns
        .iter()
        .map(|col| ColumnState {
            scales: Vec::new(),
            data: match mode {
                PartitionMode::View => ColumnData {
                    events: (0..col.len() as u32).collect(),
                },
            },
        })
        .collect();
    let mut state = NodeTuples {
        alive,
        weights,
        columns,
    };
    state.shrink_to_fit();
    state
}

/// Builds the scoring structure for one column at one node. Returns
/// `None` when fewer than two distinct positions carry mass (no split
/// possible). Linear in the column length; the only allocations are the
/// output structure's own arrays.
///
/// The caller must have loaded the node's weights into `scratch` via
/// [`Scratch::load_weights`]. Event masses are reconstructed as
/// `root_mass * scale` and multiplied into the tuple weight here, at
/// consumption time — the single place the kept-fraction chain meets the
/// event weight. The result is scored by [`KernelKind::PRODUCTION`].
pub fn events_from_column(
    col: &ColumnState,
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    scratch: &mut Scratch,
) -> Option<AttributeEvents> {
    events_from_column_with(
        col,
        root_col,
        labels,
        n_classes,
        scratch,
        KernelKind::PRODUCTION,
    )
}

/// [`events_from_column`] scored by an explicit `kernel`. The matrix is
/// bit-for-bit the same under either kernel; the AVX2 construction loops
/// run only when the batch kernel will score the result.
pub fn events_from_column_with(
    col: &ColumnState,
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    scratch: &mut Scratch,
    kernel: KernelKind,
) -> Option<AttributeEvents> {
    // Unit fast path: a node that keeps every root event (views only
    // ever drop events, so full length means identity) at weight exactly
    // 1 with no rescales, over a column whose events are all
    // gate-clearing and distinct, produces a pure prefix sum over the
    // root arrays with the precomputed tree-invariant end points.
    // Bit-identical to the classic loops: `1.0 * m == m` exactly, every
    // gate passes, one event lands per row so add-then-store equals
    // flush-then-add, and the end-point set is the same by definition.
    if let Some(end_point_idx) = &root_col.unit_fast {
        if scratch.unit_weights && col.scales.is_empty() && col.data.len() == root_col.xs.len() {
            return build_events_unit_fast(root_col, labels, n_classes, end_point_idx, kernel);
        }
    }
    // Columns with no ancestor split on this attribute (the common case:
    // every column at the root, most columns below) have all-1 scales;
    // skipping the dense lookup is bitwise free (`m * 1.0 == m`). The
    // flag is a const-generic so the common no-scales loop carries no
    // per-event branch or scale load at all.
    #[cfg(target_arch = "x86_64")]
    if kernel == KernelKind::Simd
        && n_classes <= 4
        && crate::kernel::detected_backend() == crate::kernel::SimdBackend::Avx2
    {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe {
            if col.scales.is_empty() {
                build_events_avx2::<false>(col, root_col, labels, n_classes, scratch, kernel)
            } else {
                build_events_avx2::<true>(col, root_col, labels, n_classes, scratch, kernel)
            }
        };
    }
    if col.scales.is_empty() {
        build_events_scalar::<false>(col, root_col, labels, n_classes, scratch, kernel)
    } else {
        build_events_scalar::<true>(col, root_col, labels, n_classes, scratch, kernel)
    }
}

/// Stack capacity (in classes) of the running-accumulator array; wider
/// problems accumulate into the scratch's heap vector instead.
const RUNNING_STACK_CLASSES: usize = 8;

/// Expands the per-event visit over a column view with the body *inside*
/// the calling function. The construction kernels cannot use
/// [`ColumnData::for_each_event`]: a closure created in a
/// `#[target_feature]` function inherits the caller's features and so
/// can never be inlined into the feature-less generic visitor — every
/// event would pay an outlined call. `continue` in the body skips to the
/// next event.
macro_rules! for_each_event_inline {
    ($data:expr, $root:expr, |$x:ident, $t:ident, $m:ident| $body:block) => {
        let events = &$data.events;
        debug_assert!(events.iter().all(|&e| (e as usize) < $root.xs.len()));
        if events.len() == $root.xs.len() {
            // View event ids are a strictly increasing subset of
            // `0..root len`, so a full-length view is the identity (true
            // of every root column): iterate the root arrays directly and
            // skip the per-event indirection load.
            for e in 0..events.len() {
                // SAFETY: `e < xs.len()` of the root's parallel arrays,
                // which share their length.
                let ($x, $t, $m) = unsafe {
                    (
                        *$root.xs.get_unchecked(e),
                        *$root.tuple.get_unchecked(e),
                        *$root.mass.get_unchecked(e),
                    )
                };
                $body
            }
        } else {
            for &e in events.iter() {
                let e = e as usize;
                // SAFETY: view event ids are indices into the root
                // column's parallel arrays by construction (they are
                // produced by enumerating those arrays and only ever
                // filtered, never remapped).
                let ($x, $t, $m) = unsafe {
                    (
                        *$root.xs.get_unchecked(e),
                        *$root.tuple.get_unchecked(e),
                        *$root.mass.get_unchecked(e),
                    )
                };
                $body
            }
        }
    };
}

/// The portable construction loop of [`events_from_column_with`]: one
/// fused pass over the presorted column — filtering, aggregation and
/// end-point tracking — with the per-class accumulator in registers/L1
/// and row flushes as raw bounds-free writes (the aggregate `Vec`
/// reserves exact capacity up front, and `n_pos <= n_events` by
/// construction, so every write is in bounds). Arithmetic, gates and
/// gate *order* mirror [`AttributeEvents::build`] exactly.
/// Monomorphized on whether the column carries ancestor rescales.
fn build_events_scalar<const HAS_SCALES: bool>(
    col: &ColumnState,
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    scratch: &mut Scratch,
    kernel: KernelKind,
) -> Option<AttributeEvents> {
    debug_assert_eq!(HAS_SCALES, !col.scales.is_empty());
    scratch.reset_touched();
    scratch.running.clear();
    scratch.running.resize(n_classes, 0.0);
    scratch.load_scales(&col.scales);
    let k = n_classes;
    let n_events = col.data.len();
    let mut xs: Vec<f64> = Vec::with_capacity(n_events);
    let mut cum: Vec<f64> = Vec::with_capacity(n_events * k);
    let xs_ptr = xs.as_mut_ptr();
    let cum_ptr = cum.as_mut_ptr();
    let mut n_pos = 0usize;
    // NaN start: the first event always opens a position, and thereafter
    // `x != last_x` is exactly `xs.last() != Some(&x)`.
    let mut last_x = f64::NAN;
    {
        let mut running_stack = [0.0f64; RUNNING_STACK_CLASSES];
        let Scratch {
            weight,
            scale,
            lo_idx,
            hi_idx,
            seen,
            touched,
            running: running_heap,
            ..
        } = scratch;
        let running: &mut [f64] = if k <= RUNNING_STACK_CLASSES {
            &mut running_stack[..k]
        } else {
            running_heap.as_mut_slice()
        };
        for_each_event_inline!(&col.data, root_col, |x, t, m_root| {
            let t = t as usize;
            debug_assert!(t < weight.len() && t < labels.len());
            // SAFETY: tuple ids are `< n_tuples`, the length of every
            // per-tuple scratch array and of `labels`; labels are
            // `< n_classes == running.len()`.
            let w = unsafe { *weight.get_unchecked(t) };
            if w <= WEIGHT_EPSILON {
                continue;
            }
            let event_weight = if HAS_SCALES {
                w * (m_root * unsafe { *scale.get_unchecked(t) })
            } else {
                w * m_root
            };
            if event_weight <= WEIGHT_EPSILON {
                // Same denormal gate as AttributeEvents::build.
                continue;
            }
            if x != last_x {
                if n_pos != 0 {
                    // Flush the finished row.
                    unsafe {
                        let dst = cum_ptr.add((n_pos - 1) * k);
                        for c in 0..k {
                            dst.add(c).write(running[c]);
                        }
                    }
                }
                unsafe { xs_ptr.add(n_pos).write(x) };
                n_pos += 1;
                last_x = x;
            }
            let pos = (n_pos - 1) as u32;
            unsafe {
                *running.get_unchecked_mut(*labels.get_unchecked(t) as usize) += event_weight;
                if !*seen.get_unchecked(t) {
                    *seen.get_unchecked_mut(t) = true;
                    touched.push(t as u32);
                    *lo_idx.get_unchecked_mut(t) = pos;
                }
                *hi_idx.get_unchecked_mut(t) = pos;
            }
        });
        if n_pos != 0 {
            unsafe {
                let dst = cum_ptr.add((n_pos - 1) * k);
                for c in 0..k {
                    dst.add(c).write(running[c]);
                }
                xs.set_len(n_pos);
                cum.set_len(n_pos * k);
            }
        }
    }
    scratch.unload_scales(&col.scales);
    if n_pos == 0 {
        return None;
    }
    let mut end_point_idx: Vec<usize> = scratch
        .touched
        .iter()
        .flat_map(|&t| {
            [
                scratch.lo_idx[t as usize] as usize,
                scratch.hi_idx[t as usize] as usize,
            ]
        })
        .collect();
    end_point_idx.sort_unstable();
    end_point_idx.dedup();
    AttributeEvents::from_matrix(xs, cum, n_classes, end_point_idx, kernel)
}

/// AVX2 variant of [`build_events_scalar`] for `n_classes <= 4`: the
/// per-class running accumulator lives in one `__m256d` register, each
/// event adds its weight to its label's lane through a lane mask, and
/// rows are flushed with one (overlapping) 4-lane store instead of a
/// per-class loop. Bit-identical to the scalar loop: the touched lane
/// performs the same f64 add in the same event order, and the untouched
/// lanes add `+0.0` — exact, because lanes hold sums of non-negative
/// weights and are never `-0.0`. Overlapping stores are ordered (row `i`
/// flushes before row `i+1`), so spilled lanes are overwritten by the
/// next flush; the matrix reserves 4 spare elements for the final row's
/// spill.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unused_unsafe)] // for_each_event_inline!'s unsafe blocks expand inside this unsafe fn
unsafe fn build_events_avx2<const HAS_SCALES: bool>(
    col: &ColumnState,
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    scratch: &mut Scratch,
    kernel: KernelKind,
) -> Option<AttributeEvents> {
    use std::arch::x86_64::*;
    debug_assert!(n_classes <= 4);
    debug_assert_eq!(HAS_SCALES, !col.scales.is_empty());
    scratch.reset_touched();
    scratch.running.clear();
    scratch.running.resize(n_classes, 0.0);
    scratch.load_scales(&col.scales);
    let k = n_classes;
    let n_events = col.data.len();
    let mut xs: Vec<f64> = Vec::with_capacity(n_events);
    let mut cum: Vec<f64> = Vec::with_capacity(n_events * k + 4);
    let xs_ptr = xs.as_mut_ptr();
    let cum_ptr = cum.as_mut_ptr();
    let mut n_pos = 0usize;
    let mut last_x = f64::NAN;
    {
        let lane_masks: [__m256d; 4] = [
            _mm256_castsi256_pd(_mm256_set_epi64x(0, 0, 0, -1)),
            _mm256_castsi256_pd(_mm256_set_epi64x(0, 0, -1, 0)),
            _mm256_castsi256_pd(_mm256_set_epi64x(0, -1, 0, 0)),
            _mm256_castsi256_pd(_mm256_set_epi64x(-1, 0, 0, 0)),
        ];
        let mut running = _mm256_setzero_pd();
        let Scratch {
            weight,
            scale,
            lo_idx,
            hi_idx,
            seen,
            touched,
            ..
        } = scratch;
        for_each_event_inline!(&col.data, root_col, |x, t, m_root| {
            let t = t as usize;
            debug_assert!(t < weight.len() && t < labels.len());
            // SAFETY: tuple ids are `< n_tuples`, the length of every
            // per-tuple scratch array and of `labels`; labels are
            // `< n_classes <= 4`, indexing the four lane masks.
            let w = *weight.get_unchecked(t);
            if w <= WEIGHT_EPSILON {
                continue;
            }
            let event_weight = if HAS_SCALES {
                w * (m_root * *scale.get_unchecked(t))
            } else {
                w * m_root
            };
            if event_weight <= WEIGHT_EPSILON {
                continue;
            }
            if x != last_x {
                if n_pos != 0 {
                    _mm256_storeu_pd(cum_ptr.add((n_pos - 1) * k), running);
                }
                xs_ptr.add(n_pos).write(x);
                n_pos += 1;
                last_x = x;
            }
            running = _mm256_add_pd(
                running,
                _mm256_and_pd(
                    _mm256_set1_pd(event_weight),
                    *lane_masks.get_unchecked(*labels.get_unchecked(t) as usize),
                ),
            );
            let pos = (n_pos - 1) as u32;
            if !*seen.get_unchecked(t) {
                *seen.get_unchecked_mut(t) = true;
                touched.push(t as u32);
                *lo_idx.get_unchecked_mut(t) = pos;
            }
            *hi_idx.get_unchecked_mut(t) = pos;
        });
        if n_pos != 0 {
            _mm256_storeu_pd(cum_ptr.add((n_pos - 1) * k), running);
            xs.set_len(n_pos);
            cum.set_len(n_pos * k);
        }
    }
    scratch.unload_scales(&col.scales);
    if n_pos == 0 {
        return None;
    }
    let mut end_point_idx: Vec<usize> = scratch
        .touched
        .iter()
        .flat_map(|&t| {
            [
                scratch.lo_idx[t as usize] as usize,
                scratch.hi_idx[t as usize] as usize,
            ]
        })
        .collect();
    end_point_idx.sort_unstable();
    end_point_idx.dedup();
    AttributeEvents::from_matrix(xs, cum, n_classes, end_point_idx, kernel)
}

/// The unit fast path of [`events_from_column_with`]: the fused loop with all
/// its gates statically resolved (see the gate at the dispatcher). The
/// output `xs` is the root array verbatim, the end points are the
/// precomputed [`AttrColumn::unit_fast`] structure, and the matrix is a
/// straight per-class prefix sum — no per-tuple scratch traffic, no
/// position bookkeeping, no end-point sort.
fn build_events_unit_fast(
    root_col: &AttrColumn,
    labels: &[u32],
    n_classes: usize,
    end_point_idx: &[usize],
    kernel: KernelKind,
) -> Option<AttributeEvents> {
    let n = root_col.xs.len();
    if n == 0 {
        return None;
    }
    let k = n_classes;
    // 4 spare elements for the AVX2 variant's final overlapping store.
    let mut cum: Vec<f64> = Vec::with_capacity(n * k + 4);
    #[cfg(target_arch = "x86_64")]
    if kernel == KernelKind::Simd
        && k <= 4
        && crate::kernel::detected_backend() == crate::kernel::SimdBackend::Avx2
    {
        // SAFETY: AVX2 support was just verified at runtime; the matrix
        // capacity covers `n * k` plus the last store's lane spill.
        unsafe {
            fill_unit_rows_avx2(root_col, labels, k, cum.as_mut_ptr());
            cum.set_len(n * k);
        }
        return AttributeEvents::from_matrix(
            root_col.xs.clone(),
            cum,
            n_classes,
            end_point_idx.to_vec(),
            kernel,
        );
    }
    fill_unit_rows_scalar(root_col, labels, k, &mut cum);
    AttributeEvents::from_matrix(
        root_col.xs.clone(),
        cum,
        n_classes,
        end_point_idx.to_vec(),
        kernel,
    )
}

/// Portable prefix-sum fill of the unit fast path: row `e` stores the
/// running per-class totals after adding event `e`'s mass — exactly what
/// the classic loop's flush produces when every event opens its own
/// position.
fn fill_unit_rows_scalar(root_col: &AttrColumn, labels: &[u32], k: usize, cum: &mut Vec<f64>) {
    let n = root_col.xs.len();
    let cum_ptr = cum.as_mut_ptr();
    let mut running_stack = [0.0f64; RUNNING_STACK_CLASSES];
    let mut running_heap: Vec<f64> = if k > RUNNING_STACK_CLASSES {
        vec![0.0; k]
    } else {
        Vec::new()
    };
    let running: &mut [f64] = if k <= RUNNING_STACK_CLASSES {
        &mut running_stack[..k]
    } else {
        &mut running_heap
    };
    // SAFETY: tuple ids are `< n_tuples == labels.len()`, labels are
    // `< k == running.len()`, and the caller reserved `n * k` elements.
    unsafe {
        for e in 0..n {
            let t = *root_col.tuple.get_unchecked(e) as usize;
            debug_assert!(t < labels.len());
            let c = *labels.get_unchecked(t) as usize;
            debug_assert!(c < k);
            *running.get_unchecked_mut(c) += *root_col.mass.get_unchecked(e);
            let dst = cum_ptr.add(e * k);
            for ci in 0..k {
                dst.add(ci).write(*running.get_unchecked(ci));
            }
        }
        cum.set_len(n * k);
    }
}

/// AVX2 prefix-sum fill of the unit fast path for `k <= 4`: the running
/// totals live in one `__m256d`, each event adds its mass to its label's
/// lane through a lane mask, and every row is one (overlapping) 4-lane
/// store. Same lane arithmetic as [`build_events_avx2`], so bit-identical
/// to it and (untouched lanes add exact `+0.0`) to the scalar fill.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime and reserved
/// `n * k + 4` elements behind `cum_ptr`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_unit_rows_avx2(root_col: &AttrColumn, labels: &[u32], k: usize, cum_ptr: *mut f64) {
    use std::arch::x86_64::*;
    debug_assert!(k <= 4);
    let lane_masks: [__m256d; 4] = [
        _mm256_castsi256_pd(_mm256_set_epi64x(0, 0, 0, -1)),
        _mm256_castsi256_pd(_mm256_set_epi64x(0, 0, -1, 0)),
        _mm256_castsi256_pd(_mm256_set_epi64x(0, -1, 0, 0)),
        _mm256_castsi256_pd(_mm256_set_epi64x(-1, 0, 0, 0)),
    ];
    let mut running = _mm256_setzero_pd();
    // SAFETY: tuple ids are `< n_tuples == labels.len()`, labels are
    // `< k <= 4` (indexing the lane masks), and the caller's reservation
    // covers every store.
    for e in 0..root_col.xs.len() {
        let t = *root_col.tuple.get_unchecked(e) as usize;
        debug_assert!(t < labels.len());
        running = _mm256_add_pd(
            running,
            _mm256_and_pd(
                _mm256_set1_pd(*root_col.mass.get_unchecked(e)),
                *lane_masks.get_unchecked(*labels.get_unchecked(t) as usize),
            ),
        );
        _mm256_storeu_pd(cum_ptr.add(e * k), running);
    }
}

/// Copies the events of `column` whose tuples keep weight (per the dense
/// `survive` lookup), in order — the shared filter used for every column
/// a split does not rescale (numeric non-split attributes and all
/// columns of a categorical partition). Scales pass through unchanged.
fn filter_column(column: &ColumnState, root_col: &AttrColumn, survive: &[f64]) -> ColumnState {
    let scales = column
        .scales
        .iter()
        .filter(|&&(t, _)| survive[t as usize] > WEIGHT_EPSILON)
        .copied()
        .collect();
    let mut events = Vec::with_capacity(column.data.len());
    for &e in &column.data.events {
        if survive[root_col.tuple[e as usize] as usize] > WEIGHT_EPSILON {
            events.push(e);
        }
    }
    ColumnState {
        scales,
        data: ColumnData { events },
    }
}

/// Splits a node's tuples on `(attribute slot, z)`, producing the left
/// and right children. Implements the fractional-tuple split of §3.2
/// against the columnar layout: linear in the node's event count,
/// stable, no re-sorting, no dense root-sized child vectors. Partition
/// allocation traffic is recorded in `stats`.
pub fn partition_numeric(
    root: &RootColumns,
    node: &NodeTuples,
    slot: usize,
    z: f64,
    scratch: &mut Scratch,
    stats: &mut SearchStats,
) -> (NodeTuples, NodeTuples) {
    let started = Instant::now();
    let col = &node.columns[slot];
    let root_col = &root.columns[slot];

    // The split column's scales stay loaded across all three passes: the
    // side masses below and the child scale chain both read them.
    scratch.load_scales(&col.scales);

    // Pass 1: per-tuple mass on each side of the split.
    scratch.reset_touched();
    {
        let scratch = &mut *scratch;
        col.data.for_each_event(root_col, |x, t, m_root| {
            let t = t as usize;
            if scratch.weight[t] <= WEIGHT_EPSILON {
                return;
            }
            if !scratch.seen[t] {
                scratch.seen[t] = true;
                scratch.touched.push(t as u32);
            }
            let m = m_root * scratch.scale[t];
            if x <= z {
                scratch.left_mass[t] += m;
            } else {
                scratch.right_mass[t] += m;
            }
        });
    }

    // Pass 2: sparse child weights; stash each tuple's left fraction p in
    // `left_mass` and its right fraction in `right_mass` for the scale
    // chain below, and the child weights in `left_w` / `right_w` for the
    // column filters.
    let mut left_pairs: Vec<(u32, f64)> = Vec::new();
    let mut right_pairs: Vec<(u32, f64)> = Vec::new();
    for i in 0..scratch.touched.len() {
        let t = scratch.touched[i] as usize;
        let lm = scratch.left_mass[t];
        let rm = scratch.right_mass[t];
        let total = lm + rm;
        if total <= 0.0 {
            scratch.left_mass[t] = 0.0;
            scratch.right_mass[t] = 0.0;
            continue;
        }
        let p = lm / total;
        let w = scratch.weight[t];
        let wl = w * p;
        let wr = w * (1.0 - p);
        if wl > WEIGHT_EPSILON {
            scratch.left_w[t] = wl;
            left_pairs.push((t as u32, wl));
        }
        if wr > WEIGHT_EPSILON {
            scratch.right_w[t] = wr;
            right_pairs.push((t as u32, wr));
        }
        scratch.left_mass[t] = p;
        scratch.right_mass[t] = 1.0 - p;
    }
    left_pairs.sort_unstable_by_key(|&(t, _)| t);
    right_pairs.sort_unstable_by_key(|&(t, _)| t);
    let (left_alive, left_weights): (Vec<u32>, Vec<f64>) = left_pairs.into_iter().unzip();
    let (right_alive, right_weights): (Vec<u32>, Vec<f64>) = right_pairs.into_iter().unzip();

    // Pass 3: partition every column. The split attribute's events go to
    // the side their position lies on with the tuple's scale divided by
    // its kept fraction (the pdf renormalisation of the fractional
    // split, deferred to consumption time); all other columns keep their
    // events wherever the tuple survives, scales unchanged.
    let left_columns = partition_columns(node, root, slot, true, z, scratch);
    let right_columns = partition_columns(node, root, slot, false, z, scratch);

    scratch.unload_scales(&col.scales);

    let mut left = NodeTuples {
        alive: left_alive,
        weights: left_weights,
        columns: left_columns,
    };
    let mut right = NodeTuples {
        alive: right_alive,
        weights: right_weights,
        columns: right_columns,
    };
    // Release the slack the parent-capacity filter buffers carry, so a
    // skewed split does not pin parent-sized memory under a small
    // subtree — and so the byte accounting reflects surviving data.
    left.shrink_to_fit();
    right.shrink_to_fit();
    let bytes = left.heap_bytes() + right.heap_bytes();
    stats.partition_bytes += bytes;
    stats.partition_peak_bytes = stats.partition_peak_bytes.max(bytes);
    stats.partition_ns += started.elapsed().as_nanos() as u64;
    (left, right)
}

/// Builds one side's child columns for [`partition_numeric`]. Reads the
/// side fractions from `scratch.left_mass` / `scratch.right_mass` and
/// the child weights from `scratch.left_w` / `scratch.right_w`; the
/// split column's parent scales must be loaded in `scratch.scale`.
fn partition_columns(
    node: &NodeTuples,
    root: &RootColumns,
    slot: usize,
    left_side: bool,
    z: f64,
    scratch: &Scratch,
) -> Vec<ColumnState> {
    let survive: &[f64] = if left_side {
        &scratch.left_w
    } else {
        &scratch.right_w
    };
    let fractions: &[f64] = if left_side {
        &scratch.left_mass
    } else {
        &scratch.right_mass
    };
    node.columns
        .iter()
        .enumerate()
        .map(|(j, column)| {
            let root_col = &root.columns[j];
            if j != slot {
                return filter_column(column, root_col, survive);
            }
            // The split column: keep the side's events and extend the
            // per-tuple scale chain by dividing out the kept fraction.
            let mut scales: Vec<(u32, f64)> = Vec::new();
            let keep = |t: usize| survive[t] > WEIGHT_EPSILON;
            let mut events = Vec::with_capacity(column.data.len());
            for &e in &column.data.events {
                let t = root_col.tuple[e as usize] as usize;
                if keep(t) && left_side == (root_col.xs[e as usize] <= z) {
                    events.push(e);
                }
            }
            let data = ColumnData { events };
            // One scale entry per surviving tuple whose chain is not 1,
            // in ascending tuple order (the parent's alive list covers
            // every survivor).
            for &t in node.alive.iter() {
                let t = t as usize;
                if !keep(t) {
                    continue;
                }
                let f = fractions[t];
                if f <= 0.0 {
                    continue;
                }
                let s = scratch.scale[t] / f;
                if s != 1.0 {
                    scales.push((t as u32, s));
                }
            }
            ColumnState { scales, data }
        })
        .collect()
}

/// Splits a node's tuples over the categories of categorical attribute
/// `attribute` (§7.2): bucket `v` receives every tuple with weight
/// `w · f(v)`; numerical columns are filtered to surviving tuples,
/// scales and masses unchanged. Partition allocation traffic is recorded
/// in `stats`.
pub fn partition_categorical(
    root: &RootColumns,
    node: &NodeTuples,
    tuples: &[FractionalTuple],
    attribute: usize,
    cardinality: usize,
    scratch: &mut Scratch,
    stats: &mut SearchStats,
) -> Vec<NodeTuples> {
    let started = Instant::now();
    // Clear any state a preceding partition left behind: the bucket
    // filters below repurpose `left_w` as a dense survival lookup, and
    // this makes the all-zero precondition enforced here rather than
    // relying on an intervening `events_from_column` having reset it.
    scratch.reset_touched();
    let buckets: Vec<NodeTuples> = (0..cardinality)
        .map(|v| {
            let mut alive = Vec::new();
            let mut weights = Vec::new();
            for (&t, &weight) in node.alive.iter().zip(&node.weights) {
                let Some(dist) = tuples[t as usize].values[attribute].as_categorical() else {
                    continue;
                };
                if v >= dist.cardinality() {
                    continue;
                }
                let w = weight * dist.prob(v);
                if w > WEIGHT_EPSILON {
                    alive.push(t);
                    weights.push(w);
                }
            }
            // Dense survival lookup for the column filters (reusing the
            // left-child weight scratch; reset right after).
            for (&t, &w) in alive.iter().zip(&weights) {
                scratch.left_w[t as usize] = w;
            }
            let columns = node
                .columns
                .iter()
                .zip(&root.columns)
                .map(|(column, root_col)| filter_column(column, root_col, &scratch.left_w))
                .collect();
            for &t in &alive {
                scratch.left_w[t as usize] = 0.0;
            }
            let mut bucket = NodeTuples {
                alive,
                weights,
                columns,
            };
            bucket.shrink_to_fit();
            bucket
        })
        .collect();
    let bytes: u64 = buckets.iter().map(NodeTuples::heap_bytes).sum();
    stats.partition_bytes += bytes;
    stats.partition_peak_bytes = stats.partition_peak_bytes.max(bytes);
    stats.partition_ns += started.elapsed().as_nanos() as u64;
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measure;
    use udt_data::UncertainValue;
    use udt_prob::SampledPdf;

    fn ft(points: &[f64], mass: &[f64], label: usize) -> FractionalTuple {
        FractionalTuple {
            values: vec![UncertainValue::Numeric(
                SampledPdf::new(points.to_vec(), mass.to_vec()).unwrap(),
            )],
            label,
            weight: 1.0,
        }
    }

    fn labels(tuples: &[FractionalTuple]) -> Vec<u32> {
        tuples.iter().map(|t| t.label as u32).collect()
    }

    /// Sum of a tuple's scaled masses in one column.
    fn per_tuple_mass(state: &ColumnState, root: &AttrColumn, t: u32) -> f64 {
        let mut total = 0.0;
        state.for_each_scaled(root, |_, owner, m| {
            if owner == t {
                total += m;
            }
        });
        total
    }

    #[test]
    fn root_events_match_direct_build_in_both_modes() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0], &[1.0, 2.0, 1.0], 0),
            ft(&[1.5, 2.5, 3.5], &[1.0, 1.0, 2.0], 1),
        ];
        let root = build_root(&tuples, &[0]);
        let direct = AttributeEvents::build(&tuples, 0, 2).unwrap();
        let state = root_state(&tuples, &root, PartitionMode::View);
        let mut scratch = Scratch::new(tuples.len());
        scratch.load_weights(&state);
        // Both score kernels see the same matrix as the direct build.
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            let from_col = events_from_column_with(
                &state.columns[0],
                &root.columns[0],
                &labels(&tuples),
                2,
                &mut scratch,
                kernel,
            )
            .unwrap();
            assert_eq!(from_col.xs(), direct.xs());
            assert_eq!(from_col.end_point_indices(), direct.end_point_indices());
            for i in 0..direct.n_positions() {
                assert_eq!(
                    from_col.left_counts(i).as_slice(),
                    direct.left_counts(i).as_slice(),
                    "{kernel:?} row {i}"
                );
            }
            for i in 0..direct.n_positions() - 1 {
                assert_eq!(
                    from_col.score_at(i, Measure::Entropy).to_bits(),
                    direct.score_at(i, Measure::Entropy).to_bits(),
                    "{kernel:?} score {i}"
                );
            }
        }
    }

    #[test]
    fn profile_construction_matches_scalar_bit_for_bit() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0], &[1.0, 2.0, 1.0], 0),
            ft(&[1.5, 2.5, 3.5], &[1.0, 1.0, 2.0], 1),
            ft(&[0.5, 1.0, 2.5], &[1.0, 3.0, 1.0], 2),
        ];
        let root = build_root(&tuples, &[0]);
        let state = root_state(&tuples, &root, PartitionMode::View);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        scratch.load_weights(&state);
        // A numeric partition gives the left child non-trivial pdf scales,
        // so the comparison below also exercises the has-scales path.
        let (left, _right) = partition_numeric(&root, &state, 0, 1.5, &mut scratch, &mut stats);
        scratch.unload_weights(&state);
        assert!(!left.columns[0].scales.is_empty());
        for node in [&state, &left] {
            scratch.load_weights(node);
            let build = |kernel, scratch: &mut Scratch| {
                events_from_column_with(
                    &node.columns[0],
                    &root.columns[0],
                    &labels(&tuples),
                    3,
                    scratch,
                    kernel,
                )
                .unwrap()
            };
            let scalar = build(KernelKind::Scalar, &mut scratch);
            let simd = build(KernelKind::Simd, &mut scratch);
            assert_eq!(simd.xs(), scalar.xs());
            assert_eq!(simd.end_point_indices(), scalar.end_point_indices());
            // The batch kernel's construction loops store bitwise the
            // scalar loop's matrix.
            let bits = |ev: &AttributeEvents| -> Vec<u64> {
                ev.cum().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&simd), bits(&scalar));
            scratch.unload_weights(node);
        }
    }

    #[test]
    fn numeric_partition_matches_fractional_split() {
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0, 3.0], &[0.25, 0.25, 0.25, 0.25], 0),
            ft(&[2.0, 3.0, 4.0, 5.0], &[0.25, 0.25, 0.25, 0.25], 1),
        ];
        let root = build_root(&tuples, &[0]);
        let state = root_state(&tuples, &root, PartitionMode::View);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        scratch.load_weights(&state);
        let (left, right) = partition_numeric(&root, &state, 0, 2.0, &mut scratch, &mut stats);
        scratch.unload_weights(&state);
        // Tuple 0 keeps 3/4 of its mass left, tuple 1 keeps 1/4 left.
        let weight_of = |node: &NodeTuples, t: u32| -> f64 {
            node.alive
                .iter()
                .position(|&a| a == t)
                .map_or(0.0, |i| node.weights[i])
        };
        assert!((weight_of(&left, 0) - 0.75).abs() < 1e-12);
        assert!((weight_of(&left, 1) - 0.25).abs() < 1e-12);
        assert!((weight_of(&right, 0) - 0.25).abs() < 1e-12);
        assert!((weight_of(&right, 1) - 0.75).abs() < 1e-12);
        // The split column's scaled masses are renormalised per tuple.
        for node in [&left, &right] {
            for t in [0u32, 1] {
                let total = per_tuple_mass(&node.columns[0], &root.columns[0], t);
                assert!((total - 1.0).abs() < 1e-9, "mass {total} for tuple {t}");
            }
        }
        // Columns stay sorted.
        for node in [&left, &right] {
            let mut prev = f64::NEG_INFINITY;
            node.columns[0]
                .data
                .for_each_event(&root.columns[0], |x, _, _| {
                    assert!(prev <= x);
                    prev = x;
                });
        }
        // Reference: the same split through the fractional-tuple path.
        for (t, tuple) in tuples.iter().enumerate() {
            let (l, r) = tuple.split_numeric(0, 2.0);
            assert!((l.map_or(0.0, |x| x.weight) - weight_of(&left, t as u32)).abs() < 1e-12);
            assert!((r.map_or(0.0, |x| x.weight) - weight_of(&right, t as u32)).abs() < 1e-12);
        }
        // Partition traffic was recorded.
        assert!(stats.partition_bytes > 0);
        assert_eq!(stats.partition_peak_bytes, stats.partition_bytes);
    }

    #[test]
    fn partitioned_columns_reproduce_fractional_tuple_events() {
        // After one split, the child columns must yield the same scoring
        // structure as rebuilding from explicitly split fractional tuples.
        let tuples = vec![
            ft(&[0.0, 1.0, 2.0, 3.0], &[1.0, 2.0, 2.0, 1.0], 0),
            ft(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 1.0, 1.0], 1),
            ft(&[2.0, 3.0, 4.0, 5.0], &[2.0, 1.0, 1.0, 2.0], 0),
        ];
        let root = build_root(&tuples, &[0]);
        let z = 2.0;
        // Reference: split every tuple fractionally, rebuild from scratch.
        let left_tuples: Vec<FractionalTuple> = tuples
            .iter()
            .filter_map(|t| t.split_numeric(0, z).0)
            .collect();
        let reference = AttributeEvents::build(&left_tuples, 0, 2).unwrap();
        let state = root_state(&tuples, &root, PartitionMode::View);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        scratch.load_weights(&state);
        let (left, _right) = partition_numeric(&root, &state, 0, z, &mut scratch, &mut stats);
        scratch.unload_weights(&state);
        scratch.load_weights(&left);
        let got = events_from_column(
            &left.columns[0],
            &root.columns[0],
            &labels(&tuples),
            2,
            &mut scratch,
        )
        .unwrap();
        scratch.unload_weights(&left);
        assert_eq!(got.xs(), reference.xs());
        for i in 0..reference.n_positions() {
            let g = got.left_counts(i);
            let r = reference.left_counts(i);
            for c in 0..2 {
                assert!(
                    (g.get(c) - r.get(c)).abs() < 1e-12,
                    "row {i} class {c}: {} vs {}",
                    g.get(c),
                    r.get(c)
                );
            }
        }
    }

    #[test]
    fn categorical_partition_scales_weights() {
        use udt_prob::DiscreteDist;
        let tuples = vec![FractionalTuple {
            values: vec![
                UncertainValue::Categorical(DiscreteDist::new(vec![0.5, 0.0, 0.5]).unwrap()),
                UncertainValue::point(1.0),
            ],
            label: 0,
            weight: 0.8,
        }];
        let root = build_root(&tuples, &[1]);
        let state = root_state(&tuples, &root, PartitionMode::View);
        assert_eq!(state.weights, vec![0.8]);
        let mut scratch = Scratch::new(tuples.len());
        let mut stats = SearchStats::default();
        let buckets = partition_categorical(&root, &state, &tuples, 0, 3, &mut scratch, &mut stats);
        assert_eq!(buckets.len(), 3);
        assert!((buckets[0].weights[0] - 0.4).abs() < 1e-12);
        assert!(buckets[1].alive.is_empty());
        assert!((buckets[2].weights[0] - 0.4).abs() < 1e-12);
        // Numerical columns follow the surviving tuples.
        assert_eq!(buckets[0].columns[0].data.len(), 1);
        assert_eq!(buckets[1].columns[0].data.len(), 0);
        assert!(stats.partition_bytes > 0);
    }
}

//! Lane-batched, SIMD-dispatched, cache-ordered evaluation kernels over a
//! linearized tape.
//!
//! The polytime queries of [`crate::queries`] are linear arena sweeps — the
//! same DAG walked again and again with different leaf values. That is the
//! hot path of a compile-once/query-many deployment, and it is
//! embarrassingly regular, so this module trades the pointer-chasing
//! `NnfNode` walk for a dense instruction tape built once per circuit:
//!
//! * **[`EvalTape`]** — the reachable arena linearized into struct-of-arrays
//!   form: one op tag per node, child edges in a single CSR arc array, and
//!   literals in a parallel column. A sweep is a forward scan over
//!   contiguous slices; nothing is re-discovered per query. Within each
//!   dependency layer, slots are reordered so gates appear in the order of
//!   their first child's slot (children-contiguous CSR ordering): a layer's
//!   child reads then advance roughly monotonically through the previous
//!   layers instead of hopping across them, which keeps the sweep inside
//!   the cache lines it just filled.
//! * **One sum-product lane kernel** — [`EvalTape::sum_product_batch`]
//!   gives every node a `[f64; LANES]` value plane and answers `LANES`
//!   queries per tape scan, whatever their kind. On a smooth d-DNNF a model
//!   count is WMC under 0/1 literal weights, so each lane holds one of
//!   three inputs ([`SumProductLane`]): a weight table (WMC, marginals),
//!   evidence read as 0/1 leaves (count under evidence), or unit weights
//!   (model count). A marginals lane additionally asks for the backward
//!   derivative pass, which runs only for a lane group holding one, and
//!   only such lanes accumulate literal marginals. Count lanes are exact in
//!   `f64` while `num_vars ≤ 53` (`f64::MANTISSA_DIGITS`): every node of a
//!   smooth, deterministic, decomposable circuit counts at most
//!   `2^num_vars` models, so every partial product and partial sum is an
//!   integer `f64` represents exactly. Count lanes of wider circuits take a
//!   `u128` lane sweep instead (counted as `kernel.u128_sweeps`).
//!   [`EvalTape::max_weight_batch`] runs the same forward loop as a
//!   max-product instance for MPE.
//! * **Explicit SIMD** — the per-node inner loops of the forward sweeps
//!   and of the backward derivative pass run on the widest
//!   [`LaneBackend`] the CPU supports — one AVX-512 register or two AVX2
//!   registers per plane on `x86_64`, four NEON registers on `aarch64` —
//!   with the plain `[f64; 8]` scalar-lane path always compiled as the
//!   bit-identical fallback (and the only path when the `simd` cargo
//!   feature is off). The derivative pass replaces the scalar pass's
//!   per-lane `d == 0` skip with a lane mask and a select, so skipped
//!   lanes keep their bits.
//! * **Layer scheduling on a persistent pool** — nodes are stored grouped
//!   by dependency depth (children always in strictly earlier layers), so
//!   each layer is a contiguous block that
//!   [`EvalTape::sum_product_batch_layered`] fans out across the persistent
//!   [`SweepPool`]: workers claim chunks of each layer off a shared cursor
//!   (chunked work-stealing) and meet at one barrier per layer. No threads
//!   are spawned per sweep.
//!
//! Every lane answers **bit-identically** to the corresponding scalar
//! oracle in [`crate::queries`] (`wmc_presmoothed`,
//! `model_count_presmoothed`, `model_count_under_presmoothed`,
//! `wmc_marginals_presmoothed`, and — value and assignment —
//! `max_weight_presmoothed`), whatever else shares its lane group: per
//! node, the same floating-point operations run in the same per-lane order
//! on every backend and under every schedule, the order-sensitive
//! derivative accumulation replays the original arena order via a stored
//! permutation, and the MPE traceback walks the oracle's traversal order.
//! The one-query scalar tape passes ([`EvalTape::wmc`],
//! [`EvalTape::model_count`], [`EvalTape::model_count_under`]) are kept as
//! test oracles only. `crates/nnf/tests/kernel_equiv.rs` and
//! `tests/kernel_props.rs` assert all of this across the crosscheck
//! corpus, for every supported backend.
//!
//! Preconditions match the `_presmoothed` queries: the circuit must be
//! decomposable, deterministic, and already smooth with the root covering
//! the full universe (`trl-engine`'s `PreparedCircuit` guarantees this).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use crate::circuit::{Circuit, NnfId, NnfNode};
use crate::pool::SweepPool;
use crate::queries::LitWeights;
use crate::simd::LaneBackend;
use trl_core::{Assignment, Lit, PartialAssignment, Var};

/// Queries answered per tape scan by the lane-batched kernels. Eight `f64`
/// lanes fill one AVX-512 register, two AVX2 registers, or four NEON
/// registers; the scalar-lane fallback is written so the compiler
/// auto-vectorizes it at the baseline feature level.
pub const LANES: usize = 8;

/// Tape slots a pool worker claims per cursor fetch in the layered sweep:
/// small enough to load-balance ragged layers, large enough that the
/// atomic claim is amortized over thousands of lane operations.
const POOL_CHUNK: usize = 256;

/// Publishes one batched-kernel entry to the process metrics: one sweep
/// per lane group, plus the lanes actually filled (dead lanes excluded) —
/// the ratio is the batch's lane utilization. A few relaxed atomic adds
/// per *batch*, not per query.
fn record_sweeps(queries: usize) {
    trl_obs::counter!("kernel.sweeps").add(queries.div_ceil(LANES) as u64);
    trl_obs::counter!("kernel.lanes_filled").add(queries as u64);
}

/// Trace-span name for a batched sweep on `backend`. Span names must be
/// `&'static str` (the flight recorder stores them by pointer), so the
/// backend is baked into the name — a trace shows which lane path
/// actually ran, not just that a sweep happened.
fn sweep_span_name(backend: LaneBackend) -> &'static str {
    match backend {
        LaneBackend::Scalar => "kernel.sweep.scalar",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        LaneBackend::Avx2 => "kernel.sweep.avx2",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        LaneBackend::Avx512 => "kernel.sweep.avx512",
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        LaneBackend::Neon => "kernel.sweep.neon",
    }
}

/// The largest derivative buffer, in planes (1 MiB), a thread keeps for
/// the next batch. A larger one is freed once its batch is answered, so a
/// thread that once answered marginals on a big tape does not hold that
/// tape's derivative planes for the life of the process.
const KEPT_DERIVATIVE_PLANES: usize = 1 << 14;

/// The widest variable universe whose count lanes stay in `f64`: every
/// integer up to `2^53` is exact in `f64`, and no node of a smooth d-DNNF
/// over `n` variables counts more than `2^n` models.
const F64_EXACT_COUNT_VARS: usize = f64::MANTISSA_DIGITS as usize;

/// One query of a sum-product lane group: what
/// [`EvalTape::sum_product_batch`] sweeps in one lane.
#[derive(Clone, Copy, Debug)]
pub enum SumProductLane<'a> {
    /// Weighted model count under the literal weights.
    Wmc(&'a LitWeights),
    /// WMC plus every literal's marginal (the backward derivative pass).
    Marginals(&'a LitWeights),
    /// Model count over the circuit's universe: unit literal weights.
    Count,
    /// Model count under evidence: a literal the evidence falsifies
    /// weighs 0, every other literal 1.
    CountUnder(&'a PartialAssignment),
}

impl SumProductLane<'_> {
    fn is_count(&self) -> bool {
        matches!(self, SumProductLane::Count | SumProductLane::CountUnder(_))
    }

    fn leaves(&self) -> Leaves<'_> {
        match *self {
            SumProductLane::Wmc(w) | SumProductLane::Marginals(w) => Leaves::Weights(w),
            SumProductLane::Count => Leaves::Unit,
            SumProductLane::CountUnder(pa) => Leaves::Evidence(pa),
        }
    }
}

/// The answer of one [`SumProductLane`].
#[derive(Clone, Debug, PartialEq)]
pub enum SumProductAnswer {
    /// The weighted model count.
    Wmc(f64),
    /// The weighted model count and, per variable,
    /// `(WMC(Δ∧v), WMC(Δ∧¬v))`.
    Marginals {
        /// The total weighted model count.
        wmc: f64,
        /// Per-variable literal marginals.
        marginals: Vec<(f64, f64)>,
    },
    /// An exact model count.
    Count(u128),
}

/// The literal values one lane's leaves take.
#[derive(Clone, Copy)]
enum Leaves<'a> {
    Weights(&'a LitWeights),
    Evidence(&'a PartialAssignment),
    Unit,
}

impl Leaves<'_> {
    /// The literal's value in an `f64` lane.
    #[inline(always)]
    fn weight(&self, l: Lit) -> f64 {
        match *self {
            Leaves::Weights(w) => w.get(l),
            Leaves::Evidence(pa) if pa.eval(l) == Some(false) => 0.0,
            Leaves::Evidence(_) | Leaves::Unit => 1.0,
        }
    }

    /// The literal's value in a `u128` count lane: 0 where the evidence
    /// falsifies it, else 1.
    #[inline(always)]
    fn count(&self, l: Lit) -> u128 {
        match *self {
            Leaves::Evidence(pa) => (pa.eval(l) != Some(false)) as u128,
            Leaves::Unit => 1,
            Leaves::Weights(_) => unreachable!("weight tables never take a count lane"),
        }
    }
}

/// One instruction tag on the tape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    /// The constant false.
    False,
    /// The constant true.
    True,
    /// A literal leaf; the literal lives in the parallel `lits` column.
    Lit,
    /// An and-gate over a CSR edge slice.
    And,
    /// An or-gate over a CSR edge slice.
    Or,
}

/// A 64-byte-aligned backing buffer of `[f64; LANES]` value planes. A
/// plain `Vec<[f64; LANES]>` is only 8-byte aligned, so a full-width
/// register access to a plane would span two cache lines seven times out
/// of eight; aligning the first plane to a line boundary makes every
/// plane line-exact (one plane is exactly one 64-byte line).
#[derive(Default)]
struct PlaneBuf {
    buf: Vec<f64>,
    /// Offset (in `f64`s) of the first aligned plane.
    off: usize,
    /// Number of planes.
    len: usize,
}

/// A thread's reusable plane buffer: taken out of its cell for a sweep and
/// put back afterwards.
type ThreadPlane = std::thread::LocalKey<std::cell::Cell<PlaneBuf>>;

thread_local! {
    /// Each thread's forward value planes, kept between sweeps.
    static THREAD_PLANE: std::cell::Cell<PlaneBuf> = const {
        std::cell::Cell::new(PlaneBuf { buf: Vec::new(), off: 0, len: 0 })
    };
    /// Each thread's derivative planes for the marginals pass, followed by
    /// the prefix-product scratch of the tape's widest and-gate, kept
    /// between sweeps up to [`KEPT_DERIVATIVE_PLANES`].
    static THREAD_DERIVATIVES: std::cell::Cell<PlaneBuf> = const {
        std::cell::Cell::new(PlaneBuf { buf: Vec::new(), off: 0, len: 0 })
    };
}

impl PlaneBuf {
    /// Runs `f` on this thread's buffer `key`, sized to `len` planes. The
    /// buffer is reused from sweep to sweep and only grows, up to `keep`
    /// planes: a larger one is freed after `f`. Its contents are never
    /// cleared here. A forward sweep stores each slot before it reads that
    /// slot (children sit below their parents on the tape); the derivative
    /// pass zeroes its planes itself, once per lane group.
    fn with_thread_plane<R>(
        key: &'static ThreadPlane,
        len: usize,
        keep: usize,
        f: impl FnOnce(&mut PlaneBuf) -> R,
    ) -> R {
        // Taken out, not borrowed: a nested sweep on this thread (none
        // exists today) would get a fresh buffer instead of a panic.
        let mut plane = key.with(std::cell::Cell::take);
        let need = len * LANES + LANES - 1;
        if plane.buf.len() < need {
            plane.buf = vec![0.0f64; need];
            plane.off = plane.buf.as_ptr().align_offset(64).min(LANES - 1);
        }
        plane.len = len;
        let out = f(&mut plane);
        if len <= keep {
            key.with(|cell| cell.set(plane));
        }
        out
    }

    fn as_mut_ptr(&mut self) -> *mut [f64; LANES] {
        unsafe { self.buf.as_mut_ptr().add(self.off) as *mut [f64; LANES] }
    }

    fn as_ptr(&self) -> *const [f64; LANES] {
        self.planes().as_ptr()
    }

    fn planes(&self) -> &[[f64; LANES]] {
        // SAFETY: the buffer holds `len * LANES` doubles starting at
        // `off`, and `[f64; LANES]` has alignment 8 which `off` respects.
        unsafe {
            std::slice::from_raw_parts(
                self.buf.as_ptr().add(self.off) as *const [f64; LANES],
                self.len,
            )
        }
    }
}

/// A raw pointer to the value plane, shared with pool workers for the
/// duration of one layered sweep. Workers write disjoint slot ranges
/// (chunked cursor claims are unique) and a barrier separates each
/// layer's writes from the next layer's reads, so no cell is ever written
/// and read concurrently.
struct SharedPlane(*mut [f64; LANES]);

// SAFETY: disjoint writes per layer plus barrier-ordered cross-layer
// reads; see `SharedPlane`'s doc comment and `forward_lanes_pooled`.
unsafe impl Sync for SharedPlane {}

/// The reachable arena of a smooth circuit, linearized into a contiguous,
/// layer-ordered instruction tape (struct-of-arrays). Build once per
/// circuit with [`EvalTape::new`], then answer any number of counting-style
/// queries through the kernels; see the module docs for the layout.
#[derive(Clone, Debug)]
pub struct EvalTape {
    num_vars: usize,
    /// Op tag per tape slot.
    ops: Vec<Op>,
    /// Literal per tape slot; meaningful only where `ops` says `Lit`.
    lits: Vec<Lit>,
    /// CSR offsets into `edges`, one entry per tape slot plus a sentinel.
    edge_start: Vec<u32>,
    /// Child tape indices of every gate, concatenated in gate-input order.
    edges: Vec<u32>,
    /// Layer boundaries: nodes `layer_start[l]..layer_start[l+1]` form
    /// dependency layer `l`; all their children sit in earlier layers.
    layer_start: Vec<u32>,
    /// Tape indices listed in original arena order — the replay schedule
    /// for the order-sensitive derivative pass of the marginal kernel.
    arena_order: Vec<u32>,
    /// Inputs of the widest and-gate: the prefix-product planes the
    /// derivative pass needs past the tape's own.
    widest_and: usize,
    /// The root's tape slot (always the last slot: the root is an ancestor
    /// of every reachable node, so it alone occupies the top layer).
    root: u32,
    /// The SIMD backend the lane-batched sweeps dispatch to; detected at
    /// build time, overridable per tape via [`EvalTape::set_lane_backend`].
    backend: LaneBackend,
}

impl EvalTape {
    /// Linearizes the nodes reachable from the root of `circuit`.
    ///
    /// Unreachable arena nodes are dropped; the survivors are stored
    /// grouped by dependency layer with gate inputs rewritten to tape
    /// indices. Layer 0 (the leaves) keeps its arena-relative order — the
    /// marginal kernels rely on that — while every later layer is sorted
    /// by first-child slot so a layer's CSR reads walk the earlier layers
    /// roughly in storage order (cache locality; the effect shows up in
    /// sweep times normalized by `kernel.tape_nodes`).
    pub fn new(circuit: &Circuit) -> EvalTape {
        let root = circuit.root().index();
        // Reachability: the arena is topological, so one reverse scan from
        // the root marks every reachable node.
        let mut reach = vec![false; root + 1];
        reach[root] = true;
        for i in (0..=root).rev() {
            if !reach[i] {
                continue;
            }
            if let NnfNode::And(xs) | NnfNode::Or(xs) = circuit.node(NnfId(i as u32)) {
                for x in xs {
                    reach[x.index()] = true;
                }
            }
        }

        // Dependency depth per reachable node: leaves are layer 0, gates
        // sit one past their deepest input.
        let mut level = vec![0u32; root + 1];
        let mut max_level = 0u32;
        for i in 0..=root {
            if !reach[i] {
                continue;
            }
            if let NnfNode::And(xs) | NnfNode::Or(xs) = circuit.node(NnfId(i as u32)) {
                let l = xs.iter().map(|x| level[x.index()] + 1).max().unwrap_or(0);
                level[i] = l;
                max_level = max_level.max(l);
            }
        }

        // Counting sort by layer: `order` lists the reachable nodes grouped
        // by layer, each layer in arena order. Layers past the leaves are
        // then reordered by (op, first-child slot) and assigned tape slots
        // one layer at a time: since every child's slot is already fixed
        // (strictly earlier layer), the sort key is exact. Grouping by op
        // first turns the kernel's per-node dispatch into long predictable
        // runs; within a run the CSR reads advance monotonically in the
        // common chain/fan-out shapes. Ties keep arena order.
        let layers = max_level as usize + 1;
        let mut layer_start = vec![0u32; layers + 1];
        for i in 0..=root {
            if reach[i] {
                layer_start[level[i] as usize + 1] += 1;
            }
        }
        for l in 0..layers {
            layer_start[l + 1] += layer_start[l];
        }
        let count = layer_start[layers] as usize;
        let mut order = vec![0u32; count];
        let mut fill = layer_start.clone();
        for i in 0..=root {
            if reach[i] {
                let at = &mut fill[level[i] as usize];
                order[*at as usize] = i as u32;
                *at += 1;
            }
        }
        // `slot` maps arena index → tape slot; `order` becomes its inverse.
        let mut slot = vec![u32::MAX; root + 1];
        let mut keyed: Vec<(u64, u32)> = Vec::new();
        for l in 0..layers {
            let (lo, hi) = (layer_start[l] as usize, layer_start[l + 1] as usize);
            if l > 0 {
                keyed.clear();
                keyed.extend(order[lo..hi].iter().map(|&i| {
                    let (op, xs): (u64, &[NnfId]) = match circuit.node(NnfId(i)) {
                        NnfNode::And(xs) => (0, xs),
                        NnfNode::Or(xs) => (1, xs),
                        _ => (2, &[]),
                    };
                    let first = xs.first().map_or(u32::MAX, |x| slot[x.index()]);
                    ((op << 32) | first as u64, i)
                }));
                keyed.sort_unstable();
                for (at, &(_, i)) in order[lo..hi].iter_mut().zip(&keyed) {
                    *at = i;
                }
            }
            for t in lo..hi {
                slot[order[t] as usize] = t as u32;
            }
        }
        let mut arena_order = Vec::with_capacity(count);
        for i in 0..=root {
            if reach[i] {
                arena_order.push(slot[i]);
            }
        }

        // Fill the tape columns in tape order.
        let mut ops = vec![Op::False; count];
        let mut lits = vec![Var(0).positive(); count];
        let mut edge_start = vec![0u32; count + 1];
        let mut edges = Vec::with_capacity(circuit.edge_count());
        let mut widest_and = 0;
        for (t, &i) in order.iter().enumerate() {
            edge_start[t] = edges.len() as u32;
            ops[t] = match circuit.node(NnfId(i)) {
                NnfNode::False => Op::False,
                NnfNode::True => Op::True,
                NnfNode::Lit(l) => {
                    lits[t] = *l;
                    Op::Lit
                }
                NnfNode::And(xs) => {
                    edges.extend(xs.iter().map(|x| slot[x.index()]));
                    widest_and = widest_and.max(xs.len());
                    Op::And
                }
                NnfNode::Or(xs) => {
                    edges.extend(xs.iter().map(|x| slot[x.index()]));
                    Op::Or
                }
            };
        }
        edge_start[count] = edges.len() as u32;

        debug_assert_eq!(slot[root] as usize, count - 1, "root tops the tape");
        trl_obs::counter!("kernel.tape_builds").inc();
        trl_obs::counter!("kernel.tape_nodes").add(count as u64);
        EvalTape {
            num_vars: circuit.num_vars(),
            ops,
            lits,
            edge_start,
            edges,
            layer_start,
            arena_order,
            widest_and,
            root: (count - 1) as u32,
            backend: LaneBackend::detect(),
        }
    }

    /// Number of tape slots (reachable circuit nodes).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty (never: even `⊥` occupies one slot).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of dependency layers.
    pub fn num_layers(&self) -> usize {
        self.layer_start.len() - 1
    }

    /// The variable universe size of the underlying circuit.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The [`LaneBackend`] the lane-batched sweeps currently dispatch to.
    pub fn lane_backend(&self) -> LaneBackend {
        self.backend
    }

    /// Forces the lane-batched sweeps onto `backend`. Unsupported requests
    /// fall back to [`LaneBackend::Scalar`] (always available) rather than
    /// risking an illegal instruction; answers are bit-identical either
    /// way, so this is a pure performance/testing knob — forcing `Scalar`
    /// keeps the fallback path exercised on SIMD-capable hosts.
    pub fn set_lane_backend(&mut self, backend: LaneBackend) {
        self.backend = if backend.is_supported() {
            backend
        } else {
            LaneBackend::Scalar
        };
    }

    /// A 64-bit digest of the tape layout: the op and literal of every
    /// slot, the CSR offsets and edges, the layer bounds, the arena-order
    /// replay schedule and the root slot. Equal digests mean the kernels
    /// run the same instructions in the same order; the structural
    /// identity tests pin tape construction with it.
    pub fn layout_digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = trl_core::FxHasher::default();
        h.write_usize(self.num_vars);
        for (op, lit) in self.ops.iter().zip(&self.lits) {
            h.write_u8(*op as u8);
            if *op == Op::Lit {
                h.write_u32(lit.code());
            }
        }
        for column in [
            &self.edge_start,
            &self.edges,
            &self.layer_start,
            &self.arena_order,
        ] {
            h.write_usize(column.len());
            for &x in column.iter() {
                h.write_u32(x);
            }
        }
        h.write_u32(self.root);
        h.finish()
    }

    /// The tape's child slice for slot `i`.
    #[inline]
    fn children(&self, i: usize) -> &[u32] {
        &self.edges[self.edge_start[i] as usize..self.edge_start[i + 1] as usize]
    }

    // ------------------------------------------------------------------
    // Scalar tape kernels: one query per scan, no `NnfNode` dispatch.
    // ------------------------------------------------------------------

    /// Weighted model count: bit-identical to
    /// [`Circuit::wmc_presmoothed`](crate::circuit::Circuit).
    pub fn wmc(&self, w: &LitWeights) -> f64 {
        // Single-query scans never touch the lane backends, so the span
        // name distinguishes them from the lane-batched sweeps.
        let _sweep = trl_obs::trace_span("kernel.sweep.single");
        let mut val = vec![0.0f64; self.len()];
        for i in 0..self.len() {
            val[i] = match self.ops[i] {
                Op::False => 0.0,
                Op::True => 1.0,
                Op::Lit => w.get(self.lits[i]),
                Op::And => {
                    let mut acc = 1.0;
                    for &ch in self.children(i) {
                        acc *= val[ch as usize];
                    }
                    acc
                }
                Op::Or => {
                    let mut acc = 0.0;
                    for &ch in self.children(i) {
                        acc += val[ch as usize];
                    }
                    acc
                }
            };
        }
        val[self.root as usize]
    }

    /// Model count: equal to
    /// [`Circuit::model_count_presmoothed`](crate::circuit::Circuit).
    pub fn model_count(&self) -> u128 {
        self.count_with(|_| 1)
    }

    /// Model count under evidence: equal to
    /// [`Circuit::model_count_under_presmoothed`](crate::circuit::Circuit).
    pub fn model_count_under(&self, pa: &PartialAssignment) -> u128 {
        self.count_with(|l| (pa.eval(l) != Some(false)) as u128)
    }

    fn count_with(&self, leaf: impl Fn(Lit) -> u128) -> u128 {
        let _sweep = trl_obs::trace_span("kernel.sweep.single");
        let mut val = vec![0u128; self.len()];
        for i in 0..self.len() {
            val[i] = match self.ops[i] {
                Op::False => 0,
                Op::True => 1,
                Op::Lit => leaf(self.lits[i]),
                Op::And => self
                    .children(i)
                    .iter()
                    .map(|&ch| val[ch as usize])
                    .product(),
                Op::Or => self.children(i).iter().map(|&ch| val[ch as usize]).sum(),
            };
        }
        val[self.root as usize]
    }

    /// WMC plus all literal marginals: bit-identical to
    /// [`Circuit::wmc_marginals_presmoothed`](crate::circuit::Circuit).
    pub fn marginals(&self, w: &LitWeights) -> (f64, Vec<(f64, f64)>) {
        let mut out = self.marginals_batch(&[w]);
        out.pop().expect("one lane in, one answer out")
    }

    // ------------------------------------------------------------------
    // Lane-batched kernels: LANES queries per scan, SIMD per node.
    // ------------------------------------------------------------------

    /// Answers every sum-product query — WMC, marginals, model counts
    /// with or without evidence, in any mix — `LANES` at a time: one tape
    /// scan fills every lane of a `[f64; LANES]` value plane through the
    /// active [`LaneBackend`], so the traversal cost is amortized across
    /// the group and each node's arithmetic runs on the widest vector unit
    /// available. The derivative pass runs only for a lane group holding a
    /// [`SumProductLane::Marginals`] lane. Answers come back in input
    /// order, each bit-identical to its scalar oracle on every backend
    /// (counts: equal integers).
    ///
    /// Count lanes of a circuit over more than 53 variables would not be
    /// exact in `f64`; they are answered by a separate `u128` lane sweep.
    pub fn sum_product_batch(&self, lanes: &[SumProductLane<'_>]) -> Vec<SumProductAnswer> {
        self.sum_product(lanes, None)
    }

    /// [`EvalTape::sum_product_batch`] with each dependency layer of the
    /// forward sweep fanned out across up to `threads` workers of the
    /// process-global persistent [`SweepPool`] (chunked work-stealing
    /// within a layer, one barrier per layer, no thread spawned per
    /// sweep). Intended for large circuits, where a layer holds enough
    /// nodes to amortize the synchronization; answers remain
    /// bit-identical because every node still runs the same per-node
    /// arithmetic — only the schedule changes. The order-sensitive
    /// derivative pass stays sequential. Falls back to the sequential
    /// kernel when fewer than two workers are available (`threads <= 1`,
    /// or a single-CPU host whose global pool has size 1).
    pub fn sum_product_batch_layered(
        &self,
        lanes: &[SumProductLane<'_>],
        threads: usize,
    ) -> Vec<SumProductAnswer> {
        self.sum_product_batch_pooled(lanes, SweepPool::global(), threads)
    }

    /// [`EvalTape::sum_product_batch_layered`] against an explicit pool —
    /// the entry point tests and benchmarks use to exercise real worker
    /// threads regardless of the host's CPU count.
    pub fn sum_product_batch_pooled(
        &self,
        lanes: &[SumProductLane<'_>],
        pool: &SweepPool,
        threads: usize,
    ) -> Vec<SumProductAnswer> {
        self.sum_product(lanes, self.layered_schedule(pool, threads))
    }

    /// WMC per weight table: [`EvalTape::sum_product_batch`] over
    /// [`SumProductLane::Wmc`] lanes.
    pub fn wmc_batch(&self, weights: &[&LitWeights]) -> Vec<f64> {
        self.wmc_lanes(weights, None)
    }

    /// WMC per weight table on the layered schedule:
    /// [`EvalTape::sum_product_batch_layered`] over WMC lanes.
    pub fn wmc_batch_layered(&self, weights: &[&LitWeights], threads: usize) -> Vec<f64> {
        self.wmc_batch_pooled(weights, SweepPool::global(), threads)
    }

    /// [`EvalTape::wmc_batch_layered`] against an explicit pool.
    pub fn wmc_batch_pooled(
        &self,
        weights: &[&LitWeights],
        pool: &SweepPool,
        threads: usize,
    ) -> Vec<f64> {
        self.wmc_lanes(weights, self.layered_schedule(pool, threads))
    }

    /// The pool and participant count a layered sweep over `threads`
    /// workers of `pool` runs with, or `None` for the sequential kernel
    /// when fewer than two workers would take part.
    fn layered_schedule<'p>(
        &self,
        pool: &'p SweepPool,
        threads: usize,
    ) -> Option<(&'p SweepPool, usize)> {
        let participants = threads.min(pool.size());
        (participants > 1 && self.len() >= 2).then_some((pool, participants))
    }

    fn wmc_lanes(&self, weights: &[&LitWeights], pool: Option<(&SweepPool, usize)>) -> Vec<f64> {
        let lanes: Vec<SumProductLane> = weights.iter().map(|w| SumProductLane::Wmc(w)).collect();
        self.sum_product(&lanes, pool)
            .into_iter()
            .map(|answer| match answer {
                SumProductAnswer::Wmc(x) => x,
                _ => unreachable!("a WMC lane answers a WMC"),
            })
            .collect()
    }

    /// WMC plus all literal marginals per weight table:
    /// [`EvalTape::sum_product_batch`] over [`SumProductLane::Marginals`]
    /// lanes, bit-identical to
    /// [`Circuit::wmc_marginals_presmoothed`](crate::circuit::Circuit).
    pub fn marginals_batch(&self, weights: &[&LitWeights]) -> Vec<(f64, Vec<(f64, f64)>)> {
        let lanes: Vec<SumProductLane> = weights
            .iter()
            .map(|w| SumProductLane::Marginals(w))
            .collect();
        self.sum_product(&lanes, None)
            .into_iter()
            .map(|answer| match answer {
                SumProductAnswer::Marginals { wmc, marginals } => (wmc, marginals),
                _ => unreachable!("a marginals lane answers marginals"),
            })
            .collect()
    }

    /// The sum-product kernel on the sequential schedule (`pool` is
    /// `None`) or fanned across `pool`'s first `participants` workers.
    fn sum_product(
        &self,
        batch: &[SumProductLane<'_>],
        pool: Option<(&SweepPool, usize)>,
    ) -> Vec<SumProductAnswer> {
        if self.num_vars > F64_EXACT_COUNT_VARS && batch.iter().any(SumProductLane::is_count) {
            // Past 2^53 a count is no longer exact in f64: the count lanes
            // take the u128 sweep, the rest the f64 lanes, and the answers
            // are merged back into input order.
            let (counts, rest): (Vec<SumProductLane>, Vec<SumProductLane>) =
                batch.iter().partition(|q| q.is_count());
            let counts: Vec<Leaves> = counts.iter().map(SumProductLane::leaves).collect();
            let mut counts = self.count_lanes_u128(&counts).into_iter();
            let mut rest = self.sum_product(&rest, pool).into_iter();
            return batch
                .iter()
                .map(|q| {
                    if q.is_count() {
                        SumProductAnswer::Count(counts.next().expect("one count per lane"))
                    } else {
                        rest.next().expect("one answer per lane")
                    }
                })
                .collect();
        }
        let _sweep = trl_obs::trace_span(sweep_span_name(self.backend));
        record_sweeps(batch.len());
        let leaves: Vec<Leaves> = batch.iter().map(SumProductLane::leaves).collect();
        PlaneBuf::with_thread_plane(&THREAD_PLANE, self.len(), usize::MAX, |plane| {
            if !batch
                .iter()
                .any(|q| matches!(q, SumProductLane::Marginals(_)))
            {
                return self.sum_product_on(batch, &leaves, pool, plane, None);
            }
            let planes = self.len() + self.widest_and;
            PlaneBuf::with_thread_plane(
                &THREAD_DERIVATIVES,
                planes,
                KEPT_DERIVATIVE_PLANES,
                |der| self.sum_product_on(batch, &leaves, pool, plane, Some(der)),
            )
        })
    }

    /// [`EvalTape::sum_product`]'s lane-group loop over one plane buffer,
    /// with the derivative buffer `der` when the batch holds a marginals
    /// lane.
    fn sum_product_on(
        &self,
        batch: &[SumProductLane<'_>],
        leaves: &[Leaves<'_>],
        pool: Option<(&SweepPool, usize)>,
        plane: &mut PlaneBuf,
        mut der: Option<&mut PlaneBuf>,
    ) -> Vec<SumProductAnswer> {
        let mut out = Vec::with_capacity(batch.len());
        for (group, leaves) in batch.chunks(LANES).zip(leaves.chunks(LANES)) {
            match pool {
                Some((pool, participants)) => {
                    self.forward_lanes_pooled(leaves, plane, pool, participants)
                }
                None => self.forward_lanes::<lanes::SumProduct>(leaves, plane),
            }
            let wants: [bool; LANES] = std::array::from_fn(|lane| {
                matches!(group.get(lane), Some(SumProductLane::Marginals(_)))
            });
            let marginals = match der.as_deref_mut() {
                Some(der) if wants.contains(&true) => {
                    self.derivative_lanes(plane, wants, der);
                    self.lit_marginals(group, &der.planes()[..self.len()])
                }
                _ => Vec::new(),
            };
            let root = plane.planes()[self.root as usize];
            let mut marginals = marginals.into_iter();
            for (lane, q) in group.iter().enumerate() {
                out.push(match q {
                    SumProductLane::Wmc(_) => SumProductAnswer::Wmc(root[lane]),
                    // Exact: an integer no greater than 2^53 (see
                    // `F64_EXACT_COUNT_VARS`).
                    SumProductLane::Count | SumProductLane::CountUnder(_) => {
                        SumProductAnswer::Count(root[lane] as u128)
                    }
                    SumProductLane::Marginals(_) => SumProductAnswer::Marginals {
                        wmc: root[lane],
                        marginals: marginals.next().expect("one table per marginals lane"),
                    },
                });
            }
        }
        out
    }

    /// One lane-group forward sweep under the semiring `S`;
    /// `group.len() <= LANES`, dead lanes evaluate under all-zero literal
    /// weights and are never read back.
    fn forward_lanes<S: lanes::Semiring>(&self, group: &[Leaves<'_>], plane: &mut PlaneBuf) {
        debug_assert!(group.len() <= LANES && plane.len == self.len());
        // SAFETY: `plane` is exclusively borrowed and covers the tape, and
        // the full range is swept in layer order, so every child is
        // written before its parent reads it.
        unsafe { self.sweep_range::<S>(group, plane.as_mut_ptr(), 0, self.len()) }
    }

    /// Computes tape slots `lo..hi` of one lane-group forward sweep under
    /// the semiring `S`, dispatching to the active backend's specialized
    /// loop.
    ///
    /// # Safety
    ///
    /// `plane` must be valid for `self.len()` slots; the caller must have
    /// exclusive write access to slots `lo..hi` and every child of those
    /// slots must already be written (layer ordering guarantees children
    /// sit below `lo` when sweeping layer slices in order).
    unsafe fn sweep_range<S: lanes::Semiring>(
        &self,
        group: &[Leaves<'_>],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        match self.backend {
            LaneBackend::Scalar => {
                self.sweep_range_with::<S, lanes::ScalarOps>(group, plane, lo, hi)
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx2 => self.sweep_range_avx2::<S>(group, plane, lo, hi),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx512 => self.sweep_range_avx512::<S>(group, plane, lo, hi),
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            LaneBackend::Neon => self.sweep_range_with::<S, lanes::NeonOps>(group, plane, lo, hi),
        }
    }

    /// The backend-generic forward-sweep loop. Monomorphized per
    /// [`lanes::LaneOps`] impl and inlined into the `target_feature`
    /// wrappers, so the vector backends compile with their full
    /// instruction set. Per lane, every backend performs the identical
    /// IEEE-754 operation sequence — that is the bit-identity contract.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::sweep_range`], plus: `O`'s target feature must be
    /// available on the executing CPU.
    #[inline(always)]
    unsafe fn sweep_range_with<S: lanes::Semiring, O: lanes::LaneOps>(
        &self,
        group: &[Leaves<'_>],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        let ops = self.ops.as_ptr();
        let lits = self.lits.as_ptr();
        let edge_start = self.edge_start.as_ptr();
        let edges = self.edges.as_ptr();
        // Leaves (layer 0) are filled transposed: one wide constant store
        // per slot, then one pass per lane writing that lane's literal
        // weights. No wide load ever reads freshly written scalar lanes
        // (a guaranteed store-forwarding stall), and each per-lane pass
        // walks the literal column sequentially.
        let leaf_hi = hi.min(self.layer_start[1] as usize);
        for i in lo..leaf_hi {
            let out = plane.add(i) as *mut f64;
            match *ops.add(i) {
                // Lit planes are zeroed now (dead lanes stay 0.0) and get
                // their live lanes in the passes below. Childless gates
                // land in layer 0 too: an empty product is 1, an empty
                // sum (or max) is the semiring's zero.
                Op::Lit => O::store(out, O::splat(0.0)),
                Op::False | Op::Or => O::store(out, O::splat(S::ZERO)),
                Op::True | Op::And => O::store(out, O::splat(1.0)),
            }
        }
        for (lane, leaves) in group.iter().enumerate() {
            for i in lo..leaf_hi {
                if *ops.add(i) == Op::Lit {
                    *(plane.add(i) as *mut f64).add(lane) = leaves.weight(*lits.add(i));
                }
            }
        }
        let lo = leaf_hi.max(lo);
        // The edge cursor advances monotonically with the slot index, so
        // the inner loops never re-read CSR offsets or build slices.
        let mut e = *edge_start.add(lo) as usize;
        for i in lo..hi {
            let out = plane.add(i) as *mut f64;
            let e_end = *edge_start.add(i + 1) as usize;
            match *ops.add(i) {
                Op::False => O::store(out, O::splat(S::ZERO)),
                Op::True => O::store(out, O::splat(1.0)),
                Op::Lit => {
                    // Unreachable for well-formed tapes (literals live in
                    // layer 0), kept for sweep-range generality: assemble
                    // lanes in a stack buffer, publish with one store.
                    let l = *lits.add(i);
                    let mut vals = [0.0f64; LANES];
                    for (lane, leaves) in group.iter().enumerate() {
                        vals[lane] = leaves.weight(l);
                    }
                    O::store(out, O::load(vals.as_ptr()));
                }
                Op::And => O::store(out, S::and::<O>(plane, edges.add(e), e_end - e)),
                Op::Or => O::store(out, S::or::<O>(plane, edges.add(e), e_end - e)),
            }
            e = e_end;
        }
    }

    /// [`EvalTape::sweep_range_with`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::sweep_range`]; the CPU must support AVX2 (the
    /// dispatcher only routes here when [`LaneBackend::Avx2`] is active,
    /// which [`EvalTape::set_lane_backend`] only permits when detected).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_range_avx2<S: lanes::Semiring>(
        &self,
        group: &[Leaves<'_>],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        self.sweep_range_with::<S, lanes::Avx2Ops>(group, plane, lo, hi)
    }

    /// [`EvalTape::sweep_range_with`] compiled with AVX-512F enabled.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::sweep_range_avx2`], for AVX-512F.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_range_avx512<S: lanes::Semiring>(
        &self,
        group: &[Leaves<'_>],
        plane: *mut [f64; LANES],
        lo: usize,
        hi: usize,
    ) {
        self.sweep_range_with::<S, lanes::Avx512Ops>(group, plane, lo, hi)
    }

    /// MPE per weight table, `LANES` at a time: one max-product forward
    /// sweep per lane group through the active [`LaneBackend`], then a
    /// per-lane argmax traceback. Bit-identical — value and assignment —
    /// to [`Circuit::max_weight_presmoothed`](crate::circuit::Circuit) per
    /// table, on every backend; `None` where the circuit is unsatisfiable.
    /// A single query is a group of one.
    pub fn max_weight_batch(&self, weights: &[&LitWeights]) -> Vec<Option<(f64, Assignment)>> {
        let _sweep = trl_obs::trace_span(sweep_span_name(self.backend));
        record_sweeps(weights.len());
        let mut out = Vec::with_capacity(weights.len());
        let mut stack = Vec::new();
        let leaves: Vec<Leaves> = weights.iter().map(|w| Leaves::Weights(w)).collect();
        PlaneBuf::with_thread_plane(&THREAD_PLANE, self.len(), usize::MAX, |plane| {
            for group in leaves.chunks(LANES) {
                self.forward_lanes::<lanes::MaxProduct>(group, plane);
                let planes = plane.planes();
                for lane in 0..group.len() {
                    let value = planes[self.root as usize][lane];
                    out.push(
                        (value != f64::NEG_INFINITY)
                            .then(|| (value, self.argmax(planes, lane, &mut stack))),
                    );
                }
            }
        });
        out
    }

    /// The top-down argmax extraction of one lane of a max-product plane:
    /// the traversal order of the scalar oracle, on tape slots, with each
    /// or-gate taking its last maximal input under `total_cmp`.
    fn argmax(&self, plane: &[[f64; LANES]], lane: usize, stack: &mut Vec<u32>) -> Assignment {
        let mut a = Assignment::all_false(self.num_vars);
        stack.clear();
        stack.push(self.root);
        while let Some(t) = stack.pop() {
            let i = t as usize;
            match self.ops[i] {
                Op::Lit => a.set(self.lits[i].var(), self.lits[i].is_positive()),
                Op::And => stack.extend_from_slice(self.children(i)),
                Op::Or => {
                    let best = self
                        .children(i)
                        .iter()
                        .copied()
                        .max_by(|&x, &y| {
                            plane[x as usize][lane].total_cmp(&plane[y as usize][lane])
                        })
                        .expect("or-gate with no inputs survived smoothing");
                    stack.push(best);
                }
                Op::True | Op::False => {}
            }
        }
        a
    }

    /// The exact `u128` lane sweep for count lanes (unit or evidence
    /// leaves) of circuits too wide for exact `f64` counts: one plane scan
    /// per group of up to `LANES` lanes, each node holding one `u128` per
    /// lane actually in the group (a group of two sweeps two lanes, not
    /// eight).
    fn count_lanes_u128(&self, lanes: &[Leaves<'_>]) -> Vec<u128> {
        // Exact u128 counting never touches the SIMD lanes, so the span
        // carries its own name rather than the backend's.
        let _sweep = trl_obs::trace_span("kernel.sweep.count");
        record_sweeps(lanes.len());
        trl_obs::counter!("kernel.u128_sweeps").add(lanes.len().div_ceil(LANES) as u64);
        let mut out = Vec::with_capacity(lanes.len());
        let mut plane = vec![0u128; self.len() * lanes.len().min(LANES)];
        for group in lanes.chunks(LANES) {
            let k = group.len();
            for i in 0..self.len() {
                let (below, rest) = plane.split_at_mut(i * k);
                let acc = &mut rest[..k];
                match self.ops[i] {
                    Op::False => acc.fill(0),
                    Op::True => acc.fill(1),
                    Op::Lit => {
                        let l = self.lits[i];
                        for (a, leaves) in acc.iter_mut().zip(group) {
                            *a = leaves.count(l);
                        }
                    }
                    Op::And => {
                        acc.fill(1);
                        for &ch in self.children(i) {
                            let v = &below[ch as usize * k..][..k];
                            for (a, &x) in acc.iter_mut().zip(v) {
                                *a *= x;
                            }
                        }
                    }
                    Op::Or => {
                        acc.fill(0);
                        for &ch in self.children(i) {
                            let v = &below[ch as usize * k..][..k];
                            for (a, &x) in acc.iter_mut().zip(v) {
                                *a += x;
                            }
                        }
                    }
                }
            }
            out.extend_from_slice(&plane[self.root as usize * k..][..k]);
        }
        out
    }

    /// The literal marginal tables of a group's marginals lanes, in lane
    /// order: each literal slot's weighted derivative folded into its
    /// variable's (positive, negative) pair, leaves in arena order (layer
    /// 0 is stably sorted, so tape order agrees).
    fn lit_marginals(
        &self,
        group: &[SumProductLane<'_>],
        der: &[[f64; LANES]],
    ) -> Vec<Vec<(f64, f64)>> {
        let wanted: Vec<(usize, &LitWeights)> = group
            .iter()
            .enumerate()
            .filter_map(|(lane, q)| match q {
                SumProductLane::Marginals(w) => Some((lane, *w)),
                _ => None,
            })
            .collect();
        let mut marginals = vec![vec![(0.0f64, 0.0f64); self.num_vars]; wanted.len()];
        for ((op, l), d) in self.ops.iter().zip(&self.lits).zip(der) {
            if *op != Op::Lit {
                continue;
            }
            for (table, &(lane, w)) in marginals.iter_mut().zip(&wanted) {
                let m = w.get(*l) * d[lane];
                let slot = &mut table[l.var().index()];
                if l.is_positive() {
                    slot.0 += m;
                } else {
                    slot.1 += m;
                }
            }
        }
        marginals
    }

    /// The downward derivative sweep of the lanes flagged in `wants` into
    /// `der`'s first plane per tape slot, dispatched to the active backend
    /// like the forward sweep; the planes past those hold the widest
    /// and-gate's prefix products. The tape's planes are zeroed first;
    /// the other lanes' derivatives stay 0 throughout.
    fn derivative_lanes(&self, plane: &PlaneBuf, wants: [bool; LANES], der: &mut PlaneBuf) {
        assert!(plane.len == self.len() && der.len == self.len() + self.widest_and);
        let (plane, der) = (plane.as_ptr(), der.as_mut_ptr());
        // SAFETY: `plane` holds one plane per tape slot and `der` one per
        // slot plus the widest and-gate's inputs (checked above), `der` is
        // exclusively borrowed, and the backend is one `set_lane_backend`
        // accepted as supported.
        unsafe {
            match self.backend {
                LaneBackend::Scalar => self.derivative_with::<lanes::ScalarOps>(plane, wants, der),
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                LaneBackend::Avx2 => self.derivative_avx2(plane, wants, der),
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                LaneBackend::Avx512 => self.derivative_avx512(plane, wants, der),
                #[cfg(all(feature = "simd", target_arch = "aarch64"))]
                LaneBackend::Neon => self.derivative_with::<lanes::NeonOps>(plane, wants, der),
            }
        }
    }

    /// The backend-generic derivative loop. The accumulation into a
    /// child's derivative is order-sensitive, so it replays the reverse of
    /// the original arena order. Per node, one lane mask `d != 0` stands
    /// in for the scalar pass's `if d == 0.0 { continue }`: every child
    /// update is computed in all lanes and selected into the derivative
    /// only where the mask is set, so a live lane runs exactly the scalar
    /// pass's IEEE-754 operations in its order, a skipped lane keeps its
    /// bits, and a node whose mask is empty is skipped whole.
    ///
    /// # Safety
    ///
    /// `plane` must hold the finished forward sweep, one plane per tape
    /// slot, and `der` be writable for one plane per slot plus one per
    /// input of the widest and-gate; `O`'s target feature must be
    /// available on the executing CPU.
    #[inline(always)]
    unsafe fn derivative_with<O: lanes::LaneOps>(
        &self,
        plane: *const [f64; LANES],
        wants: [bool; LANES],
        der: *mut [f64; LANES],
    ) {
        std::ptr::write_bytes(der, 0, self.len());
        *der.add(self.root as usize) = wants.map(|w| if w { 1.0 } else { 0.0 });
        let ops = self.ops.as_ptr();
        let edge_start = self.edge_start.as_ptr();
        let edges = self.edges.as_ptr();
        let at = |p: *const [f64; LANES], slot: u32| p.add(slot as usize) as *const f64;
        // Prefix products of one and-gate's inputs, past the tape's planes.
        let prefix = der.add(self.len());
        for &i in self.arena_order.iter().rev() {
            let d = O::load(at(der, i));
            let live = O::nonzero(d);
            if !O::any(live) {
                continue;
            }
            let e = *edge_start.add(i as usize) as usize;
            let k = *edge_start.add(i as usize + 1) as usize - e;
            let children = edges.add(e);
            match *ops.add(i as usize) {
                Op::Or => {
                    for c in 0..k {
                        let out = at(der, *children.add(c)) as *mut f64;
                        let old = O::load(out);
                        O::store(out, O::select(live, O::add(old, d), old));
                    }
                }
                Op::And => {
                    // ∂(∏ v_i)/∂v_j via prefix and suffix products, exactly
                    // as the scalar pass: d * prefix[j] * suffix, in order.
                    let mut acc = O::splat(1.0);
                    for c in 0..k {
                        O::store(prefix.add(c) as *mut f64, acc);
                        acc = O::mul(acc, O::load(at(plane, *children.add(c))));
                    }
                    let mut suffix = O::splat(1.0);
                    for c in (0..k).rev() {
                        let ch = *children.add(c);
                        let out = at(der, ch) as *mut f64;
                        let old = O::load(out);
                        let term = O::mul(O::mul(d, O::load(at(prefix, c as u32))), suffix);
                        O::store(out, O::select(live, O::add(old, term), old));
                        suffix = O::mul(suffix, O::load(at(plane, ch)));
                    }
                }
                _ => {}
            }
        }
    }

    /// [`EvalTape::derivative_with`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::derivative_with`], for AVX2.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn derivative_avx2(
        &self,
        plane: *const [f64; LANES],
        wants: [bool; LANES],
        der: *mut [f64; LANES],
    ) {
        self.derivative_with::<lanes::Avx2Ops>(plane, wants, der)
    }

    /// [`EvalTape::derivative_with`] compiled with AVX-512F enabled.
    ///
    /// # Safety
    ///
    /// As [`EvalTape::derivative_with`], for AVX-512F.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f")]
    unsafe fn derivative_avx512(
        &self,
        plane: *const [f64; LANES],
        wants: [bool; LANES],
        der: *mut [f64; LANES],
    ) {
        self.derivative_with::<lanes::Avx512Ops>(plane, wants, der)
    }

    // ------------------------------------------------------------------
    // Layer-parallel forward sweep: one lane group, many cores, zero spawns.
    // ------------------------------------------------------------------

    /// The pooled layered forward sweep: `participants` pool workers
    /// (caller included) claim [`POOL_CHUNK`]-slot chunks of each
    /// contiguous layer block off a shared cursor and meet at a barrier
    /// before anyone reads that layer. The cursor makes the schedule
    /// work-stealing: a worker that drains its static share keeps
    /// claiming chunks that would have belonged to slower siblings
    /// (counted as `kernel.pool_steals`).
    fn forward_lanes_pooled(
        &self,
        group: &[Leaves<'_>],
        plane: &mut PlaneBuf,
        pool: &SweepPool,
        participants: usize,
    ) {
        trl_obs::counter!("kernel.pool_sweeps").inc();
        let barrier = Barrier::new(participants);
        let cursors: Vec<AtomicUsize> = (0..self.num_layers())
            .map(|_| AtomicUsize::new(0))
            .collect();
        let chunks = AtomicU64::new(0);
        let steals = AtomicU64::new(0);
        // Pool workers are long-lived threads with no trace context of
        // their own, so the dispatching thread's context is captured here
        // and re-installed inside every participant: worker 0 (the caller)
        // narrates one `kernel.pool.layer` span per layer barrier, and
        // each extra worker contributes a `kernel.pool.worker` span so the
        // request tree shows the sweep's actual fan-out. All timing is
        // skipped when the request is untraced (`ctx` is `None`).
        let ctx = trl_obs::current_trace();
        let shared = SharedPlane(plane.as_mut_ptr());
        pool.run(participants, &|t| {
            trl_obs::with_current_trace(ctx, || {
                let plane = &shared;
                let worker_start = ctx.map(|_| std::time::Instant::now());
                let (mut my_chunks, mut my_steals) = (0u64, 0u64);
                for (l, cursor) in cursors.iter().enumerate() {
                    let layer_start = if t == 0 {
                        worker_start.map(|_| std::time::Instant::now())
                    } else {
                        None
                    };
                    let a = self.layer_start[l] as usize;
                    let b = self.layer_start[l + 1] as usize;
                    let len = b - a;
                    // Static share bounds are used for the steal metric only;
                    // claiming is purely cursor-driven.
                    let share_lo = len * t / participants;
                    let share_hi = len * (t + 1) / participants;
                    loop {
                        let c = cursor.fetch_add(POOL_CHUNK, Ordering::Relaxed);
                        if c >= len {
                            break;
                        }
                        let hi = (c + POOL_CHUNK).min(len);
                        // SAFETY: cursor claims are disjoint (each fetch_add
                        // yields a unique chunk), every child sits in a
                        // strictly earlier layer fully written before the
                        // previous barrier, and the barrier below separates
                        // this layer's writes from the next layer's reads.
                        unsafe {
                            self.sweep_range::<lanes::SumProduct>(group, plane.0, a + c, a + hi)
                        };
                        my_chunks += 1;
                        if c < share_lo || c >= share_hi {
                            my_steals += 1;
                        }
                    }
                    barrier.wait();
                    if let Some(started) = layer_start {
                        trl_obs::record_trace_at("kernel.pool.layer", started, started.elapsed());
                    }
                }
                chunks.fetch_add(my_chunks, Ordering::Relaxed);
                steals.fetch_add(my_steals, Ordering::Relaxed);
                if t != 0 {
                    if let Some(started) = worker_start {
                        trl_obs::record_trace_at("kernel.pool.worker", started, started.elapsed());
                    }
                }
            });
        });
        trl_obs::counter!("kernel.pool_chunks").add(chunks.load(Ordering::Relaxed));
        trl_obs::counter!("kernel.pool_steals").add(steals.load(Ordering::Relaxed));
    }
}

/// The per-backend lane arithmetic the generic sweep loop is
/// monomorphized over. Each impl covers one whole `[f64; LANES]` value
/// plane; per lane, `mul`/`add` are single IEEE-754 operations, so every
/// backend produces bit-identical planes.
mod lanes {
    use super::LANES;

    /// One backend's register set covering a full value plane.
    pub(super) trait LaneOps {
        /// The register tuple holding `LANES` lanes.
        type V: Copy;
        /// Broadcasts `x` to every lane.
        ///
        /// # Safety
        /// The backend's target feature must be available on this CPU.
        unsafe fn splat(x: f64) -> Self::V;
        /// Loads `LANES` contiguous doubles.
        ///
        /// # Safety
        /// As [`LaneOps::splat`]; `p` must be valid for `LANES` reads.
        unsafe fn load(p: *const f64) -> Self::V;
        /// Stores `LANES` contiguous doubles.
        ///
        /// # Safety
        /// As [`LaneOps::splat`]; `p` must be valid for `LANES` writes.
        unsafe fn store(p: *mut f64, v: Self::V);
        /// Lane-wise IEEE-754 multiply.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
        /// Lane-wise IEEE-754 add.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;

        /// A per-lane predicate over one plane.
        type Mask: Copy;
        /// The lanes where `v != 0.0` as a scalar `!=` reads it: set for
        /// every non-zero lane and every NaN lane, clear for `±0.0`.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        unsafe fn nonzero(v: Self::V) -> Self::Mask;
        /// Whether any lane of `m` is set.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        unsafe fn any(m: Self::Mask) -> bool;
        /// `a` in the lanes `m` sets, `b` in the others, bit for bit.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        unsafe fn select(m: Self::Mask, a: Self::V, b: Self::V) -> Self::V;

        /// Lane-wise `f(a, b)`, written per lane so that every backend runs
        /// exactly the scalar operation's semantics; the compiler keeps
        /// the round trip through the stack arrays in registers.
        ///
        /// # Safety
        /// As [`LaneOps::splat`].
        #[inline(always)]
        unsafe fn zip(a: Self::V, b: Self::V, f: impl Fn(f64, f64) -> f64) -> Self::V {
            let (mut x, mut y) = ([0.0f64; LANES], [0.0f64; LANES]);
            Self::store(x.as_mut_ptr(), a);
            Self::store(y.as_mut_ptr(), b);
            let z: [f64; LANES] = std::array::from_fn(|i| f(x[i], y[i]));
            Self::load(z.as_ptr())
        }
    }

    /// The per-lane (⊕, ⊗) pair a forward sweep runs: sum-product for the
    /// counting kernels, max-product for MPE. Each instance replays, per
    /// lane, the operation sequence of its scalar oracle in `queries.rs`.
    pub(super) trait Semiring {
        /// The value of `⊥` and of an or-gate with no inputs.
        const ZERO: f64;

        /// An and-gate over the `n` child planes whose slots start at
        /// `edges`.
        ///
        /// # Safety
        /// As [`LaneOps::splat`]; `edges` must hold `n` slots of `plane`,
        /// each already written.
        unsafe fn and<O: LaneOps>(plane: *const [f64; LANES], edges: *const u32, n: usize) -> O::V;

        /// An or-gate over the `n` child planes whose slots start at
        /// `edges`.
        ///
        /// # Safety
        /// As [`Semiring::and`].
        unsafe fn or<O: LaneOps>(plane: *const [f64; LANES], edges: *const u32, n: usize) -> O::V;
    }

    /// The `n` child planes at `edges`, loaded in gate-input order.
    ///
    /// # Safety
    /// As [`Semiring::and`].
    #[inline(always)]
    unsafe fn inputs<O: LaneOps>(
        plane: *const [f64; LANES],
        edges: *const u32,
        n: usize,
    ) -> impl Iterator<Item = O::V> {
        (0..n).map(move |k| O::load(plane.add(*edges.add(k) as usize) as *const f64))
    }

    /// Weighted counting: `Circuit::wmc_presmoothed`.
    pub(super) struct SumProduct;

    impl Semiring for SumProduct {
        const ZERO: f64 = 0.0;

        // The leading identity element is kept in both folds — `0.0 + x`
        // is not a bitwise no-op when `x` is `-0.0` — so every backend
        // runs the identical per-lane op sequence as the scalar kernels.
        #[inline(always)]
        unsafe fn and<O: LaneOps>(plane: *const [f64; LANES], edges: *const u32, n: usize) -> O::V {
            inputs::<O>(plane, edges, n).fold(O::splat(1.0), |acc, x| O::mul(acc, x))
        }

        #[inline(always)]
        unsafe fn or<O: LaneOps>(plane: *const [f64; LANES], edges: *const u32, n: usize) -> O::V {
            inputs::<O>(plane, edges, n).fold(O::splat(0.0), |acc, x| O::add(acc, x))
        }
    }

    /// MPE values: `Circuit::max_weight_presmoothed`. An and-gate is −∞
    /// if any input is −∞ (never `−∞ · 0 = NaN`), otherwise the product
    /// in input order; an or-gate folds `f64::max` from −∞. The lane max
    /// is `f64::max` per lane — the `maxnum` the oracle folds with — on
    /// every backend, never a raw vector max instruction, whose NaN and
    /// ±0 operand rules differ.
    pub(super) struct MaxProduct;

    impl Semiring for MaxProduct {
        const ZERO: f64 = f64::NEG_INFINITY;

        #[inline(always)]
        unsafe fn and<O: LaneOps>(plane: *const [f64; LANES], edges: *const u32, n: usize) -> O::V {
            // `low` reaches −∞ exactly in the lanes where some input is
            // −∞ (`f64::min` ignores NaN inputs); those lanes drop the
            // product for −∞.
            let (acc, low) = inputs::<O>(plane, edges, n)
                .fold((O::splat(1.0), O::splat(0.0)), |(acc, low), x| {
                    (O::mul(acc, x), O::zip(low, x, f64::min))
                });
            let absorb = |acc: f64, low: f64| if low == f64::NEG_INFINITY { low } else { acc };
            O::zip(acc, low, absorb)
        }

        #[inline(always)]
        unsafe fn or<O: LaneOps>(plane: *const [f64; LANES], edges: *const u32, n: usize) -> O::V {
            inputs::<O>(plane, edges, n).fold(O::splat(f64::NEG_INFINITY), |acc, x| {
                O::zip(acc, x, f64::max)
            })
        }
    }

    /// The always-available `[f64; LANES]` reference implementation.
    pub(super) struct ScalarOps;

    impl LaneOps for ScalarOps {
        type V = [f64; LANES];

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            [x; LANES]
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            *(p as *const [f64; LANES])
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            *(p as *mut [f64; LANES]) = v;
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            std::array::from_fn(|i| a[i] * b[i])
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            std::array::from_fn(|i| a[i] + b[i])
        }

        type Mask = [bool; LANES];

        #[inline(always)]
        unsafe fn nonzero(v: Self::V) -> Self::Mask {
            v.map(|x| x != 0.0)
        }

        #[inline(always)]
        unsafe fn any(m: Self::Mask) -> bool {
            m.contains(&true)
        }

        #[inline(always)]
        unsafe fn select(m: Self::Mask, a: Self::V, b: Self::V) -> Self::V {
            std::array::from_fn(|i| if m[i] { a[i] } else { b[i] })
        }
    }

    /// Two 256-bit registers per plane.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    pub(super) struct Avx2Ops;

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    impl LaneOps for Avx2Ops {
        type V = [core::arch::x86_64::__m256d; 2];

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            use core::arch::x86_64::_mm256_set1_pd;
            [_mm256_set1_pd(x), _mm256_set1_pd(x)]
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            use core::arch::x86_64::_mm256_loadu_pd;
            [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))]
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            use core::arch::x86_64::_mm256_storeu_pd;
            _mm256_storeu_pd(p, v[0]);
            _mm256_storeu_pd(p.add(4), v[1]);
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::x86_64::_mm256_mul_pd;
            [_mm256_mul_pd(a[0], b[0]), _mm256_mul_pd(a[1], b[1])]
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::x86_64::_mm256_add_pd;
            [_mm256_add_pd(a[0], b[0]), _mm256_add_pd(a[1], b[1])]
        }

        /// All-ones lanes where set, as `vcmppd` writes them.
        type Mask = Self::V;

        #[inline(always)]
        unsafe fn nonzero(v: Self::V) -> Self::Mask {
            use core::arch::x86_64::{_mm256_cmp_pd, _mm256_setzero_pd, _CMP_NEQ_UQ};
            let zero = _mm256_setzero_pd();
            v.map(|r| _mm256_cmp_pd::<_CMP_NEQ_UQ>(r, zero))
        }

        #[inline(always)]
        unsafe fn any(m: Self::Mask) -> bool {
            use core::arch::x86_64::{_mm256_movemask_pd, _mm256_or_pd};
            _mm256_movemask_pd(_mm256_or_pd(m[0], m[1])) != 0
        }

        #[inline(always)]
        unsafe fn select(m: Self::Mask, a: Self::V, b: Self::V) -> Self::V {
            use core::arch::x86_64::_mm256_blendv_pd;
            [
                _mm256_blendv_pd(b[0], a[0], m[0]),
                _mm256_blendv_pd(b[1], a[1], m[1]),
            ]
        }
    }

    /// One 512-bit register per plane: an and-gate's per-child update is
    /// a single `vmulpd`.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    pub(super) struct Avx512Ops;

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    impl LaneOps for Avx512Ops {
        type V = core::arch::x86_64::__m512d;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            core::arch::x86_64::_mm512_set1_pd(x)
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            core::arch::x86_64::_mm512_loadu_pd(p)
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            core::arch::x86_64::_mm512_storeu_pd(p, v);
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            core::arch::x86_64::_mm512_mul_pd(a, b)
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            core::arch::x86_64::_mm512_add_pd(a, b)
        }

        type Mask = core::arch::x86_64::__mmask8;

        #[inline(always)]
        unsafe fn nonzero(v: Self::V) -> Self::Mask {
            use core::arch::x86_64::{_mm512_cmp_pd_mask, _mm512_setzero_pd, _CMP_NEQ_UQ};
            _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_pd())
        }

        #[inline(always)]
        unsafe fn any(m: Self::Mask) -> bool {
            m != 0
        }

        #[inline(always)]
        unsafe fn select(m: Self::Mask, a: Self::V, b: Self::V) -> Self::V {
            core::arch::x86_64::_mm512_mask_blend_pd(m, b, a)
        }
    }

    /// Four 128-bit registers per plane (`aarch64` NEON).
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    pub(super) struct NeonOps;

    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    impl LaneOps for NeonOps {
        type V = [core::arch::aarch64::float64x2_t; 4];

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self::V {
            use core::arch::aarch64::vdupq_n_f64;
            [vdupq_n_f64(x); 4]
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self::V {
            use core::arch::aarch64::vld1q_f64;
            std::array::from_fn(|i| vld1q_f64(p.add(2 * i)))
        }

        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self::V) {
            use core::arch::aarch64::vst1q_f64;
            for (i, r) in v.into_iter().enumerate() {
                vst1q_f64(p.add(2 * i), r);
            }
        }

        #[inline(always)]
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::aarch64::vmulq_f64;
            std::array::from_fn(|i| vmulq_f64(a[i], b[i]))
        }

        #[inline(always)]
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V {
            use core::arch::aarch64::vaddq_f64;
            std::array::from_fn(|i| vaddq_f64(a[i], b[i]))
        }

        // The mask goes through the stack arrays, as `zip` does: the
        // compiler keeps the round trip in registers.
        type Mask = [bool; LANES];

        #[inline(always)]
        unsafe fn nonzero(v: Self::V) -> Self::Mask {
            let mut x = [0.0f64; LANES];
            Self::store(x.as_mut_ptr(), v);
            x.map(|x| x != 0.0)
        }

        #[inline(always)]
        unsafe fn any(m: Self::Mask) -> bool {
            m.contains(&true)
        }

        #[inline(always)]
        unsafe fn select(m: Self::Mask, a: Self::V, b: Self::V) -> Self::V {
            let (mut x, mut y) = ([0.0f64; LANES], [0.0f64; LANES]);
            Self::store(x.as_mut_ptr(), a);
            Self::store(y.as_mut_ptr(), b);
            let z: [f64; LANES] = std::array::from_fn(|i| if m[i] { x[i] } else { y[i] });
            Self::load(z.as_ptr())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::properties::smooth;
    use trl_core::SplitMix64;

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// A small smooth d-DNNF: ((x0 ∧ (x1 ∨ ¬x1)) ∨ (¬x0 ∧ x1)).
    fn small_smooth() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let nx0 = b.lit(v(0).negative());
        let nx1 = b.lit(v(1).negative());
        let taut = b.or_raw([x1, nx1]);
        let left = b.and([x0, taut]);
        let right = b.and([nx0, x1]);
        let root = b.or_raw([left, right]);
        b.finish(root)
    }

    fn marginal_lanes<'a>(weights: &[&'a LitWeights]) -> Vec<SumProductLane<'a>> {
        weights
            .iter()
            .map(|w| SumProductLane::Marginals(w))
            .collect()
    }

    fn marginals_of(answers: Vec<SumProductAnswer>) -> Vec<(f64, Vec<(f64, f64)>)> {
        answers
            .into_iter()
            .map(|a| match a {
                SumProductAnswer::Marginals { wmc, marginals } => (wmc, marginals),
                other => panic!("not a marginals answer: {other:?}"),
            })
            .collect()
    }

    fn skewed(n: usize, seed: u64) -> LitWeights {
        let mut rng = SplitMix64::new(seed);
        let mut w = LitWeights::unit(n);
        for i in 0..n as u32 {
            let p = 0.05 + 0.9 * rng.uniform();
            w.set(v(i).positive(), p);
            w.set(v(i).negative(), 1.0 - p);
        }
        w
    }

    #[test]
    fn tape_matches_scalar_queries_on_small_circuit() {
        let c = small_smooth();
        let tape = EvalTape::new(&c);
        assert_eq!(tape.num_vars(), 2);
        assert_eq!(tape.model_count(), c.model_count_presmoothed());
        let w = skewed(2, 7);
        assert_eq!(tape.wmc(&w).to_bits(), c.wmc_presmoothed(&w).to_bits());
        let (total, marg) = tape.marginals(&w);
        let (total2, marg2) = c.wmc_marginals_presmoothed(&w);
        assert_eq!(total.to_bits(), total2.to_bits());
        assert_eq!(marg, marg2);
    }

    #[test]
    fn tape_drops_unreachable_nodes() {
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let _orphan = b.and([x0, x1]); // never referenced by the root
        let nx0 = b.lit(v(0).negative());
        let root = b.or_raw([x0, nx0]);
        let c = b.finish(root);
        let tape = EvalTape::new(&c);
        assert!(tape.len() < c.node_count());
        assert_eq!(tape.model_count(), c.model_count_presmoothed());
    }

    #[test]
    fn layer_order_respects_dependencies_after_reorder() {
        let mut rng = SplitMix64::new(0xDE9);
        // A few random-ish smooth circuits via the builder: chains of
        // alternating gates over a handful of variables.
        let c = smooth(&small_smooth());
        let tape = EvalTape::new(&c);
        let _ = rng.next_u64();
        // Every gate's children live in strictly earlier layers, layer
        // bounds are monotone, and the root is the last slot.
        let layer_of = |slot: u32| {
            (0..tape.num_layers())
                .find(|&l| slot < tape.layer_start[l + 1])
                .expect("slot within bounds")
        };
        for l in 0..tape.num_layers() {
            assert!(tape.layer_start[l] <= tape.layer_start[l + 1]);
        }
        for i in 0..tape.len() {
            for &ch in tape.children(i) {
                assert!(ch < i as u32, "children precede parents on the tape");
                assert!(
                    layer_of(ch) < layer_of(i as u32),
                    "children sit in strictly earlier layers"
                );
            }
        }
        assert_eq!(tape.root as usize, tape.len() - 1);
    }

    #[test]
    fn batch_kernels_agree_with_scalar_tape() {
        let c = smooth(&small_smooth());
        let tape = EvalTape::new(&c);
        let weights: Vec<LitWeights> = (0..19).map(|s| skewed(2, 100 + s)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let batched = tape.wmc_batch(&refs);
        let layered = tape.wmc_batch_layered(&refs, 3);
        for (i, w) in weights.iter().enumerate() {
            let scalar = tape.wmc(w);
            assert_eq!(batched[i].to_bits(), scalar.to_bits(), "lane {i}");
            assert_eq!(layered[i].to_bits(), scalar.to_bits(), "layered {i}");
        }
        let marg_b = tape.marginals_batch(&refs);
        let marg_l = marginals_of(tape.sum_product_batch_layered(&marginal_lanes(&refs), 3));
        for (i, w) in weights.iter().enumerate() {
            let scalar = c.wmc_marginals_presmoothed(w);
            assert_eq!(marg_b[i].0.to_bits(), scalar.0.to_bits());
            assert_eq!(marg_b[i].1, scalar.1);
            assert_eq!(marg_l[i].0.to_bits(), scalar.0.to_bits());
            assert_eq!(marg_l[i].1, scalar.1);
        }
    }

    #[test]
    fn every_supported_backend_bit_matches_scalar_lanes() {
        let c = smooth(&small_smooth());
        let mut tape = EvalTape::new(&c);
        let weights: Vec<LitWeights> = (0..19).map(|s| skewed(2, 500 + s)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        tape.set_lane_backend(LaneBackend::Scalar);
        let reference: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
        let ref_marg = tape.marginals_batch(&refs);
        for backend in LaneBackend::all_supported() {
            tape.set_lane_backend(backend);
            assert_eq!(tape.lane_backend(), backend);
            let got: Vec<u64> = tape.wmc_batch(&refs).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, reference, "backend {}", backend.name());
            let marg = tape.marginals_batch(&refs);
            for (a, b) in marg.iter().zip(&ref_marg) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "backend {}", backend.name());
                assert_eq!(a.1, b.1, "backend {}", backend.name());
            }
        }
    }

    #[test]
    fn forced_scalar_fallback_always_sticks() {
        let c = smooth(&small_smooth());
        let mut tape = EvalTape::new(&c);
        // Whatever was detected, forcing the fallback must take effect and
        // keep answering identically — this is the test that exercises the
        // non-SIMD path on SIMD-capable hosts.
        let auto = tape.wmc(&skewed(2, 11));
        tape.set_lane_backend(LaneBackend::Scalar);
        assert_eq!(tape.lane_backend(), LaneBackend::Scalar);
        let w = skewed(2, 11);
        assert_eq!(tape.wmc_batch(&[&w])[0].to_bits(), auto.to_bits());
    }

    #[test]
    fn pooled_sweeps_with_real_workers_bit_match() {
        let pool = SweepPool::new(3);
        let c = smooth(&small_smooth());
        let tape = EvalTape::new(&c);
        let weights: Vec<LitWeights> = (0..21).map(|s| skewed(2, 900 + s)).collect();
        let refs: Vec<&LitWeights> = weights.iter().collect();
        let sequential = tape.wmc_batch(&refs);
        let pooled = tape.wmc_batch_pooled(&refs, &pool, 3);
        for (a, b) in pooled.iter().zip(&sequential) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let marg_seq = tape.marginals_batch(&refs);
        let marg_pool =
            marginals_of(tape.sum_product_batch_pooled(&marginal_lanes(&refs), &pool, 3));
        for (a, b) in marg_pool.iter().zip(&marg_seq) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn evidence_counts_match_conditioning() {
        let c = small_smooth();
        let tape = EvalTape::new(&c);
        let mut pa = PartialAssignment::new(2);
        assert_eq!(tape.model_count_under(&pa), 3);
        pa.assign(v(0).positive());
        assert_eq!(tape.model_count_under(&pa), 2);
        assert_eq!(
            tape.model_count_under(&pa),
            c.model_count_under_presmoothed(&pa)
        );
        let mut pb = PartialAssignment::new(2);
        pb.assign(v(0).negative());
        pb.assign(v(1).negative());
        let empty = PartialAssignment::new(2);
        let batch = tape.sum_product_batch(&[
            SumProductLane::CountUnder(&empty),
            SumProductLane::CountUnder(&pa),
            SumProductLane::CountUnder(&pb),
            SumProductLane::Count,
        ]);
        let counts = [3, 2, 0, 3].map(SumProductAnswer::Count);
        assert_eq!(batch, counts);
    }

    #[test]
    fn single_node_circuits_linearize() {
        type Build = fn(&mut CircuitBuilder) -> NnfId;
        let cases: [(Build, u128); 2] = [(|b| b.true_(), 2), (|b| b.false_(), 0)];
        for (build, expect) in cases {
            let mut b = CircuitBuilder::new(1);
            let root = build(&mut b);
            let c = b.finish(root);
            let tape = EvalTape::new(&smooth(&c));
            assert!(!tape.is_empty());
            assert_eq!(tape.model_count(), expect);
            let unit = LitWeights::unit(1);
            assert_eq!(tape.wmc_batch_layered(&[&unit], 2), vec![expect as f64]);
        }
    }
}

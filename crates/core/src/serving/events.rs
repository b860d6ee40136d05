//! Event-scheduling primitives for the event-driven simulation core:
//! a lazy-deletion time-ordered heap ([`EventHeap`]), incremental
//! policy-ordered queues (`SchedQueue`), and the admission-queue seam
//! (`AdmissionQueue`, crate-internal) that lets one engine iteration
//! body serve both the legacy per-step loops and the event-driven ones
//! bit-identically.
//!
//! The design constraint throughout is *bit-for-bit* equivalence with
//! the per-step loops in [`super::engine`] and [`super::cluster`]: every
//! structure here either reproduces the exact sequence of heads /
//! minima the legacy O(n)-per-iteration scans would produce, or is only
//! consulted at points where the legacy loop's answer is provably
//! unchanged (see the contracts on [`SchedulerPolicy`]).

use super::engine::{BladeState, DecodePricing, EngineCtx};
use super::kv::KvLayout;
use super::observer::SimObserver;
use super::policy::{OrderingContract, SchedulerPolicy};
use super::prefix::PrefixCache;
use super::telemetry::profile;
use super::traces::RequestSpec;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// One pending event: a timestamp ordered by `f64::total_cmp`, with the
/// payload index breaking ties so the pop order is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    time: f64,
    idx: usize,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered min-heap of `(time, index)` events with lazy deletion:
/// superseded entries stay in the heap and are discarded when they
/// surface, so updates are O(log n) pushes instead of O(n) rebuilds.
///
/// Ordering is `f64::total_cmp` on the timestamp with the index as the
/// deterministic tie-break — two heaps fed the same events always pop
/// the same sequence, which the equivalence suites rely on.
#[derive(Debug, Default)]
pub struct EventHeap {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl EventHeap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules event `idx` at `time`.
    pub fn push(&mut self, time: f64, idx: usize) {
        profile::heap_op();
        self.heap.push(Reverse(Entry { time, idx }));
    }

    /// Pops the earliest event (ties broken by lowest index).
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        profile::heap_op();
        self.heap.pop().map(|Reverse(e)| (e.time, e.idx))
    }

    /// Returns the earliest event for which `valid(time, idx)` holds,
    /// permanently discarding the stale entries surfacing before it.
    /// Callers re-push an event whenever its timestamp changes, so a
    /// discarded entry is always superseded by a live one.
    pub fn peek_valid(
        &mut self,
        mut valid: impl FnMut(f64, usize) -> bool,
    ) -> Option<(f64, usize)> {
        while let Some(&Reverse(e)) = self.heap.peek() {
            if valid(e.time, e.idx) {
                return Some((e.time, e.idx));
            }
            profile::heap_op();
            self.heap.pop();
        }
        None
    }

    /// Entries currently stored (live and stale alike).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Lazy min *and* max over the ready times of a queue's members, used by
/// the cluster event loops to answer "is every queued request eligible /
/// is none" in O(log n) amortized instead of re-scanning the queue. The
/// max side stores negated times — an exact (sign-bit) transform — in a
/// second min-heap.
#[derive(Debug, Default)]
pub(crate) struct ReadyWindow {
    lo: EventHeap,
    hi: EventHeap,
}

impl ReadyWindow {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers, after a ready-time change) member
    /// `idx` with ready time `time`.
    pub(crate) fn push(&mut self, time: f64, idx: usize) {
        self.lo.push(time, idx);
        self.hi.push(-time, idx);
    }

    /// The smallest ready time among live members (`in_queue[idx]` with
    /// `ready[idx]` bit-equal to the registered time).
    pub(crate) fn min(&mut self, in_queue: &[bool], ready: &[f64]) -> Option<f64> {
        self.lo
            .peek_valid(|t, i| in_queue[i] && ready[i].to_bits() == t.to_bits())
            .map(|(t, _)| t)
    }

    /// The largest ready time among live members.
    pub(crate) fn max(&mut self, in_queue: &[bool], ready: &[f64]) -> Option<f64> {
        self.hi
            .peek_valid(|t, i| in_queue[i] && ready[i].to_bits() == (-t).to_bits())
            .map(|(t, _)| -t)
    }
}

/// The queue operations one engine iteration performs, abstracted so
/// [`EngineCtx::step`](super::engine::EngineCtx) runs unchanged over a
/// plain `VecDeque` (the per-step loops), an incrementally ordered
/// [`SchedQueue`], or a [`TrackedQueue`] recording admissions.
pub(crate) trait AdmissionQueue {
    /// The next admission candidate (the per-step queue front).
    fn peek(&self) -> Option<usize>;
    /// Removes the candidate just peeked (it was admitted).
    fn pop(&mut self);
    /// Re-queues a preemption victim at the front (per-step `push_front`).
    fn requeue_victim(&mut self, idx: usize);
}

impl AdmissionQueue for VecDeque<usize> {
    fn peek(&self) -> Option<usize> {
        self.front().copied()
    }

    fn pop(&mut self) {
        self.pop_front();
    }

    fn requeue_victim(&mut self, idx: usize) {
        self.push_front(idx);
    }
}

/// A [`SchedQueue`] wrapper recording which indices the engine iteration
/// admitted (or shed), so the multi-blade event loops can maintain their
/// membership flags and ready-time heaps incrementally.
#[derive(Debug)]
pub(crate) struct TrackedQueue<'a> {
    queue: &'a mut SchedQueue,
    pub(crate) admitted: Vec<usize>,
}

impl<'a> TrackedQueue<'a> {
    pub(crate) fn new(queue: &'a mut SchedQueue) -> Self {
        Self {
            queue,
            admitted: Vec::new(),
        }
    }
}

impl AdmissionQueue for TrackedQueue<'_> {
    fn peek(&self) -> Option<usize> {
        self.queue.peek()
    }

    fn pop(&mut self) {
        if let Some(idx) = self.queue.take() {
            self.admitted.push(idx);
        }
    }

    fn requeue_victim(&mut self, idx: usize) {
        self.queue.requeue_victim(idx);
    }
}

/// What the single-blade event loop may do at the queue head right now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Gate {
    /// The queue is empty: only running work remains.
    Empty,
    /// An arrived request heads the queue — admission must go through
    /// the full per-step path (its KV fit can have cache side effects).
    Ready,
    /// Nothing has arrived yet; the head arrives at this instant.
    Blocked(f64),
}

/// Arrived requests of a [`SchedQueue::Keyed`] queue, ordered exactly as
/// the per-step loop's repeated stable sorts would order them: by the
/// policy's clock-independent key, then by an insertion sequence that
/// keeps new arrivals *behind* key-equals (stable-sort semantics for
/// appended entries) and re-queued victims *ahead* of them (a victim
/// re-enters at the queue front, and every later stable sort keeps it
/// ahead of its ties — most recent victim first).
#[derive(Debug)]
pub(crate) struct KeyedQueue {
    arrived: BTreeSet<(u64, i64, usize)>,
    /// Not-yet-arrived members, earliest first (the arrival-sorted tail
    /// the per-step sort leaves untouched).
    future: VecDeque<usize>,
    /// `order_key` per trace index, precomputed once.
    keys: Vec<u64>,
    next_seq: i64,
    next_victim_seq: i64,
    /// Members [`SchedQueue::partition`] took out for the current round
    /// (arrived, but ready only after the stepping blade's clock), in
    /// the `(key, seq)` order they held.
    blocked: Vec<(u64, i64, usize)>,
}

/// The admission queue of every event loop, specialized per
/// [`OrderingContract`]: FCFS keeps the plain deque untouched, static
/// keys get an incrementally maintained ordered set, and clock-dependent
/// policies re-sort the arrived part before each admission-capable
/// round (their contract makes skipped sorts unobservable). Keyed and
/// clock-ordered queues keep not-yet-arrived requests in an
/// arrival-ordered `future` tail that [`Self::prepare`] absorbs as the
/// clock passes their arrivals, so no round pays for the unserved
/// remainder of the trace.
#[derive(Debug)]
pub(crate) enum SchedQueue {
    Fcfs(VecDeque<usize>),
    Keyed(KeyedQueue),
    Resort {
        /// The part `order_queue` sees: absorbed arrivals, victims and
        /// appended handoffs.
        ordered: VecDeque<usize>,
        /// Not-yet-absorbed arrivals, earliest first.
        future: VecDeque<usize>,
    },
}

impl SchedQueue {
    /// Wraps an arrival-ordered queue for `policy`.
    pub(crate) fn new(
        policy: &dyn SchedulerPolicy,
        trace: &[RequestSpec],
        queue: VecDeque<usize>,
    ) -> Self {
        match policy.ordering() {
            OrderingContract::Fcfs => Self::Fcfs(queue),
            OrderingContract::StaticKey => {
                let mut keys = vec![0u64; trace.len()];
                for &i in &queue {
                    keys[i] = policy.order_key(&trace[i]);
                }
                Self::Keyed(KeyedQueue {
                    arrived: BTreeSet::new(),
                    future: queue,
                    keys,
                    next_seq: 0,
                    next_victim_seq: -1,
                    blocked: Vec::new(),
                })
            }
            OrderingContract::ClockDependent => Self::Resort {
                ordered: VecDeque::new(),
                future: queue,
            },
        }
    }

    /// A queue `prepare` hands to `order_queue` whole, every round (the
    /// per-step oracle's prompt queue, and the disaggregated decode
    /// pool's, which holds only handed-off requests).
    pub(crate) fn resorted(queue: VecDeque<usize>) -> Self {
        Self::Resort {
            ordered: queue,
            future: VecDeque::new(),
        }
    }

    /// Brings the order up to date at `clock` — the moment the per-step
    /// loop would have called `order_queue` before stepping. A
    /// clock-ordered queue absorbs the arrivals up to `clock` and sorts
    /// only its `ordered` part: the rest has not arrived, so the sort
    /// would leave it behind in arrival order, and by the
    /// [`SchedulerPolicy`] contract it cannot change the arrived order.
    pub(crate) fn prepare(
        &mut self,
        clock: f64,
        trace: &[RequestSpec],
        policy: &dyn SchedulerPolicy,
    ) {
        match self {
            Self::Fcfs(_) => {}
            Self::Keyed(kq) => {
                while let Some(&i) = kq.future.front() {
                    if trace[i].arrival_s > clock {
                        break;
                    }
                    kq.future.pop_front();
                    kq.arrived.insert((kq.keys[i], kq.next_seq, i));
                    kq.next_seq += 1;
                }
            }
            Self::Resort { ordered, future } => {
                while let Some(&i) = future.front() {
                    if trace[i].arrival_s > clock {
                        break;
                    }
                    future.pop_front();
                    ordered.push_back(i);
                }
                policy.order_queue(clock, trace, ordered);
            }
        }
    }

    /// The round's eligibility partition at `clock`: members not ready
    /// by then go behind the ready ones, so the admission scan's
    /// head-of-line break means "nothing more is eligible". A deque is
    /// stable-partitioned (a clock-ordered queue's `future` tail is
    /// never ready and already behind). A keyed queue instead takes its
    /// blocked members out for the round — always re-queued victims, as
    /// fresh arrivals are ready when they arrive — and
    /// [`Self::restore_blocked`] re-inserts them afterwards: the per-step
    /// partition parks a blocked victim behind every eligible request,
    /// and every later stable sort keeps it behind its key-ties.
    pub(crate) fn partition(&mut self, clock: f64, ready: &[f64]) {
        match self {
            Self::Fcfs(q) | Self::Resort { ordered: q, .. } => {
                let (eligible, waiting): (Vec<usize>, Vec<usize>) =
                    q.iter().copied().partition(|&i| ready[i] <= clock);
                q.clear();
                q.extend(eligible);
                q.extend(waiting);
            }
            Self::Keyed(kq) => {
                debug_assert!(kq.blocked.is_empty());
                kq.blocked.extend(
                    kq.arrived
                        .iter()
                        .copied()
                        .filter(|&(_, _, i)| ready[i] > clock),
                );
                for e in &kq.blocked {
                    kq.arrived.remove(e);
                }
            }
        }
    }

    /// Ends a round [`Self::partition`]ed a keyed queue for: the members
    /// it took out re-enter with fresh sequence numbers, behind all of
    /// their current key-ties (but still ahead of ties that arrive
    /// later, which get larger sequence numbers still). A no-op for the
    /// other queues.
    pub(crate) fn restore_blocked(&mut self) {
        if let Self::Keyed(kq) = self {
            for (key, _, i) in std::mem::take(&mut kq.blocked) {
                kq.arrived.insert((key, kq.next_seq, i));
                kq.next_seq += 1;
            }
        }
    }

    /// Appends a disaggregated handoff to the ordered part.
    pub(crate) fn push_back(&mut self, idx: usize) {
        match self {
            Self::Fcfs(q) => q.push_back(idx),
            Self::Resort { ordered, future } => {
                debug_assert!(future.is_empty(), "handoffs queue behind arrivals");
                ordered.push_back(idx);
            }
            Self::Keyed(_) => unreachable!("handoff queues are never keyed"),
        }
    }

    /// The deque an FCFS or clock-ordered queue keeps in queue order
    /// (its `future` tail excluded); `None` for a keyed queue.
    pub(crate) fn deque(&self) -> Option<&VecDeque<usize>> {
        match self {
            Self::Fcfs(q) | Self::Resort { ordered: q, .. } => Some(q),
            Self::Keyed(_) => None,
        }
    }

    /// Whether any request is still waiting.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Self::Fcfs(q) => q.is_empty(),
            Self::Resort { ordered, future } => ordered.is_empty() && future.is_empty(),
            Self::Keyed(kq) => {
                kq.arrived.is_empty() && kq.future.is_empty() && kq.blocked.is_empty()
            }
        }
    }

    /// Queued requests ready to run at `now` (the autoscaler's depth
    /// signal; a `future` tail is arrival-sorted and fresh, so its
    /// prefix scan is exact).
    pub(crate) fn ready_depth(&self, ready: &[f64], now: f64) -> usize {
        let (arrived, future) = match self {
            Self::Fcfs(q) => return q.iter().filter(|&&i| ready[i] <= now).count(),
            Self::Resort { ordered, future } => {
                (ordered.iter().filter(|&&i| ready[i] <= now).count(), future)
            }
            Self::Keyed(kq) => (
                kq.arrived
                    .iter()
                    .filter(|&&(_, _, i)| ready[i] <= now)
                    .count(),
                &kq.future,
            ),
        };
        arrived + future.iter().take_while(|&&i| ready[i] <= now).count()
    }

    /// The arrival the idle-blade fast-forward should jump to, or `None`
    /// when the per-step `clock.max(min arrival)` is provably a no-op
    /// (some member already arrived). When `Some(t)` with `t > clock`,
    /// the head is guaranteed to be the earliest arrival: a front with a
    /// future arrival implies no re-queued victims (victims arrived in
    /// the past and sit at the front), so the queue is arrival-sorted.
    pub(crate) fn fast_forward_target(&self, trace: &[RequestSpec]) -> Option<f64> {
        let head = match self {
            Self::Fcfs(q) => q.front(),
            Self::Resort { ordered, future } => {
                if ordered.is_empty() {
                    future.front()
                } else {
                    None
                }
            }
            Self::Keyed(kq) => {
                if kq.arrived.is_empty() {
                    kq.future.front()
                } else {
                    None
                }
            }
        };
        head.map(|&i| trace[i].arrival_s)
    }

    /// Classifies the queue head for the decode-stretch gate at `clock`.
    /// Must be called after [`Self::prepare`] at the same clock.
    pub(crate) fn admission_gate(&self, trace: &[RequestSpec], clock: f64) -> Gate {
        match self.peek() {
            None => Gate::Empty,
            Some(i) if trace[i].arrival_s <= clock => Gate::Ready,
            Some(i) => Gate::Blocked(trace[i].arrival_s),
        }
    }

    /// Removes and returns the head. Admission always takes an arrived
    /// head: `prepare` ran at this clock, so every member still in a
    /// `future` tail has not arrived and the engine's ready check would
    /// have broken before it.
    pub(crate) fn take(&mut self) -> Option<usize> {
        match self {
            Self::Fcfs(q) => q.pop_front(),
            Self::Resort { ordered, future } => ordered.pop_front().or_else(|| future.pop_front()),
            Self::Keyed(kq) => kq
                .arrived
                .pop_first()
                .map(|(_, _, i)| i)
                .or_else(|| kq.future.pop_front()),
        }
    }
}

impl AdmissionQueue for SchedQueue {
    fn peek(&self) -> Option<usize> {
        match self {
            Self::Fcfs(q) => q.front().copied(),
            Self::Resort { ordered, future } => ordered.front().or(future.front()).copied(),
            Self::Keyed(kq) => kq
                .arrived
                .first()
                .map(|&(_, _, i)| i)
                .or_else(|| kq.future.front().copied()),
        }
    }

    fn pop(&mut self) {
        self.take();
    }

    fn requeue_victim(&mut self, idx: usize) {
        match self {
            Self::Fcfs(q) | Self::Resort { ordered: q, .. } => q.push_front(idx),
            Self::Keyed(kq) => {
                kq.arrived.insert((kq.keys[idx], kq.next_victim_seq, idx));
                kq.next_victim_seq -= 1;
            }
        }
    }
}

/// The horizon one decode stretch must respect: the instants at which
/// the surrounding replay loop could make a decision the stretch would
/// otherwise skip. Truncating a stretch early is always safe — the
/// caller falls back to the full per-round path — so every bound here is
/// conservative; only over-stretching could break bit-identity.
///
/// Two gate flavors encode *when* a decision fires relative to a round:
///
/// - **Start gates** (`start_gate_s`) cover decisions taken at a round's
///   *start* clock — admissions, sheds, another blade winning the
///   next-action race, queue re-sorts and eligibility partitions. A
///   stretched iteration may *end* past a start gate (its hypothetical
///   round started strictly before it), but no iteration may *begin* at
///   or past one: `start_gate_s <= clock` breaks before iterating. The
///   `<=` also covers the loops' deterministic tie-breaks (another blade
///   tied on time may win by index, prefill wins prefill/decode ties).
/// - **End gates** (`end_gate_s`, `cooldown`) cover decisions taken at a
///   round's *end* clock — the central loops evaluate the autoscaler
///   after each step at the stepped blade's new clock. An iteration
///   whose end clock would trigger (or could trigger) such a decision
///   must instead run as a real round, so the stretch breaks *before*
///   advancing to that clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StretchHorizon {
    /// Break before any iteration *starting* at or after this instant.
    pub(crate) start_gate_s: f64,
    /// Break before any iteration *ending* at or after this instant
    /// (`f64::INFINITY` when no end-of-round decision is pending).
    pub(crate) end_gate_s: f64,
    /// `(last_event_s, cooldown_s)` of an autoscaler that *would* fire
    /// as soon as its cooldown expires: break before any iteration whose
    /// end clock satisfies the exact per-round expiry predicate
    /// `!(now - last_event_s < cooldown_s)`. `None` when no autoscaler
    /// is armed (absent, or provably returning `None` until `end_gate_s`).
    pub(crate) cooldown: Option<(f64, f64)>,
}

impl StretchHorizon {
    /// A horizon bounded only by a round-start gate — the single-blade
    /// event loop, where the one blade's admission gate is the only
    /// decision point.
    pub(crate) fn until(start_gate_s: f64) -> Self {
        Self {
            start_gate_s,
            end_gate_s: f64::INFINITY,
            cooldown: None,
        }
    }
}

/// A planned pure-decode stretch for one blade: the proof that, for up
/// to [`Self::max_iters`] iterations, every engine step would be a
/// constant-cost decode with no admission, completion, first token,
/// preemption or cost-bucket crossing — so the per-step float operations
/// can be replicated in closed form by [`Self::advance`].
///
/// Planning is separate from advancing so the cluster loops can reject
/// a stretch on their own (cheap) horizon gates before paying for the
/// more expensive ones, and re-plan after a truncated advance (a bucket
/// crossing changes the cost; the next stretch picks up from there).
///
/// Cached plans: [`leapfrog_decode`] leaves each member's unfinished plan
/// in [`BladeState::cached_plan`] as [`Self::rebased`] by the iterations
/// it committed, and the next leapfrog starts from it instead of
/// re-planning. That is exact because a pure-decode stretch moves every
/// bound in [`Self::plan`] by the same `done`: the completion, bucket,
/// block and capacity limits all shrink by `done`, the footprints grow
/// by `done` iterations of growth, and the batch, cost and shared-block
/// charge stay put. Whatever else changes a blade's running batch or
/// prefix cache clears the slot first: `EngineCtx::step`,
/// [`Self::commit`] and the disaggregated prefill branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DecodeStretch {
    /// The constant per-iteration decode cost (s).
    cost: f64,
    /// Live batch size (every member decoding).
    batch: u32,
    /// Iterations until the first completion, bucket crossing or KV
    /// exhaustion would fire — those iterations run per-step.
    max_iters: u64,
    /// Charged KV tokens (private + resident shared) at stretch entry.
    charged0: u64,
    /// Used KV tokens (incl. this iteration's growth) at stretch entry —
    /// fragmentation peaks here (charged − used is constant under
    /// contiguous accounting and non-increasing under paged).
    used0: u64,
    /// Tokens charged by resident shared prefix blocks (constant: no
    /// admissions or evictions mid-stretch).
    cache_charged: u64,
    /// Charged-token growth per iteration: `batch` under contiguous
    /// accounting, 0 under paged (no block boundary is crossed within
    /// `max_iters` by construction).
    charge_growth: u64,
}

impl DecodeStretch {
    /// Plans a stretch for `blade`'s current batch, or `None` when the
    /// very next iteration could do something a closed-form advance
    /// cannot replicate (prefill work, a first token, a completion, a
    /// non-positive or NaN cost, or a KV state already over capacity).
    pub(crate) fn plan(
        ctx: &EngineCtx<'_>,
        trace: &[RequestSpec],
        blade: &BladeState,
    ) -> Option<Self> {
        let _span = profile::span(profile::Phase::StretchPlan);
        let cfg = ctx.config;
        if blade.running.is_empty() {
            return None;
        }
        let batch = blade.running.len() as u32;
        // Iterations until the earliest completion would fire (that
        // iteration stamps outcomes, so it runs per-step); sequences
        // still prefilling or awaiting their first token also force the
        // per-step path.
        let mut k = u64::MAX;
        for r in &blade.running {
            if r.prefill_remaining != 0 || r.produced == 0 {
                return None;
            }
            k = k.min(u64::from(trace[r.idx].output_tokens - r.produced) - 1);
        }
        if k == 0 {
            return None;
        }
        // Constant-cost bound: the table lookup only changes when a
        // KV length crosses a bucket boundary. Under bucketized-mean
        // pricing the mean grows by exactly one token per iteration
        // (`ceil((s + j*b)/b) = ceil(s/b) + j`); under exact pricing
        // each sequence's own span must stay in its bucket.
        let bucket = u64::from(ctx.table.bucket());
        let cost = match cfg.decode_pricing {
            DecodePricing::BucketizedMean => {
                let kv_sum: u64 = blade.running.iter().map(|r| u64::from(r.kv_len)).sum();
                let kv_mean = kv_sum.div_ceil(u64::from(batch)) as u32;
                let idx = u64::from(kv_mean).div_ceil(bucket).max(1);
                k = k.min(idx * bucket - u64::from(kv_mean) + 1);
                ctx.table.decode_cost(batch, kv_mean)
            }
            DecodePricing::ExactPerSequence => {
                let mut total = 0.0f64;
                for r in &blade.running {
                    let idx = u64::from(r.kv_len).div_ceil(bucket).max(1);
                    k = k.min(idx * bucket - u64::from(r.kv_len) + 1);
                    total += ctx.table.decode_cost(batch, r.kv_len);
                }
                total / f64::from(batch)
            }
        };
        // Zero-cost iterations would accumulate `0.0 + cost` in the
        // per-step loop, whose bit pattern the hoisted sums below only
        // reproduce for positive costs; NaN falls back to the per-step
        // path too so a broken estimator degrades identically.
        if cost <= 0.0 || cost.is_nan() {
            return None;
        }
        // No-preemption bound: the KV growth check must pass every
        // stretched iteration, with the exact float predicate the
        // per-step loop applies.
        let cache_charged = ctx.cache_charged(blade);
        let charged0: u64 =
            blade.running.iter().map(|r| ctx.charge(r)).sum::<u64>() + cache_charged;
        if ctx.kv_bytes(charged0) > cfg.kv_capacity_bytes {
            return None;
        }
        let charge_growth = match cfg.kv_layout {
            KvLayout::Contiguous => {
                // Charged tokens grow by `batch` per iteration: binary
                // search the last fitting iteration.
                let fits =
                    |j: u64| ctx.kv_bytes(charged0 + j * u64::from(batch)) <= cfg.kv_capacity_bytes;
                if !fits(k - 1) {
                    let (mut lo, mut hi) = (0u64, k - 1);
                    while lo < hi {
                        let mid = lo + (hi - lo).div_ceil(2);
                        if fits(mid) {
                            lo = mid;
                        } else {
                            hi = mid - 1;
                        }
                    }
                    k = lo + 1;
                }
                u64::from(batch)
            }
            KvLayout::Paged { block_tokens } => {
                // Block-granular charge is constant until a sequence's
                // private span crosses its current block boundary.
                let blk = u64::from(block_tokens);
                for r in &blade.running {
                    let x = u64::from(r.kv_len) + 1 - u64::from(r.shared_tokens);
                    k = k.min(x.div_ceil(blk) * blk - x + 1);
                }
                0
            }
        };
        let used0: u64 = blade
            .running
            .iter()
            .map(|r| u64::from(r.kv_len) + 1 - u64::from(r.shared_tokens))
            .sum::<u64>()
            + blade.cache.as_ref().map_or(0, PrefixCache::resident_tokens);
        Some(Self {
            cost,
            batch,
            max_iters: k,
            charged0,
            used0,
            cache_charged,
            charge_growth,
        })
    }

    /// Advances `blade` through the planned stretch up to `horizon`,
    /// replicating the per-step loop's float operations in order: per
    /// iteration `decode_time_s += c; batch_time_weighted += c*b;
    /// busy_s += c; clock += c` (its `step_cost = 0.0 + c` equals `c`
    /// bitwise for positive costs), then the observer callback. Returns
    /// the iterations advanced; 0 means the caller must fall back to a
    /// full per-round step.
    ///
    /// Non-passive observers still get one `on_step` per iteration —
    /// batching changes the loop shape, never the event stream. `on_shed`
    /// and `on_scale` need no replay here: sheds fire only at round-start
    /// admission instants and scale events only at round-end evaluation
    /// instants, both of which the horizon gates exclude by construction.
    pub(crate) fn advance(
        &self,
        blade: &mut BladeState,
        horizon: &StretchHorizon,
        obs: &mut dyn SimObserver,
    ) -> u64 {
        let Self { cost, batch, .. } = *self;
        let weighted = cost * f64::from(batch);
        let mut done = 0u64;
        macro_rules! stretch_loop {
            ($($notify:expr)?) => {
                for _ in 0..self.max_iters {
                    if horizon.start_gate_s <= blade.clock {
                        break;
                    }
                    // `clock + cost` is the value `clock += cost` would
                    // store (the preceding adds never touch the clock), so
                    // gating on it then assigning it is bit-identical.
                    let next = blade.clock + cost;
                    if next >= horizon.end_gate_s {
                        break;
                    }
                    if let Some((last, cd)) = horizon.cooldown {
                        // Stretch only while the autoscaler stays in
                        // cooldown (matching the per-step `now - last <
                        // cooldown` guard bit-for-bit; NaN parks).
                        let in_cooldown = next - last < cd;
                        if !in_cooldown {
                            break;
                        }
                    }
                    blade.decode_time_s += cost;
                    blade.batch_time_weighted += weighted;
                    blade.busy_s += cost;
                    blade.clock = next;
                    $($notify;)?
                    done += 1;
                }
            };
        }
        if obs.is_passive() {
            stretch_loop!();
            self.commit(blade, done);
            // One closed-form summary replaces the skipped per-iteration
            // stream (telemetry window-buckets it; see `on_stretch`).
            if done > 0 {
                obs.on_stretch(blade.id, blade.clock, done, cost, batch, self.kv_end(done));
            }
        } else {
            stretch_loop!({
                obs.on_step(blade.id, blade.clock, cost, batch);
                // At notify, `done` completed iterations precede this one,
                // so the charged footprint matches the per-step loop's
                // `charged0 + done * growth` exactly.
                obs.on_kv_sample(
                    blade.id,
                    blade.clock,
                    self.charged0 + done * self.charge_growth,
                    self.cache_charged,
                );
            });
            self.commit(blade, done);
        }
        done
    }

    /// The plan [`Self::plan`] returns for the blade once `done`
    /// iterations of this one have been committed (`done < max_iters`):
    /// `done` fewer iterations left, footprints grown by `done`
    /// iterations, and the same cost, batch and shared-block charge.
    pub(crate) fn rebased(self, done: u64) -> Self {
        debug_assert!(done < self.max_iters);
        Self {
            max_iters: self.max_iters - done,
            charged0: self.charged0 + done * self.charge_growth,
            used0: self.used0 + done * u64::from(self.batch),
            ..self
        }
    }

    /// Charged KV tokens at the stretch's last advanced iteration
    /// (callers guarantee `done > 0`).
    fn kv_end(&self, done: u64) -> u64 {
        self.charged0 + (done - 1) * self.charge_growth
    }

    /// Applies the end-of-stretch bookkeeping for `done` iterations
    /// advanced under this plan (no-op for zero).
    ///
    /// Integer bookkeeping, batched: every sequence grew and produced
    /// `done` tokens; the capacity/occupancy peaks are monotone or
    /// constant across the stretch, so the endpoints cover them.
    /// Fragmentation (charged − used) is constant under contiguous
    /// accounting and non-increasing under paged, peaking at entry;
    /// the charged footprint peaks at the final iteration.
    ///
    /// Clears the blade's cached plan: the caller re-plans, or stores
    /// the rebased plan itself.
    fn commit(&self, blade: &mut BladeState, done: u64) {
        blade.cached_plan = None;
        if done == 0 {
            return;
        }
        blade.decode_iterations += done;
        blade.stretches += 1;
        blade.stretched_iterations += done;
        blade.max_step_s = blade.max_step_s.max(self.cost);
        for r in &mut blade.running {
            r.kv_len += done as u32;
            r.produced += done as u32;
        }
        let charged_end = self.charged0 + (done - 1) * self.charge_growth;
        blade.kv_peak_tokens = blade.kv_peak_tokens.max(charged_end);
        blade.frag_peak_tokens = blade.frag_peak_tokens.max(self.charged0 - self.used0);
        blade.shared_peak_tokens = blade.shared_peak_tokens.max(self.cache_charged);
    }
}

/// The round-start gates of one [`leapfrog_decode`] call.
///
/// The shared gate stops the whole leapfrog when the `(clock, index)`-
/// minimal member reaches it: an idle blade's pickup, due at
/// `max(idle_clock_s, open_s)`. Member gates hand the minimal member its
/// own real round: `open_s` for a member with an open batch slot, `full_s`
/// for one whose batch is full. A tier that feeds the members' queue
/// (the disaggregated prefill tier) is no gate: it runs in place through
/// [`MemberRounds::feed`], lowering `open_s` and `full_s` as it queues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeapfrogGates {
    /// The earliest clock among idle blades that pick up from the
    /// members' queue (`f64::INFINITY` when none is idle).
    pub(crate) idle_clock_s: f64,
    /// The next queued ready time (`f64::INFINITY` when the queue is
    /// empty): a member with a free batch slot admits from there on.
    pub(crate) open_s: f64,
    /// Where a skipped round could re-partition the queue observably,
    /// the earliest clock at which it would; else `f64::INFINITY`.
    pub(crate) full_s: f64,
}

impl LeapfrogGates {
    /// The shared gate: an idle blade's pickup. With an empty queue
    /// `open_s` is infinite, so idle blades gate nothing.
    pub(crate) fn shared(&self) -> f64 {
        self.idle_clock_s.max(self.open_s)
    }
}

/// The owning loop's real rounds, run by [`leapfrog_decode`] in place of
/// breaking out. A member round runs when the minimal member reaches its
/// own gate or has no plan: with no shared gate due, that member's round
/// is exactly the round the loop would run next. A feeding tier's action
/// runs when it is due no later than the minimal member and the shared
/// gate (it wins clock ties, as in the owning loop): it reads no member
/// state, only appends to the members' queue.
pub(crate) trait MemberRounds {
    /// Runs `blade`'s next round and returns the requests it completed
    /// or shed (the caller owns the served count).
    fn run(&mut self, blade: &mut BladeState, obs: &mut dyn SimObserver) -> u32;
    /// [`LeapfrogGates::open_s`] after that round, or `None` when the
    /// leapfrog's full gate no longer holds after it (the round made
    /// skipped partitions observable, or left a batch full that the gate
    /// was not computed for), so the leapfrog exits.
    fn open_gate(&mut self) -> Option<f64>;
    /// When the feeding tier acts next (`f64::INFINITY`: no feeder, or
    /// nothing left to feed).
    fn feed_at(&self) -> f64 {
        f64::INFINITY
    }
    /// Runs the feeding tier's next action on `states` (never a member's
    /// blade) and returns the ready time of the request it queued.
    fn feed(&mut self, states: &mut [BladeState], obs: &mut dyn SimObserver) -> f64 {
        let _ = (states, obs);
        unreachable!("feed_at is infinite without a feeding tier")
    }
}

/// One leapfrog member's hot state, packed so the per-iteration
/// `(clock, blade)` argmin scans one small contiguous slice: the blade's
/// clock and float accumulators (written back to its [`BladeState`]
/// before each commit and at exit), whether its batch is full, and its
/// current plan with the iterations advanced under it.
#[derive(Debug, Clone, Copy)]
struct Lane {
    clock: f64,
    decode_time_s: f64,
    batch_time_weighted: f64,
    busy_s: f64,
    plan: Option<DecodeStretch>,
    done: u64,
    blade: usize,
    id: u32,
    full: bool,
}

impl Lane {
    fn new(b: usize, blade: &BladeState, plan: Option<DecodeStretch>, max_batch: usize) -> Self {
        Self {
            clock: blade.clock,
            decode_time_s: blade.decode_time_s,
            batch_time_weighted: blade.batch_time_weighted,
            busy_s: blade.busy_s,
            plan,
            done: 0,
            blade: b,
            id: blade.id,
            full: blade.running.len() >= max_batch,
        }
    }

    /// Writes the lane back to `blade` and commits the iterations
    /// advanced under its plan (one `on_stretch` summary for a passive
    /// observer).
    fn settle(&self, blade: &mut BladeState, obs: &mut dyn SimObserver) {
        blade.clock = self.clock;
        blade.decode_time_s = self.decode_time_s;
        blade.batch_time_weighted = self.batch_time_weighted;
        blade.busy_s = self.busy_s;
        if let Some(plan) = self.plan {
            plan.commit(blade, self.done);
            if obs.is_passive() && self.done > 0 {
                obs.on_stretch(
                    self.id,
                    self.clock,
                    self.done,
                    plan.cost,
                    plan.batch,
                    plan.kv_end(self.done),
                );
            }
        }
    }
}

/// `blade`'s stretch plan: the one a previous leapfrog cached, else a
/// fresh [`DecodeStretch::plan`]. Takes the cached slot; the leapfrog
/// refills it at exit.
fn cached_or_fresh_plan(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    blade: &mut BladeState,
) -> Option<DecodeStretch> {
    match blade.cached_plan.take() {
        Some(cached) => {
            debug_assert_eq!(
                cached,
                DecodeStretch::plan(ctx, trace, blade),
                "cached plan of blade {} went stale",
                blade.id
            );
            cached
        }
        None => DecodeStretch::plan(ctx, trace, blade),
    }
}

/// Fast-forwards a set of coupled blades through their pure-decode
/// futures in *exact per-step round order*: repeatedly pick the
/// `(clock, blade index)`-minimal member — the central loops' `chosen`
/// tie-break, replicated bit-for-bit — and advance it one planned
/// iteration. Unlike a single-blade stretch, no conservative blade-race
/// gate is needed among members: the skipped rounds are executed, in
/// their real order, with the float operations the per-step loop would
/// apply (each touching only its own blade's state), so bit-identity
/// holds even though many rounds across many blades are batched into
/// one call.
///
/// Gate discipline (see [`LeapfrogGates`]): the shared gate covers idle
/// blades' pickups, member gates a member's own admission and partition
/// bounds. Members are advanced in global round order, so the first
/// gated round in that order is the cluster's next action — rounds
/// processed before it genuinely preceded it. The shared gate always
/// ends the leapfrog.
///
/// A feeding tier ([`MemberRounds::feed_at`]) takes its turn in the same
/// order: when its next action is due no later than the minimal member
/// and the shared gate, it runs in place, and the request it queues
/// lowers `open_s` and `full_s` to that request's ready time (queued at
/// the back, it is blocked until then and moves no partition).
///
/// A member whose plan is exhausted mid-loop commits its bookkeeping
/// and re-plans in place (a bucket crossing just changes the constant
/// cost). When the minimal member reaches its own gate or has no plan
/// (completion, KV or admission event next), its real round comes next:
///
/// - Without `rounds`, the leapfrog exits and the owning loop runs it.
/// - With `rounds`, the leapfrog commits the member's advanced
///   iterations, runs the round through [`MemberRounds::run`], and goes
///   on: the member is refreshed from its blade (and re-planned, lazily,
///   once the leapfrog is known to continue) or retired if its batch
///   emptied, its clock joining the idle ones. The open gate is re-read
///   after the round; a round after which the full gate cannot be
///   tracked exits.
///
/// Returns the requests the in-place rounds completed or shed; the
/// caller adds them to its served count.
///
/// Members must be listed in ascending blade order, so a strict
/// `total_cmp` minimum over the lanes keeps the blade-index tie-break.
/// At exit every member's unfinished plan is cached on its blade,
/// rebased by the iterations just committed (see [`DecodeStretch`]): a
/// member nothing else touches before the next leapfrog is not
/// re-planned there.
pub(crate) fn leapfrog_decode(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &mut [BladeState],
    members: &[usize],
    mut gates: LeapfrogGates,
    mut rounds: Option<&mut dyn MemberRounds>,
    obs: &mut dyn SimObserver,
) -> u32 {
    let _span = profile::span(profile::Phase::Leapfrog);
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    let passive = obs.is_passive();
    let max_batch = ctx.config.max_batch as usize;
    let mut lanes: Vec<Lane> = members
        .iter()
        .map(|&b| {
            let blade = &mut states[b];
            let plan = cached_or_fresh_plan(ctx, trace, blade);
            Lane::new(b, blade, plan, max_batch)
        })
        .collect();
    let mut shared = gates.shared();
    let mut feed_s = rounds.as_deref().map_or(f64::INFINITY, |r| r.feed_at());
    // Whichever of the shared gate and the feeding tier comes first.
    let mut stop = shared.min(feed_s);
    let mut served = 0u32;
    // The lane an in-place round refreshed, still awaiting its plan.
    let mut unplanned: Option<usize> = None;
    while !lanes.is_empty() {
        let mut i = 0;
        let mut clock = lanes[0].clock;
        for (j, lane) in lanes.iter().enumerate().skip(1) {
            if lane.clock.total_cmp(&clock).is_lt() {
                i = j;
                clock = lane.clock;
            }
        }
        if stop <= clock {
            // The feeding tier wins ties with the shared gate, as with
            // the members.
            if shared < feed_s {
                break;
            }
            let r = rounds.as_deref_mut().expect("only rounds feed");
            let ready = r.feed(states, obs);
            gates.open_s = gates.open_s.min(ready);
            gates.full_s = gates.full_s.min(ready);
            shared = gates.shared();
            feed_s = r.feed_at();
            stop = shared.min(feed_s);
            continue;
        }
        if let Some(u) = unplanned.take() {
            lanes[u].plan = DecodeStretch::plan(ctx, trace, &states[lanes[u].blade]);
        }
        let lane = &mut lanes[i];
        let gate = if lane.full {
            gates.full_s
        } else {
            gates.open_s
        };
        let gated = gate <= clock;
        let plan = match lane.plan {
            Some(plan) if !gated => plan,
            _ => {
                // The member's own round is the cluster's next action
                // (`clock < shared` also rules out NaN clocks).
                let Some(r) = rounds.as_deref_mut().filter(|_| clock < shared) else {
                    break;
                };
                let b = lane.blade;
                let blade = &mut states[b];
                lane.settle(blade, obs);
                served += r.run(blade, obs);
                if blade.running.is_empty() {
                    gates.idle_clock_s = gates.idle_clock_s.min(blade.clock);
                    lanes.remove(i);
                } else {
                    *lane = Lane::new(b, blade, None, max_batch);
                    unplanned = Some(i);
                }
                let Some(open) = r.open_gate() else { break };
                gates.open_s = open;
                shared = gates.shared();
                stop = shared.min(feed_s);
                continue;
            }
        };
        let next = clock + plan.cost;
        lane.decode_time_s += plan.cost;
        lane.batch_time_weighted += plan.cost * f64::from(plan.batch);
        lane.busy_s += plan.cost;
        lane.clock = next;
        if !passive {
            obs.on_step(lane.id, next, plan.cost, plan.batch);
            // `done` completed rounds of this plan precede the one just
            // advanced, matching the per-step loop's charged footprint.
            obs.on_kv_sample(
                lane.id,
                next,
                plan.charged0 + lane.done * plan.charge_growth,
                plan.cache_charged,
            );
        }
        lane.done += 1;
        if lane.done == plan.max_iters {
            let blade = &mut states[lane.blade];
            lane.settle(blade, obs);
            lane.plan = DecodeStretch::plan(ctx, trace, blade);
            lane.done = 0;
        }
    }
    for (k, lane) in lanes.iter().enumerate() {
        let blade = &mut states[lane.blade];
        lane.settle(blade, obs);
        // A lane left unplanned keeps the blade's slot empty: the next
        // leapfrog plans it, as it would after a round run outside.
        if unplanned != Some(k) {
            blade.cached_plan = Some(lane.plan.map(|p| p.rebased(lane.done)));
        }
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::MultiBladeSystem;
    use crate::serving::engine::{Outcome, ServingConfig, ServingSimulator};
    use crate::serving::observer::NoopObserver;
    use crate::serving::policy::{FcfsPolicy, SjfPolicy};
    use crate::serving::prefix::PrefixCachingConfig;
    use llm_workload::model::ModelZoo;
    use llm_workload::parallelism::Parallelism;

    #[test]
    fn heap_pops_in_time_then_index_order() {
        let mut h = EventHeap::new();
        h.push(2.0, 1);
        h.push(1.0, 7);
        h.push(1.0, 3);
        h.push(0.5, 9);
        assert_eq!(h.len(), 4);
        assert_eq!(h.pop(), Some((0.5, 9)));
        assert_eq!(h.pop(), Some((1.0, 3)));
        assert_eq!(h.pop(), Some((1.0, 7)));
        assert_eq!(h.pop(), Some((2.0, 1)));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn heap_lazy_deletion_discards_stale_entries() {
        let mut h = EventHeap::new();
        h.push(1.0, 0);
        h.push(2.0, 1);
        // Entry 0 was superseded: its live time is now 3.0.
        h.push(3.0, 0);
        let live = [3.0f64, 2.0];
        assert_eq!(
            h.peek_valid(|t, i| live[i].to_bits() == t.to_bits()),
            Some((2.0, 1))
        );
        assert_eq!(h.len(), 2, "the stale entry was discarded");
    }

    #[test]
    fn ready_window_tracks_min_and_max_of_live_members() {
        let mut w = ReadyWindow::new();
        let ready = [1.0, 5.0, 3.0];
        let mut in_queue = [true, true, true];
        for (i, &t) in ready.iter().enumerate() {
            w.push(t, i);
        }
        assert_eq!(w.min(&in_queue, &ready), Some(1.0));
        assert_eq!(w.max(&in_queue, &ready), Some(5.0));
        in_queue[1] = false;
        assert_eq!(w.max(&in_queue, &ready), Some(3.0));
        in_queue[0] = false;
        assert_eq!(w.min(&in_queue, &ready), Some(3.0));
        in_queue[2] = false;
        assert_eq!(w.min(&in_queue, &ready), None);
        assert_eq!(w.max(&in_queue, &ready), None);
    }

    #[test]
    fn keyed_queue_matches_repeated_stable_sorts() {
        // Three arrived requests with SJF keys, plus a victim re-queued
        // twice: the incremental set must hand out the same heads as
        // push_front + stable re-sort would.
        let trace = vec![
            RequestSpec::new(0, 0.0, 10, 5),
            RequestSpec::new(1, 0.0, 10, 5), // key-tied with 0: FCFS
            RequestSpec::new(2, 0.0, 10, 2), // shortest: first
        ];
        let mut sq = SchedQueue::new(&SjfPolicy, &trace, (0..3).collect());
        sq.prepare(0.0, &trace, &SjfPolicy);
        assert_eq!(sq.peek(), Some(2));
        sq.pop();
        assert_eq!(sq.peek(), Some(0), "stable tie keeps arrival order");
        sq.pop();
        // Victim 0 re-enters: ahead of its key-tie 1.
        sq.requeue_victim(0);
        assert_eq!(sq.peek(), Some(0));
        // Victim 2 re-enters: smallest key, ahead of everything.
        sq.requeue_victim(2);
        assert_eq!(sq.peek(), Some(2));
        sq.pop();
        sq.pop();
        assert_eq!(sq.peek(), Some(1));
        sq.pop();
        assert!(sq.is_empty());
    }

    #[test]
    fn central_keyed_queue_demotes_blocked_victims_like_the_partition() {
        // SJF keys: 2 is shortest, 0 and 1 are key-tied. A victim whose
        // re-entry time is in the future must sit out the round and then
        // fall behind its key-ties, exactly as the per-step
        // sort-then-partition sequence would leave it.
        let trace = vec![
            RequestSpec::new(0, 0.0, 10, 5),
            RequestSpec::new(1, 0.0, 10, 5),
            RequestSpec::new(2, 0.0, 10, 2),
        ];
        let mut sq = SchedQueue::new(&SjfPolicy, &trace, (0..3).collect());
        sq.prepare(0.0, &trace, &SjfPolicy);
        let mut ready = [0.0f64, 0.0, 0.0];
        let mut q = TrackedQueue::new(&mut sq);
        assert_eq!(q.peek(), Some(2));
        q.pop();
        q.pop(); // admits 0 (stable tie keeps arrival order)
        assert_eq!(q.admitted, vec![2, 0]);
        // 0 is evicted; it re-enters at t=5.0, ahead of its tie 1 for now.
        q.requeue_victim(0);
        ready[0] = 5.0;
        assert_eq!(sq.peek(), Some(0));
        // At t=1.0 the victim is blocked: the partition hides it from the
        // scan, restore demotes it behind tie 1.
        sq.partition(1.0, &ready);
        assert_eq!(sq.peek(), Some(1));
        sq.restore_blocked();
        assert_eq!(sq.peek(), Some(1), "demoted victim stays behind its tie");
        assert_eq!(sq.ready_depth(&ready, 1.0), 1);
        assert_eq!(sq.ready_depth(&ready, 5.0), 2);
        // Once ready, nothing is taken out and it runs after the tie.
        sq.partition(5.0, &ready);
        sq.restore_blocked();
        let mut q = TrackedQueue::new(&mut sq);
        q.pop();
        q.pop();
        assert_eq!(q.admitted, vec![1, 0]);
        assert!(sq.is_empty());
    }

    #[test]
    fn resort_queue_sorts_only_absorbed_arrivals() {
        // A clock-ordered queue hands `order_queue` the arrivals up to the
        // clock; the rest waits in arrival order behind them.
        let trace = vec![
            RequestSpec::new(0, 0.0, 10, 9),
            RequestSpec::new(1, 0.0, 10, 2),
            RequestSpec::new(2, 3.0, 10, 1),
        ];
        let guard = crate::serving::policy::MaxWaitGuardPolicy::new(100.0);
        let mut sq = SchedQueue::new(&guard, &trace, (0..3).collect());
        assert_eq!(sq.fast_forward_target(&trace), Some(0.0));
        sq.prepare(1.0, &trace, &guard);
        assert_eq!(sq.deque(), Some(&VecDeque::from([1, 0])));
        assert_eq!(sq.fast_forward_target(&trace), None);
        assert_eq!(sq.ready_depth(&[0.0, 0.0, 3.0], 3.0), 3);
        sq.prepare(3.0, &trace, &guard);
        assert_eq!(sq.deque(), Some(&VecDeque::from([2, 1, 0])));
    }

    #[test]
    fn fcfs_gate_and_fast_forward_use_the_head() {
        let trace = vec![
            RequestSpec::new(0, 2.0, 8, 4),
            RequestSpec::new(1, 5.0, 8, 4),
        ];
        let sq = SchedQueue::new(&FcfsPolicy, &trace, (0..2).collect());
        assert_eq!(sq.fast_forward_target(&trace), Some(2.0));
        assert_eq!(sq.admission_gate(&trace, 1.0), Gate::Blocked(2.0));
        assert_eq!(sq.admission_gate(&trace, 2.0), Gate::Ready);
        let empty = SchedQueue::new(&FcfsPolicy, &trace, VecDeque::new());
        assert_eq!(empty.admission_gate(&trace, 0.0), Gate::Empty);
        assert_eq!(empty.fast_forward_target(&trace), None);
    }

    #[test]
    fn tracked_queue_records_admissions_only() {
        let trace: Vec<RequestSpec> = (0..10).map(|i| RequestSpec::new(i, 0.0, 8, 4)).collect();
        let mut sq = SchedQueue::new(&FcfsPolicy, &trace, VecDeque::from([4, 7]));
        let mut tq = TrackedQueue::new(&mut sq);
        assert_eq!(tq.peek(), Some(4));
        tq.pop();
        tq.requeue_victim(9);
        assert_eq!(tq.peek(), Some(9));
        assert_eq!(tq.admitted, vec![4]);
        assert_eq!(sq.deque(), Some(&VecDeque::from([9, 7])));
    }

    #[test]
    fn rebased_plan_equals_a_fresh_plan_after_every_commit() {
        // The cached-plan invariant behind `leapfrog_decode`: advancing
        // and committing `d` iterations of a plan leaves the blade in a
        // state whose fresh plan is exactly `plan.rebased(d)`.
        let system = MultiBladeSystem::new(1).unwrap();
        let est = system.inference_estimator();
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).unwrap();
        // Requests 1 and 2 share a 40-token prefix: two full 16-token
        // blocks stay resident while both run.
        let trace = vec![
            RequestSpec::new(0, 0.0, 90, 300),
            RequestSpec::new(1, 0.0, 50, 260).with_prefix(7, 40),
            RequestSpec::new(2, 0.0, 70, 280).with_prefix(7, 40),
        ];
        let ready: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
        let caching = PrefixCachingConfig {
            block_tokens: 16,
            eviction: Default::default(),
        };
        let mut checked = 0;
        for kv_layout in [KvLayout::Contiguous, KvLayout::Paged { block_tokens: 16 }] {
            for decode_pricing in [
                DecodePricing::BucketizedMean,
                DecodePricing::ExactPerSequence,
            ] {
                for prefix in [None, Some(caching)] {
                    let config = ServingConfig {
                        kv_bucket_tokens: 32,
                        kv_layout,
                        decode_pricing,
                        prefix,
                        ..ServingConfig::unconstrained(4)
                    };
                    let sim = ServingSimulator::from_parts(
                        &est,
                        &model,
                        &par,
                        config,
                        Box::new(FcfsPolicy),
                        None,
                    )
                    .unwrap();
                    let table = sim.cost_table(&trace, false).unwrap();
                    let loose = sim.ctx(&table);
                    // Admit everything and step until every sequence
                    // decodes past its first token.
                    let mut queue: VecDeque<usize> = (0..trace.len()).collect();
                    let mut outcomes = vec![Outcome::default(); trace.len()];
                    let mut blade = BladeState::new(0, 0.0, prefix);
                    let entry = loop {
                        loose.step(
                            &trace,
                            &ready,
                            &mut queue,
                            &mut blade,
                            &mut outcomes,
                            None,
                            None,
                            None,
                            &mut NoopObserver,
                        );
                        if let Some(p) = DecodeStretch::plan(&loose, &trace, &blade) {
                            break p;
                        }
                    };
                    assert_eq!(entry.batch, 3);
                    assert_eq!(entry.cache_charged > 0, prefix.is_some());
                    // A capacity that admits only a few more iterations
                    // of growth, so contiguous plans end on the KV bound.
                    let tight_config = ServingConfig {
                        kv_capacity_bytes: loose.kv_bytes(entry.charged0 + 5 * 3),
                        ..config
                    };
                    let tight = EngineCtx {
                        config: &tight_config,
                        ..sim.ctx(&table)
                    };
                    for ctx in [&loose, &tight] {
                        let plan = DecodeStretch::plan(ctx, &trace, &blade).unwrap();
                        if kv_layout == KvLayout::Contiguous && std::ptr::eq(ctx, &tight) {
                            assert_eq!(plan.max_iters, 6, "the KV bound binds");
                        }
                        for d in 1..plan.max_iters {
                            // End gate at the clock after `d + 1`
                            // iterations: `advance` takes exactly `d`.
                            let mut end = blade.clock;
                            for _ in 0..=d {
                                end += plan.cost;
                            }
                            let horizon = StretchHorizon {
                                start_gate_s: f64::INFINITY,
                                end_gate_s: end,
                                cooldown: None,
                            };
                            let mut b = blade.clone();
                            b.cached_plan = Some(None);
                            assert_eq!(plan.advance(&mut b, &horizon, &mut NoopObserver), d);
                            assert_eq!(b.cached_plan, None, "commit clears the slot");
                            assert_eq!(
                                Some(plan.rebased(d)),
                                DecodeStretch::plan(ctx, &trace, &b),
                                "{kv_layout:?} {decode_pricing:?} prefix {} d={d}",
                                prefix.is_some()
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "{checked} rebases checked");
    }
}

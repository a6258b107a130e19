package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/bpred"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

// SegmentedIQ is the paper's segmented, dependence-chain-scheduled
// instruction queue. It implements iq.Queue.
type SegmentedIQ struct {
	cfg    Config
	chains *chainPool
	wires  *wirePipe
	table  regTable

	hmp *bpred.HitMissPredictor
	lrp *bpred.LeftRightPredictor

	prevFree []int // per-segment free slots at the end of the previous cycle
	total    int   // occupied slots across all segments

	// The resident entries share one sequence-ordered slot space: slots
	// holds their handles (-1 marks the hole an issued entry left behind),
	// and segW[k] marks the slots of segment k, segLen[k] counting them.
	// Promotion relabels a slot from one segment's word to the next, so
	// nothing shifts; and since slots are seq-ordered, the lowest set bit
	// of segW[k]&eligW is segment k's oldest promotable entry, and of
	// segW[0]&readyW the oldest issue-ready one. first is the lowest live
	// slot; slots is trimmed to the highest.
	slots  []int32
	first  int
	segW   [][]uint64
	segLen []int
	// readyW marks issue-ready slots, set by the scoreboard's event-driven
	// wakeup; storeW marks store slots (their ready bit gates on the
	// address operand only; the occupancy statistics correct for the
	// data operand); eligW marks promotable slots (events.go).
	readyW []uint64
	storeW []uint64
	eligW  []uint64
	sb     iq.Scoreboard
	byID   []*entry // entry handle -> entry
	nextID int32
	// posOf holds, per handle, the entry's slot.
	posOf []int32
	// heapAt holds, per handle, the entry's slot in the eligibility heap
	// plus one (0: no pending eligibility event).
	heapAt []int32

	// ticks counts the self-timed countdown steps taken so far: one per
	// BeginCycle, plus one per cycle SkipCycles elides. Running
	// countdowns are stamped with it instead of being decremented.
	ticks int64
	// members lists, per chain wire id, the refs of registered entries
	// on that wire; heap schedules eligibility changes by tick; fresh
	// holds the entries whose arrival cycle has not ended.
	members [][]member
	heap    []eligEvent
	fresh   []int32
	// wireOcc[id*Segments+k] counts the members of wire id resident in
	// segment k, so delivering a signal to a segment none of its wire's
	// members occupy costs one load.
	wireOcc []int32
	// unresolved holds issued producers whose completion times the
	// pipeline has not yet stamped; they resolve at the next BeginCycle
	// (the engine sets Complete right after Issue returns).
	unresolved []*uop.UOp

	// Scratch buffers reused across cycles so the steady-state cycle loop
	// (BeginCycle → Issue) does not allocate. The slice Issue returns is
	// backed by outScratch and remains valid only until the next call.
	candScratch []int32
	outScratch  []*uop.UOp
	// entryPool recycles queue entries between writeback and dispatch, so
	// steady-state dispatch allocates nothing either. A clone inherits
	// its original's pooled handles as freeIDs, without entry objects;
	// they are reused after the clone's own pool, in the order the
	// original would reuse them.
	entryPool []*entry
	freeIDs   []int32
	// active is the number of powered segments (§7 dynamic resizing):
	// dispatch only targets segments below it; gated segments drain and
	// stay empty.
	active int

	curCycle            int64
	issuedThisCycle     int
	promotedThisCycle   int
	dispatchedThisCycle int
	recoverPending      bool

	stDispatched     stats.Counter
	stIssued         stats.Counter
	stStallFull      stats.Counter
	stStallNoChain   stats.Counter
	stPromotions     stats.Counter
	stPushdowns      stats.Counter
	stHeads          stats.Counter
	stHeadLoads      stats.Counter
	stHeadTwoChain   stats.Counter
	stTwoOutstanding stats.Counter
	stTwoDiffChains  stats.Counter
	stDeadlockCycles stats.Counter
	stRecoveries     stats.Counter
	stWireAsserts    stats.Counter
	stOccupancy      stats.Mean
	stActiveSegs     stats.Mean
	stSegOcc         []stats.Mean // per-segment occupancy
	stReadySeg0      stats.Mean
	stReadyTotal     stats.Mean
	stDispatchSeg    stats.Mean

	demChains iq.Watermark // chains-in-use high-watermark, for prefix sharing
}

// New builds a segmented IQ from cfg.
func New(cfg Config) (*SegmentedIQ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := &SegmentedIQ{
		cfg:      cfg,
		segLen:   make([]int, cfg.Segments),
		chains:   newChainPool(cfg.MaxChains),
		wires:    newWirePipe(cfg.Segments),
		table:    newRegTable(cfg.Threads),
		prevFree: make([]int, cfg.Segments),
		active:   cfg.Segments,
		stSegOcc: make([]stats.Mean, cfg.Segments),
	}
	for k := range q.prevFree {
		q.prevFree[k] = cfg.SegSize
	}
	// Holes accumulate until an append finds the slot space full; twice
	// the capacity bounds compactions to one per capacity's worth of
	// dispatches.
	n := 2*q.Capacity() + 64
	q.readyW = bitvec.New(n)
	q.storeW = bitvec.New(n)
	q.eligW = bitvec.New(n)
	q.segW = make([][]uint64, cfg.Segments)
	for k := range q.segW {
		q.segW[k] = bitvec.New(n)
	}
	if cfg.UseHMP {
		q.hmp = bpred.MustNewHMP()
	}
	if cfg.UseLRP {
		q.lrp = bpred.MustNewLRP()
	}
	return q, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *SegmentedIQ {
	q, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Name implements iq.Queue.
func (q *SegmentedIQ) Name() string { return "segmented" }

// Capacity implements iq.Queue.
func (q *SegmentedIQ) Capacity() int { return q.cfg.Segments * q.cfg.SegSize }

// Len implements iq.Queue.
func (q *SegmentedIQ) Len() int { return q.total }

// ExtraDispatchStages implements iq.Queue: the paper charges the segmented
// design one extra dispatch cycle for chain assignment.
func (q *SegmentedIQ) ExtraDispatchStages() int { return 1 }

// Config returns the queue's configuration.
func (q *SegmentedIQ) Config() Config { return q.cfg }

// deliverSeg applies a signal to the entries of segment k on its wire:
// the wire's member list, filtered to that segment, each member observing
// through the one ref it registered; the walk stops once it has met as
// many members as the segment holds. Callers skip it when occupied reports
// no member of the wire in segment k.
func (q *SegmentedIQ) deliverSeg(k int, s signal) {
	left := q.wireOcc[s.ch.id*q.cfg.Segments+k]
	for _, m := range q.members[s.ch.id] {
		if m.seg != int32(k) {
			continue
		}
		e := q.byID[m.h]
		if cr := &e.refs[m.ri]; cr.observe(s, q.ticks) && !q.stillBlocked(e, cr) {
			q.reElig(e)
		}
		if left--; left == 0 {
			return
		}
	}
}

// catchUp delivers the signals currently present at segment k to an entry
// that just arrived there. Signals propagate upward while instructions
// move downward; without this, an instruction moving into a segment in
// the same cycle a signal sits there would cross it in flight and miss it
// permanently (e.g. a chain resume, leaving the member suspended forever).
// The caller re-derives the entry's eligibility once it is placed.
func (q *SegmentedIQ) catchUp(e *entry, k int) {
	if q.cfg.InstantWires {
		return
	}
	sigs := q.wires.at(k)
	if len(sigs) == 0 {
		return
	}
	for i := 0; i < e.nrefs; i++ {
		cr := &e.refs[i]
		if !cr.ch.real() {
			continue
		}
		for _, s := range sigs {
			cr.observe(s, q.ticks)
		}
	}
}

// assertAt asserts a chain-wire signal at segment position k. In the
// pipelined model the signal is observed by segment k now and moves one
// segment up per cycle; with InstantWires it reaches everything above k
// immediately.
//
// The register information table observes every assertion in the
// asserting cycle, with no pipeline lag: the chain wires terminate at the
// dispatch stage. A lagged table would hand newly dispatched instructions
// stale (too-high) head locations; with segment bypass those instructions
// would then wait forever for advance assertions that had already passed
// below them.
func (q *SegmentedIQ) assertAt(k int, s signal) {
	q.stWireAsserts.Inc()
	q.table.observe(s, q.ticks)
	if q.cfg.InstantWires {
		for _, m := range q.wireMembers(s.ch.id) {
			if m.seg < int32(k) {
				continue
			}
			e := q.byID[m.h]
			if cr := &e.refs[m.ri]; cr.observe(s, q.ticks) && !q.stillBlocked(e, cr) {
				q.reElig(e)
			}
		}
		return
	}
	q.wires.assert(k, s)
	if q.occupied(s.ch.id, k) {
		q.deliverSeg(k, s)
	}
}

// newEntry takes an entry from the pool (or a free handle, or allocates
// one), keeps its stable handle across the reset, and enters it in byID.
// The entry has no slot until insertSlot and no segment (seg -1) until
// place.
func (q *SegmentedIQ) newEntry(u *uop.UOp, arrived int64) *entry {
	var e *entry
	if n := len(q.entryPool); n > 0 {
		e = q.entryPool[n-1]
		q.entryPool[n-1] = nil
		q.entryPool = q.entryPool[:n-1]
		id := e.id
		*e = entry{u: u, seg: -1, arrived: arrived, id: id}
	} else if n := len(q.freeIDs); n > 0 {
		e = &entry{u: u, seg: -1, arrived: arrived, id: q.freeIDs[n-1]}
		q.freeIDs = q.freeIDs[:n-1]
	} else {
		e = &entry{u: u, seg: -1, arrived: arrived, id: q.nextID}
		q.nextID++
		q.byID = append(q.byID, nil)
		q.posOf = append(q.posOf, 0)
		q.heapAt = append(q.heapAt, 0)
		q.sb.Grow(int(q.nextID))
	}
	q.byID[e.id] = e
	return e
}

// insertSlot gives a new entry its slot in sequence order, with its
// ready and store bits. A dispatch in sequence order appends. An older
// instruction (an SMT dispatch retried after a younger context's) goes
// just above the youngest older live slot: into the hole there if there
// is one, and otherwise by shifting the younger slots up.
func (q *SegmentedIQ) insertSlot(e *entry, ready, store bool) {
	seq := e.u.Seq
	n := len(q.slots)
	i := n
	for i > 0 && (q.slots[i-1] < 0 || q.byID[q.slots[i-1]].u.Seq > seq) {
		i--
	}
	if i == n || q.slots[i] >= 0 {
		if n == len(q.readyW)<<6 {
			q.compact()
			q.insertSlot(e, ready, store)
			return
		}
		q.slots = append(q.slots, 0)
		if i < n {
			copy(q.slots[i+1:], q.slots[i:n])
			bitvec.Insert(q.readyW, i, false)
			bitvec.Insert(q.storeW, i, false)
			bitvec.Insert(q.eligW, i, false)
			for _, sw := range q.segW {
				bitvec.Insert(sw, i, false)
			}
			for x := i + 1; x <= n; x++ {
				if h := q.slots[x]; h >= 0 {
					q.posOf[h] = int32(x)
				}
			}
		}
	}
	q.slots[i] = e.id
	if i < q.first || q.first >= n {
		q.first = i
	}
	q.posOf[e.id] = int32(i)
	bitvec.Assign(q.readyW, i, ready)
	bitvec.Assign(q.storeW, i, store)
}

// removeSlot frees an issued entry's slot, leaving a hole, and trims
// holes off both ends of the live range.
func (q *SegmentedIQ) removeSlot(e *entry) {
	i := int(q.posOf[e.id])
	q.slots[i] = -1
	bitvec.Clear(q.readyW, i)
	bitvec.Clear(q.storeW, i)
	n := len(q.slots)
	for n > 0 && q.slots[n-1] < 0 {
		n--
	}
	q.slots = q.slots[:n]
	for q.first < n && q.slots[q.first] < 0 {
		q.first++
	}
	if q.first > n {
		q.first = n
	}
}

// compact squeezes the holes out of the slot space, keeping the order.
func (q *SegmentedIQ) compact() {
	w := 0
	for r, h := range q.slots {
		if h < 0 {
			continue
		}
		if w != r {
			q.slots[w] = h
			q.posOf[h] = int32(w)
			for _, b := range [][]uint64{q.readyW, q.storeW, q.eligW} {
				bitvec.Assign(b, w, bitvec.Test(b, r))
			}
		}
		w++
	}
	for r := w; r < len(q.slots); r++ {
		for _, b := range [][]uint64{q.readyW, q.storeW, q.eligW} {
			bitvec.Clear(b, r)
		}
	}
	for _, sw := range q.segW {
		clear(sw)
	}
	for j, h := range q.slots[:w] {
		bitvec.Set(q.segW[q.byID[h].seg], j)
	}
	q.slots = q.slots[:w]
	q.first = 0
}

// place puts e, which holds a slot, into segment k. Its eligibility bit
// is clear; the caller re-derives it with reElig once the entry's refs
// and arrival cycle are set.
func (q *SegmentedIQ) place(k int, e *entry) {
	bitvec.Set(q.segW[k], int(q.posOf[e.id]))
	q.segLen[k]++
	e.seg = k
	q.enter(e, k)
}

// unplace takes e out of segment k, leaving it in transit (seg -1) in its
// slot, which keeps its ready and store bits.
func (q *SegmentedIQ) unplace(k int, e *entry) {
	i := int(q.posOf[e.id])
	bitvec.Clear(q.segW[k], i)
	bitvec.Clear(q.eligW, i)
	q.segLen[k]--
	q.leave(e, k)
	e.seg = -1
}

// words returns the range of slot words holding live slots.
func (q *SegmentedIQ) words() (lo, hi int) {
	return q.first >> 6, bitvec.Words(len(q.slots))
}

// lowest returns the handle in the lowest slot set in both a and b, or
// -1.
func (q *SegmentedIQ) lowest(a, b []uint64) int32 {
	lo, hi := q.words()
	for wi := lo; wi < hi; wi++ {
		if w := a[wi] & b[wi]; w != 0 {
			return q.slots[wi<<6+bits.TrailingZeros64(w)]
		}
	}
	return -1
}

// setReady flips the ready bit of the entry behind scoreboard handle h.
func (q *SegmentedIQ) setReady(h int32) {
	bitvec.Set(q.readyW, int(q.posOf[h]))
}

// wakeConsumers tells the scoreboard that p's completion time resolved
// and marks every consumer that became issue-ready.
func (q *SegmentedIQ) wakeConsumers(p *uop.UOp) {
	for _, h := range q.sb.Wake(p, q.curCycle) {
		q.setReady(h)
	}
}

// advance moves the queue's internal clock to cycle: producers issued
// earlier whose completion the pipeline stamped after Issue returned
// resolve now, readiness scheduled for this cycle comes due, and entries
// whose arrival cycle has ended become candidates for promotion.
func (q *SegmentedIQ) advance(cycle int64) {
	q.curCycle = cycle
	// Compact only from the first resolved producer on, so cycles where
	// nothing resolved write no pointers.
	for i, u := range q.unresolved {
		if u.Complete == uop.NotYet {
			continue
		}
		kept := q.unresolved[:i]
		for _, u := range q.unresolved[i:] {
			if u.Complete == uop.NotYet {
				kept = append(kept, u)
				continue
			}
			q.wakeConsumers(u)
		}
		for j := len(kept); j < len(q.unresolved); j++ {
			q.unresolved[j] = nil
		}
		q.unresolved = kept
		break
	}
	for _, h := range q.sb.Due(cycle) {
		q.setReady(h)
	}
	q.settleArrivals(cycle)
}

// refresh re-derives e's readiness from its instruction's current
// producers (test hook for drivers that rewrite Prod after dispatch).
func (q *SegmentedIQ) refresh(e *entry) {
	q.sb.Untrack(e.id)
	ready := q.sb.Track(e.id, e.u, q.curCycle)
	bitvec.Assign(q.readyW, int(q.posOf[e.id]), ready)
}

// BeginCycle implements iq.Queue: wire propagation, self-timed countdown,
// deadlock recovery, promotion and pushdown. The countdown is one tick of
// the queue's tick counter; the entries whose countdowns cross their
// segment's promotion threshold at this tick are the heap's due events.
func (q *SegmentedIQ) BeginCycle(cycle int64) {
	q.advance(cycle)
	q.issuedThisCycle = 0
	q.promotedThisCycle = 0
	q.dispatchedThisCycle = 0

	// Promotion this cycle may use only the slots that were free at the
	// end of the previous cycle (§3.1: availability cannot be computed and
	// propagated through the whole queue in one cycle).
	for k, n := range q.segLen {
		q.prevFree[k] = q.cfg.SegSize - n
	}

	// Advance the pipelined chain wires one segment and deliver. (The
	// register table saw each assertion already, in its asserting cycle.)
	if !q.cfg.InstantWires {
		q.wires.shift()
		for k := 0; k < q.cfg.Segments; k++ {
			for _, s := range q.wires.at(k) {
				if q.occupied(s.ch.id, k) {
					q.deliverSeg(k, s)
				}
			}
		}
	}

	// Self-timed countdowns.
	q.ticks++
	q.fireDue()

	if q.recoverPending {
		q.recoverPending = false
		q.recover(cycle)
	}

	q.promote(cycle)

	// Statistics. The readiness scan walks every occupied slot, so it is
	// gated behind the sampling knob (Config.StatsEvery); it has no effect
	// on scheduling.
	if every := int64(q.cfg.StatsEvery); every <= 1 || cycle%every == 0 {
		q.sampleStats(cycle)
	}
}

// sampleStats records the per-cycle sampled statistics. It is called from
// BeginCycle on sampled cycles and replayed by SkipCycles for elided idle
// cycles, so it must not mutate scheduling state.
func (q *SegmentedIQ) sampleStats(cycle int64) {
	q.stOccupancy.Observe(float64(q.total))
	q.stActiveSegs.Observe(float64(q.active))
	for k, n := range q.segLen {
		q.stSegOcc[k].Observe(float64(n))
	}
	// Conventional-wakeup readiness (both operands): popcount of the
	// ready words, minus ready stores whose data operand is still
	// outstanding (their ready bit gates on the address alone).
	ready0, readyAll := 0, 0
	lo, hi := q.words()
	seg0 := q.segW[0]
	for wi := lo; wi < hi; wi++ {
		w := q.readyW[wi]
		readyAll += bits.OnesCount64(w)
		ready0 += bits.OnesCount64(w & seg0[wi])
		sw := w & q.storeW[wi]
		for sw != 0 {
			b := bits.TrailingZeros64(sw)
			sw &= sw - 1
			if !q.byID[q.slots[wi<<6+b]].u.OperandReady(0, cycle) {
				readyAll--
				if seg0[wi]>>uint(b)&1 != 0 {
					ready0--
				}
			}
		}
	}
	q.stReadySeg0.Observe(float64(ready0))
	q.stReadyTotal.Observe(float64(readyAll))
	q.chains.sample()
}

// Quiescent implements iq.Queue. The segmented design is frozen at the end
// of a cycle when nothing moved this cycle, no deadlock recovery is armed,
// segment 0 holds no issueable instruction, every unresolved producer has no
// completion stamped yet, the pipelined chain wires carry no in-flight
// signal, no entry arrived this cycle (it would become promotion-eligible
// next cycle), and no self-timed countdown — in an entry's chain refs or in
// a register-table row — is still ticking. Under those conditions BeginCycle
// on the elided cycles would only shift empty wire positions and run an
// empty promotion pass.
func (q *SegmentedIQ) Quiescent(cycle int64) bool {
	if q.issuedThisCycle != 0 || q.promotedThisCycle != 0 ||
		q.dispatchedThisCycle != 0 || q.recoverPending {
		return false
	}
	if q.anyReady(0, cycle) {
		return false
	}
	for _, u := range q.unresolved {
		if u.Complete != uop.NotYet {
			return false
		}
	}
	for k := range q.wires.cur {
		if len(q.wires.cur[k]) != 0 {
			return false
		}
	}
	for _, h := range q.slots[q.first:] {
		if h < 0 {
			continue
		}
		e := q.byID[h]
		if e.arrived >= q.curCycle {
			return false
		}
		for i := 0; i < e.nrefs; i++ {
			if cr := &e.refs[i]; cr.running() && cr.value(q.ticks) > 0 {
				return false
			}
		}
	}
	for i := range q.table.rows {
		if re := &q.table.rows[i]; re.running() && re.value(q.ticks) > 0 {
			return false
		}
	}
	return true
}

// SkipCycles implements iq.Queue: replay the state evolution BeginCycle
// would have produced on the elided cycles [from, to). With the queue
// quiescent the only effects are the wire-pipe shift (a slice-header
// rotation that must be replayed exactly for state equivalence even though
// every position is empty), the tick counter and the sampled statistics.
// Quiescence leaves no running countdown above zero and no eligibility
// event pending, so advancing the tick counter changes no value; it keeps
// the counter equal to a stepped run's.
func (q *SegmentedIQ) SkipCycles(from, to int64) {
	q.ticks += to - from
	every := int64(q.cfg.StatsEvery)
	for x := from; x < to; x++ {
		if !q.cfg.InstantWires {
			q.wires.shift()
		}
		if every <= 1 || x%every == 0 {
			q.sampleStats(x)
		}
	}
}

// promote moves eligible instructions one segment downward, oldest first,
// bounded by inter-segment bandwidth (= issue width) and the destination
// slots free at the end of the previous cycle; then applies pushdown
// (§4.1) with any remaining bandwidth. Candidates come straight off the
// segment's slot word and the eligibility bits.
func (q *SegmentedIQ) promote(cycle int64) {
	for k := 1; k < q.cfg.Segments; k++ {
		dest := k - 1
		budget := q.cfg.IssueWidth
		if q.prevFree[dest] < budget {
			budget = q.prevFree[dest]
		}
		if free := q.cfg.SegSize - q.segLen[dest]; free < budget {
			budget = free
		}
		if budget <= 0 || q.segLen[k] == 0 {
			continue
		}
		budget -= q.moveSelected(k, dest, q.pickEligible(k, budget), cycle, false)

		if q.cfg.Pushdown && budget > 0 {
			freeK := q.cfg.SegSize - q.segLen[k]
			freeDest := q.cfg.SegSize - q.segLen[dest]
			// §4.1: the upper segment has fewer than IW free entries and
			// the one below has more than 1.5*IW free entries.
			if freeK < q.cfg.IssueWidth && 2*freeDest > 3*q.cfg.IssueWidth {
				n := budget
				if n > q.cfg.IssueWidth {
					n = q.cfg.IssueWidth
				}
				q.moveSelected(k, dest, q.pickIneligible(k, n, cycle), cycle, true)
			}
		}
	}
}

// pickEligible returns the handles of the n oldest promotable entries of
// segment k: the lowest set bits of segW[k]&eligW.
func (q *SegmentedIQ) pickEligible(k, n int) []int32 {
	cand := q.candScratch[:0]
	sw := q.segW[k]
	lo, hi := q.words()
	for wi := lo; wi < hi && len(cand) < n; wi++ {
		for w := sw[wi] & q.eligW[wi]; w != 0 && len(cand) < n; w &= w - 1 {
			cand = append(cand, q.slots[wi<<6+bits.TrailingZeros64(w)])
		}
	}
	return cand
}

// pickIneligible returns the handles of the n oldest pushdown candidates
// of segment k: entries that arrived before cycle yet are not eligible,
// i.e. whose delay is at or above the threshold below.
func (q *SegmentedIQ) pickIneligible(k, n int, cycle int64) []int32 {
	cand := q.candScratch[:0]
	sw := q.segW[k]
	lo, hi := q.words()
	for wi := lo; wi < hi && len(cand) < n; wi++ {
		for w := sw[wi] &^ q.eligW[wi]; w != 0 && len(cand) < n; w &= w - 1 {
			if h := q.slots[wi<<6+bits.TrailingZeros64(w)]; q.byID[h].arrived < cycle {
				cand = append(cand, h)
			}
		}
	}
	return cand
}

// moveSelected moves the candidates (handles in slot order) from segment
// k to segment dest, asserting chain wires for promoted heads. All the
// candidates leave k before any moves, and are in transit until all are
// placed in dest. It returns the number moved.
func (q *SegmentedIQ) moveSelected(k, dest int, cand []int32, cycle int64, pushdown bool) int {
	for _, h := range cand {
		q.unplace(k, q.byID[h])
	}
	for idx, h := range cand {
		e := q.byID[h]
		e.arrived = cycle
		e.pushedDown = pushdown
		q.catchUp(e, dest)
		if e.isHead {
			s := signal{ch: e.head, typ: sigAdvance}
			q.assertAt(k, s)
			// Later candidates were still resident in segment k when this
			// head's wire fired; they are in transit already, so deliver
			// to them by hand.
			for _, h2 := range cand[idx+1:] {
				q.byID[h2].observe(s, q.ticks)
			}
		}
		q.promotedThisCycle++
		if pushdown {
			q.stPushdowns.Inc()
		} else {
			q.stPromotions.Inc()
		}
	}
	for _, h := range cand {
		e := q.byID[h]
		q.place(dest, e)
		q.reElig(e)
	}
	moved := len(cand)
	q.candScratch = cand[:0]
	return moved
}

// removeFromSegment takes e out of segment k for good: its slot is freed,
// and the scoreboard, the wire member lists and the eligibility schedule
// stop tracking it.
func (q *SegmentedIQ) removeFromSegment(k int, e *entry) {
	q.unplace(k, e)
	q.removeSlot(e)
	q.sb.Untrack(e.id)
	q.unregister(e)
	q.cancel(e)
	q.dropFresh(e)
}

// Issue implements iq.Queue: wakeup/select over the bottom segment only,
// oldest ready first — a TrailingZeros64 walk of the seq-ordered ready
// word. Issuing chain heads assert their wire at segment 0 (members with
// head location zero enter self-timed mode). The returned slice is owned
// by the queue and valid until the next call.
func (q *SegmentedIQ) Issue(cycle int64, max int, tryIssue func(*uop.UOp) bool) []*uop.UOp {
	if cycle != q.curCycle {
		// Drivers that skip BeginCycle (unit tests) still get wakes
		// evaluated at the issue cycle.
		q.advance(cycle)
	}
	cand := q.candScratch[:0]
	seg0 := q.segW[0]
	lo, hi := q.words()
	for wi := lo; wi < hi; wi++ {
		for w := seg0[wi] & q.readyW[wi]; w != 0; w &= w - 1 {
			if h := q.slots[wi<<6+bits.TrailingZeros64(w)]; q.byID[h].arrived < cycle {
				cand = append(cand, h)
			}
		}
	}
	out := q.outScratch[:0]
	for _, h := range cand {
		if len(out) >= max {
			break
		}
		e := q.byID[h]
		if !tryIssue(e.u) {
			continue
		}
		e.u.IssueCycle = cycle
		q.removeFromSegment(0, e)
		q.total--
		out = append(out, e.u)
		if e.u.Inst.HasDest() {
			// The pipeline stamps Complete after Issue returns; resolve
			// the completion for waiting consumers at the next advance.
			q.unresolved = append(q.unresolved, e.u)
		}
		if e.isHead {
			q.assertAt(0, signal{ch: e.head, typ: sigAdvance})
		}
		q.trainLRP(e)
	}
	q.candScratch = cand[:0]
	q.outScratch = out
	q.issuedThisCycle += len(out)
	q.stIssued.Add(uint64(len(out)))
	return out
}

// trainLRP scores and trains the left/right predictor once both operand
// arrival times are known (they are, at issue).
func (q *SegmentedIQ) trainLRP(e *entry) {
	if !e.lrpTracked || q.lrp == nil {
		return
	}
	u := e.u
	if u.Prod[0] == nil || u.Prod[1] == nil {
		return
	}
	t0, t1 := u.OperandReadyTime(0), u.OperandReadyTime(1)
	if t0 == t1 {
		return // no information in a tie
	}
	q.lrp.Update(u.Inst.PC, t0 > t1)
}

// SetActiveSegments gates the queue to its bottom n segments (§7 dynamic
// resizing by clock/power gating at segment granularity). Dispatch stops
// targeting gated segments immediately; instructions already above the
// active region keep promoting downward until it drains. n is clamped to
// [1, Segments].
func (q *SegmentedIQ) SetActiveSegments(n int) {
	if n < 1 {
		n = 1
	}
	if n > q.cfg.Segments {
		n = q.cfg.Segments
	}
	q.active = n
}

// ActiveSegments returns the number of powered segments.
func (q *SegmentedIQ) ActiveSegments() int { return q.active }

// dispatchTarget picks the segment a new instruction enters: with bypass
// (§4.2), the highest non-empty segment (or the bottom if the queue is
// empty), overflowing into the empty segment above it when full; without
// bypass, always the top (active) segment.
func (q *SegmentedIQ) dispatchTarget() (int, bool) {
	top := q.active - 1
	if !q.cfg.Bypass {
		if q.segLen[top] >= q.cfg.SegSize {
			return 0, false
		}
		return top, true
	}
	hi := -1
	for k := top; k >= 0; k-- {
		if q.segLen[k] > 0 {
			hi = k
			break
		}
	}
	switch {
	case hi == -1:
		return 0, true
	case q.segLen[hi] < q.cfg.SegSize:
		return hi, true
	case hi < top:
		return hi + 1, true
	default:
		return 0, false
	}
}

// refFrom derives a chain membership from a register-table row at queue
// tick ticks.
func refFrom(re regEntry, ticks int64) chainRef {
	if re.selfTimed {
		return chainRef{ch: re.ch, delay: int32(re.value(ticks)), base: ticks, selfTimed: true, suspended: re.suspended}
	}
	// §3.3: delay is initialised to 2*S_H + D_H.
	return chainRef{ch: re.ch, delay: int32(2*re.headLoc + re.latency), headLoc: int32(re.headLoc)}
}

// Dispatch implements iq.Queue: chain assignment via the register
// information table, delay-value initialisation, chain-head creation
// (loads, and two-outstanding-operand instructions in the base design),
// and placement with segment bypass. Returns false — with no state
// changed — when the target segment is full or no chain wire is free.
func (q *SegmentedIQ) Dispatch(cycle int64, u *uop.UOp) bool {
	// Collect the outstanding source operands and snapshot their rows
	// (the destination update below may overwrite a row aliased by a
	// source).
	type srcOut struct {
		j  int
		re regEntry
	}
	var outsArr [2]srcOut
	outs := outsArr[:0]
	for j := 0; j < 2; j++ {
		if j == 0 && u.IsStore() {
			// A store's delay value tracks only its address operand: the
			// EA calculation is what the IQ schedules; the data drains
			// through the LSQ.
			continue
		}
		r := u.Src(j)
		if r == isa.RegNone || r == isa.RegZero {
			continue
		}
		re := q.table.row(u.Thread, r)
		if re.outstanding(q.ticks) {
			outs = append(outs, srcOut{j: j, re: *re})
		}
	}

	isLoad := u.IsLoad()
	predHit := false
	if isLoad && q.hmp != nil {
		predHit = q.hmp.PredictHit(u.Inst.PC)
	}
	needHead := isLoad && !predHit
	headIsLoad := needHead

	twoDiff := len(outs) == 2 &&
		outs[0].re.ch.real() && outs[1].re.ch.real() && outs[0].re.ch != outs[1].re.ch
	if twoDiff && q.lrp == nil {
		// Base design (§3.4): an instruction following two chains must
		// itself head a new chain.
		needHead = true
	}

	target, ok := q.dispatchTarget()
	if !ok {
		q.stStallFull.Inc()
		return false
	}

	hd := chainNone
	if needHead {
		c, allocOK := q.chains.alloc()
		if !allocOK {
			q.stStallNoChain.Inc()
			return false
		}
		hd = c
		q.demChains.Observe(cycle, int64(q.chains.inUse))
	}

	// Commit point: no stalls past here.
	e := q.newEntry(u, cycle)
	e.isHead = needHead
	e.head = hd
	if len(outs) == 2 {
		q.stTwoOutstanding.Inc()
		if twoDiff {
			q.stTwoDiffChains.Inc()
		}
	}

	switch {
	case len(outs) == 0:
		// Both operands available: delay 0, no chain membership.
	case len(outs) == 1:
		e.refs[0] = refFrom(outs[0].re, q.ticks)
		e.nrefs = 1
	case q.lrp != nil:
		// §4.3: with the LRP each instruction follows at most one chain —
		// the operand predicted to arrive later.
		left := q.lrp.PredictLeftLater(u.Inst.PC)
		e.lrpTracked = true
		pick := outs[1]
		if left {
			pick = outs[0]
		}
		e.refs[0] = refFrom(pick.re, q.ticks)
		e.nrefs = 1
	case outs[0].re.ch.real() && outs[0].re.ch == outs[1].re.ch:
		// Both operands on the same chain: one membership, larger delay.
		a, b := refFrom(outs[0].re, q.ticks), refFrom(outs[1].re, q.ticks)
		if b.delay > a.delay {
			a = b
		}
		e.refs[0] = a
		e.nrefs = 1
	default:
		// Two memberships (§3.2); the larger delay value controls.
		e.refs[0] = refFrom(outs[0].re, q.ticks)
		e.refs[1] = refFrom(outs[1].re, q.ticks)
		e.nrefs = 2
	}

	if u.Inst.HasDest() {
		predLat := u.Latency()
		if isLoad {
			predLat = q.cfg.PredictedLoadLatency
		}
		// The refs were just derived at this tick, so their delay fields
		// hold their current values.
		var de regEntry
		switch {
		case needHead:
			de = regEntry{valid: true, producer: u, ch: hd, latency: predLat, headLoc: target}
		case e.nrefs > 0:
			cr := e.refs[0]
			if e.nrefs == 2 && e.refs[1].delay > cr.delay {
				cr = e.refs[1]
			}
			if cr.selfTimed {
				de = regEntry{valid: true, producer: u, ch: cr.ch,
					latency: int(cr.delay) + predLat, base: q.ticks, selfTimed: true, suspended: cr.suspended}
			} else {
				// Latency relative to head issue: the controlling
				// operand's latency-from-head plus this instruction's
				// own latency.
				de = regEntry{valid: true, producer: u, ch: cr.ch,
					latency: int(cr.delay-2*cr.headLoc) + predLat, headLoc: int(cr.headLoc)}
			}
		default:
			// Fully predictable: expected to issue after draining ~one
			// segment per cycle from its dispatch segment.
			de = regEntry{valid: true, producer: u, ch: chainNone,
				latency: target + predLat, base: q.ticks, selfTimed: true}
		}
		q.table.set(q.table.index(u.Thread, u.Inst.Dest), de)
	}

	u.DispatchCycle = cycle
	u.IQ = e
	q.register(e)
	q.insertSlot(e, q.sb.Track(e.id, u, cycle), u.IsStore())
	q.place(target, e)
	q.catchUp(e, target)
	q.reElig(e)
	q.total++
	q.dispatchedThisCycle++
	q.stDispatched.Inc()
	q.stDispatchSeg.Observe(float64(target))
	if needHead {
		q.stHeads.Inc()
		if headIsLoad {
			q.stHeadLoads.Inc()
		} else {
			q.stHeadTwoChain.Inc()
		}
	}
	return true
}

// NotifyLoadMiss implements iq.Queue: the chain head discovered it will
// not complete within its predicted latency; members suspend self-timing
// (§3.4). The signal originates at the bottom of the queue and propagates
// up the chain wire.
func (q *SegmentedIQ) NotifyLoadMiss(cycle int64, u *uop.UOp) {
	e, ok := u.IQ.(*entry)
	if !ok || e == nil || !e.isHead {
		return
	}
	q.assertAt(0, signal{ch: e.head, typ: sigSuspend})
}

// NotifyLoadComplete implements iq.Queue: a final chain-wire signal
// resumes self-timed mode; the hit/miss predictor is trained.
func (q *SegmentedIQ) NotifyLoadComplete(cycle int64, u *uop.UOp) {
	q.wakeConsumers(u)
	if q.hmp != nil && u.IsLoad() {
		q.hmp.Update(u.Inst.PC, u.MemKind == uop.MemHit)
	}
	e, ok := u.IQ.(*entry)
	if !ok || e == nil || !e.isHead {
		return
	}
	q.assertAt(0, signal{ch: e.head, typ: sigResume})
}

// Writeback implements iq.Queue: chains are deallocated when the head
// writes its result back to the register file; the register table row is
// released if this instruction is still its producer.
func (q *SegmentedIQ) Writeback(cycle int64, u *uop.UOp) {
	q.wakeConsumers(u)
	q.table.clearProducer(u)
	e, ok := u.IQ.(*entry)
	if !ok || e == nil {
		return
	}
	if e.isHead {
		q.chains.release(e.head)
		e.isHead = false
	}
	u.IQ = nil
	// The entry left the queue segments at issue and its last external
	// reference (u.IQ) is gone: recycle it.
	e.u = nil
	q.entryPool = append(q.entryPool, e)
}

// EndCycle implements iq.Queue: deadlock detection (§4.5). A deadlock is
// declared when the queue holds instructions but nothing issued, promoted
// or dispatched this cycle and nothing is executing elsewhere in the
// machine; recovery runs at the start of the next cycle.
func (q *SegmentedIQ) EndCycle(cycle int64, machineActive bool) {
	if q.total > 0 && q.issuedThisCycle == 0 && q.promotedThisCycle == 0 &&
		q.dispatchedThisCycle == 0 && !machineActive {
		q.stDeadlockCycles.Inc()
		if q.cfg.DeadlockRecovery {
			q.recoverPending = true
		}
	}
}

// recover implements §4.5: every full segment is forced to promote one
// instruction (eligible candidates preferred), and if the bottom segment
// is full of non-ready instructions, one is recycled to the top of the
// queue, guaranteeing the oldest ready instruction can eventually reach
// segment 0.
func (q *SegmentedIQ) recover(cycle int64) {
	q.stRecoveries.Inc()

	var recycled *entry
	if q.segLen[0] >= q.cfg.SegSize && !q.anyReady(0, cycle) {
		// Slot order is age order: the lowest slot of segment 0 is its
		// oldest. In transit it is on no member list, so it hears no
		// signal until it is placed.
		recycled = q.byID[q.lowest(q.segW[0], q.segW[0])]
		q.unplace(0, recycled)
	}

	// Force one promotion across every segment boundary with room below.
	// The paper forces promotions out of *full* segments; we extend the
	// forced pass to any non-empty segment so that recovery also clears
	// wedges where delay values have gone stale without filling the queue
	// (the queue is already known to be making no progress).
	for k := 1; k < q.cfg.Segments; k++ {
		if q.segLen[k] == 0 || q.segLen[k-1] >= q.cfg.SegSize {
			continue
		}
		// Prefer the oldest instruction under the threshold, whatever its
		// arrival cycle; otherwise force the oldest.
		thr := threshold(k - 1)
		pick, oldest := int32(-1), int32(-1)
		sw := q.segW[k]
		lo, hi := q.words()
		for wi := lo; wi < hi && pick < 0; wi++ {
			for w := sw[wi]; w != 0; w &= w - 1 {
				h := q.slots[wi<<6+bits.TrailingZeros64(w)]
				if oldest < 0 {
					oldest = h
				}
				if q.byID[h].effDelay(q.ticks) < thr {
					pick = h
					break
				}
			}
		}
		if pick >= 0 {
			q.moveSelected(k, k-1, append(q.candScratch[:0], pick), cycle, false)
		} else {
			q.moveSelected(k, k-1, append(q.candScratch[:0], oldest), cycle, true)
		}
	}

	if recycled != nil {
		placed := false
		for k := q.cfg.Segments - 1; k >= 0; k-- {
			if q.segLen[k] < q.cfg.SegSize {
				recycled.arrived = cycle
				q.place(k, recycled)
				q.catchUp(recycled, k)
				placed = true
				break
			}
		}
		if !placed {
			// Cannot happen: removing the entry freed a slot that the
			// forced promotions can only have cascaded upward.
			recycled.arrived = cycle // may not issue in its recycling cycle
			q.place(0, recycled)
		}
		q.reElig(recycled)
	}
}

func (q *SegmentedIQ) anyReady(k int, cycle int64) bool {
	return q.lowest(q.segW[k], q.readyW) >= 0
}

// SegmentLen returns the occupancy of segment k (tests and occupancy
// reports).
func (q *SegmentedIQ) SegmentLen(k int) int { return q.segLen[k] }

// resident returns u's entry if u sits in one of this queue's segments:
// dispatched here and not yet issued.
func (q *SegmentedIQ) resident(u *uop.UOp) *entry {
	e, ok := u.IQ.(*entry)
	if !ok || e == nil || e.seg < 0 || int(e.id) >= len(q.byID) || q.byID[e.id] != e {
		return nil
	}
	return e
}

// DelayOf returns the current effective delay value of a dispatched
// instruction, or -1 if it is not (or no longer) queued here. Diagnostic
// and walkthrough use.
func (q *SegmentedIQ) DelayOf(u *uop.UOp) int {
	if e := q.resident(u); e != nil {
		return e.effDelay(q.ticks)
	}
	return -1
}

// SegmentOf returns the segment index holding a dispatched instruction,
// or -1 if it is not queued here.
func (q *SegmentedIQ) SegmentOf(u *uop.UOp) int {
	if e := q.resident(u); e != nil {
		return e.seg
	}
	return -1
}

// ChainsInUse returns the number of currently allocated chains.
func (q *SegmentedIQ) ChainsInUse() int { return q.chains.inUse }

// Demands implements iq.Queue: the chain-wire high-watermark, which is
// the dimension a MaxChains sweep tightens.
func (q *SegmentedIQ) Demands() []iq.DemandCurve {
	return []iq.DemandCurve{{Dim: "chains", Steps: q.demChains.Steps}}
}

// CloneBounded implements iq.Queue: the segmented design's sweep bound is
// MaxChains. Wire ids are drawn lowest-first and recycled LIFO, so the
// allocation sequence is bound-independent until the watermark crosses;
// cloneBounded rebuilds the free list a cold run under the tighter bound
// would hold and verifies the watermark never crossed it.
func (q *SegmentedIQ) CloneBounded(m *uop.CloneMap, bound int) (iq.Queue, bool) {
	if bound == q.cfg.MaxChains {
		return q.Clone(m), true
	}
	if bound <= 0 {
		// Unlimited (0) is a loosening, never a sweep sibling of a
		// bounded reference.
		return nil, false
	}
	chains, ok := q.chains.cloneBounded(bound)
	if !ok {
		return nil, false
	}
	n := q.Clone(m).(*SegmentedIQ)
	n.chains = chains
	n.cfg.MaxChains = bound
	return n, true
}

// CollectStats implements iq.Queue.
func (q *SegmentedIQ) CollectStats(s *stats.Set) {
	s.Put("iq_dispatched", float64(q.stDispatched.Value()))
	s.Put("iq_issued", float64(q.stIssued.Value()))
	s.Put("iq_stall_full", float64(q.stStallFull.Value()))
	s.Put("iq_stall_nochain", float64(q.stStallNoChain.Value()))
	s.Put("iq_promotions", float64(q.stPromotions.Value()))
	s.Put("iq_pushdowns", float64(q.stPushdowns.Value()))
	s.Put("iq_occupancy_avg", q.stOccupancy.Value())
	s.Put("segments_active_avg", q.stActiveSegs.Value())
	for k := range q.stSegOcc {
		s.Put(fmt.Sprintf("seg%d_occupancy_avg", k), q.stSegOcc[k].Value())
	}
	s.Put("iq_ready_seg0_avg", q.stReadySeg0.Value())
	s.Put("iq_ready_total_avg", q.stReadyTotal.Value())
	s.Put("iq_dispatch_seg_avg", q.stDispatchSeg.Value())
	s.Put("chains_created", float64(q.chains.created.Value()))
	s.Put("chains_avg", q.chains.usage.Value())
	s.Put("chains_peak", float64(q.chains.peak.Value()))
	s.Put("chain_heads", float64(q.stHeads.Value()))
	s.Put("chain_heads_load", float64(q.stHeadLoads.Value()))
	s.Put("chain_heads_twochain", float64(q.stHeadTwoChain.Value()))
	s.Put("two_outstanding", float64(q.stTwoOutstanding.Value()))
	s.Put("two_outstanding_diff_chains", float64(q.stTwoDiffChains.Value()))
	s.Put("deadlock_cycles", float64(q.stDeadlockCycles.Value()))
	s.Put("deadlock_recoveries", float64(q.stRecoveries.Value()))
	s.Put("chain_wire_assertions", float64(q.stWireAsserts.Value()))
	if q.hmp != nil {
		s.Put("hmp_hit_pred_accuracy", q.hmp.HitPredictionAccuracy())
		s.Put("hmp_hit_coverage", q.hmp.HitCoverage())
		s.Put("hmp_actual_hit_rate", q.hmp.ActualHitRate())
	}
	if q.lrp != nil {
		s.Put("lrp_accuracy", q.lrp.Accuracy())
	}
}

var _ iq.Queue = (*SegmentedIQ)(nil)

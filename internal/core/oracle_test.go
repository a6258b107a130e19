package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/isa"
	"repro/internal/uop"
)

// eagerRef is the reference model of a chain membership that the queue's
// tick-stamped chainRef must match: the delay decremented by one on every
// countdown tick while self-timed and not suspended (§3.3–3.4).
type eagerRef struct {
	delay, headLoc       int
	selfTimed, suspended bool
}

func (r *eagerRef) observe(typ sigType) {
	switch typ {
	case sigAdvance:
		if r.selfTimed {
			return
		}
		if r.headLoc > 0 {
			r.headLoc--
			r.delay -= 2
			if r.delay < 0 {
				r.delay = 0
			}
		} else {
			r.selfTimed = true
		}
	case sigSuspend:
		r.suspended = true
	case sigResume:
		r.suspended = false
	}
}

func (r *eagerRef) tick() {
	if r.selfTimed && !r.suspended && r.delay > 0 {
		r.delay--
	}
}

// TestTickStampedRefsMatchEager: under any sequence of signals and
// countdown ticks, a tick-stamped chainRef's value and a tick-stamped
// register-table row's latency equal the eagerly ticked model's.
func TestTickStampedRefsMatchEager(t *testing.T) {
	f := func(ops []uint8, delay, headLoc uint8, start int32) bool {
		ch := chain{id: 1}
		ticks := int64(start) // the stamp is relative: any origin works
		cr := chainRef{ch: ch, delay: int32(delay % 64), headLoc: int32(headLoc % 16)}
		re := regEntry{valid: true, ch: ch, latency: int(delay % 64), headLoc: int(headLoc % 16)}
		ref := eagerRef{delay: int(cr.delay), headLoc: int(cr.headLoc)}
		row := eagerRef{delay: re.latency, headLoc: re.headLoc}
		for _, op := range ops {
			if op%4 == 3 {
				ticks++
				ref.tick()
				row.tick()
			} else {
				s := signal{ch: ch, typ: sigType(op % 4)}
				cr.observe(s, ticks)
				re.observe(s, ticks)
				ref.observe(s.typ)
				// A table row's latency is relative to head issue, so
				// advances move only its head location.
				if s.typ == sigAdvance && !row.selfTimed && row.headLoc > 0 {
					row.headLoc--
				} else {
					row.observe(s.typ)
				}
			}
			if cr.value(ticks) != ref.delay || int(cr.headLoc) != ref.headLoc ||
				cr.selfTimed != ref.selfTimed || cr.suspended != ref.suspended {
				return false
			}
			if re.value(ticks) != row.delay || re.headLoc != row.headLoc ||
				re.selfTimed != row.selfTimed || re.suspended != row.suspended {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// shadowVal is the oracle's record of one countdown (a resident entry's
// ref or a register-table row) as of the previous check.
type shadowVal struct {
	ch                   chain
	val, headLoc         int
	selfTimed, suspended bool
	running              bool
}

type refKey struct {
	u  *uop.UOp
	ri int
}

type rowKey struct {
	row      int
	producer *uop.UOp
}

// oracle checks the event-driven queue's indices against brute force
// after every protocol call, and every countdown against an eagerly
// ticked shadow.
type oracle struct {
	t    *testing.T
	q    *SegmentedIQ
	refs map[refKey]shadowVal
	rows map[rowKey]shadowVal
}

// expect applies the shadow's step rule: advances while not self-timed
// take two per head-location step (floored at zero); a BeginCycle ticks a
// countdown that ran through it by one. A ref whose self-timed or
// suspended flag changed during a BeginCycle may have changed either
// side of the tick, so either value is accepted.
func expect(prev, cur shadowVal, perStep int, tick bool) (lo, hi int) {
	v := prev.val - perStep*(prev.headLoc-cur.headLoc)
	if v < 0 {
		v = 0
	}
	if !tick {
		return v, v
	}
	down := v - 1
	if down < 0 {
		down = 0
	}
	switch {
	case prev.selfTimed != cur.selfTimed || prev.suspended != cur.suspended:
		return down, v
	case prev.running:
		return down, down
	default:
		return v, v
	}
}

func (o *oracle) check(step string, tick bool) {
	t, q := o.t, o.q
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %s (cycle %d, tick %d): %s", step, q.curCycle, q.ticks, fmt.Sprintf(format, args...))
	}

	// Slots, segments and the fresh list.
	resident := 0
	wantOcc := map[[2]int]int32{}
	wantMembers := 0
	freshWant := map[int32]bool{}
	refs := map[refKey]shadowVal{}
	segLen := make([]int, q.cfg.Segments)
	bit := func(w []uint64, i int) bool { return w[i>>6]>>(uint(i)&63)&1 == 1 }
	lastSeq := int64(-1 << 62)
	if n := len(q.slots); n > 0 && (q.slots[n-1] < 0 || q.slots[q.first] < 0) {
		fail("live slot range [%d, %d) has a hole at an end", q.first, n)
	}
	for i, h := range q.slots {
		inSegs := 0
		for k := range q.segW {
			if bit(q.segW[k], i) {
				inSegs++
			}
		}
		if h < 0 {
			if inSegs != 0 || bit(q.readyW, i) || bit(q.storeW, i) || bit(q.eligW, i) {
				fail("hole at slot %d has bits set", i)
			}
			continue
		}
		e := q.byID[h]
		k := e.seg
		resident++
		if i < q.first || int(q.posOf[h]) != i || k < 0 || !bit(q.segW[k], i) || inSegs != 1 {
			fail("handle %d at slot %d: pos %d, seg %d in %d segment words", h, i, q.posOf[h], k, inSegs)
		}
		if e.u.Seq <= lastSeq {
			fail("slots not seq-sorted at %d", i)
		}
		lastSeq = e.u.Seq
		segLen[k]++
		if e.arrived >= q.curCycle {
			freshWant[h] = true
		}
		if e.fresh != (e.arrived >= q.curCycle) {
			fail("seq %d fresh flag %v with arrival %d", e.u.Seq, e.fresh, e.arrived)
		}
		for ri := 0; ri < e.nrefs; ri++ {
			cr := &e.refs[ri]
			if cr.ch.real() {
				wantMembers++
				wantOcc[[2]int{cr.ch.id, k}]++
				l := q.members[cr.ch.id]
				if int(cr.mi) >= len(l) || l[cr.mi] != (member{h: h, ri: int32(ri), seg: int32(k)}) {
					fail("seq %d ref %d: back-index %d does not point at its member", e.u.Seq, ri, cr.mi)
				}
			}
			refs[refKey{e.u, ri}] = shadowVal{ch: cr.ch, val: cr.value(q.ticks), headLoc: int(cr.headLoc),
				selfTimed: cr.selfTimed, suspended: cr.suspended, running: cr.running()}
		}
		// Eligibility: set exactly when the entry arrived before this
		// cycle and its effective delay is below the threshold below.
		want := k > 0 && e.arrived < q.curCycle && e.effDelay(q.ticks) < threshold(k-1)
		if got := bit(q.eligW, i); got != want {
			fail("seq %d in segment %d: eligible bit %v, want %v (delay %d, arrived %d)",
				e.u.Seq, k, got, want, e.effDelay(q.ticks), e.arrived)
		}
		if bit(q.storeW, i) != e.u.IsStore() {
			fail("seq %d: store bit %v", e.u.Seq, bit(q.storeW, i))
		}
		// A pending event is exactly a future threshold crossing.
		if hi := q.heapAt[h]; hi != 0 {
			ev := q.heap[hi-1]
			if ev.h != h || ev.at <= q.ticks || want || k == 0 || e.arrived >= q.curCycle ||
				ev.at != e.eligibleAt(threshold(k-1)) {
				fail("seq %d: stale eligibility event %+v", e.u.Seq, ev)
			}
		} else if k > 0 && !want && e.arrived < q.curCycle && e.eligibleAt(threshold(k-1)) != maxTick {
			fail("seq %d: countdown crosses the threshold at tick %d but nothing is scheduled",
				e.u.Seq, e.eligibleAt(threshold(k-1)))
		}
	}
	for _, w := range append([][]uint64{q.readyW, q.storeW, q.eligW}, q.segW...) {
		if i := bitvec.NextSet(w, len(q.slots)); i >= 0 {
			fail("bit %d set past the slot range", i)
		}
	}
	for k, n := range segLen {
		if q.segLen[k] != n {
			fail("segment %d: length %d, holds %d", k, q.segLen[k], n)
		}
	}
	if resident != q.total {
		fail("segments hold %d entries, total %d", resident, q.total)
	}
	if len(q.fresh) != len(freshWant) {
		fail("fresh list %v, want %d entries", q.fresh, len(freshWant))
	}
	for _, h := range q.fresh {
		if !freshWant[h] {
			fail("fresh list holds handle %d", h)
		}
	}
	for i, ev := range q.heap {
		if q.heapAt[ev.h] != int32(i+1) {
			fail("heap slot %d: back-index %d", i, q.heapAt[ev.h])
		}
		if i > 0 && q.heap[(i-1)/2].at > ev.at {
			fail("heap order broken at %d", i)
		}
	}

	// Member lists: exactly the resident refs on each wire.
	got := 0
	for id, l := range q.members {
		for j, m := range l {
			got++
			e := q.byID[m.h]
			if e == nil || e.seg < 0 || int(m.ri) >= e.nrefs {
				fail("wire %d member %d: %+v is not a resident ref", id, j, m)
			}
			if cr := &e.refs[m.ri]; cr.ch.id != id || int(cr.mi) != j {
				fail("wire %d member %d: ref on wire %d with back-index %d", id, j, cr.ch.id, cr.mi)
			}
		}
	}
	if got != wantMembers {
		fail("member lists hold %d refs, resident entries %d", got, wantMembers)
	}
	for id := 0; id < len(q.members); id++ {
		for k := 0; k < q.cfg.Segments; k++ {
			if q.wireOcc[id*q.cfg.Segments+k] != wantOcc[[2]int{id, k}] {
				fail("wire %d segment %d: count %d, want %d", id, k,
					q.wireOcc[id*q.cfg.Segments+k], wantOcc[[2]int{id, k}])
			}
		}
	}

	// Register table wire index.
	rows := map[rowKey]shadowVal{}
	wantRows := 0
	for i := range q.table.rows {
		re := &q.table.rows[i]
		if !re.valid {
			continue
		}
		if re.ch.real() {
			wantRows++
			if l := q.table.byCh[re.ch.id]; int(re.mi) >= len(l) || l[re.mi] != int32(i) {
				fail("table row %d: back-index %d does not point at it", i, re.mi)
			}
		}
		rows[rowKey{i, re.producer}] = shadowVal{ch: re.ch, val: re.value(q.ticks), headLoc: re.headLoc,
			selfTimed: re.selfTimed, suspended: re.suspended, running: re.running()}
	}
	gotRows := 0
	for _, l := range q.table.byCh {
		gotRows += len(l)
	}
	if gotRows != wantRows {
		fail("table wire index holds %d rows, want %d", gotRows, wantRows)
	}

	// Countdowns against the eager shadow.
	for k, cur := range refs {
		if prev, ok := o.refs[k]; ok && prev.ch == cur.ch {
			if lo, hi := expect(prev, cur, 2, tick); cur.val < lo || cur.val > hi {
				fail("seq %d ref %d: delay %d, eager shadow %d..%d (was %+v, now %+v)",
					k.u.Seq, k.ri, cur.val, lo, hi, prev, cur)
			}
		}
	}
	for k, cur := range rows {
		if prev, ok := o.rows[k]; ok && prev.ch == cur.ch {
			if lo, hi := expect(prev, cur, 0, tick); cur.val < lo || cur.val > hi {
				fail("table row %d: latency %d, eager shadow %d..%d", k.row, cur.val, lo, hi)
			}
		}
	}
	o.refs, o.rows = refs, rows
}

type oraclePending struct {
	u  *uop.UOp
	at int64
}

// oracleProgram generates a random renamed program, in dispatch order,
// for the given number of threads: dependence chains through 24
// registers, loads (a third of which miss, for 20-59 cycles), stores, and
// long-latency FP operations whose countdowns cross several segment
// thresholds. lat holds each load's memory latency, by sequence number.
func oracleProgram(r *rand.Rand, n, threads int) (prog []*uop.UOp, lat []int64) {
	prog = make([]*uop.UOp, n)
	lat = make([]int64, n)
	last := make([]map[isa.Reg]*uop.UOp, threads)
	for i := range last {
		last[i] = map[isa.Reg]*uop.UOp{}
	}
	reg := func() isa.Reg { return isa.Reg(1 + r.Intn(24)) }
	for i := range prog {
		in := isa.Inst{PC: 0x4000 + uint64(4*(i%64)), Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.RegNone}
		switch x := r.Intn(20); {
		case x < 6:
			in.Class, in.Src1, in.Dest, in.Size = isa.Load, reg(), reg(), 8
			in.Addr = uint64(0x10000 + 8*r.Intn(4096))
			lat[i] = 4
			if r.Intn(3) == 0 {
				lat[i] = 20 + int64(r.Intn(40))
			}
		case x < 8:
			in.Class, in.Src1, in.Src2, in.Size = isa.Store, reg(), reg(), 8
			in.Addr = uint64(0x10000 + 8*r.Intn(4096))
		case x < 10:
			in.Class, in.Src1, in.Src2, in.Dest = isa.FpMul, reg(), reg(), reg()
		case x < 11:
			in.Class, in.Src1, in.Dest = isa.FpDiv, reg(), reg()
		default:
			in.Class, in.Src1, in.Dest = isa.IntAlu, reg(), reg()
			if r.Intn(2) == 0 {
				in.Src2 = reg()
			}
		}
		u := uop.New(int64(i), in)
		u.Thread = i % threads
		for j := 0; j < 2; j++ {
			if p, ok := last[u.Thread][u.Src(j)]; ok {
				u.Prod[j] = p
			}
		}
		if in.HasDest() {
			last[u.Thread][in.Dest] = u
		}
		prog[i] = u
	}
	if threads > 1 {
		// Every tenth pair dispatches the younger context's instruction
		// first, as an SMT dispatch retried after another context's does:
		// the older one must then slot in below the youngest entry.
		for i := 4; i+1 < n; i += 10 {
			prog[i], prog[i+1] = prog[i+1], prog[i]
		}
	}
	return prog, lat
}

// oracleDriver stands in for the pipeline around a segmented queue: it
// dispatches a program, completes issued instructions after their
// latencies (notifying load misses and completions) and declares idle
// cycles. Every decision is a function of the program and the cycle, so
// a cloned driver replays the original's exactly.
type oracleDriver struct {
	q        *SegmentedIQ
	prog     []*uop.UOp
	lat      []int64
	inFlight []oraclePending
	next     int
	issued   int
	// forceRecovery reports every cycle as machine-idle, so §4.5
	// recovery runs whenever the queue stalls.
	forceRecovery bool
	// check, if set, runs after every protocol call; tick marks
	// BeginCycle.
	check func(step string, tick bool)
}

func (d *oracleDriver) checkpoint(step string, tick bool) {
	if d.check != nil {
		d.check(step, tick)
	}
}

// step runs one cycle and returns the sequence numbers issued.
func (d *oracleDriver) step(cycle int64) []int64 {
	q := d.q
	kept := d.inFlight[:0]
	for _, p := range d.inFlight {
		if p.at > cycle {
			kept = append(kept, p)
			continue
		}
		p.u.Complete = p.at
		if p.u.IsLoad() {
			q.NotifyLoadComplete(cycle, p.u)
			d.checkpoint("NotifyLoadComplete", false)
		}
		q.Writeback(cycle, p.u)
		d.checkpoint("Writeback", false)
	}
	d.inFlight = kept

	q.BeginCycle(cycle)
	d.checkpoint("BeginCycle", true)
	// The function units refuse one offer in eight, keyed on the
	// instruction and the cycle.
	accept := func(u *uop.UOp) bool { return (u.Seq*7+cycle*13)%8 != 0 }
	var seqs []int64
	for _, u := range q.Issue(cycle, q.cfg.IssueWidth, accept) {
		d.issued++
		seqs = append(seqs, u.Seq)
		at := cycle + int64(u.Latency())
		if u.IsLoad() {
			u.EADone = cycle + 1
			at = cycle + d.lat[u.Seq]
			u.MemKind = uop.MemHit
			if d.lat[u.Seq] > 4 {
				u.MemKind = uop.MemMiss
			}
		}
		d.inFlight = append(d.inFlight, oraclePending{u: u, at: at})
	}
	d.checkpoint("Issue", false)
	for _, p := range d.inFlight {
		if p.u.MemKind == uop.MemMiss && p.u.IssueCycle == cycle {
			q.NotifyLoadMiss(cycle, p.u)
			d.checkpoint("NotifyLoadMiss", false)
		}
	}
	for w := 0; w < q.cfg.IssueWidth && d.next < len(d.prog); w++ {
		if !q.Dispatch(cycle, d.prog[d.next]) {
			break
		}
		d.next++
		d.checkpoint("Dispatch", false)
	}
	q.EndCycle(cycle, !d.forceRecovery && len(d.inFlight) > 0)
	return seqs
}

func (d *oracleDriver) done() bool { return d.issued == len(d.prog) }

// clone duplicates the driver and its queue through one clone map.
func (d *oracleDriver) clone() *oracleDriver {
	m := uop.NewCloneMap()
	n := &oracleDriver{q: d.q.Clone(m).(*SegmentedIQ), lat: d.lat, next: d.next,
		issued: d.issued, forceRecovery: d.forceRecovery}
	n.prog = make([]*uop.UOp, len(d.prog))
	for i, u := range d.prog {
		n.prog[i] = m.Get(u)
	}
	for _, p := range d.inFlight {
		n.inFlight = append(n.inFlight, oraclePending{u: m.Get(p.u), at: p.at})
	}
	return n
}

func newOracleDriver(cfg Config, seed int64, n int, forceRecovery bool) *oracleDriver {
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	prog, lat := oracleProgram(rand.New(rand.NewSource(seed)), n, threads)
	return &oracleDriver{q: MustNew(cfg), prog: prog, lat: lat, forceRecovery: forceRecovery}
}

// runOracle drives a queue through a random program, checking the
// oracle after every BeginCycle, Dispatch, Issue, NotifyLoadMiss,
// NotifyLoadComplete and Writeback.
func runOracle(t *testing.T, cfg Config, seed int64, forceRecovery bool) {
	t.Helper()
	d := newOracleDriver(cfg, seed, 400, forceRecovery)
	d.check = (&oracle{t: t, q: d.q}).check
	for cycle := int64(1); !d.done(); cycle++ {
		if cycle > 20000 {
			t.Fatalf("seed %d: liveness: %d/%d issued", seed, d.issued, len(d.prog))
		}
		d.step(cycle)
	}
}

// TestEventIndicesMatchBruteForce is the event-driven queue's oracle: the
// wire member lists and their back-indices, the per-segment member
// counts, the register table's wire index, the eligibility words, heap
// and fresh list all equal what brute force derives from the resident
// entries, and every countdown equals an eagerly ticked shadow — after
// every protocol call, across wire models, predictors, chain budgets,
// thread counts and forced deadlock recovery.
func TestEventIndicesMatchBruteForce(t *testing.T) {
	for _, instant := range []bool{false, true} {
		for _, preds := range []bool{false, true} {
			for _, chains := range []int{0, 4, 128} {
				for _, threads := range []int{1, 2} {
					for _, force := range []bool{false, true} {
						cfg := Config{
							Segments: 8, SegSize: 8, IssueWidth: 4, MaxChains: chains,
							UseHMP: preds, UseLRP: preds, InstantWires: instant,
							Pushdown: true, Bypass: true, DeadlockRecovery: true,
							PredictedLoadLatency: 4, Threads: threads,
						}
						name := fmt.Sprintf("instant=%v/preds=%v/chains=%d/threads=%d/forced=%v",
							instant, preds, chains, threads, force)
						t.Run(name, func(t *testing.T) {
							for seed := int64(1); seed <= 2; seed++ {
								runOracle(t, cfg, seed, force)
							}
						})
					}
				}
			}
		}
	}
}

// requireSameIndices asserts that two queues hold identical event-driven
// state: segments, positions, bit words, wire member lists and counts,
// the register table's wire index, the eligibility heap, the fresh list,
// the tick counter and every resident entry's scheduling fields.
func requireSameIndices(t *testing.T, when string, a, b *SegmentedIQ) {
	t.Helper()
	type view struct {
		Ticks, Cycle          int64
		Slots, PosOf, HeapAt  []int32
		First                 int
		SegLen                []int
		SegW                  [][]uint64
		ReadyW, StoreW, EligW []uint64
		Members               [][]member
		WireOcc               []int32
		TableByCh             [][]int32
		Heap                  []eligEvent
		Fresh                 []int32
		Wires                 [][]signal
		Entries               []string
	}
	mk := func(q *SegmentedIQ) view {
		v := view{Ticks: q.ticks, Cycle: q.curCycle, Slots: q.slots, PosOf: q.posOf, HeapAt: q.heapAt,
			First: q.first, SegLen: q.segLen, SegW: q.segW,
			ReadyW: q.readyW, StoreW: q.storeW, EligW: q.eligW, Members: q.members, WireOcc: q.wireOcc,
			TableByCh: q.table.byCh, Heap: q.heap, Fresh: q.fresh, Wires: q.wires.cur}
		for _, h := range q.slots {
			if h >= 0 {
				e := q.byID[h]
				v.Entries = append(v.Entries, fmt.Sprintf("%d seg=%d arr=%d refs=%+v n=%d head=%v/%+v fresh=%v",
					e.u.Seq, e.seg, e.arrived, e.refs, e.nrefs, e.isHead, e.head, e.fresh))
			}
		}
		return v
	}
	if va, vb := fmt.Sprintf("%+v", mk(a)), fmt.Sprintf("%+v", mk(b)); va != vb {
		t.Fatalf("%s: clone state diverged:\noriginal %s\nclone    %s", when, va, vb)
	}
}

// TestCloneMidRunSignalsInFlight clones a queue at a cycle where chain-wire
// signals are in flight between segments and some resident members are
// suspended, then clones the clone a few cycles later. Every copy must
// issue what the original issues every cycle, hold the original's
// event-driven state position by position (compared every fourth cycle),
// and pass the oracle itself after every protocol call.
func TestCloneMidRunSignalsInFlight(t *testing.T) {
	for _, preds := range []bool{false, true} {
		for _, chains := range []int{4, 128} {
			for _, threads := range []int{1, 2} {
				cfg := Config{
					Segments: 8, SegSize: 8, IssueWidth: 4, MaxChains: chains,
					UseHMP: preds, UseLRP: preds, Pushdown: true, Bypass: true,
					DeadlockRecovery: true, PredictedLoadLatency: 4, Threads: threads,
				}
				t.Run(fmt.Sprintf("preds=%v/chains=%d/threads=%d", preds, chains, threads), func(t *testing.T) {
					cloneMidRun(t, cfg)
				})
			}
		}
	}
}

// inFlightAndSuspended reports whether q has a signal in flight above the
// bottom segment and a suspended resident member.
func inFlightAndSuspended(q *SegmentedIQ) bool {
	flying := false
	for k := 1; k < q.cfg.Segments; k++ {
		flying = flying || len(q.wires.cur[k]) > 0
	}
	if !flying {
		return false
	}
	for _, h := range q.slots {
		if h >= 0 {
			e := q.byID[h]
			for i := 0; i < e.nrefs; i++ {
				if e.refs[i].ch.real() && e.refs[i].suspended {
					return true
				}
			}
		}
	}
	return false
}

func cloneMidRun(t *testing.T, cfg Config) {
	d := newOracleDriver(cfg, 11, 400, false)
	var clones []*oracleDriver
	for cycle := int64(1); !d.done(); cycle++ {
		if cycle > 20000 {
			t.Fatalf("liveness: %d/%d issued", d.issued, len(d.prog))
		}
		want := d.step(cycle)
		for i, c := range clones {
			got := c.step(cycle)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cycle %d: original issued %v, clone %d issued %v", cycle, want, i, got)
			}
			if cycle%4 == 0 {
				requireSameIndices(t, fmt.Sprintf("cycle %d, clone %d", cycle, i), d.q, c.q)
			}
		}
		switch {
		case len(clones) == 0 && inFlightAndSuspended(d.q):
			clones = append(clones, d.clone())
		case len(clones) == 1 && cycle%5 == 0:
			clones = append(clones, clones[0].clone())
		default:
			continue
		}
		c := clones[len(clones)-1]
		c.check = (&oracle{t: t, q: c.q}).check
		c.check("Clone", false)
		requireSameIndices(t, fmt.Sprintf("cycle %d, at clone", cycle), d.q, c.q)
	}
	if len(clones) < 2 {
		t.Fatalf("the run never had signals in flight with a suspended member (%d clones)", len(clones))
	}
	for i, c := range clones {
		if !c.done() {
			t.Fatalf("clone %d issued %d/%d", i, c.issued, len(c.prog))
		}
	}
}

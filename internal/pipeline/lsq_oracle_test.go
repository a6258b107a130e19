package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uop"
)

// refLSQ is the walk-based load/store queue the event-driven LSQ
// replaced, kept as its reference. Its Tick, SkipClass and SkipCycles are
// the old code with the memos taken out — the per-load rejection and
// forwarding memos and the retired-write rejection memo — which were
// exact shortcuts of the same walk: every tick it rebuilds the forwarding
// index, visits every resident instruction, re-checks forwarding and
// retries every rejected access.
type refLSQ struct {
	capacity int
	entries  []*uop.UOp // program order
	writeQ   []memWrite
	l1d      *mem.Cache
	eq       *mem.EventQueue
	q        iq.Queue

	rdPorts       int
	wrPorts       int
	missDetectLat int64

	cover *coverTab

	forwards       uint64
	mshrRejects    uint64
	loadsIssued    uint64
	storeWrites    uint64
	blockedByStore uint64
}

func newRefLSQ(capacity int, l1d *mem.Cache, eq *mem.EventQueue, q iq.Queue, rdPorts, wrPorts int) *refLSQ {
	return &refLSQ{capacity: capacity, l1d: l1d, eq: eq, q: q, rdPorts: rdPorts, wrPorts: wrPorts,
		missDetectLat: int64(l1d.Config().HitLatency)}
}

func (l *refLSQ) HandleEvent(op uint8, t int64, k mem.Kind, arg any) {
	switch op {
	case lsqOpLoadDone:
		u := arg.(*uop.UOp)
		u.Complete = t
		u.MemKind = int8(k)
		l.finishLoad(t, u)
	case lsqOpFwdDone:
		l.finishLoad(t, arg.(*uop.UOp))
	case lsqOpMissNotif:
		l.q.NotifyLoadMiss(t, arg.(*uop.UOp))
	case lsqOpStoreDrain:
	}
}

func (l *refLSQ) finishLoad(t int64, u *uop.UOp) {
	l.q.NotifyLoadComplete(t, u)
	l.q.Writeback(t, u)
}

func (l *refLSQ) Full() bool { return len(l.entries) >= l.capacity }

func (l *refLSQ) Add(u *uop.UOp) { l.entries = append(l.entries, u) }

func (l *refLSQ) Remove(u *uop.UOp) {
	for i, e := range l.entries {
		if e == u {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return
		}
	}
}

func (l *refLSQ) CommitStore(u *uop.UOp) {
	l.Remove(u)
	l.writeQ = append(l.writeQ, memWrite{addr: u.Inst.Addr, size: u.Inst.Size})
}

// coverEmpty marks a free slot in coverTab. A key is an address shifted
// right by four, so no real block can equal it.
const coverEmpty = ^uint64(0)

// coverTab maps 16-byte block numbers to byte-coverage bitmasks: a flat
// open-addressed table, rebuilt from scratch every reference Tick.
type coverTab struct {
	keys  []uint64
	vals  []uint16
	used  int
	shift uint // 64 - log2(len(keys)); the hash keeps the top bits
}

func newCoverTab() *coverTab {
	t := &coverTab{keys: make([]uint64, 64), vals: make([]uint16, 64), shift: 58}
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	return t
}

func (t *coverTab) reset() {
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	t.used = 0
}

func (t *coverTab) or(b uint64, bits uint16) {
	mask := uint64(len(t.keys) - 1)
	for i := (b * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case b:
			t.vals[i] |= bits
			return
		case coverEmpty:
			t.keys[i] = b
			t.vals[i] = bits
			t.used++
			if t.used*4 > len(t.keys)*3 {
				t.grow()
			}
			return
		}
	}
}

func (t *coverTab) get(b uint64) uint16 {
	mask := uint64(len(t.keys) - 1)
	for i := (b * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case b:
			return t.vals[i]
		case coverEmpty:
			return 0
		}
	}
}

func (t *coverTab) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldKeys))
	t.vals = make([]uint16, 2*len(oldVals))
	t.shift--
	t.used = 0
	for i := range t.keys {
		t.keys[i] = coverEmpty
	}
	for i, k := range oldKeys {
		if k != coverEmpty {
			t.or(k, oldVals[i])
		}
	}
}

// addCover marks the bytes [addr, addr+size) in the block coverage index.
func addCover(t *coverTab, addr uint64, size uint8) {
	end := addr + uint64(size) - 1
	for b := addr >> 4; b <= end>>4; b++ {
		lo, hi := uint64(0), uint64(15)
		if b == addr>>4 {
			lo = addr & 15
		}
		if b == end>>4 {
			hi = end & 15
		}
		t.or(b, uint16(1)<<(hi+1)-uint16(1)<<lo)
	}
}

// hitCover reports whether any byte of [addr, addr+size) is covered.
func hitCover(t *coverTab, addr uint64, size uint8) bool {
	end := addr + uint64(size) - 1
	for b := addr >> 4; b <= end>>4; b++ {
		w := t.get(b)
		if w == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(15)
		if b == addr>>4 {
			lo = addr & 15
		}
		if b == end>>4 {
			hi = end & 15
		}
		if w&(uint16(1)<<(hi+1)-uint16(1)<<lo) != 0 {
			return true
		}
	}
	return false
}

func (l *refLSQ) Tick(cycle int64) {
	// Post-retirement store writes.
	wr := 0
	for wr < l.wrPorts && len(l.writeQ) > 0 {
		w := l.writeQ[0]
		if !l.l1d.AccessRef(cycle, w.addr, true, mem.Ref{H: l, Op: lsqOpStoreDrain}) {
			break // MSHRs full: retry next cycle
		}
		l.writeQ = l.writeQ[1:]
		l.storeWrites++
		wr++
	}

	// Loads, oldest first. An older store with an unknown address blocks
	// every younger load (conservative disambiguation, §5). Retired
	// writes seed the coverage index, and each known-address store adds
	// its bytes as the walk passes it.
	rd := 0
	unknownStore := false
	if l.cover == nil {
		l.cover = newCoverTab()
	}
	l.cover.reset()
	for _, w := range l.writeQ {
		addCover(l.cover, w.addr, w.size)
	}
	for _, u := range l.entries {
		if u.IsStore() {
			if u.EADone == uop.NotYet || u.EADone > cycle {
				unknownStore = true
			} else {
				addCover(l.cover, u.Inst.Addr, u.Inst.Size)
				if u.Complete == uop.NotYet && u.OperandReady(0, cycle) {
					u.Complete = cycle
				}
			}
			continue
		}
		if !u.IsLoad() || u.Complete != uop.NotYet || u.MemKind != uop.MemNone {
			continue
		}
		if u.EADone == uop.NotYet || u.EADone > cycle {
			continue
		}
		if unknownStore {
			l.blockedByStore++
			continue
		}
		if hitCover(l.cover, u.Inst.Addr, u.Inst.Size) {
			l.forwards++
			u.MemKind = uop.MemHit
			u.Complete = cycle + 1
			l.eq.ScheduleRef(cycle+1, mem.Ref{H: l, Op: lsqOpFwdDone, Arg: u})
			continue
		}
		if rd >= l.rdPorts {
			continue
		}
		kind, ok := l.l1d.AccessRefKind(cycle, u.Inst.Addr, false, mem.Ref{H: l, Op: lsqOpLoadDone, Arg: u})
		if !ok {
			l.mshrRejects++
			continue
		}
		rd++
		l.loadsIssued++
		u.MemKind = int8(kind)
		if kind != mem.KindHit {
			l.eq.ScheduleRef(cycle+l.missDetectLat, mem.Ref{H: l, Op: lsqOpMissNotif, Arg: u})
		}
	}
}

func (l *refLSQ) SkipClass(cycle int64) (ok bool, blocked, rejected int) {
	if len(l.writeQ) > 0 {
		return false, 0, 0
	}
	full := l.l1d.OutstandingMisses() >= l.l1d.Config().MSHRs
	unknownStore := false
	for _, u := range l.entries {
		if u.IsStore() {
			if u.EADone == uop.NotYet || u.EADone > cycle {
				unknownStore = true
			} else if u.Complete == uop.NotYet && u.OperandReady(0, cycle) {
				return false, 0, 0
			}
			continue
		}
		if !u.IsLoad() || u.Complete != uop.NotYet || u.MemKind != uop.MemNone {
			continue
		}
		if u.EADone == uop.NotYet || u.EADone > cycle {
			continue
		}
		if unknownStore {
			blocked++
			continue
		}
		if !full || l.l1d.Probe(u.Inst.Addr) != mem.KindMiss {
			return false, 0, 0
		}
		rejected++
	}
	return true, blocked, rejected
}

func (l *refLSQ) SkipCycles(n int64, blocked, rejected int) {
	l.blockedByStore += uint64(blocked) * uint64(n)
	if rejected > 0 {
		r := uint64(rejected) * uint64(n)
		l.mshrRejects += r
		l.l1d.SkipMSHRRejects(r)
	}
}

// recQ is the scheduler side of the harness: it records the LSQ's
// notifications in order. The other iq.Queue methods are never called.
type recQ struct {
	iq.Queue
	log []string
}

func (q *recQ) NotifyLoadMiss(cycle int64, u *uop.UOp) {
	q.log = append(q.log, fmt.Sprintf("miss %d @%d", u.Seq, cycle))
}

func (q *recQ) NotifyLoadComplete(cycle int64, u *uop.UOp) {
	q.log = append(q.log, fmt.Sprintf("done %d @%d kind %d", u.Seq, cycle, u.MemKind))
}

func (q *recQ) Writeback(cycle int64, u *uop.UOp) {
	q.log = append(q.log, fmt.Sprintf("wb %d @%d", u.Seq, cycle))
}

// oracleShape sets a lockstep run's machine and stream.
type oracleShape struct {
	seed      uint64
	capacity  int // LSQ entries the harness fills to
	mshrs     int // L1D MSHRs: few means constant rejection
	rdPorts   int // cache read ports
	wrPorts   int // cache write ports
	lines     int // distinct cache lines the stream touches
	storePct  int // share of stores, in percent
	eaPct     int // chance per cycle that a waiting address issues, percent
	dataPct   int // chance per cycle that a store's pending data arrives, percent
	clonePct  int // chance per cycle of replacing the LSQ by a clone, percent
	cycles    int64
	smallL1D  bool // a 4 KB L1D, so lines are evicted while loads wait
	insts     int  // instructions in the stream
	skipTries bool // take idle-cycle skip windows when both sides allow
}

type orng struct{ s uint64 }

func (r *orng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *orng) intn(n int) int { return int(r.next() % uint64(n)) }

// oracleSide is one machine of the lockstep pair: its hierarchy, its
// queue and its own copies of the stream's uops and store-data producers.
type oracleSide struct {
	h    *mem.Hierarchy
	q    *recQ
	prog []*uop.UOp
	data []*uop.UOp // data[i]: store i's data producer, or nil
}

func newOracleSide(sh oracleShape, insts []isa.Inst) *oracleSide {
	cfg := mem.DefaultHierarchyConfig()
	cfg.L1D.MSHRs = sh.mshrs
	if sh.smallL1D {
		cfg.L1D.Size = 4 << 10
	}
	s := &oracleSide{h: mem.MustNewHierarchy(cfg), q: &recQ{}}
	for i, in := range insts {
		u := uop.New(int64(i), in)
		s.prog = append(s.prog, u)
		var p *uop.UOp
		if in.Class == isa.Store && i%3 != 0 {
			p = uop.New(-1-int64(i), isa.Inst{Class: isa.IntAlu, Dest: 3})
			u.Prod[0] = p
		}
		s.data = append(s.data, p)
	}
	return s
}

// oracleStream builds the instruction stream: loads and stores over a
// small set of lines, sized and aligned so some stores cover some loads.
func oracleStream(r *orng, sh oracleShape) []isa.Inst {
	var out []isa.Inst
	for i := 0; i < sh.insts; i++ {
		size := uint8(1) << r.intn(4)
		addr := uint64(0x10000) + uint64(r.intn(sh.lines))*64 + uint64(r.intn(64/int(size)))*uint64(size)
		if r.intn(8) == 0 {
			// A streaming access: a line no one else touches.
			addr = uint64(0x100000) + uint64(i)*64
		}
		cls := isa.Load
		if r.intn(100) < sh.storePct {
			cls = isa.Store
		}
		in := isa.Inst{Class: cls, Src1: 3, Src2: 1, Size: size, Addr: addr}
		if cls == isa.Load {
			in.Src2, in.Dest = isa.RegNone, 2
		}
		out = append(out, in)
	}
	return out
}

// runLSQOracle drives the reference and the event-driven LSQ in lockstep
// over twin hierarchies, and fails on the first cycle where any counter,
// cache statistic, notification, load outcome or skip verdict differs.
func runLSQOracle(t *testing.T, sh oracleShape) {
	t.Helper()
	r := &orng{s: sh.seed}
	insts := oracleStream(r, sh)
	a, b := newOracleSide(sh, insts), newOracleSide(sh, insts)
	ref := newRefLSQ(sh.capacity, a.h.L1D, a.h.EQ, a.q, sh.rdPorts, sh.wrPorts)
	l := NewLSQ(sh.capacity, b.h.L1D, b.h.EQ, b.q, sh.rdPorts, sh.wrPorts)

	next, head := 0, 0 // next to dispatch, oldest not committed
	eaWait := []int{}  // dispatched, address not issued
	var arrivals []int64
	clones, skips := 0, 0
	for c := int64(1); c <= sh.cycles; c++ {
		a.h.Tick(c)
		b.h.Tick(c)
		// Commit, in order, up to four per cycle.
		for k := 0; k < 4 && head < next; k++ {
			ua, ub := a.prog[head], b.prog[head]
			if ua.Complete == uop.NotYet || ua.Complete > c {
				break
			}
			if ua.IsStore() {
				ref.CommitStore(ua)
				l.CommitStore(ub)
			} else {
				ref.Remove(ua)
				l.Remove(ub)
			}
			head++
		}
		// Store data and addresses arrive.
		for i := head; i < next; i++ {
			if p := a.data[i]; p != nil && p.Complete == uop.NotYet && r.intn(100) < sh.dataPct {
				p.Complete, b.data[i].Complete = c, c
				l.Produced(b.data[i])
			}
		}
		kept := eaWait[:0]
		for _, i := range eaWait {
			if r.intn(100) >= sh.eaPct {
				kept = append(kept, i)
				continue
			}
			at := c + 1 + int64(r.intn(2))
			a.prog[i].EADone, b.prog[i].EADone = at, at
			l.AddressIssued(b.prog[i])
			arrivals = append(arrivals, at)
		}
		eaWait = kept

		ref.Tick(c)
		l.Tick(c)
		compareOracle(t, c, ref, l, a, b)
		okA, blA, rjA := ref.SkipClass(c)
		okB, blB, rjB := l.SkipClass(c)
		if okA != okB || blA != blB || rjA != rjB {
			t.Fatalf("cycle %d: SkipClass ref (%v, %d, %d), lsq (%v, %d, %d)", c, okA, blA, rjA, okB, blB, rjB)
		}
		checkLSQInvariants(t, c, l)

		// Dispatch up to four per cycle.
		dispatched := 0
		for ; dispatched < 4 && next < len(insts) && !ref.Full() && !l.Full(); dispatched++ {
			ref.Add(a.prog[next])
			l.Add(b.prog[next])
			eaWait = append(eaWait, next)
			next++
		}
		if head == len(insts) {
			t.Logf("%d cycles: %d forwards, %d rejects, %d blocked, %d L1D rejects, %d skip windows, %d clones",
				c, l.Forwards(), l.MSHRRejects(), l.BlockedByStore(), b.h.L1D.Stats().MSHRRejects, skips, clones)
			return
		}

		// An idle window: nothing dispatches, commits or arrives before
		// the next memory event, so the reference ticks through it and
		// the LSQ replays its SkipClass counts.
		if sh.skipTries && okA && dispatched == 0 {
			to, skip := a.h.EQ.NextTime()
			for _, at := range arrivals {
				if at > c && at < to {
					to = at
				}
			}
			if h := a.prog[min(head, len(insts)-1)]; head < next && h.Complete != uop.NotYet && h.Complete < to {
				skip = false
			}
			if skip && to > c+1 {
				for x := c + 1; x < to; x++ {
					a.h.Tick(x)
					b.h.Tick(x)
					ref.Tick(x)
				}
				l.SkipCycles(to-c-1, blB, rjB)
				compareOracle(t, to-1, ref, l, a, b)
				c = to - 1
				skips++
			}
		}

		// Replace the LSQ by a clone (same capacity or a re-laid ring),
		// preferably while loads are parked.
		if r.intn(100) < sh.clonePct && (bitvec.Any(l.parkedW) || r.intn(4) == 0) {
			capacity := l.capacity
			if clones%2 == 1 {
				capacity = max(1, l.Len()) + r.intn(3*sh.capacity)
			}
			l = cloneOracleSide(t, l, b, capacity)
			clones++
		}
	}
	t.Fatalf("stream not drained after %d cycles: %d/%d committed", sh.cycles, head, len(insts))
}

// cloneOracleSide replaces side b's machine by an active clone and
// returns the cloned LSQ: the hierarchy with its pending events, the
// uops (through one CloneMap) and the LSQ, re-laid at capacity.
func cloneOracleSide(t *testing.T, l *LSQ, b *oracleSide, capacity int) *LSQ {
	t.Helper()
	rm := mem.NewRemap()
	h, err := b.h.CloneActive(rm)
	if err != nil {
		t.Fatal(err)
	}
	m := uop.NewCloneMap()
	rm.Arg = func(a any) (any, error) { return m.Get(a.(*uop.UOp)), nil }
	q := &recQ{log: b.q.log}
	var n *LSQ
	if capacity == l.capacity {
		n = l.Clone(h.L1D, h.EQ, q, m)
	} else {
		var ok bool
		if n, ok = l.CloneCap(h.L1D, h.EQ, q, m, capacity); !ok {
			t.Fatalf("CloneCap(%d) refused %d residents", capacity, l.Len())
		}
	}
	rm.RegisterHandler(l, n)
	if err := h.ResolveRemap(rm); err != nil {
		t.Fatal(err)
	}
	for i := range b.prog {
		b.prog[i] = m.Get(b.prog[i])
		b.data[i] = m.Get(b.data[i])
	}
	b.h, b.q = h, q
	return n
}

func compareOracle(t *testing.T, c int64, ref *refLSQ, l *LSQ, a, b *oracleSide) {
	t.Helper()
	ca := [5]uint64{ref.forwards, ref.mshrRejects, ref.loadsIssued, ref.storeWrites, ref.blockedByStore}
	cb := [5]uint64{l.Forwards(), l.MSHRRejects(), l.LoadsIssued(), l.StoreWrites(), l.BlockedByStore()}
	if ca != cb {
		t.Fatalf("cycle %d: counters (fwd, rej, loads, writes, blocked) ref %v, lsq %v", c, ca, cb)
	}
	if sa, sb := a.h.L1D.Stats(), b.h.L1D.Stats(); sa != sb {
		t.Fatalf("cycle %d: L1D stats ref %+v, lsq %+v", c, sa, sb)
	}
	if len(a.q.log) != len(b.q.log) {
		t.Fatalf("cycle %d: %d notifications ref, %d lsq", c, len(a.q.log), len(b.q.log))
	}
	for i := range a.q.log {
		if a.q.log[i] != b.q.log[i] {
			t.Fatalf("cycle %d: notification %d: ref %q, lsq %q", c, i, a.q.log[i], b.q.log[i])
		}
	}
	for i, ua := range a.prog {
		ub := b.prog[i]
		if ua.MemKind != ub.MemKind || ua.Complete != ub.Complete {
			t.Fatalf("cycle %d: inst %d: ref kind %d complete %d, lsq kind %d complete %d",
				c, i, ua.MemKind, ua.Complete, ub.MemKind, ub.Complete)
		}
	}
}

// checkLSQInvariants re-derives the LSQ's indices by brute force.
func checkLSQInvariants(t *testing.T, c int64, l *LSQ) {
	t.Helper()
	cover := map[uint64][16]uint32{}
	add := func(addr uint64, size uint8) {
		for a := addr; a < addr+uint64(size); a++ {
			v := cover[a>>4]
			v[a&15]++
			cover[a>>4] = v
		}
	}
	for _, w := range l.writeQ {
		add(w.addr, w.size)
	}
	onList, onData := map[int]bool{}, map[int]bool{}
	for ln, h := range l.waits {
		prev := -1
		for ; h != noSlot; h = l.ring[h].next {
			s := int(h)
			if !bitvec.Test(l.parkedW, s) || l.ring[s].line != ln || l.age(s) <= prev {
				t.Fatalf("cycle %d: wait list for %#x broken at slot %d", c, ln, s)
			}
			prev = l.age(s)
			onList[s] = true
		}
	}
	for s := range l.ring {
		if bitvec.Test(l.parkedW, s) != onList[s] {
			t.Fatalf("cycle %d: slot %d parked %v but listed %v", c, s, bitvec.Test(l.parkedW, s), onList[s])
		}
		if !onList[s] && l.ring[s].next != noSlot {
			t.Fatalf("cycle %d: unparked slot %d keeps link %d", c, s, l.ring[s].next)
		}
		resident := l.age(s) < l.n
		u := l.ring[s].u
		if !resident {
			for _, w := range [][]uint64{l.pendW, l.freshW, l.parkedW, l.unkW, l.kstW, l.dataW, l.stampW} {
				if bitvec.Test(w, s) {
					t.Fatalf("cycle %d: free slot %d has a bit set", c, s)
				}
			}
			continue
		}
		known := u.EADone != uop.NotYet && u.EADone <= c
		if u.IsStore() {
			if bitvec.Test(l.kstW, s) != known || bitvec.Test(l.unkW, s) == known {
				t.Fatalf("cycle %d: store slot %d address state wrong", c, s)
			}
			if known {
				add(u.Inst.Addr, u.Inst.Size)
			}
			if bitvec.Test(l.dataW, s) != (known && u.Complete == uop.NotYet) || bitvec.Test(l.stampW, s) {
				t.Fatalf("cycle %d: store slot %d data-wait bits wrong", c, s)
			}
			if bitvec.Test(l.dataW, s) {
				onData[s] = true
			}
			continue
		}
		pend := known && u.Complete == uop.NotYet && u.MemKind == uop.MemNone
		if bitvec.Test(l.pendW, s) != pend {
			t.Fatalf("cycle %d: load slot %d pending bit %v, want %v", c, s, bitvec.Test(l.pendW, s), pend)
		}
		if bitvec.Test(l.parkedW, s) && (l.l1d.Probe(u.Inst.Addr) != mem.KindMiss || l.age(s) > l.unknown()) {
			t.Fatalf("cycle %d: parked load slot %d would not miss, or is younger than an unknown-address store", c, s)
		}
	}
	for seq, h := range l.dataWaits {
		for ; h != noSlot; h = l.ring[h].dnext {
			s := int(h)
			if !onData[s] || l.ring[s].u.Prod[0].Seq != seq {
				t.Fatalf("cycle %d: data wait list for producer %d broken at slot %d", c, seq, s)
			}
			delete(onData, s)
		}
	}
	if len(onData) > 0 {
		t.Fatalf("cycle %d: stores waiting for data are missing from the wait lists: %v", c, onData)
	}
	if got, want := l.unknown(), l.first(l.unkW, nil, 0, l.n); got != want {
		t.Fatalf("cycle %d: oldest unknown-address store at rank %d, want %d", c, got, want)
	}
	if len(cover) != len(l.cover) {
		t.Fatalf("cycle %d: forwarding index has %d blocks, want %d", c, len(l.cover), len(cover))
	}
	for blk, v := range cover {
		if l.cover[blk] != v {
			t.Fatalf("cycle %d: forwarding index block %#x = %v, want %v", c, blk, l.cover[blk], v)
		}
	}
}

var oracleShapes = []oracleShape{
	// MSHR pressure: two MSHRs, many lines, loads queue behind them.
	{seed: 1, capacity: 48, mshrs: 2, rdPorts: 4, wrPorts: 2, lines: 24, storePct: 30, eaPct: 60, dataPct: 40, clonePct: 3, cycles: 40000, insts: 1500, skipTries: true},
	// Forwarding: few lines, many stores, slow store data.
	{seed: 2, capacity: 32, mshrs: 4, rdPorts: 2, wrPorts: 1, lines: 3, storePct: 50, eaPct: 30, dataPct: 10, clonePct: 3, cycles: 40000, insts: 1500, skipTries: true},
	// Port-bound: one read port, a single MSHR, a small L1D.
	{seed: 3, capacity: 64, mshrs: 1, rdPorts: 1, wrPorts: 1, lines: 40, storePct: 20, eaPct: 80, dataPct: 50, clonePct: 2, cycles: 80000, insts: 1500, smallL1D: true, skipTries: true},
	// A wide machine at the paper's sizes.
	{seed: 4, capacity: 100, mshrs: 8, rdPorts: 8, wrPorts: 8, lines: 64, storePct: 35, eaPct: 50, dataPct: 30, clonePct: 1, cycles: 40000, insts: 2000, skipTries: true},
}

// TestLSQOracle checks the event-driven LSQ against the walk-based
// reference, cycle by cycle, over random streams with MSHR pressure,
// unknown-address stores, forwards from resident and retired stores,
// store-drain rejects, skip windows and mid-run clones.
func TestLSQOracle(t *testing.T) {
	for _, sh := range oracleShapes {
		sh := sh
		t.Run(fmt.Sprintf("seed%d", sh.seed), func(t *testing.T) {
			runLSQOracle(t, sh)
		})
	}
}

// FuzzLSQOracle runs the lockstep oracle over fuzzed stream seeds and
// machine shapes.
func FuzzLSQOracle(f *testing.F) {
	for _, sh := range oracleShapes {
		f.Add(sh.seed, uint8(sh.mshrs), uint8(sh.rdPorts), uint8(sh.lines), uint8(sh.storePct), uint8(sh.capacity), sh.smallL1D)
	}
	f.Fuzz(func(t *testing.T, seed uint64, mshrs, rdPorts, lines, storePct, capacity uint8, small bool) {
		sh := oracleShape{
			seed:      seed,
			capacity:  1 + int(capacity)%96,
			mshrs:     1 + int(mshrs)%8,
			rdPorts:   1 + int(rdPorts)%8,
			wrPorts:   1 + int(rdPorts>>4)%4,
			lines:     1 + int(lines)%64,
			storePct:  int(storePct) % 80,
			eaPct:     20 + int(seed%60),
			dataPct:   5 + int((seed>>8)%50),
			clonePct:  2,
			cycles:    60000,
			insts:     400,
			smallL1D:  small,
			skipTries: seed%2 == 0,
		}
		runLSQOracle(t, sh)
	})
}

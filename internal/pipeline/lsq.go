package pipeline

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/iq"
	"repro/internal/mem"
	"repro/internal/uop"
)

// LSQ is the load/store queue. As in the paper's simulator (§5), memory
// instructions split at dispatch: the effective-address calculation is
// scheduled by the IQ as an ordinary integer operation, and the access
// itself lives here. A load may access the cache once its address is
// known, every older store's address is known, and no older store
// overlaps; an overlapping older store forwards its data in one cycle.
// Store data is written to the cache after commit from a post-retirement
// write queue.
//
// The queue is event-driven (DESIGN.md §15): per tick it visits only the
// loads an event concerns — an address arrival, an MSHR transition on the
// load's line, a free MSHR, a free read port — and counts the loads whose
// retry would repeat a rejection from bitmap popcounts, instead of walking
// every resident instruction.
type LSQ struct {
	capacity int
	l1d      *mem.Cache
	eq       *mem.EventQueue
	q        iq.Queue

	rdPorts       int
	wrPorts       int
	mshrs         int
	missDetectLat int64

	// OnLoadDone, if set, runs when a load's data arrives (after the IQ
	// notifications).
	OnLoadDone func(cycle int64, u *uop.UOp)

	// The resident instructions sit in an age-ordered ring of slots whose
	// size is a power of two; removal happens only at the head (in-order
	// commit). head counts the instructions ever removed, so the i-th
	// oldest resident is absolute position head+i, in slot
	// (head+i)&mask. A slot number is the instruction's handle while it
	// is resident.
	ring []lsqSlot
	mask uint64
	head uint64
	n    int

	// Slot-indexed bitmaps. pendW marks the loads whose address has
	// arrived and which have neither accessed the cache nor been
	// forwarded; freshW the pending loads whose forwarding check has not
	// run yet; parkedW the pending loads the cache rejected, which wait on
	// their line's wait list. unkW marks the stores whose address has not
	// arrived, kstW those whose address has, dataW the known-address stores
	// whose data has not, and stampW the stores whose data arrived this
	// cycle, which Tick marks complete.
	pendW   []uint64
	freshW  []uint64
	parkedW []uint64
	unkW    []uint64
	kstW    []uint64
	dataW   []uint64
	stampW  []uint64

	// unkPos is the absolute position of the oldest store in unkW, or
	// noPos: the boundary of the load walk, kept so that a tick need not
	// search for it.
	unkPos uint64

	// waits maps a line to the slot of the oldest load parked on it, and
	// dataWaits a producer's sequence number to the slot of a store in
	// dataW whose data it produces; the slots link the rest of each list.
	waits     map[uint64]int32
	dataWaits map[int64]int32

	// arrivals lists the issued address calculations not yet arrived, by
	// arrival cycle; entries name absolute positions, so they survive a
	// ring re-layout and go stale harmlessly if their instruction left.
	arrivals []arrival

	// cover counts, per 16-byte block and byte, the writers of that byte
	// among the retired writes and the known-address resident stores —
	// the superset of every load's forwarding sources (see forwardable).
	cover map[uint64][16]uint32

	writeQ []memWrite // retired stores awaiting cache write
	// wqParked marks the head retired write as rejected by the cache and
	// parked like a load: it retries only once an MSHR is free or its
	// line changes.
	wqParked bool

	forwards       uint64
	mshrRejects    uint64
	loadsIssued    uint64
	storeWrites    uint64
	blockedByStore uint64
}

type memWrite struct {
	addr uint64
	size uint8
}

// lsqSlot is one ring slot.
type lsqSlot struct {
	u    *uop.UOp
	line uint64 // a pending load's cache line
	// next links a parked load to the next younger one parked on the same
	// line, and dnext a store waiting for data to the next one waiting on
	// the same producer (-1: none, also for every slot not on a list).
	next, dnext int32
}

// arrival is an issued address calculation: the instruction at absolute
// position pos learns its address at cycle at.
type arrival struct {
	at  int64
	pos uint64
}

// noSlot ends a wait list.
const noSlot int32 = -1

// noPos stands for no absolute position.
const noPos = ^uint64(0)

// NewLSQ builds a load/store queue of the given capacity over l1d, and
// registers it for l1d's MSHR transitions.
func NewLSQ(capacity int, l1d *mem.Cache, eq *mem.EventQueue, q iq.Queue, rdPorts, wrPorts int) *LSQ {
	size := 64
	for size < capacity {
		size <<= 1
	}
	w := bitvec.Words(size)
	all := make([]uint64, 7*w)
	bitmap := func(i int) []uint64 { return all[i*w : (i+1)*w : (i+1)*w] }
	l := &LSQ{
		capacity:      capacity,
		l1d:           l1d,
		eq:            eq,
		q:             q,
		rdPorts:       rdPorts,
		wrPorts:       wrPorts,
		mshrs:         l1d.Config().MSHRs,
		missDetectLat: int64(l1d.Config().HitLatency),
		ring:          make([]lsqSlot, size),
		mask:          uint64(size - 1),
		unkPos:        noPos,
		pendW:         bitmap(0),
		freshW:        bitmap(1),
		parkedW:       bitmap(2),
		unkW:          bitmap(3),
		kstW:          bitmap(4),
		dataW:         bitmap(5),
		stampW:        bitmap(6),
		waits:         make(map[uint64]int32),
		dataWaits:     make(map[int64]int32),
		cover:         make(map[uint64][16]uint32),
	}
	for i := range l.ring {
		l.ring[i].next, l.ring[i].dnext = noSlot, noSlot
	}
	l1d.Watch(l)
	return l
}

// LSQ event ops (mem.Handler dispatch codes). Tick schedules events
// carrying the load as the argument instead of building a closure per
// access, and the identifiable form lets an active clone remap them.
const (
	// lsqOpLoadDone (arg *uop.UOp): the load's data arrived; k is the
	// service kind.
	lsqOpLoadDone uint8 = iota
	// lsqOpFwdDone (arg *uop.UOp): a store-to-load forward completes.
	lsqOpFwdDone
	// lsqOpMissNotif (arg *uop.UOp): miss detected at tag-lookup time —
	// signal the IQ to suspend the load's chain (§3.4).
	lsqOpMissNotif
	// lsqOpStoreDrain (arg nil): a retired store's cache write finished;
	// nothing to record.
	lsqOpStoreDrain
)

// HandleEvent implements mem.Handler.
func (l *LSQ) HandleEvent(op uint8, t int64, k mem.Kind, arg any) {
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

// Full reports whether another memory instruction can be accepted.
func (l *LSQ) Full() bool { return l.n >= l.capacity }

// Len returns the number of in-flight memory instructions.
func (l *LSQ) Len() int { return l.n }

// Busy reports whether retired stores are still draining.
func (l *LSQ) Busy() bool { return len(l.writeQ) > 0 }

// slot returns the ring slot of the i-th oldest resident instruction.
func (l *LSQ) slot(i int) int { return int((l.head + uint64(i)) & l.mask) }

// age returns the age rank (0 = oldest) of the instruction in slot s.
func (l *LSQ) age(s int) int { return int((uint64(s) - l.head) & l.mask) }

// Add enqueues a dispatched memory instruction (program order). An
// instruction whose address calculation has already issued (EADone set)
// is scheduled for arrival as if AddressIssued had been called.
func (l *LSQ) Add(u *uop.UOp) {
	if l.Full() {
		panic("pipeline: add to full LSQ")
	}
	s := l.slot(l.n)
	l.ring[s].u = u
	if u.IsStore() {
		bitvec.Set(l.unkW, s)
		if l.unkPos == noPos {
			l.unkPos = l.head + uint64(l.n)
		}
	}
	l.n++
	if u.EADone != uop.NotYet {
		l.AddressIssued(u)
	}
}

// AddressIssued tells the queue that u's effective-address calculation
// has issued: the LSQ learns the address at cycle u.EADone. The engine
// calls it once per memory instruction, right after stamping EADone.
func (l *LSQ) AddressIssued(u *uop.UOp) {
	// Residents are in sequence order: find u's position by bisection.
	lo, hi := 0, l.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.ring[l.slot(mid)].u.Seq < u.Seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == l.n || l.ring[l.slot(lo)].u != u {
		panic("pipeline: address issued for an instruction not in the LSQ")
	}
	a := arrival{at: u.EADone, pos: l.head + uint64(lo)}
	// Arrivals come nearly in cycle order: insert from the back, after
	// any equal cycle.
	i := len(l.arrivals)
	l.arrivals = append(l.arrivals, a)
	for i > 0 && l.arrivals[i-1].at > a.at {
		l.arrivals[i] = l.arrivals[i-1]
		i--
	}
	l.arrivals[i] = a
}

// Remove deletes a committed memory instruction, which must be the
// oldest resident one (commit is in order). Stores commit through
// CommitStore instead, which moves their write to the post-retirement
// queue.
func (l *LSQ) Remove(u *uop.UOp) {
	if l.take(u) {
		l.addCover(u.Inst.Addr, u.Inst.Size, -1)
	}
}

// CommitStore retires a store, the oldest resident instruction: its
// write drains to the cache in the background. Its bytes stay in the
// forwarding index until the write drains.
func (l *LSQ) CommitStore(u *uop.UOp) {
	if !l.take(u) {
		panic("pipeline: LSQ commit of a store whose address never issued")
	}
	l.writeQ = append(l.writeQ, memWrite{addr: u.Inst.Addr, size: u.Inst.Size})
}

// take removes the head instruction u and reports whether it was a store
// whose bytes are in the forwarding index. It panics unless u is the
// head, or if u has visibly not completed: a load still waiting to access
// the cache, or a store whose data has not been stamped.
func (l *LSQ) take(u *uop.UOp) bool {
	s := l.slot(0)
	if l.n == 0 || l.ring[s].u != u {
		panic("pipeline: LSQ remove of an instruction that is not the oldest resident")
	}
	if bitvec.Test(l.pendW, s) || bitvec.Test(l.dataW, s) || bitvec.Test(l.stampW, s) {
		panic("pipeline: LSQ remove of an instruction that has not completed")
	}
	known, unknown := bitvec.Test(l.kstW, s), bitvec.Test(l.unkW, s)
	if unknown && u.EADone != uop.NotYet {
		// Committed before a Tick saw its address arrive (only drivers
		// that skip ticking do this): the address is known by now.
		l.addCover(u.Inst.Addr, u.Inst.Size, 1)
		known = true
	}
	bitvec.Clear(l.unkW, s)
	bitvec.Clear(l.kstW, s)
	l.ring[s].u = nil
	l.head++
	l.n--
	if unknown {
		l.nextUnknown(0)
	}
	return known
}

// unknown returns the age rank of the oldest store whose address is
// unknown, or the occupancy if there is none.
func (l *LSQ) unknown() int {
	if l.unkPos == noPos {
		return l.n
	}
	return int(l.unkPos - l.head)
}

// nextUnknown points unkPos at the oldest unknown-address store at age
// rank from or younger, once every older one has resolved.
func (l *LSQ) nextUnknown(from int) {
	l.unkPos = noPos
	if r := l.first(l.unkW, nil, from, l.n); r < l.n {
		l.unkPos = l.head + uint64(r)
	}
}

func overlap(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

// addCover adds d to the writer count of each byte in [addr, addr+size).
func (l *LSQ) addCover(addr uint64, size uint8, d int) {
	end := addr + uint64(size)
	for b := addr >> 4; b<<4 < end; b++ {
		v := l.cover[b]
		lo, hi := max(addr, b<<4), min(end, b<<4+16)
		for a := lo; a < hi; a++ {
			v[a&15] += uint32(d)
		}
		if v == ([16]uint32{}) {
			delete(l.cover, b)
		} else {
			l.cover[b] = v
		}
	}
}

// forwardable reports whether a store older than the load at age rank
// j — a retired write or a resident store — writes any byte the load
// reads. It is only asked once every older store's address is known, so
// the index counts every such store, plus the younger known-address
// ones, which are subtracted byte by byte where the index is positive.
func (l *LSQ) forwardable(j int, u *uop.UOp) bool {
	addr, end := u.Inst.Addr, u.Inst.Addr+uint64(u.Inst.Size)
	var buf [8]int32
	younger, collected := buf[:0], false
	for b := addr >> 4; b<<4 < end; b++ {
		v, ok := l.cover[b]
		if !ok {
			continue
		}
		for a := max(addr, b<<4); a < min(end, b<<4+16); a++ {
			c := v[a&15]
			if c == 0 {
				continue
			}
			if !collected {
				// The younger known-address stores the load overlaps;
				// usually none.
				for i := l.first(l.kstW, nil, j+1, l.n); i < l.n; i = l.first(l.kstW, nil, i+1, l.n) {
					if st := l.ring[l.slot(i)].u; overlap(st.Inst.Addr, st.Inst.Size, addr, u.Inst.Size) {
						younger = append(younger, int32(l.slot(i)))
					}
				}
				collected = true
			}
			for _, s := range younger {
				if st := l.ring[s].u; overlap(st.Inst.Addr, st.Inst.Size, a, 1) {
					c--
				}
			}
			if c > 0 {
				return true
			}
		}
	}
	return false
}

// count returns the number of slots set in w at age ranks [from, to).
func (l *LSQ) count(w []uint64, from, to int) int {
	if from >= to {
		return 0
	}
	s := l.slot(from)
	if e := s + to - from; e <= len(l.ring) {
		return bitvec.CountRange(w, s, e)
	}
	return bitvec.CountRange(w, s, len(l.ring)) + bitvec.CountRange(w, 0, l.slot(to))
}

// first returns the age rank of the oldest slot in ranks [from, to) that
// is set in a and clear in b (b may be nil), or to if there is none.
func (l *LSQ) first(a, b []uint64, from, to int) int {
	for from < to {
		s := l.slot(from)
		end := min(len(l.ring), s+to-from)
		for k := s >> 6; k<<6 < end; k++ {
			x := a[k]
			if b != nil {
				x &^= b[k]
			}
			if k == s>>6 {
				x &^= 1<<(uint(s)&63) - 1
			}
			if x != 0 {
				if t := k<<6 + bits.TrailingZeros64(x); t < end {
					return from + t - s
				}
				break
			}
		}
		from += end - s
	}
	return to
}

// LineChanged implements mem.LineWatcher: an MSHR was allocated or
// released for line, so every load parked on it would now be accepted
// (as a delayed hit or a hit). They leave the wait list and are retried
// by the next load walk, as is the head retired write if it waits on the
// line.
func (l *LSQ) LineChanged(line uint64) {
	if h, ok := l.waits[line]; ok {
		delete(l.waits, line)
		for h != noSlot {
			bitvec.Clear(l.parkedW, int(h))
			h, l.ring[h].next = l.ring[h].next, noSlot
		}
	}
	if l.wqParked && l.l1d.LineAddr(l.writeQ[0].addr) == line {
		l.wqParked = false
	}
}

// park puts the rejected load in slot s on its line's wait list, which
// stays in age order.
func (l *LSQ) park(s int) {
	bitvec.Set(l.parkedW, s)
	ln := l.ring[s].line
	h, ok := l.waits[ln]
	if !ok || l.age(int(h)) > l.age(s) {
		if ok {
			l.ring[s].next = h
		}
		l.waits[ln] = int32(s)
		return
	}
	for l.ring[h].next != noSlot && l.age(int(l.ring[h].next)) < l.age(s) {
		h = l.ring[h].next
	}
	l.ring[s].next, l.ring[h].next = l.ring[h].next, int32(s)
}

// Produced tells the queue that p's result is available from this cycle
// (p.Complete) on: the stores whose data p produces complete at this
// cycle's Tick. The engine calls it when an instruction with a register
// result completes; loads report their own completion.
func (l *LSQ) Produced(p *uop.UOp) {
	if len(l.dataWaits) == 0 {
		return
	}
	h, ok := l.dataWaits[p.Seq]
	if !ok {
		return
	}
	delete(l.dataWaits, p.Seq)
	for h != noSlot {
		bitvec.Clear(l.dataW, int(h))
		bitvec.Set(l.stampW, int(h))
		h, l.ring[h].dnext = l.ring[h].dnext, noSlot
	}
}

// waitData puts the known-address store in slot s on its data producer's
// wait list.
func (l *LSQ) waitData(s int) {
	bitvec.Set(l.dataW, s)
	seq := l.ring[s].u.Prod[0].Seq
	if h, ok := l.dataWaits[seq]; ok {
		l.ring[s].dnext = h
	}
	l.dataWaits[seq] = int32(s)
}

// Tick drains retired store writes and initiates eligible load accesses,
// bounded by the cache read/write ports.
func (l *LSQ) Tick(cycle int64) {
	l.drainWrites(cycle)
	l.arrive(cycle)
	// A store retires once both its address and its data are known; the
	// EA issued on the address alone.
	if bitvec.Any(l.stampW) {
		for i := l.first(l.stampW, nil, 0, l.n); i < l.n; i = l.first(l.stampW, nil, i+1, l.n) {
			l.ring[l.slot(i)].u.Complete = cycle
		}
		clear(l.stampW)
	}
	l.startLoads(cycle)
}

// drainWrites performs post-retirement store writes.
func (l *LSQ) drainWrites(cycle int64) {
	wr := 0
	for ; wr < l.wrPorts && wr < len(l.writeQ); wr++ {
		w := l.writeQ[wr]
		if l.wqParked && l.l1d.OutstandingMisses() >= l.mshrs {
			// The parked write would bounce again: count the rejection
			// without repeating the access.
			l.l1d.SkipMSHRRejects(1)
			break
		}
		if !l.l1d.AccessRef(cycle, w.addr, true, mem.Ref{H: l, Op: lsqOpStoreDrain}) {
			l.wqParked = true
			break // MSHRs full: retry once one frees or the line changes
		}
		l.addCover(w.addr, w.size, -1)
		l.storeWrites++
	}
	if wr > 0 {
		// Slide the rest to the front, so appends keep reusing the array.
		l.writeQ = l.writeQ[:copy(l.writeQ, l.writeQ[wr:])]
	}
}

// arrive applies the address arrivals due by cycle: a load becomes
// pending, a store becomes known-address.
func (l *LSQ) arrive(cycle int64) {
	k := 0
	for ; k < len(l.arrivals) && l.arrivals[k].at <= cycle; k++ {
		pos := l.arrivals[k].pos
		if pos < l.head {
			continue // committed before the arrival was ticked
		}
		s := int(pos & l.mask)
		u := l.ring[s].u
		if u.IsStore() {
			bitvec.Clear(l.unkW, s)
			bitvec.Set(l.kstW, s)
			if pos == l.unkPos {
				l.nextUnknown(int(pos-l.head) + 1)
			}
			l.addCover(u.Inst.Addr, u.Inst.Size, 1)
			switch {
			case u.Complete != uop.NotYet:
			case u.OperandReady(0, cycle):
				bitvec.Set(l.stampW, s)
			default:
				// The data's producer completes later, and says so.
				l.waitData(s)
			}
		} else if u.Complete == uop.NotYet && u.MemKind == uop.MemNone {
			bitvec.Set(l.pendW, s)
			bitvec.Set(l.freshW, s)
			l.ring[s].line = l.l1d.LineAddr(u.Inst.Addr)
		}
	}
	// Slide the rest to the front, so appends keep reusing the array.
	l.arrivals = l.arrivals[:copy(l.arrivals, l.arrivals[k:])]
}

// startLoads runs the load walk: oldest first, every pending load older
// than the oldest unknown-address store gets its forwarding check once
// and then accesses the cache while read ports remain (conservative
// disambiguation, §5: a younger load waits). Parked loads are visited
// only while an MSHR is free; otherwise their retry would bounce, and
// those the walk passes with a port still free are counted in bulk.
func (l *LSQ) startLoads(cycle int64) {
	unk := l.unknown()
	l.blockedByStore += uint64(l.count(l.pendW, unk, l.n))
	// stop is the age rank where the read ports ran out: the old walk
	// tried no load from there on. parked counts the loads this walk
	// parks, whose rejections the cache has already counted.
	rd, parked, stop := 0, 0, unk
	for i := 0; ; {
		// Candidates: with the read ports spent, only forwarding checks;
		// with the MSHR file full, every pending load but the parked.
		cand, skip := l.freshW, []uint64(nil)
		if rd < l.rdPorts {
			cand = l.pendW
			if l.l1d.OutstandingMisses() >= l.mshrs {
				skip = l.parkedW
			}
		}
		j := l.first(cand, skip, i, unk)
		if j >= unk {
			break
		}
		i = j + 1
		s := l.slot(j)
		u := l.ring[s].u
		if bitvec.Test(l.freshW, s) {
			bitvec.Clear(l.freshW, s)
			if l.forwardable(j, u) {
				bitvec.Clear(l.pendW, s)
				l.forwards++
				u.MemKind = uop.MemHit
				u.Complete = cycle + 1
				l.eq.ScheduleRef(cycle+1, mem.Ref{H: l, Op: lsqOpFwdDone, Arg: u})
				continue
			}
		}
		if rd >= l.rdPorts {
			continue
		}
		kind, ok := l.l1d.AccessRefKind(cycle, u.Inst.Addr, false, mem.Ref{H: l, Op: lsqOpLoadDone, Arg: u})
		if !ok {
			l.mshrRejects++
			l.park(s)
			parked++
			continue
		}
		if bitvec.Test(l.parkedW, s) {
			// A parked load only misses its line, so an accepted one
			// allocated the line's MSHR, which unparked it.
			panic("pipeline: LSQ parked load accepted without an MSHR allocation")
		}
		bitvec.Clear(l.pendW, s)
		if rd++; rd == l.rdPorts {
			stop = j + 1
		}
		l.loadsIssued++
		u.MemKind = int8(kind) // provisional; overwritten at completion
		if kind != mem.KindHit {
			// The miss is detected after the tag lookup: suspend the
			// load's chain (§3.4).
			l.eq.ScheduleRef(cycle+l.missDetectLat, mem.Ref{H: l, Op: lsqOpMissNotif, Arg: u})
		}
	}
	// Every load parked ahead of stop was either passed with the MSHR
	// file full — a parked load the walk visits while an MSHR is free is
	// accepted, which unparks it — or parked by this walk.
	if bounced := uint64(l.count(l.parkedW, 0, stop) - parked); bounced > 0 {
		l.mshrRejects += bounced
		l.l1d.SkipMSHRRejects(bounced)
	}
}

// SkipClass classifies the queue for idle-cycle skipping. Called after
// Tick(cycle) has run, it decides whether every Tick on the elided cycles
// (cycle, cap) would be a pure counter replay, and if so which counters:
// blocked loads stuck behind an older store with an unknown address
// (blockedByStore ticks once per load per cycle) and loads whose access
// would bounce off a full MSHR file every cycle (mshrRejects, plus the
// cache-side reject counter). Any entry that could make real progress —
// a drainable retired write or a load whose access would actually be
// accepted — makes the queue unskippable and SkipClass returns ok=false.
//
// The classification is only valid while nothing else moves: callers must
// separately ensure no issue/dispatch/writeback happens in the window, so
// EADone/Complete fields (future values always carry an event at exactly
// that time, which bounds the window) and the forwarding index are frozen
// across it.
func (l *LSQ) SkipClass(cycle int64) (ok bool, blocked, rejected int) {
	if len(l.writeQ) > 0 {
		return false, 0, 0 // retired writes could drain
	}
	// No store completion can be due: this cycle's Tick stamped every
	// store whose data has arrived, and the rest wait on producers whose
	// completions arrive by event.
	unk := l.unknown()
	blocked = l.count(l.pendW, unk, l.n)
	// Every pending load ahead of the oldest unknown-address store had
	// its forwarding check in this cycle's Tick, so the only frozen
	// outcome is an MSHR-file rejection, and it must stay one on every
	// elided cycle. That requires a plain miss (a hit or an outstanding
	// MSHR for the line would accept the access) with every MSHR busy;
	// MSHRs cannot free mid-window (fills arrive by event). A parked load
	// is such a miss by construction; the others are probed.
	full := l.l1d.OutstandingMisses() >= l.mshrs
	rejected = l.count(l.parkedW, 0, unk)
	if rejected > 0 && !full {
		return false, 0, 0
	}
	for i := l.first(l.pendW, l.parkedW, 0, unk); i < unk; i = l.first(l.pendW, l.parkedW, i+1, unk) {
		s := l.slot(i)
		if !full || bitvec.Test(l.freshW, s) || l.l1d.Probe(l.ring[s].u.Inst.Addr) != mem.KindMiss {
			return false, 0, 0
		}
		rejected++
	}
	return true, blocked, rejected
}

// SkipCycles replays the counter effects of n elided Ticks, using the
// classification from SkipClass. The real reject path (AccessRefKind
// with a full MSHR file) touches only the two reject counters, so the
// replay is exact.
func (l *LSQ) SkipCycles(n int64, blocked, rejected int) {
	l.blockedByStore += uint64(blocked) * uint64(n)
	if rejected > 0 {
		r := uint64(rejected) * uint64(n)
		l.mshrRejects += r
		l.l1d.SkipMSHRRejects(r)
	}
}

func (l *LSQ) finishLoad(t int64, u *uop.UOp) {
	l.Produced(u)
	l.q.NotifyLoadComplete(t, u)
	l.q.Writeback(t, u)
	if l.OnLoadDone != nil {
		l.OnLoadDone(t, u)
	}
}

// Forwards returns the number of store-to-load forwards.
func (l *LSQ) Forwards() uint64 { return l.forwards }

// MSHRRejects returns load issue attempts bounced by a full MSHR file.
func (l *LSQ) MSHRRejects() uint64 { return l.mshrRejects }

// LoadsIssued returns the number of cache load accesses initiated.
func (l *LSQ) LoadsIssued() uint64 { return l.loadsIssued }

// StoreWrites returns the number of retired store writes performed.
func (l *LSQ) StoreWrites() uint64 { return l.storeWrites }

// BlockedByStore returns load-cycles spent waiting on unresolved older
// store addresses.
func (l *LSQ) BlockedByStore() uint64 { return l.blockedByStore }

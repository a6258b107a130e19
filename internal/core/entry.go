package core

import (
	"repro/internal/isa"
	"repro/internal/uop"
)

// chainRef is one chain membership of a queue entry: the per-IQ-entry
// per-chain fields of §3.3 (chain ID, delay value, chain-head location,
// self-timed flag), plus the suspend flag of §3.4.
//
// A running countdown (self-timed and not suspended) is tick-stamped
// rather than decremented every cycle: delay is its value at queue tick
// base, and value derives the current one. Stopped refs hold their value
// in delay directly.
type chainRef struct {
	ch      chain
	base    int64
	delay   int32
	headLoc int32
	// mi is the ref's slot in its wire's member list while the entry is
	// registered (dispatch to issue).
	mi        int32
	selfTimed bool
	suspended bool
}

// running reports whether the ref's self-timed countdown is ticking.
func (cr *chainRef) running() bool { return cr.selfTimed && !cr.suspended }

// value returns the ref's delay value at queue tick ticks.
func (cr *chainRef) value(ticks int64) int {
	if !cr.running() {
		return int(cr.delay)
	}
	return countdown(int(cr.delay), cr.base, ticks)
}

// countdown is max(0, delay-(ticks-base)): a self-timed value stamped at
// tick base, read at tick ticks.
func countdown(delay int, base, ticks int64) int {
	d := int64(delay) - (ticks - base)
	if d < 0 {
		return 0
	}
	return int(d)
}

// observe applies one chain-wire assertion to the reference at queue tick
// ticks and reports whether it changed the reference.
func (cr *chainRef) observe(s signal, ticks int64) bool {
	if cr.ch != s.ch {
		return false
	}
	switch s.typ {
	case sigAdvance:
		if cr.selfTimed {
			return false // stale: the head already issued
		}
		if cr.headLoc > 0 {
			cr.headLoc--
			cr.delay -= 2
			if cr.delay < 0 {
				cr.delay = 0
			}
		} else {
			// Head-location zero: this assertion is the head's issue.
			cr.selfTimed = true
			cr.base = ticks
		}
	case sigSuspend:
		if cr.suspended {
			return false
		}
		cr.delay = int32(cr.value(ticks))
		cr.suspended = true
	case sigResume:
		if !cr.suspended {
			return false
		}
		cr.suspended = false
		cr.base = ticks
	}
	return true
}

// entry is the segmented IQ's per-instruction state. It lives from
// dispatch to writeback (chains are deallocated at head writeback, after
// the entry has left the queue segments).
//
// The fields that chain-wire delivery and eligibility tracking touch come
// first, so an entry's hot state spans as few cache lines as possible.
type entry struct {
	// seg is the segment holding the entry, or -1 while it is in transit
	// between segments (inside a batch promotion or a §4.5 recycle) and
	// after it issued.
	seg   int
	nrefs int
	// arrived is the cycle the entry entered its current segment (or was
	// dispatched); it may not move again, or issue, in that same cycle.
	arrived int64
	// id is the entry's stable handle — its index in the queue's entry
	// array, the element of its slot and its scoreboard handle — assigned
	// once and kept across pool recycling.
	id int32
	// fresh marks membership of the queue's list of entries that arrived
	// in the current cycle.
	fresh bool

	isHead bool
	// lrpTracked marks an instruction whose left/right prediction must be
	// scored and trained when both operand arrival times are known.
	lrpTracked bool
	// pushedDown marks an entry whose last promotion came from the
	// pushdown mechanism (stats only).
	pushedDown bool

	refs [2]chainRef

	u    *uop.UOp
	head chain
}

// effDelay returns the entry's effective delay value at queue tick ticks:
// the maximum over its chain memberships (§3.2: an instruction on two
// chains dynamically uses the larger value, indicating the later-arriving
// operand).
func (e *entry) effDelay(ticks int64) int {
	d := 0
	for i := 0; i < e.nrefs; i++ {
		if v := e.refs[i].value(ticks); v > d {
			d = v
		}
	}
	return d
}

// eligibleAt returns the first queue tick at which the entry's effective
// delay is below thr, assuming no further signal: a stopped ref at or
// above thr never gets there, and a running ref stamped (delay, base)
// drops below thr at tick base+delay-thr+1.
func (e *entry) eligibleAt(thr int) int64 {
	at := int64(minTick)
	for i := 0; i < e.nrefs; i++ {
		cr := &e.refs[i]
		if !cr.running() {
			if int(cr.delay) >= thr {
				return maxTick
			}
			continue
		}
		if t := cr.base + int64(int(cr.delay)-thr+1); t > at {
			at = t
		}
	}
	return at
}

// observe applies a chain-wire assertion to all memberships and reports
// whether any changed.
func (e *entry) observe(s signal, ticks int64) bool {
	changed := false
	for i := 0; i < e.nrefs; i++ {
		if e.refs[i].observe(s, ticks) {
			changed = true
		}
	}
	return changed
}

// regEntry is one register's row in the register information table of
// §3.3: the chain that will produce the register, the value's expected
// latency relative to the chain head's issue, the head's current segment,
// and the self-timed flag (plus suspension, mirroring chain state). A
// running self-timed latency is tick-stamped like a chainRef's delay.
type regEntry struct {
	valid     bool
	producer  *uop.UOp
	ch        chain
	latency   int
	base      int64
	headLoc   int
	selfTimed bool
	suspended bool
	// mi is the row's slot in its wire's row list while the row is valid
	// on a real chain.
	mi int32
}

// running reports whether the row's self-timed latency is counting down.
func (re *regEntry) running() bool { return re.valid && re.selfTimed && !re.suspended }

// value returns the row's latency at queue tick ticks.
func (re *regEntry) value(ticks int64) int {
	if !re.running() {
		return re.latency
	}
	return countdown(re.latency, re.base, ticks)
}

// outstanding reports whether the register's value is still to be
// produced for scheduling purposes at queue tick ticks. Per §3.3, once a
// self-timed entry's latency reaches zero the value is assumed available.
func (re *regEntry) outstanding(ticks int64) bool {
	return re.valid && !(re.selfTimed && re.value(ticks) == 0)
}

// observe applies a chain-wire assertion to the table row at queue tick
// ticks. The latency field is relative to head issue, so promotions adjust
// only the head location; the issue assertion starts the self-timed
// countdown.
func (re *regEntry) observe(s signal, ticks int64) {
	if !re.valid || re.ch != s.ch {
		return
	}
	switch s.typ {
	case sigAdvance:
		if re.selfTimed {
			return
		}
		if re.headLoc > 0 {
			re.headLoc--
		} else {
			re.selfTimed = true
			re.base = ticks
		}
	case sigSuspend:
		if !re.suspended {
			re.latency = re.value(ticks)
			re.suspended = true
		}
	case sigResume:
		if re.suspended {
			re.suspended = false
			re.base = ticks
		}
	}
}

// regTable is the dispatch stage's register information table, replicated
// per hardware context under SMT, with the valid rows on each chain wire
// indexed so an assertion visits only the rows that can hear it.
type regTable struct {
	rows []regEntry
	byCh [][]int32 // wire id -> row indices (back-index in regEntry.mi)
}

func newRegTable(threads int) regTable {
	if threads < 1 {
		threads = 1
	}
	return regTable{rows: make([]regEntry, threads*isa.NumRegs)}
}

// index returns the row index of a thread's architectural register.
func (t *regTable) index(thread int, reg isa.Reg) int { return thread*isa.NumRegs + int(reg) }

// row returns the entry for a thread's architectural register.
func (t *regTable) row(thread int, reg isa.Reg) *regEntry {
	return &t.rows[t.index(thread, reg)]
}

// set replaces row i, keeping the wire index current.
func (t *regTable) set(i int, re regEntry) {
	t.unlink(i)
	t.rows[i] = re
	if re.valid && re.ch.real() {
		id := re.ch.id
		for id >= len(t.byCh) {
			t.byCh = append(t.byCh, nil)
		}
		t.rows[i].mi = int32(len(t.byCh[id]))
		t.byCh[id] = append(t.byCh[id], int32(i))
	}
}

// unlink removes row i from its wire's row list if it is on one.
func (t *regTable) unlink(i int) {
	re := &t.rows[i]
	if !re.valid || !re.ch.real() {
		return
	}
	l := t.byCh[re.ch.id]
	last := len(l) - 1
	if j := re.mi; int(j) != last {
		moved := l[last]
		l[j] = moved
		t.rows[moved].mi = j
	}
	t.byCh[re.ch.id] = l[:last]
}

// observe applies a signal to the rows on its wire at queue tick ticks.
func (t *regTable) observe(s signal, ticks int64) {
	if s.ch.id >= len(t.byCh) {
		return
	}
	for _, i := range t.byCh[s.ch.id] {
		t.rows[i].observe(s, ticks)
	}
}

// clearProducer invalidates the row for u's destination if u is still its
// recorded producer (a younger writer may have replaced it).
func (t *regTable) clearProducer(u *uop.UOp) {
	if !u.Inst.HasDest() {
		return
	}
	i := t.index(u.Thread, u.Inst.Dest)
	re := &t.rows[i]
	if re.valid && re.producer == u {
		t.unlink(i)
		re.valid = false
		re.producer = nil
	}
}

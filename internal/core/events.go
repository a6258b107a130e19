package core

import (
	"math"

	"repro/internal/bitvec"
)

// The segmented queue is event-driven: nothing in it is visited per cycle
// unless an event concerns it. Three indices make that possible (DESIGN.md
// §14):
//
//   - members: per chain wire, the refs of resident entries on that wire
//     (with wireOcc counting them per segment), so a chain-wire signal
//     visits only the entries that can hear it;
//   - the eligibility bits eligW over the slot space, set exactly for the
//     entries that may be promoted out of their segment this cycle, so
//     promotion picks a segment's oldest candidates with TrailingZeros64;
//   - the eligibility heap and the fresh list, which schedule the two
//     kinds of future change of an eligibility bit: a running countdown
//     crossing the segment's threshold at a known tick, and an entry's
//     arrival cycle ending.

const (
	minTick = math.MinInt64
	maxTick = math.MaxInt64
)

// member is one chain membership in a wire's member list: the entry
// handle, the index of the ref within the entry, and the entry's segment
// (-1 while it is in transit), kept here so a delivery filters the list
// without touching the entries.
type member struct {
	h   int32
	ri  int32
	seg int32
}

// register adds e's chain refs to their wires' member lists, sizing the
// per-wire indices for the wires it names. An entry is registered before
// it is first placed in a segment.
func (q *SegmentedIQ) register(e *entry) {
	for i := 0; i < e.nrefs; i++ {
		cr := &e.refs[i]
		if !cr.ch.real() {
			continue
		}
		id := cr.ch.id
		for id >= len(q.members) {
			q.members = append(q.members, nil)
		}
		for len(q.wireOcc) < len(q.members)*q.cfg.Segments {
			q.wireOcc = append(q.wireOcc, 0)
		}
		cr.mi = int32(len(q.members[id]))
		q.members[id] = append(q.members[id], member{h: e.id, ri: int32(i), seg: -1})
	}
}

// unregister removes e's chain refs from their wires' member lists by
// swap-remove, fixing the back-index of the member moved into the hole.
func (q *SegmentedIQ) unregister(e *entry) {
	for i := 0; i < e.nrefs; i++ {
		cr := &e.refs[i]
		if !cr.ch.real() {
			continue
		}
		l := q.members[cr.ch.id]
		last := len(l) - 1
		if j := cr.mi; int(j) != last {
			moved := l[last]
			l[j] = moved
			q.byID[moved.h].refs[moved.ri].mi = j
		}
		q.members[cr.ch.id] = l[:last]
	}
}

// enter records e's (registered) refs as members in segment k.
func (q *SegmentedIQ) enter(e *entry, k int) {
	for i := 0; i < e.nrefs; i++ {
		if cr := &e.refs[i]; cr.ch.real() {
			q.wireOcc[cr.ch.id*q.cfg.Segments+k]++
			q.members[cr.ch.id][cr.mi].seg = int32(k)
		}
	}
}

// leave records e's refs as leaving segment k, in transit until they
// enter another.
func (q *SegmentedIQ) leave(e *entry, k int) {
	for i := 0; i < e.nrefs; i++ {
		if cr := &e.refs[i]; cr.ch.real() {
			q.wireOcc[cr.ch.id*q.cfg.Segments+k]--
			q.members[cr.ch.id][cr.mi].seg = -1
		}
	}
}

// occupied reports whether any member of wire id sits in segment k.
func (q *SegmentedIQ) occupied(id, k int) bool {
	i := id*q.cfg.Segments + k
	return i < len(q.wireOcc) && q.wireOcc[i] != 0
}

// wireMembers returns the member list of wire id.
func (q *SegmentedIQ) wireMembers(id int) []member {
	if id >= len(q.members) {
		return nil
	}
	return q.members[id]
}

// reElig re-derives e's promotion eligibility after any change to its
// refs, its segment or its arrival cycle: the eligibility bit is set iff
// e arrived before the current cycle and its effective delay is below the
// threshold of the segment beneath it. A bit that a running countdown
// will set at a later tick is scheduled on the heap; one that the end of
// e's arrival cycle will set waits on the fresh list.
//
// Only setting is ever needed: an entry is placed with a clear bit, and
// within one residency its bit never turns off again, because no signal
// raises a delay value and the arrival condition only loosens.
func (q *SegmentedIQ) reElig(e *entry) {
	k := e.seg
	switch {
	case k < 0:
		// In transit: the entry is placed fresh at its destination.
		q.cancel(e)
	case e.arrived >= q.curCycle:
		q.cancel(e)
		if !e.fresh {
			e.fresh = true
			q.fresh = append(q.fresh, e.id)
		}
	case k == 0:
		q.cancel(e) // the bottom segment promotes nowhere
	default:
		switch at := e.eligibleAt(threshold(k - 1)); {
		case at <= q.ticks:
			q.cancel(e)
			bitvec.Set(q.eligW, int(q.posOf[e.id]))
		case at == maxTick:
			q.cancel(e)
		default:
			q.schedule(e, at)
		}
	}
}

// stillBlocked reports whether a signal that just changed ref cr of e
// leaves e's eligibility state as it was, so reElig can be skipped: cr is
// a stopped countdown still at or above the threshold below e's segment,
// and e has no pending event. Delays never rise, so cr blocked e before
// the signal too: e was ineligible, and stays so with nothing scheduled.
func (q *SegmentedIQ) stillBlocked(e *entry, cr *chainRef) bool {
	return q.heapAt[e.id] == 0 && !cr.running() && int(cr.delay) >= threshold(e.seg-1)
}

// settleArrivals re-derives eligibility for the fresh entries whose
// arrival cycle has ended by cycle.
func (q *SegmentedIQ) settleArrivals(cycle int64) {
	kept := q.fresh[:0]
	for _, h := range q.fresh {
		e := q.byID[h]
		if e.arrived >= cycle {
			kept = append(kept, h)
			continue
		}
		e.fresh = false
		q.reElig(e)
	}
	q.fresh = kept
}

// dropFresh removes e from the fresh list (it is leaving the queue).
func (q *SegmentedIQ) dropFresh(e *entry) {
	if !e.fresh {
		return
	}
	e.fresh = false
	for i, h := range q.fresh {
		if h == e.id {
			q.fresh = append(q.fresh[:i], q.fresh[i+1:]...)
			return
		}
	}
}

// fireDue re-derives eligibility for every entry whose scheduled tick has
// come.
func (q *SegmentedIQ) fireDue() {
	for len(q.heap) > 0 && q.heap[0].at <= q.ticks {
		e := q.byID[q.heap[0].h]
		q.cancel(e)
		q.reElig(e)
	}
}

// eligEvent is a scheduled eligibility change: entry h's countdowns drop
// below its segment's threshold at queue tick at.
type eligEvent struct {
	at int64
	h  int32
}

// schedule sets e's pending eligibility event to tick at.
func (q *SegmentedIQ) schedule(e *entry, at int64) {
	if hi := q.heapAt[e.id]; hi != 0 {
		i := int(hi - 1)
		old := q.heap[i].at
		q.heap[i].at = at
		if at < old {
			q.siftUp(i)
		} else {
			q.siftDown(i)
		}
		return
	}
	q.heap = append(q.heap, eligEvent{at: at, h: e.id})
	q.heapAt[e.id] = int32(len(q.heap))
	q.siftUp(len(q.heap) - 1)
}

// cancel drops e's pending eligibility event, if any.
func (q *SegmentedIQ) cancel(e *entry) {
	if q.heapAt[e.id] != 0 {
		q.unschedule(e.id)
	}
}

func (q *SegmentedIQ) unschedule(h int32) {
	i := int(q.heapAt[h] - 1)
	q.heapAt[h] = 0
	last := len(q.heap) - 1
	if i != last {
		q.heap[i] = q.heap[last]
		q.heapAt[q.heap[i].h] = int32(i + 1)
	}
	q.heap = q.heap[:last]
	if i != last {
		q.siftDown(i)
		q.siftUp(i)
	}
}

func (q *SegmentedIQ) heapSwap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	q.heapAt[h[i].h] = int32(i + 1)
	q.heapAt[h[j].h] = int32(j + 1)
}

func (q *SegmentedIQ) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[p].at <= q.heap[i].at {
			return
		}
		q.heapSwap(i, p)
		i = p
	}
}

func (q *SegmentedIQ) siftDown(i int) {
	n := len(q.heap)
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && q.heap[l].at < q.heap[small].at {
			small = l
		}
		if r < n && q.heap[r].at < q.heap[small].at {
			small = r
		}
		if small == i {
			return
		}
		q.heapSwap(i, small)
		i = small
	}
}

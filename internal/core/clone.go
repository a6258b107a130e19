package core

import (
	"repro/internal/iq"
	"repro/internal/stats"
	"repro/internal/uop"
)

// clone returns an independent copy of the chain pool, preserving the
// free list order and per-wire generations so a cloned machine allocates
// the same wires in the same order as the original.
func (p *chainPool) clone() *chainPool {
	n := new(chainPool)
	*n = *p
	n.free = append([]int(nil), p.free...)
	n.gens = append([]uint32(nil), p.gens...)
	return n
}

// clone returns an independent copy of the wire pipeline, including any
// signals currently in flight between segments.
func (w *wirePipe) clone() *wirePipe {
	n := &wirePipe{nSegs: w.nSegs, cur: make([][]signal, len(w.cur))}
	for i, s := range w.cur {
		if s == nil {
			continue
		}
		ns := make([]signal, len(s))
		copy(ns, s)
		n.cur[i] = ns
	}
	return n
}

// clone returns an independent copy of the register information table,
// row index included, with producer pointers remapped through m.
func (t regTable) clone(m *uop.CloneMap) regTable {
	n := regTable{rows: make([]regEntry, len(t.rows)), byCh: cloneLists(t.byCh)}
	copy(n.rows, t.rows)
	for i := range n.rows {
		n.rows[i].producer = m.Get(n.rows[i].producer)
	}
	return n
}

// cloneLists deep-copies a slice of per-wire lists position by position.
func cloneLists[T any](ls [][]T) [][]T {
	if ls == nil {
		return nil
	}
	n := make([][]T, len(ls))
	for i, l := range ls {
		if l != nil {
			n[i] = append(make([]T, 0, len(l)), l...)
		}
	}
	return n
}

// CloneIQ implements uop.IQState: the entry rides along whenever its
// instruction is remapped through a clone map. This covers issued-but-
// not-written-back instructions too — their entries have already left
// the segments but still carry the chain memberships that writeback
// releases.
func (e *entry) CloneIQ(clone *uop.UOp) any {
	ne := new(entry)
	*ne = *e
	ne.u = clone
	return ne
}

// Clone implements iq.Queue: a deep copy of the slot space, chain pool,
// wire pipeline, register table, predictors and event indices, with every
// held instruction remapped through m. Entry handles are stable, so the
// slots, wire member lists, eligibility heap and fresh list copy position
// by position; the entry array maps each handle to the entry
// CloneIQ attached to the remapped instruction, so segments and uops agree
// on entry identity. Free handles in the entry pool stay free under the
// same ids, without their entry objects, so the clone hands out the
// handles the original would. Scratch buffers are not carried over.
func (q *SegmentedIQ) Clone(m *uop.CloneMap) iq.Queue {
	n := new(SegmentedIQ)
	*n = *q
	n.candScratch = nil
	n.outScratch = nil
	n.slots = append([]int32(nil), q.slots...)
	n.segW = cloneLists(q.segW)
	n.segLen = append([]int(nil), q.segLen...)
	n.byID = make([]*entry, len(q.byID))
	for h, e := range q.byID {
		if e != nil && e.u != nil {
			n.byID[h] = m.Get(e.u).IQ.(*entry)
		}
	}
	n.entryPool = nil
	n.freeIDs = append([]int32(nil), q.freeIDs...)
	for _, e := range q.entryPool {
		n.freeIDs = append(n.freeIDs, e.id)
	}
	n.posOf = append([]int32(nil), q.posOf...)
	n.heapAt = append([]int32(nil), q.heapAt...)
	n.readyW = append([]uint64(nil), q.readyW...)
	n.storeW = append([]uint64(nil), q.storeW...)
	n.eligW = append([]uint64(nil), q.eligW...)
	n.members = cloneLists(q.members)
	n.wireOcc = append([]int32(nil), q.wireOcc...)
	n.heap = append([]eligEvent(nil), q.heap...)
	n.fresh = append([]int32(nil), q.fresh...)
	n.sb = q.sb.Clone(m)
	n.unresolved = make([]*uop.UOp, len(q.unresolved))
	for i, u := range q.unresolved {
		n.unresolved[i] = m.Get(u)
	}
	n.chains = q.chains.clone()
	n.wires = q.wires.clone()
	n.table = q.table.clone(m)
	n.hmp = q.hmp.Clone()
	n.lrp = q.lrp.Clone()
	n.prevFree = append([]int(nil), q.prevFree...)
	n.stSegOcc = append([]stats.Mean(nil), q.stSegOcc...)
	n.demChains.Steps = q.demChains.CloneSteps()
	return n
}

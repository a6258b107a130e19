package uop

// CloneMap is an identity-preserving deep-copy map for in-flight
// instructions. Machine layers share UOps by pointer (the queue, ROB, LSQ,
// renamer and front end all hold the same dynamic instruction), so cloning
// a machine must map each original to exactly one clone; CloneMap
// memoises that mapping and follows producer edges recursively.
type CloneMap struct {
	m map[*UOp]*UOp
}

// NewCloneMap returns an empty clone map.
func NewCloneMap() *CloneMap {
	return &CloneMap{m: make(map[*UOp]*UOp)}
}

// IQState is implemented by queue-private per-instruction state (the
// values a queue stores in UOp.IQ) that must survive a machine clone.
// An instruction's state can outlive its residence in the queue — the
// segmented design keeps its entry attached from dispatch to writeback,
// across issue — so the remapping happens here, where every live uop
// passes, rather than in the queue's own Clone, which only sees the
// instructions still resident.
type IQState interface {
	// CloneIQ returns the state's clone for the cloned instruction.
	CloneIQ(clone *UOp) any
}

// Get returns the clone of u, creating it — and the clones of its
// producers and queue-private state — on first sight. Get(nil) is nil.
// IQ values that do not implement IQState are dropped from the clone.
func (cm *CloneMap) Get(u *UOp) *UOp {
	if u == nil {
		return nil
	}
	if c, ok := cm.m[u]; ok {
		return c
	}
	c := new(UOp)
	*c = *u
	c.IQ = nil
	cm.m[u] = c
	c.Prod[0] = cm.Get(u.Prod[0])
	c.Prod[1] = cm.Get(u.Prod[1])
	if st, ok := u.IQ.(IQState); ok {
		c.IQ = st.CloneIQ(c)
	}
	return c
}

// Len returns the number of instructions cloned so far.
func (cm *CloneMap) Len() int { return len(cm.m) }

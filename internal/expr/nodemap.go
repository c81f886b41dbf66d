package expr

import "fmt"

// NodeMap maps the nodes of one Builder to values of type V. It is a slice
// indexed by node ID that grows past the largest ID stored by doubling, so a
// lookup is an index and a stamp compare, not a hash probe, and a map filled
// up to n IDs reallocates O(log n) times. Each slot carries the epoch
// it was written in and only the current epoch's slots count, so Clear
// forgets every entry in O(1); the slots are zeroed only when the 32-bit
// epoch wraps around.
//
// IDs are dense per builder, so nodes of two builders share IDs. A NodeMap
// therefore binds to the builder of the first node stored after a Clear:
// Get never reports an entry for another builder's node, and Put panics,
// naming the node, when given one. An owner that serves several builders
// checks Accepts and clears the map when the builder changes. A node's
// operands always share its builder (Builder refuses others), so an owner
// that checks the node it starts a walk from may store every node below it.
//
// The zero NodeMap is empty and ready to use. A NodeMap is not safe for
// concurrent use.
type NodeMap[V any] struct {
	slots []nodeSlot[V]
	epoch uint32 // stamp of the live slots; 0 only while slots is empty
	home  uint32 // serial of the bound builder; 0 while unbound
}

type nodeSlot[V any] struct {
	val   V
	epoch uint32
}

// Accepts reports whether m may hold e: m is unbound or bound to e's
// builder.
func (m *NodeMap[V]) Accepts(e *Expr) bool { return m.home == 0 || m.home == e.home }

// Get returns the value stored for e since the last Clear.
func (m *NodeMap[V]) Get(e *Expr) (V, bool) {
	if e.id < uint64(len(m.slots)) && e.home == m.home {
		if s := &m.slots[e.id]; s.epoch == m.epoch {
			return s.val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores v for e, binding m to e's builder when m is unbound.
func (m *NodeMap[V]) Put(e *Expr, v V) {
	if e.home != m.home {
		if m.home != 0 {
			panic(fmt.Sprintf("expr: node %d (%s) of builder %d stored in a NodeMap bound to builder %d",
				e.id, e.Kind, e.home, m.home))
		}
		m.home = e.home
		if m.epoch == 0 {
			m.epoch = 1
		}
	}
	if n := uint64(len(m.slots)); e.id >= n {
		// New slots carry epoch 0, which is never live.
		slots := make([]nodeSlot[V], max(e.id+1, 2*n))
		copy(slots, m.slots)
		m.slots = slots
	}
	m.slots[e.id] = nodeSlot[V]{v, m.epoch}
}

// Len returns the number of entries, in time proportional to the number of
// slots m has grown.
func (m *NodeMap[V]) Len() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].epoch == m.epoch {
			n++
		}
	}
	return n
}

// Clear forgets every entry and unbinds m. It keeps the slots, so a map
// that is cleared and refilled allocates only to grow.
func (m *NodeMap[V]) Clear() {
	m.home = 0
	m.epoch++
	if m.epoch == 0 {
		clear(m.slots)
		m.epoch = 1
	}
}

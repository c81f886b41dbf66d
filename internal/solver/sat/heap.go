package sat

// heap is a max-heap of variables ordered by VSIDS activity, with position
// tracking so activities can be bumped in place (MiniSat's order heap). A
// variable moves past another only when its activity is strictly greater,
// so ties are broken by heap position.
type heap struct {
	s    *Solver
	data []int32 // variable indices
	pos  []int32 // variable -> index in data, -1 if absent
}

func (h *heap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, int32(v))
	h.up(len(h.data) - 1)
}

func (h *heap) pop() (int, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	h.data = h.data[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return int(v), true
}

// update restores the heap property after v's activity increased.
func (h *heap) update(v int) {
	if p := h.pos[v]; p >= 0 {
		h.up(int(p))
	}
}

// up moves the variable at index i toward the root past every ancestor of
// lower activity.
func (h *heap) up(i int) {
	act := h.s.activity
	v := h.data[i]
	av := act[v]
	for i > 0 {
		parent := (i - 1) / 2
		u := h.data[parent]
		if !(av > act[u]) {
			break
		}
		h.data[i] = u
		h.pos[u] = int32(i)
		i = parent
	}
	h.data[i] = v
	h.pos[v] = int32(i)
}

// down moves the variable at index i toward the leaves, each time past the
// child of higher activity (the left one on a tie) while that child's
// activity is higher than its own.
func (h *heap) down(i int) {
	act := h.s.activity
	v := h.data[i]
	av := act[v]
	n := len(h.data)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		u, au := h.data[c], act[h.data[c]]
		if r := c + 1; r < n && act[h.data[r]] > au {
			c, u, au = r, h.data[r], act[h.data[r]]
		}
		if !(au > av) {
			break
		}
		h.data[i] = u
		h.pos[u] = int32(i)
		i = c
	}
	h.data[i] = v
	h.pos[v] = int32(i)
}

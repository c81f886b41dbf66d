package core

import (
	"slices"

	"symmerge/internal/expr"
)

// OutEntry is one node of a state's output stream. The stream is
// persistent (Driscoll et al., "Making data structures persistent"): a node
// is never mutated after construction, so a fork shares its parent's
// stream by pointer, putchar adds one node, and a merge adds at most one.
//
// A node is a leaf, one byte putchar appended after prev, or a join: the
// two divergent parts of a merge, placed after the merged states' shared
// prefix prev. The zero stream (nil) has printed nothing.
type OutEntry struct {
	prev  *OutEntry
	val   *expr.Expr // leaf: the 8-bit value printed; nil on a join
	join  *outJoin   // join: the two parts; nil on a leaf
	depth int        // nodes from the start of the stream, this one included
}

// outJoin holds the two parts of a join. Part a is printed on the paths
// where c1 holds and part b where c2 holds; each part is a stream segment
// that ends at its state's last node and begins right after the join's
// prev, and an empty part is prev itself. A restored guarded byte is a join
// whose part b is empty (see stateFromWire).
type outJoin struct {
	c1, c2 *expr.Expr
	a, b   *OutEntry
}

// size returns the depth of the stream's last node, 0 for the empty stream.
func (o *OutEntry) size() int {
	if o == nil {
		return 0
	}
	return o.depth
}

// putOut returns stream o with byte v appended.
func putOut(o *OutEntry, v *expr.Expr) *OutEntry {
	return &OutEntry{prev: o, val: v, depth: o.size() + 1}
}

// joinOut merges s1's stream a, printed where c1 holds, with s2's stream b,
// printed where c2 holds. It walks both back by depth to their first common
// node, so it costs what the two states printed since they diverged. If
// neither side added anything past that node, the node is the result;
// otherwise one join after it.
func joinOut(a, b *OutEntry, c1, c2 *expr.Expr) *OutEntry {
	p, q := a, b
	for p.size() > q.size() {
		p = p.prev
	}
	for q.size() > p.size() {
		q = q.prev
	}
	for p != q {
		p, q = p.prev, q.prev
	}
	if a == p && b == p {
		return p
	}
	return &OutEntry{prev: p, join: &outJoin{c1: c1, c2: c2, a: a, b: b}, depth: p.size() + 1}
}

// emitOut returns the bytes stream o prints under ev's model. At a join it
// prints part a iff c1 holds, then part b iff c2 holds, checking each side
// on its own. Under a model of the state's path, or of one of its shadow
// paths, exactly one side of every join it reaches holds, because the two
// merged paths were disjoint.
func emitOut(ev *expr.Evaluator, o *OutEntry) []byte {
	out := emitRev(ev, o, nil, nil)
	slices.Reverse(out)
	return out
}

// emitRev appends to buf, last byte first, what the segment from n back to
// (not including) stop prints under ev's model. It recurses only into a
// join's part b: part a runs back through the join's prev, so the walk
// simply continues along it.
func emitRev(ev *expr.Evaluator, n, stop *OutEntry, buf []byte) []byte {
	for n != stop {
		j := n.join
		if j == nil {
			buf = append(buf, byte(ev.Eval(n.val)))
			n = n.prev
			continue
		}
		if j.b != n.prev && ev.Bool(j.c2) {
			buf = emitRev(ev, j.b, n.prev, buf)
		}
		if j.a != n.prev && ev.Bool(j.c1) {
			n = j.a
		} else {
			n = n.prev
		}
	}
	return buf
}

// wireOut flattens stream o into guarded entries in print order, adding
// their expressions to t. A byte's guard is the conjunction of the join
// conditions above it, nil when there are none, so an entry prints under a
// model iff its byte does. A lone condition is the guard itself: a
// restored stream, whose joins are one level deep, flattens back without
// building a node.
func wireOut(b *expr.Builder, t *expr.Table, o *OutEntry) []WireOut {
	var out []WireOut
	var conds []*expr.Expr
	var walk func(n, stop *OutEntry)
	part := func(c *expr.Expr, p, prev *OutEntry) {
		if p != prev {
			conds = append(conds, c)
			walk(p, prev)
			conds = conds[:len(conds)-1]
		}
	}
	walk = func(n, stop *OutEntry) {
		var guard *expr.Expr
		switch len(conds) {
		case 0:
		case 1:
			guard = conds[0]
		default:
			guard = b.AndN(conds)
		}
		for n != stop {
			if j := n.join; j != nil {
				// Last byte first, as in emitRev: part b, then part a.
				part(j.c2, j.b, n.prev)
				part(j.c1, j.a, n.prev)
			} else {
				out = append(out, WireOut{Guard: t.Ref(guard), Val: t.Ref(n.val)})
			}
			n = n.prev
		}
	}
	walk(o, nil)
	slices.Reverse(out)
	return out
}

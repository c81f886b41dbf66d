package expr

// The node-table codec: the wire form of an expression DAG. A Table lists
// every node after its kids, so a node's kid references always point
// backwards, and anything that refers to expressions stores the reference
// Table.Ref returns instead of a pointer. DecodeTable re-interns the table first to
// last through Intern, which validates each node's shape and hash-conses
// it WITHOUT re-running the rewrite rules. Skipping the rules is
// deliberate and safe: every encoded node was produced by a rule-running
// constructor, so it is already in canonical form, and re-canonicalizing
// could change node identity mid-table (a rewritten parent would reference
// kids that no longer exist in the encoded shape). Decoding a table into
// the builder that produced it yields pointer-identical nodes (a pure
// hash-cons hit per node) and mints none.

import (
	"fmt"
	"strconv"
)

// Node is one expression in a node table. Kids holds table indices of
// earlier nodes. The constant value travels as a decimal string: JSON
// numbers cannot carry a full uint64 through non-Go tooling without
// precision loss.
type Node struct {
	K    uint8    `json:"k"`
	W    uint8    `json:"w,omitempty"`
	A    uint16   `json:"a,omitempty"`
	V    string   `json:"v,omitempty"`
	N    string   `json:"n,omitempty"`
	Kids []uint32 `json:"c,omitempty"`
}

// Table accumulates a node table in one pass over the expressions it is
// asked to reference. The zero Table is empty and ready to use.
type Table struct {
	Nodes []Node
	index map[*Expr]uint32
}

// Ref returns e's reference in the table, appending e after its kids on
// first sight: 0 stands for nil, and r for Nodes[r-1].
func (t *Table) Ref(e *Expr) uint32 {
	if e == nil {
		return 0
	}
	if r, ok := t.index[e]; ok {
		return r
	}
	if t.index == nil {
		t.index = map[*Expr]uint32{}
	}
	n := Node{K: uint8(e.Kind), W: e.Width, A: e.Aux, N: e.Name}
	if e.Kind == KConst && e.Val != 0 {
		n.V = strconv.FormatUint(e.Val, 10)
	}
	if len(e.Kids) > 0 {
		n.Kids = make([]uint32, len(e.Kids))
		for i, k := range e.Kids {
			n.Kids[i] = t.Ref(k) - 1
		}
	}
	t.Nodes = append(t.Nodes, n)
	r := uint32(len(t.Nodes))
	t.index[e] = r
	return r
}

// DecodeTable re-interns nodes through b, first to last, and returns the
// expression of each table entry. A kid reference that does not point at
// an earlier entry, or a node Intern refuses, fails the whole table.
func DecodeTable(b *Builder, nodes []Node) ([]*Expr, error) {
	exprs := make([]*Expr, len(nodes))
	var kids []*Expr
	for i, n := range nodes {
		var val uint64
		if n.V != "" {
			v, err := strconv.ParseUint(n.V, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("node %d: bad value %q", i, n.V)
			}
			val = v
		}
		kids = kids[:0]
		for _, r := range n.Kids {
			if int64(r) >= int64(i) {
				return nil, fmt.Errorf("node %d: kid %d is not a predecessor", i, r)
			}
			kids = append(kids, exprs[r])
		}
		e, err := b.Intern(Kind(n.K), n.W, val, n.A, n.N, kids)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		exprs[i] = e
	}
	return exprs, nil
}

// Intern reconstructs one decoded node: it validates the operator's arity
// and sort constraints (a corrupt snapshot must fail loudly here, not crash
// the engine later) and hash-conses the node as-is. Kids must already be
// interned in this builder; the slice is not retained.
func (b *Builder) Intern(kind Kind, width uint8, val uint64, aux uint16, name string, kids []*Expr) (*Expr, error) {
	if kind >= numKinds {
		return nil, fmt.Errorf("expr: intern: unknown kind %d", uint8(kind))
	}
	if width > 64 {
		return nil, fmt.Errorf("expr: intern: %s width %d out of range", kind, width)
	}
	for i, k := range kids {
		if k == nil {
			return nil, fmt.Errorf("expr: intern: %s kid %d is nil", kind, i)
		}
	}
	nkids := func(n int) error {
		if len(kids) != n {
			return fmt.Errorf("expr: intern: %s wants %d kids, got %d", kind, n, len(kids))
		}
		return nil
	}
	boolKids := func() error {
		for _, k := range kids {
			if !k.IsBool() {
				return fmt.Errorf("expr: intern: %s on non-bool kid %s", kind, k)
			}
		}
		return nil
	}
	sameBVKids := func(w uint8) error {
		for _, k := range kids {
			if k.Width != w || w == 0 {
				return fmt.Errorf("expr: intern: %s kid width %d, want %d", kind, k.Width, w)
			}
		}
		return nil
	}

	var err error
	switch kind {
	case KConst:
		err = nkids(0)
		val = truncate(val, width)
	case KVar:
		err = nkids(0)
		if name == "" {
			err = fmt.Errorf("expr: intern: variable without a name")
		}
	case KNot:
		if err = nkids(1); err == nil {
			err = boolKids()
		}
		width = 0
	case KAnd, KOr:
		if len(kids) < 2 {
			err = fmt.Errorf("expr: intern: %s wants >= 2 kids, got %d", kind, len(kids))
		} else {
			err = boolKids()
		}
		width = 0
	case KEq:
		if err = nkids(2); err == nil && kids[0].Width != kids[1].Width {
			err = fmt.Errorf("expr: intern: = width mismatch %d vs %d", kids[0].Width, kids[1].Width)
		}
		width = 0
	case KUlt, KUle, KSlt, KSle:
		if err = nkids(2); err == nil {
			err = sameBVKids(kids[0].Width)
		}
		width = 0
	case KAdd, KSub, KMul, KUDiv, KURem, KSDiv, KSRem,
		KBAnd, KBOr, KBXor, KShl, KLShr, KAShr:
		if err = nkids(2); err == nil {
			err = sameBVKids(width)
		}
	case KBNot, KNeg:
		if err = nkids(1); err == nil {
			err = sameBVKids(width)
		}
	case KZExt:
		if err = nkids(1); err == nil {
			if uint16(kids[0].Width) != aux || width <= kids[0].Width || kids[0].Width == 0 {
				err = fmt.Errorf("expr: intern: %s %d -> %d (aux %d) invalid", kind, kids[0].Width, width, aux)
			}
		}
	case KExtract:
		if err = nkids(1); err == nil {
			if width == 0 || int(aux)+int(width) > int(kids[0].Width) {
				err = fmt.Errorf("expr: intern: extract [%d+%d] of width-%d", aux, width, kids[0].Width)
			}
		}
	case KIte:
		if err = nkids(3); err == nil {
			if !kids[0].IsBool() || kids[1].Width != width || kids[2].Width != width {
				err = fmt.Errorf("expr: intern: ite sorts (%d ? %d : %d) -> %d invalid",
					kids[0].Width, kids[1].Width, kids[2].Width, width)
			}
		}
	default:
		// A reserved number (retiredKinds): no constructor builds the
		// kind, so no snapshot this program wrote can name it.
		err = fmt.Errorf("expr: intern: kind %d (%s) is retired", uint8(kind), retiredKinds[kind])
	}
	if err != nil {
		return nil, err
	}
	// Zero the fields the operator does not use, so stray bytes in a
	// snapshot cannot mint a node that is structurally distinct from (but
	// semantically identical to) the canonical one.
	if kind != KConst {
		val = 0
	}
	if kind != KVar {
		name = ""
	}
	if kind != KZExt && kind != KExtract {
		aux = 0
	}
	return b.mk(&Expr{Kind: kind, Width: width, Val: val, Aux: aux, Name: name, Kids: kids}), nil
}

package expr

import (
	"fmt"
	"sync/atomic"
)

// Env assigns concrete values to variables for evaluation. Values are stored
// truncated to the variable's width; booleans as 0/1. Missing variables
// evaluate to zero (the solver's convention for don't-care variables).
type Env map[*Expr]uint64

// Eval computes the concrete value of e under env. It is the reference
// semantics: the simplifier, the bit-blaster, and the engine's concrete fast
// paths are all tested against it. Boolean results are 0/1.
//
// Eval and EvalBool reuse one package-level Evaluator and Reset it, so a
// call costs the nodes it evaluates, not the size of e's builder: the
// spare evaluator's memo has already grown, and Reset forgets it in O(1).
// A call that finds the spare taken by a concurrent one makes its own.
func Eval(e *Expr, env Env) uint64 {
	ev := spareEvaluator.Swap(nil)
	if ev == nil {
		ev = new(Evaluator)
	}
	ev.Reset(env)
	v := ev.Eval(e)
	ev.Env = nil
	spareEvaluator.Store(ev)
	return v
}

// EvalBool evaluates a boolean expression under env (see Eval).
func EvalBool(e *Expr, env Env) bool {
	if !e.IsBool() {
		panic("expr: EvalBool on non-bool expression")
	}
	return Eval(e, env) != 0
}

// spareEvaluator is the evaluator Eval reuses; nil while a call holds it.
var spareEvaluator atomic.Pointer[Evaluator]

// Evaluator evaluates expressions under one environment and memoizes every
// node value it computes, so expressions sharing subterms (merged ite
// chains, a growing path condition) are each walked once across calls. The
// memo is a NodeMap: a slot per node ID of one builder. It is valid only
// while Env is unchanged; Reset installs a new environment and forgets the
// memo in O(1), so an owner keeps one Evaluator and resets it rather than
// making one per environment. A call on a node of another builder than the
// memo's forgets the memo first, so one Evaluator may serve several
// builders, at the cost of its memo on every switch. The zero Evaluator
// has an empty memo, so Evaluator{Env: env} is ready to use.
type Evaluator struct {
	Env  Env
	memo NodeMap[uint64]
}

// Reset makes env the evaluator's environment and forgets every memoized
// value.
func (ev *Evaluator) Reset(env Env) {
	ev.Env = env
	ev.memo.Clear()
}

// Eval computes the concrete value of e (see the package-level Eval).
func (ev *Evaluator) Eval(e *Expr) uint64 {
	if !ev.memo.Accepts(e) {
		ev.memo.Clear()
	}
	return ev.eval(e)
}

// Bool evaluates a boolean expression.
func (ev *Evaluator) Bool(e *Expr) bool {
	if !e.IsBool() {
		panic("expr: EvalBool on non-bool expression")
	}
	return ev.Eval(e) != 0
}

func (ev *Evaluator) eval(e *Expr) uint64 {
	if e.Kind == KConst {
		return e.Val // cheaper than the memo probe
	}
	if v, ok := ev.memo.Get(e); ok {
		return v
	}
	var v uint64
	switch e.Kind {
	case KVar:
		v = truncate(ev.Env[e], e.Width)
	case KNot:
		v = 1 - ev.eval(e.Kids[0])
	case KAnd:
		// n-ary conjunction: all kids must hold.
		v = 1
		for _, k := range e.Kids {
			v &= ev.eval(k)
		}
	case KOr:
		// n-ary disjunction: any kid suffices.
		v = 0
		for _, k := range e.Kids {
			v |= ev.eval(k)
		}
	case KEq:
		v = boolVal(ev.eval(e.Kids[0]) == ev.eval(e.Kids[1]))
	case KUlt:
		v = boolVal(ev.eval(e.Kids[0]) < ev.eval(e.Kids[1]))
	case KUle:
		v = boolVal(ev.eval(e.Kids[0]) <= ev.eval(e.Kids[1]))
	case KSlt:
		w := e.Kids[0].Width
		v = boolVal(int64(signExtend(ev.eval(e.Kids[0]), w)) <
			int64(signExtend(ev.eval(e.Kids[1]), w)))
	case KSle:
		w := e.Kids[0].Width
		v = boolVal(int64(signExtend(ev.eval(e.Kids[0]), w)) <=
			int64(signExtend(ev.eval(e.Kids[1]), w)))
	case KAdd:
		v = truncate(ev.eval(e.Kids[0])+ev.eval(e.Kids[1]), e.Width)
	case KSub:
		v = truncate(ev.eval(e.Kids[0])-ev.eval(e.Kids[1]), e.Width)
	case KMul:
		v = truncate(ev.eval(e.Kids[0])*ev.eval(e.Kids[1]), e.Width)
	case KUDiv:
		a, c := ev.eval(e.Kids[0]), ev.eval(e.Kids[1])
		if c == 0 {
			v = mask(e.Width)
		} else {
			v = a / c
		}
	case KURem:
		a, c := ev.eval(e.Kids[0]), ev.eval(e.Kids[1])
		if c == 0 {
			v = a
		} else {
			v = a % c
		}
	case KSDiv:
		w := e.Width
		sa := int64(signExtend(ev.eval(e.Kids[0]), w))
		sc := int64(signExtend(ev.eval(e.Kids[1]), w))
		switch {
		case sc == 0 && sa < 0:
			v = 1
		case sc == 0:
			v = mask(w)
		case sa == -1<<63 && sc == -1:
			v = uint64(sa)
		default:
			v = truncate(uint64(sa/sc), w)
		}
	case KSRem:
		w := e.Width
		sa := int64(signExtend(ev.eval(e.Kids[0]), w))
		sc := int64(signExtend(ev.eval(e.Kids[1]), w))
		switch {
		case sc == 0:
			v = truncate(uint64(sa), w)
		case sa == -1<<63 && sc == -1:
			v = 0
		default:
			v = truncate(uint64(sa%sc), w)
		}
	case KBAnd:
		v = ev.eval(e.Kids[0]) & ev.eval(e.Kids[1])
	case KBOr:
		v = ev.eval(e.Kids[0]) | ev.eval(e.Kids[1])
	case KBXor:
		v = ev.eval(e.Kids[0]) ^ ev.eval(e.Kids[1])
	case KBNot:
		v = truncate(^ev.eval(e.Kids[0]), e.Width)
	case KNeg:
		v = truncate(-ev.eval(e.Kids[0]), e.Width)
	case KShl:
		a, c := ev.eval(e.Kids[0]), ev.eval(e.Kids[1])
		if c >= uint64(e.Width) {
			v = 0
		} else {
			v = truncate(a<<c, e.Width)
		}
	case KLShr:
		a, c := ev.eval(e.Kids[0]), ev.eval(e.Kids[1])
		if c >= uint64(e.Width) {
			v = 0
		} else {
			v = a >> c
		}
	case KAShr:
		a, c := ev.eval(e.Kids[0]), ev.eval(e.Kids[1])
		sa := int64(signExtend(a, e.Width))
		if c >= uint64(e.Width) {
			c = uint64(e.Width) - 1
		}
		v = truncate(uint64(sa>>c), e.Width)
	case KZExt:
		v = ev.eval(e.Kids[0])
	case KExtract:
		v = truncate(ev.eval(e.Kids[0])>>e.Aux, e.Width)
	case KIte:
		if ev.eval(e.Kids[0]) != 0 {
			v = ev.eval(e.Kids[1])
		} else {
			v = ev.eval(e.Kids[2])
		}
	default:
		panic(fmt.Sprintf("expr: eval of unknown kind %v", e.Kind))
	}
	ev.memo.Put(e, v)
	return v
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

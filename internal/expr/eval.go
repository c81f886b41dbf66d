package expr

import "fmt"

// Env assigns concrete values to variables for evaluation. Values are stored
// truncated to the variable's width; booleans as 0/1. Missing variables
// evaluate to zero (the solver's convention for don't-care variables).
type Env map[*Expr]uint64

// Eval computes the concrete value of e under env. It is the reference
// semantics: the simplifier, the bit-blaster, and the engine's concrete fast
// paths are all tested against it. Boolean results are 0/1.
func Eval(e *Expr, env Env) uint64 {
	ev := Evaluator{Env: env}
	return ev.Eval(e)
}

// EvalBool evaluates a boolean expression under env.
func EvalBool(e *Expr, env Env) bool {
	ev := Evaluator{Env: env}
	return ev.Bool(e)
}

// Evaluator evaluates expressions under one environment and memoizes every
// node value it computes, so expressions sharing subterms (merged ite
// chains, a growing path condition) are each walked once across calls. The
// memo is valid only while Env is unchanged: an owner that mutates Env must
// start a new Evaluator. The zero memo is allocated on first use, so
// Evaluator{Env: env} is ready to use.
type Evaluator struct {
	Env  Env
	memo map[*Expr]uint64
}

// Eval computes the concrete value of e (see the package-level Eval).
func (ev *Evaluator) Eval(e *Expr) uint64 {
	if ev.memo == nil {
		ev.memo = make(map[*Expr]uint64)
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
	if v, ok := ev.memo[e]; ok {
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
	case KXor:
		v = ev.eval(e.Kids[0]) ^ ev.eval(e.Kids[1])
	case KImplies:
		v = (1 - ev.eval(e.Kids[0])) | ev.eval(e.Kids[1])
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
	case KSExt:
		v = truncate(signExtend(ev.eval(e.Kids[0]), uint8(e.Aux)), e.Width)
	case KExtract:
		v = truncate(ev.eval(e.Kids[0])>>e.Aux, e.Width)
	case KConcat:
		hi, lo := e.Kids[0], e.Kids[1]
		v = ev.eval(hi)<<lo.Width | ev.eval(lo)
	case KIte:
		if ev.eval(e.Kids[0]) != 0 {
			v = ev.eval(e.Kids[1])
		} else {
			v = ev.eval(e.Kids[2])
		}
	default:
		panic(fmt.Sprintf("expr: eval of unknown kind %v", e.Kind))
	}
	ev.memo[e] = v
	return v
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

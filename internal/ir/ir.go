// Package ir defines the three-address register IR that the MiniC compiler
// targets and the symbolic execution engine interprets.
//
// A program is a set of functions; each function is a flat list of
// instructions addressed by index. A location in the sense of the paper's
// Algorithm 1 is a (function, instruction index) pair. Branch targets are
// instruction indices, so every instruction boundary is a potential merge
// point.
//
// Scalar values are 32-bit ints, 8-bit bytes, booleans, and 32-bit heap
// pointers. Arrays are fixed-size and referenced by handle: an array-typed
// local holds a reference to a memory object owned by the executing state.
// Dynamically allocated objects live on a separate heap of 32-bit cells:
// OpAlloc mints allocation-site-canonical addresses (see the Heap*
// constants) and OpPtrLoad/OpPtrStore dereference them, so pointer
// arithmetic is plain 32-bit arithmetic on addresses. The symbolic command
// line (argv) and stdin are exposed through dedicated opcodes, mirroring how
// the paper's evaluation marks program inputs symbolic without modelling a
// full OS environment.
package ir

import (
	"fmt"
	"strings"
)

// TypeKind enumerates the scalar and array types of MiniC.
type TypeKind uint8

// Type kinds.
const (
	Void TypeKind = iota
	Bool
	Byte // 8-bit unsigned
	Int  // 32-bit signed
	Ptr  // 32-bit heap address (see the heap addressing constants below)
	ArrayByte
	ArrayInt
)

// Type is a MiniC type: a kind plus an element count for arrays.
type Type struct {
	Kind TypeKind
	Len  int // number of elements for array kinds
}

// Scalar reports whether the type is bool, byte, int or ptr.
func (t Type) Scalar() bool {
	return t.Kind == Bool || t.Kind == Byte || t.Kind == Int || t.Kind == Ptr
}

// Array reports whether the type is an array.
func (t Type) Array() bool { return t.Kind == ArrayByte || t.Kind == ArrayInt }

// Elem returns the element type of an array type.
func (t Type) Elem() Type {
	switch t.Kind {
	case ArrayByte:
		return Type{Kind: Byte}
	case ArrayInt:
		return Type{Kind: Int}
	}
	panic("ir: Elem of non-array type")
}

// Width returns the bit width of a scalar type (bool is 1 solver-side but
// tracked as width 0 expressions; Width reports the storage width).
func (t Type) Width() uint8 {
	switch t.Kind {
	case Bool:
		return 1
	case Byte:
		return 8
	case Int, Ptr:
		return 32
	}
	panic(fmt.Sprintf("ir: Width of non-scalar type %v", t))
}

func (t Type) String() string {
	switch t.Kind {
	case Void:
		return "void"
	case Bool:
		return "bool"
	case Byte:
		return "byte"
	case Int:
		return "int"
	case Ptr:
		return "ptr"
	case ArrayByte:
		return fmt.Sprintf("byte[%d]", t.Len)
	case ArrayInt:
		return fmt.Sprintf("int[%d]", t.Len)
	}
	return "?"
}

// Local is a function-local register (parameters included).
type Local struct {
	Name string
	Type Type
}

// Operand is either a constant or a local register reference.
type Operand struct {
	IsConst bool
	Const   int64 // constant value (for bool: 0/1)
	Local   int   // register index when !IsConst
}

// ConstOp returns a constant operand.
func ConstOp(v int64) Operand { return Operand{IsConst: true, Const: v} }

// LocalOp returns a register operand.
func LocalOp(idx int) Operand { return Operand{Local: idx} }

// Op enumerates instruction opcodes.
type Op uint8

// Instruction opcodes.
const (
	OpNop Op = iota

	// Dst = UnOp A
	OpMov
	OpNot  // boolean not
	OpNeg  // arithmetic negation
	OpBNot // bitwise complement

	// Dst = A BinOp B
	OpAdd
	OpSub
	OpMul
	OpDiv // signed for Int, unsigned for Byte
	OpRem
	OpAnd // bitwise
	OpOrB
	OpXor
	OpShl
	OpShr // arithmetic for Int, logical for Byte
	OpEq
	OpNe
	OpLt // signed for Int, unsigned for Byte
	OpLe
	OpBoolAnd // strict (non-short-circuit) boolean ops
	OpBoolOr

	// Conversions: Dst = conv(A).
	OpIntToByte
	OpByteToInt
	OpBoolToInt

	// Memory: arrays are locals of array type.
	OpLoad  // Dst = Arr[Idx]
	OpStore // Arr[Idx] = Val

	// Heap: dynamically allocated objects of 32-bit cells addressed through
	// ptr values (see the Heap* constants for the address encoding).
	OpAlloc    // Dst = base address of a fresh A-cell object at site Site
	OpPtrLoad  // Dst = heap cell at address A (0 when unmapped/out of bounds)
	OpPtrStore // heap cell at address A = B (dropped when unmapped/out of bounds)

	// Control flow.
	OpBr     // unconditional jump to Target
	OpCondBr // if Cond then Target else FTarget
	OpCall   // Dst? = Funcs[Callee](Args...)
	OpRet    // return A? (A valid if HasVal)

	// Environment and checking.
	OpArgc    // Dst = number of command line arguments (incl. program name)
	OpArgChar // Dst = argv[A][B] as byte (0 beyond the terminator)
	OpStdin   // Dst = stdin[A] as byte (0 beyond end)
	OpStdinLen
	OpOut        // emit byte A to the program's output stream
	OpAssert     // abort the path if A is false
	OpAssume     // constrain the path condition with A
	OpHalt       // terminate the program (exit code A if HasVal)
	OpSymInt     // Dst = fresh symbolic int input
	OpSymByte    // Dst = fresh symbolic byte input
	OpSymBool    // Dst = fresh symbolic bool input
	OpMakeSymArr // make the array local A fully symbolic

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpMov: "mov", OpNot: "not", OpNeg: "neg", OpBNot: "bnot",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOrB: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le",
	OpBoolAnd: "band", OpBoolOr: "bor",
	OpIntToByte: "i2b", OpByteToInt: "b2i", OpBoolToInt: "bool2i",
	OpLoad: "load", OpStore: "store",
	OpAlloc: "alloc", OpPtrLoad: "pload", OpPtrStore: "pstore",
	OpBr: "br", OpCondBr: "condbr", OpCall: "call", OpRet: "ret",
	OpArgc: "argc", OpArgChar: "argchar", OpStdin: "stdin", OpStdinLen: "stdinlen",
	OpOut: "out", OpAssert: "assert", OpAssume: "assume", OpHalt: "halt",
	OpSymInt: "symint", OpSymByte: "symbyte", OpSymBool: "symbool",
	OpMakeSymArr: "symarr",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is a single three-address instruction.
type Instr struct {
	Op      Op
	Dst     int     // destination register, -1 if none
	A, B    Operand // operands (meaning depends on Op)
	Target  int     // branch target (OpBr, OpCondBr true-arm)
	FTarget int     // OpCondBr false-arm
	Callee  int     // function index for OpCall
	Site    int     // allocation-site index for OpAlloc (program-wide)
	Args    []Operand
	HasVal  bool   // OpRet/OpHalt carry a value
	Msg     string // OpAssert message
	Pos     Pos    // source position for diagnostics
	T       Type   // operand scalar type (signedness/width) for arithmetic,
	// comparisons, loads and stores
}

// Pos is a source location.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Func is a compiled function.
type Func struct {
	Name   string
	Index  int // position in Program.Funcs
	Params int // first Params locals are the parameters
	Ret    Type
	Locals []Local
	Instrs []Instr
}

// Program is a compiled MiniC program.
type Program struct {
	Funcs  []*Func
	ByName map[string]*Func
	Main   *Func
	Source string // original source text, for diagnostics
	// AllocSites is the number of distinct OpAlloc instructions; execution
	// engines size their per-site allocation counters with it.
	AllocSites int
}

// Heap addressing. A ptr value is a 32-bit address whose high 16 bits name a
// heap object and whose low 16 bits are a cell offset into it. The object
// field stores objectID+1, so the null pointer 0 (and any address with a zero
// object field) maps to no object. Object IDs are allocation-site-canonical:
// id = site*HeapSiteSpan + n for the n-th allocation executed at that site
// along the current path. Two execution states forked from a common prefix
// therefore assign the same address to "the next allocation at site s", which
// is what makes heap-carrying states mergeable, and lets the independent
// concrete interpreter agree with the symbolic engine byte-for-byte.
const (
	HeapOffBits  = 16               // low bits: cell offset within the object
	HeapMaxCells = 1 << HeapOffBits // maximum cells per object
	HeapSiteSpan = 256              // allocations per site before overflow
	HeapMaxID    = (1 << 16) - 2    // ids above this cannot be encoded (+1 wraps)
)

// HeapBase returns the base address of the n-th object allocated at site.
func HeapBase(site, n int) uint32 {
	return uint32(site*HeapSiteSpan+n+1) << HeapOffBits
}

// HeapObjField extracts the object field (objectID+1; 0 = no object).
func HeapObjField(addr uint32) uint32 { return addr >> HeapOffBits }

// HeapOffset extracts the cell offset.
func HeapOffset(addr uint32) uint32 { return addr & (HeapMaxCells - 1) }

// Loc is a program location: the paper's ℓ.
type Loc struct {
	Fn int // function index
	PC int // instruction index
}

func (l Loc) String() string { return fmt.Sprintf("%d:%d", l.Fn, l.PC) }

// NumLocations returns the total number of (function, pc) locations,
// used to size coverage bitmaps.
func (p *Program) NumLocations() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Instrs)
	}
	return n
}

// LocIndex flattens a location into a dense index for coverage bitmaps.
func (p *Program) LocIndex(l Loc) int {
	idx := 0
	for i := 0; i < l.Fn; i++ {
		idx += len(p.Funcs[i].Instrs)
	}
	return idx + l.PC
}

// opFormat returns a human-readable operand rendering.
func (f *Func) operandString(o Operand) string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Const)
	}
	if o.Local >= 0 && o.Local < len(f.Locals) {
		return fmt.Sprintf("%%%s", f.Locals[o.Local].Name)
	}
	return fmt.Sprintf("%%r%d", o.Local)
}

// String disassembles the function.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i := 0; i < f.Params; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Locals[i].Name, f.Locals[i].Type)
	}
	fmt.Fprintf(&b, ") %s {\n", f.Ret)
	for pc, in := range f.Instrs {
		fmt.Fprintf(&b, "  %3d: %s", pc, in.Op)
		if in.Dst >= 0 {
			fmt.Fprintf(&b, " %s <-", f.operandString(LocalOp(in.Dst)))
		}
		switch in.Op {
		case OpBr:
			fmt.Fprintf(&b, " @%d", in.Target)
		case OpCondBr:
			fmt.Fprintf(&b, " %s @%d @%d", f.operandString(in.A), in.Target, in.FTarget)
		case OpCall:
			fmt.Fprintf(&b, " fn#%d(", in.Callee)
			for i, a := range in.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(f.operandString(a))
			}
			b.WriteString(")")
		case OpRet, OpHalt:
			if in.HasVal {
				fmt.Fprintf(&b, " %s", f.operandString(in.A))
			}
		case OpLoad:
			fmt.Fprintf(&b, " %s[%s]", f.operandString(in.A), f.operandString(in.B))
		case OpStore:
			// For store: Dst is the array local, A the index, B the value.
			fmt.Fprintf(&b, " [%s] = %s", f.operandString(in.A), f.operandString(in.B))
		default:
			if in.Op != OpNop {
				fmt.Fprintf(&b, " %s", f.operandString(in.A))
				switch in.Op {
				case OpMov, OpNot, OpNeg, OpBNot, OpIntToByte, OpByteToInt,
					OpBoolToInt, OpArgc, OpStdinLen, OpOut, OpAssert, OpAssume,
					OpSymInt, OpSymByte, OpSymBool, OpMakeSymArr,
					OpAlloc, OpPtrLoad:
				default:
					fmt.Fprintf(&b, ", %s", f.operandString(in.B))
				}
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String()
}

// String disassembles the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}

// IsBranch reports whether the instruction can transfer control to more than
// one successor (the paper's "if(e) goto ℓ'").
func (i *Instr) IsBranch() bool { return i.Op == OpCondBr }

// IsTerminator reports whether control does not fall through.
func (i *Instr) IsTerminator() bool {
	switch i.Op {
	case OpBr, OpCondBr, OpRet, OpHalt:
		return true
	}
	return false
}

// Successors appends the possible next PCs within the same function.
// Ret/Halt have no intraprocedural successors.
func (i *Instr) Successors(pc int, out []int) []int {
	switch i.Op {
	case OpBr:
		return append(out, i.Target)
	case OpCondBr:
		return append(out, i.Target, i.FTarget)
	case OpRet, OpHalt:
		return out
	default:
		return append(out, pc+1)
	}
}

package analysis_test

import (
	"strings"
	"testing"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/ir"
	"symmerge/internal/lang"
)

func compile(t *testing.T, src string) (*ir.Program, *analysis.Program) {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p, analysis.Analyze(p)
}

func funcByName(t *testing.T, p *ir.Program, name string) int {
	t.Helper()
	for i, fn := range p.Funcs {
		if fn.Name == name {
			return i
		}
	}
	t.Fatalf("no function %q", name)
	return -1
}

func localByName(t *testing.T, fn *ir.Func, name string) int {
	t.Helper()
	for i, l := range fn.Locals {
		if l.Name == name {
			return i
		}
	}
	t.Fatalf("no local %q in %s", name, fn.Name)
	return -1
}

// opPCs returns the pcs of every instruction with the given opcode.
func opPCs(fn *ir.Func, op ir.Op) []int {
	var out []int
	for pc := range fn.Instrs {
		if fn.Instrs[pc].Op == op {
			out = append(out, pc)
		}
	}
	return out
}

func TestBranchVerdicts(t *testing.T) {
	p, ap := compile(t, `
void main() {
    int x = 3;
    if (x < 5) { putchar('a'); } else { putchar('b'); }
    int y = toint(argchar(1, 0));
    if (y < 0) { putchar('c'); }
    if (y < 100) { putchar('d'); }
    halt(0);
}
`)
	ff := ap.Funcs[funcByName(t, p, "main")]
	brs := opPCs(ff.Fn, ir.OpCondBr)
	if len(brs) != 3 {
		t.Fatalf("got %d conditional branches, want 3", len(brs))
	}
	want := []analysis.Verdict{analysis.VTrue, analysis.VFalse, analysis.VUnknown}
	for i, pc := range brs {
		if ff.Branch[pc] != want[i] {
			t.Errorf("branch %d (pc %d): verdict %v, want %v", i, pc, ff.Branch[pc], want[i])
		}
	}
}

func TestIndexInBoundsInCountedLoop(t *testing.T) {
	p, ap := compile(t, `
void main() {
    int buf[4];
    for (int i = 0; i < 4; i++) {
        buf[i] = i;
    }
    int j = toint(argchar(1, 0));
    int v = buf[j & 3];
    int w = buf[j];
    putchar(tobyte((v + w) & 255));
    halt(0);
}
`)
	ff := ap.Funcs[funcByName(t, p, "main")]
	stores := opPCs(ff.Fn, ir.OpStore)
	if len(stores) != 1 {
		t.Fatalf("got %d stores, want 1", len(stores))
	}
	// OpStore's index is operand A: i refined to [0,3] inside the loop.
	if pc := stores[0]; !ff.IndexInBounds(pc, ff.Fn.Instrs[pc].A, 4) {
		t.Errorf("loop store index not proven in [0,4) at pc %d", pc)
	}
	loads := opPCs(ff.Fn, ir.OpLoad)
	if len(loads) != 2 {
		t.Fatalf("got %d loads, want 2", len(loads))
	}
	// buf[j & 3] masks into range; OpLoad's index is operand B.
	if pc := loads[0]; !ff.IndexInBounds(pc, ff.Fn.Instrs[pc].B, 4) {
		t.Errorf("masked load index not proven in [0,4) at pc %d", pc)
	}
	// buf[j] ranges over the whole byte: not provable.
	if pc := loads[1]; ff.IndexInBounds(pc, ff.Fn.Instrs[pc].B, 4) {
		t.Errorf("unbounded load index wrongly proven in bounds at pc %d", pc)
	}
}

func TestPtrSiteConstantOffsets(t *testing.T) {
	p, ap := compile(t, `
void main() {
    ptr h = alloc(4);
    h[1] = 7;
    int x = h[1];
    int j = toint(argchar(1, 0));
    int y = h[j];
    putchar(tobyte((x + y) & 255));
    halt(0);
}
`)
	ff := ap.Funcs[funcByName(t, p, "main")]
	if pcs := opPCs(ff.Fn, ir.OpPtrStore); len(pcs) != 1 {
		t.Fatalf("got %d ptr stores", len(pcs))
	} else if site := ap.PtrSite(ff, pcs[0], ff.Fn.Instrs[pcs[0]].A); site < 0 {
		t.Error("constant-offset ptr store not resolved to its site")
	}
	loads := opPCs(ff.Fn, ir.OpPtrLoad)
	if len(loads) != 2 {
		t.Fatalf("got %d ptr loads, want 2", len(loads))
	}
	if site := ap.PtrSite(ff, loads[0], ff.Fn.Instrs[loads[0]].A); site < 0 {
		t.Error("h[1] load not resolved to its site")
	}
	// h[j] with j in [0,255] escapes the 4-cell object: must stay unproven.
	if site := ap.PtrSite(ff, loads[1], ff.Fn.Instrs[loads[1]].A); site >= 0 {
		t.Errorf("h[j] load wrongly proven in-object (site %d)", site)
	}
}

// TestPointerLoopConverges is the regression for the widening bug that hung
// the sort model: a pointer advanced inside a loop climbs its origin offset
// each round, and Widen must drop the origin to unknown instead of letting
// the fixpoint ascend one cell at a time.
func TestPointerLoopConverges(t *testing.T) {
	src := `
void main() {
    int n = toint(argchar(1, 0));
    ptr buf = alloc(300);
    ptr q = buf;
    for (int i = 0; i < n; i++) {
        q[0] = i;
        q = q + 1;
    }
    putchar(tobyte(buf[0] & 255));
    halt(0);
}
`
	done := make(chan struct{})
	go func() {
		p, err := lang.Compile(src)
		if err != nil {
			t.Error(err)
		} else {
			analysis.Analyze(p)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("interval fixpoint did not converge on a pointer-increment loop")
	}
}

func TestLivenessFullOverwriteKill(t *testing.T) {
	p, ap := compile(t, `
void main() {
    int buf[4];
    int s = toint(argchar(1, 0));
    for (int i = 0; i < 4; i++) {
        buf[i] = s;
    }
    int v = buf[2];
    putchar(tobyte(v & 255));
    halt(0);
}
`)
	ff := ap.Funcs[funcByName(t, p, "main")]
	arr := localByName(t, ff.Fn, "buf")
	// Before the loop the array is fully overwritten before any read:
	// dead at the argchar prefix despite the in-loop stores "using" it.
	pre := opPCs(ff.Fn, ir.OpArgChar)
	if len(pre) != 1 {
		t.Fatalf("got %d argchar instrs", len(pre))
	}
	if ff.Live[pre[0]][arr] {
		t.Error("fully-overwritten array still live before the loop")
	}
	// Inside the loop the partially-written array is live (low cells
	// survive to the post-loop read).
	stores := opPCs(ff.Fn, ir.OpStore)
	if len(stores) != 1 {
		t.Fatalf("got %d stores", len(stores))
	}
	if !ff.Live[stores[0]][arr] {
		t.Error("array dead inside the overwriting loop (unsound)")
	}
	// The scalar s is live before the loop (read by every store).
	if !ff.Live[stores[0]][localByName(t, ff.Fn, "s")] {
		t.Error("stored scalar not live at the store")
	}
}

func TestFactDumpsRender(t *testing.T) {
	p, ap := compile(t, `
void main() {
    int x = 1;
    for (int i = 0; i < 3; i++) {
        x = x + i;
    }
    putchar(tobyte(x & 255));
    halt(0);
}
`)
	ff := ap.Funcs[funcByName(t, p, "main")]
	iv := ff.IntervalsString()
	if !strings.Contains(iv, "intervals:") || !strings.Contains(iv, "i=[") {
		t.Errorf("intervals dump missing loop facts:\n%s", iv)
	}
	lv := ff.LivenessString()
	if !strings.Contains(lv, "liveness:") {
		t.Errorf("liveness dump malformed:\n%s", lv)
	}
}

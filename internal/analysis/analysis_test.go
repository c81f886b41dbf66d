package analysis_test

import (
	"strings"
	"testing"

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
	lv := ff.LivenessString()
	if !strings.Contains(lv, "liveness:") {
		t.Errorf("liveness dump malformed:\n%s", lv)
	}
}

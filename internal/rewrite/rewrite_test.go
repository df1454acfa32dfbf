package rewrite_test

import (
	"bytes"
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/rewrite"
)

// buildCounter builds demo/C with a static int "hits" and a static
// bump()V that increments it, plus the method under test.
func buildCounterClass(body func(m *classgen.MethodBuilder)) *classgen.ClassBuilder {
	b := classgen.NewClass("demo/C", "java/lang/Object")
	b.Field(classfile.AccPublic|classfile.AccStatic, "hits", "I")
	bump := b.Method(classfile.AccPublic|classfile.AccStatic, "bump", "()V")
	bump.GetStatic("demo/C", "hits", "I").IConst(1).IAdd().PutStatic("demo/C", "hits", "I")
	bump.Return()
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "(I)I")
	body(m)
	return b
}

func runClass(t *testing.T, data []byte, arg int32) (int32, int32) {
	t.Helper()
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	vm, err := jvm.New(jvm.MapLoader{cf.Name(): data}, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	v, thrown, err := vm.MainThread().InvokeByName("demo/C", "f", "(I)I", []jvm.Value{jvm.IntV(arg)})
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if thrown != nil {
		t.Fatalf("thrown: %s", jvm.DescribeThrowable(thrown))
	}
	c, _ := vm.Class("demo/C")
	_, slot, _ := c.StaticSlot("hits", "I")
	return v.Int(), c.GetStatic(slot).Int()
}

// editF returns an editor for demo/C.f after building.
func editF(t *testing.T, b *classgen.ClassBuilder) (*classfile.ClassFile, *rewrite.MethodEditor) {
	t.Helper()
	cf := b.MustBuild()
	m := cf.FindMethod("f", "(I)I")
	ed, err := rewrite.EditMethod(cf, m)
	if err != nil {
		t.Fatalf("EditMethod: %v", err)
	}
	if ed == nil {
		t.Fatal("no editor for method with code")
	}
	return cf, ed
}

func TestInsertEntryRunsOncePerInvocation(t *testing.T) {
	// f(n): loop n times, return n. Entry snippet bumps the counter; the
	// loop back-edge must NOT re-run it.
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		m.IConst(0).IStore(1)
		head := m.Here()
		exit := m.NewLabel()
		m.ILoad(1).ILoad(0).Branch(bytecode.IfIcmpge, exit)
		m.IInc(1, 1)
		m.Goto(head)
		m.Mark(exit)
		m.ILoad(0).IReturn()
	})
	cf, ed := editF(t, b)
	sn := rewrite.NewSnippet(ed.Pool()).InvokeStatic("demo/C", "bump", "()V")
	if err := ed.InsertEntry(sn.Insts()); err != nil {
		t.Fatal(err)
	}
	if err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ret, hits := runClass(t, data, 50)
	if ret != 50 {
		t.Errorf("f(50) = %d", ret)
	}
	if hits != 1 {
		t.Errorf("entry snippet ran %d times, want 1", hits)
	}
}

func TestInsertCapturesBranches(t *testing.T) {
	// f(x): if (x != 0) goto L; hits unchanged path; L: return 7.
	// A snippet inserted before L with captureBranches must run on the
	// branched path too.
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		l := m.NewLabel()
		m.ILoad(0).Branch(bytecode.Ifne, l)
		m.Nop()
		m.Mark(l)
		m.IConst(7).IReturn()
	})
	cf, ed := editF(t, b)
	// Find the iconst 7 (bipush 7) instruction index.
	pos := -1
	for i, in := range ed.Insts {
		if in.Op == bytecode.Bipush && in.Const == 7 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatalf("bipush 7 not found in %v", ed.Insts)
	}
	sn := rewrite.NewSnippet(ed.Pool()).InvokeStatic("demo/C", "bump", "()V")
	if err := ed.InsertAt(pos, sn.Insts(), true); err != nil {
		t.Fatal(err)
	}
	if err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Branch taken (x=1): snippet must still run.
	ret, hits := runClass(t, data, 1)
	if ret != 7 || hits != 1 {
		t.Errorf("taken path: ret=%d hits=%d, want 7/1", ret, hits)
	}
}

func TestInsertWithoutCaptureSkipsOnBranch(t *testing.T) {
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		l := m.NewLabel()
		m.ILoad(0).Branch(bytecode.Ifne, l)
		m.Nop()
		m.Mark(l)
		m.IConst(7).IReturn()
	})
	cf, ed := editF(t, b)
	pos := -1
	for i, in := range ed.Insts {
		if in.Op == bytecode.Bipush && in.Const == 7 {
			pos = i
		}
	}
	sn := rewrite.NewSnippet(ed.Pool()).InvokeStatic("demo/C", "bump", "()V")
	if err := ed.InsertAt(pos, sn.Insts(), false); err != nil {
		t.Fatal(err)
	}
	if err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Branch taken (x=1): the snippet is jumped over.
	_, hits := runClass(t, data, 1)
	if hits != 0 {
		t.Errorf("taken path ran snippet %d times, want 0", hits)
	}
	// Fall-through (x=0): the snippet runs.
	_, hits = runClass(t, data, 0)
	if hits != 1 {
		t.Errorf("fall-through ran snippet %d times, want 1", hits)
	}
}

func TestGuardedEntrySnippetPattern(t *testing.T) {
	// The verifier's Figure 3 pattern: a static flag guards one-time
	// checks. getstatic flag; ifne END; bump; iconst_1; putstatic flag.
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		m.ILoad(0).IReturn()
	})
	b.Field(classfile.AccPublic|classfile.AccStatic, "checked", "Z")
	cf, ed := editF(t, b)
	sn := rewrite.NewSnippet(ed.Pool())
	sn.GetStatic("demo/C", "checked", "Z")
	sn.Branch(bytecode.Ifne, rewrite.RelEnd)
	sn.InvokeStatic("demo/C", "bump", "()V")
	sn.IConst(1)
	sn.PutStatic("demo/C", "checked", "Z")
	if err := ed.InsertEntry(sn.Insts()); err != nil {
		t.Fatal(err)
	}
	if err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cfp, _ := classfile.Parse(data)
	vm, err := jvm.New(jvm.MapLoader{"demo/C": data}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = cfp
	for i := 0; i < 3; i++ {
		_, thrown, err := vm.MainThread().InvokeByName("demo/C", "f", "(I)I", []jvm.Value{jvm.IntV(0)})
		if err != nil || thrown != nil {
			t.Fatalf("invoke %d: %v %v", i, err, jvm.DescribeThrowable(thrown))
		}
	}
	c, _ := vm.Class("demo/C")
	_, slot, _ := c.StaticSlot("hits", "I")
	if hits := c.GetStatic(slot).Int(); hits != 1 {
		t.Errorf("guarded snippet ran %d times across 3 calls, want 1", hits)
	}
}

func TestExceptionTableSurvivesInsert(t *testing.T) {
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		start := m.Here()
		skip := m.NewLabel()
		m.ILoad(0).Branch(bytecode.Ifne, skip)
		m.NewDup("java/lang/RuntimeException")
		m.InvokeSpecial("java/lang/RuntimeException", "<init>", "()V")
		m.AThrow()
		m.Mark(skip)
		m.IConst(1).IReturn()
		end := m.NewLabel()
		m.Mark(end)
		h := m.Here()
		m.Pop()
		m.IConst(2).IReturn()
		m.Handler(start, end, h, "java/lang/RuntimeException")
	})
	cf, ed := editF(t, b)
	sn := rewrite.NewSnippet(ed.Pool()).InvokeStatic("demo/C", "bump", "()V")
	if err := ed.InsertEntry(sn.Insts()); err != nil {
		t.Fatal(err)
	}
	if err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Exception path still caught after rewrite.
	ret, hits := runClass(t, data, 0)
	if ret != 2 {
		t.Errorf("exception path = %d, want 2 (handler)", ret)
	}
	if hits != 1 {
		t.Errorf("hits = %d", hits)
	}
	ret, _ = runClass(t, data, 5)
	if ret != 1 {
		t.Errorf("normal path = %d, want 1", ret)
	}
}

func TestInsertBeforeReturns(t *testing.T) {
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		l := m.NewLabel()
		m.ILoad(0).Branch(bytecode.Ifne, l)
		m.IConst(10).IReturn()
		m.Mark(l)
		m.IConst(20).IReturn()
	})
	cf, ed := editF(t, b)
	sn := rewrite.NewSnippet(ed.Pool()).InvokeStatic("demo/C", "bump", "()V")
	if err := ed.InsertBeforeReturns(sn.Insts()); err != nil {
		t.Fatal(err)
	}
	if err := ed.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []int32{0, 1} {
		ret, hits := runClass(t, data, arg)
		if hits != 1 {
			t.Errorf("arg %d: exit snippet ran %d times, want 1", arg, hits)
		}
		want := int32(10)
		if arg != 0 {
			want = 20
		}
		if ret != want {
			t.Errorf("arg %d: ret = %d, want %d", arg, ret, want)
		}
	}
}

func TestPipelineComposesFilters(t *testing.T) {
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		m.ILoad(0).IReturn()
	})
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	mkFilter := func(name string) rewrite.Filter {
		return rewrite.FilterFunc{FilterName: name, Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
			order = append(order, name)
			ctx.Notes[name] = cf.Name()
			return nil
		}}
	}
	p := rewrite.NewPipeline(mkFilter("verify"), mkFilter("security"))
	p.Append(mkFilter("audit"))
	ctx := rewrite.NewContext()
	out, err := p.Process(data, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "verify" || order[2] != "audit" {
		t.Errorf("filter order = %v", order)
	}
	if ctx.Notes["security"] != "demo/C" {
		t.Errorf("Notes = %v", ctx.Notes)
	}
	if len(ctx.FilterTimings) != 3 {
		t.Errorf("FilterTimings = %v", ctx.FilterTimings)
	}
	if _, err := classfile.Parse(out); err != nil {
		t.Errorf("pipeline output does not parse: %v", err)
	}
}

func TestPipelineFilterErrorPropagates(t *testing.T) {
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		m.ILoad(0).IReturn()
	})
	data, _ := b.BuildBytes()
	p := rewrite.NewPipeline(rewrite.FilterFunc{FilterName: "boom", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		return bytesErr{}
	}})
	if _, err := p.Process(data, nil); err == nil {
		t.Fatal("filter error swallowed")
	}
}

// TestFilterPanicBecomesError pins the pipeline's safety net: a filter
// that panics (here with a runtime index error, as a mis-rewrite of a
// hostile class would) fails that class with an error naming the filter
// and the class, later filters do not run, and the process survives to
// serve the next class.
func TestFilterPanicBecomesError(t *testing.T) {
	b := buildCounterClass(func(m *classgen.MethodBuilder) {
		m.ILoad(0).IReturn()
	})
	data, _ := b.BuildBytes()
	ranAfter := false
	p := rewrite.NewPipeline(
		rewrite.FilterFunc{FilterName: "crash", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
			_ = cf.Methods[len(cf.Methods)+1] // out of range: panics
			return nil
		}},
		rewrite.FilterFunc{FilterName: "after", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
			ranAfter = true
			return nil
		}},
	)
	_, err := p.Process(data, nil)
	if err == nil {
		t.Fatal("panicking filter did not fail the pipeline")
	}
	for _, want := range []string{"filter crash on demo/C:", "panic", "index out of range"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if ranAfter {
		t.Error("filter after the panicking one still ran")
	}
	// The process survived: a healthy pipeline still serves the class.
	ok := rewrite.NewPipeline(rewrite.FilterFunc{FilterName: "noop", Fn: func(*classfile.ClassFile, *rewrite.Context) error { return nil }})
	if _, err := ok.Process(data, nil); err != nil {
		t.Fatalf("pipeline after recovered panic: %v", err)
	}
}

type bytesErr struct{}

func (bytesErr) Error() string { return "synthetic" }

func TestEditMethodNilForAbstract(t *testing.T) {
	b := classgen.NewClass("demo/A", "java/lang/Object")
	b.AbstractMethod(classfile.AccPublic|classfile.AccAbstract, "f", "()V")
	b.SetFlags(classfile.AccPublic | classfile.AccAbstract | classfile.AccSuper)
	cf := b.MustBuild()
	ed, err := rewrite.EditMethod(cf, cf.FindMethod("f", "()V"))
	if err != nil {
		t.Fatal(err)
	}
	if ed != nil {
		t.Fatal("editor returned for abstract method")
	}
}

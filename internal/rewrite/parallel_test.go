package rewrite_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/eval"
	"dvm/internal/monitor"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/verifier"
	"dvm/internal/workload"
)

// servicePlainClasses returns serialized workload classes for pipeline
// identity testing.
func servicePlainClasses(t *testing.T) map[string][]byte {
	t.Helper()
	spec := workload.Benchmarks()[0]
	spec.Classes = 4
	spec.TargetBytes = 32 * 1024
	app, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return app.Classes
}

func fullPipeline() *rewrite.Pipeline {
	return rewrite.NewPipeline(
		verifier.Filter(),
		security.Filter(eval.StandardPolicy()),
		monitor.Filter(monitor.Config{Methods: true, FirstUse: true, Skip: monitor.SkipInitializers}),
	)
}

// concurrently runs fn(i) for i in [0,n) on n goroutines and waits.
func concurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

type pipelineRun struct {
	out   []byte
	notes map[string]any
	err   error
}

// TestPipelineParallelByteIdentical is the determinism test for the
// rewrite side under the proxy's concurrency model: one pipeline value
// is shared by every in-flight request, so the full static service
// (verifier + security + monitor) run from several goroutines at once
// must emit the same bytes and notes as a lone sequential run.
func TestPipelineParallelByteIdentical(t *testing.T) {
	classes := servicePlainClasses(t)
	p := fullPipeline()
	for name, data := range classes {
		seqCtx := rewrite.NewContext()
		seqOut, err := p.Process(data, seqCtx)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, goroutines := range []int{2, 4} {
			runs := make([]pipelineRun, goroutines)
			concurrently(goroutines, func(i int) {
				ctx := rewrite.NewContext()
				out, err := p.Process(data, ctx)
				runs[i] = pipelineRun{out: out, notes: ctx.Notes, err: err}
			})
			for i, r := range runs {
				if r.err != nil {
					t.Fatalf("%s: goroutines=%d run %d: %v", name, goroutines, i, r.err)
				}
				if !bytes.Equal(r.out, seqOut) {
					t.Errorf("%s: goroutines=%d run %d output differs from sequential (%d vs %d bytes)",
						name, goroutines, i, len(r.out), len(seqOut))
				}
				for _, note := range []string{security.NoteChecksInserted, monitor.NoteAuditSites} {
					if r.notes[note] != seqCtx.Notes[note] {
						t.Errorf("%s: goroutines=%d run %d note %s = %v, sequential %v",
							name, goroutines, i, note, r.notes[note], seqCtx.Notes[note])
					}
				}
				pc, _ := r.notes[verifier.NoteCensus].(*verifier.Census)
				sc, _ := seqCtx.Notes[verifier.NoteCensus].(*verifier.Census)
				if pc == nil || sc == nil || *pc != *sc {
					t.Errorf("%s: goroutines=%d run %d census diverges", name, goroutines, i)
				}
			}
		}
	}
}

// manyMethodClass builds a class with n trivial static methods.
func manyMethodClass(t *testing.T, n int) []byte {
	t.Helper()
	b := classgen.NewClass("demo/Many", "java/lang/Object")
	for i := 0; i < n; i++ {
		m := b.Method(classfile.AccPublic|classfile.AccStatic, fmt.Sprintf("m%03d", i), "(I)I")
		m.ILoad(0).IConst(int32(i)).IAdd().IReturn()
	}
	cf := b.MustBuild()
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// poolOverflow interns fresh constants until the 65535-entry pool limit
// is hit, which the pool reports by panicking.
func poolOverflow() rewrite.Filter {
	return rewrite.FilterFunc{FilterName: "violator", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		for i := int32(0); ; i++ {
			cf.Pool.AddInteger(i)
		}
	}}
}

// TestFrozenPoolViolationBecomesError: a filter that breaks the constant
// pool's contract must fail its own class with an error, not crash the
// process. The pool is no longer frozen during a run (nothing runs
// concurrently with a filter); the violation that remains is growing it
// past 65535 entries, which panics inside the pool.
func TestFrozenPoolViolationBecomesError(t *testing.T) {
	data := manyMethodClass(t, 16)
	p := rewrite.NewPipeline(poolOverflow())
	_, err := p.Process(data, rewrite.NewContext())
	if err == nil {
		t.Fatal("constant pool overflow did not fail the pipeline")
	}
	for _, want := range []string{"filter violator on demo/Many:", "panic", "constant pool overflow"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The class is still served by a pipeline without the violator.
	if _, err := fullPipeline().Process(data, rewrite.NewContext()); err != nil {
		t.Fatalf("pipeline after recovered overflow: %v", err)
	}
}

// failAt walks methods in class order and refuses the first one named
// in bad.
func failAt(bad map[string]bool) rewrite.Filter {
	return rewrite.FilterFunc{FilterName: "failat", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		for _, m := range cf.Methods {
			if name := cf.MemberName(m); bad[name] {
				return fmt.Errorf("refused %s", name)
			}
		}
		return nil
	}}
}

// TestParallelErrorDeterministic: when several requests for the same
// class fail at once through one shared pipeline, each gets the same
// error — the first failing filter, on the lowest-index failing method —
// and a later filter never runs.
func TestParallelErrorDeterministic(t *testing.T) {
	data := manyMethodClass(t, 64)
	var mu sync.Mutex
	ranAfter := 0
	p := rewrite.NewPipeline(
		failAt(map[string]bool{"m007": true, "m055": true}),
		rewrite.FilterFunc{FilterName: "after", Fn: func(*classfile.ClassFile, *rewrite.Context) error {
			mu.Lock()
			ranAfter++
			mu.Unlock()
			return nil
		}},
	)
	for _, goroutines := range []int{1, 2, 8} {
		errs := make([]error, goroutines)
		concurrently(goroutines, func(i int) {
			_, errs[i] = p.Process(data, rewrite.NewContext())
		})
		for i, err := range errs {
			if err == nil {
				t.Fatalf("goroutines=%d run %d: expected error", goroutines, i)
			}
			if !strings.Contains(err.Error(), "filter failat on demo/Many: refused m007") {
				t.Fatalf("goroutines=%d run %d: got %v, want the lowest-index failure m007", goroutines, i, err)
			}
		}
	}
	if ranAfter != 0 {
		t.Fatalf("filter after the failing one ran %d times", ranAfter)
	}
}

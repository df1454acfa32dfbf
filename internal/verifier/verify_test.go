package verifier

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/telemetry"
	"dvm/internal/workload"
)

// corpusClasses returns every class in a small workload corpus, keyed by
// app and class name.
func corpusClasses(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, spec := range workload.Benchmarks() {
		spec.Classes = 3
		spec.TargetBytes = 24 * 1024
		app, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range app.Classes {
			out[spec.Name+"/"+name] = data
		}
	}
	return out
}

// verifyAndInstrument parses, verifies and instruments data, returning
// the pre-instrumentation result and the rewritten bytes.
func verifyAndInstrument(t *testing.T, name string, data []byte, opts Options) (Census, []Assumption, []byte) {
	t.Helper()
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := VerifyWith(cf, opts)
	if err != nil {
		t.Fatalf("%s: verify: %v", name, err)
	}
	// Snapshot before Instrument, which bumps DynamicInjected.
	census, assumptions := res.Census, append([]Assumption(nil), res.Assumptions...)
	if err := Instrument(cf, res); err != nil {
		t.Fatalf("%s: instrument: %v", name, err)
	}
	out, err := cf.Encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	return census, assumptions, out
}

// TestVerifyWithTraceIdentical checks that tracing a verification (the
// pipeline filter's path) records the phase spans without changing the
// census, the assumption list or its order, or the instrumented bytes
// that the untraced path (the client-side LocalHook) produces.
func TestVerifyWithTraceIdentical(t *testing.T) {
	for name, data := range corpusClasses(t) {
		census, assumptions, out := verifyAndInstrument(t, name, data, Options{})
		tr := telemetry.NewTrace()
		tCensus, tAssumptions, tOut := verifyAndInstrument(t, name, data, Options{Trace: tr, Node: "n1"})
		if tCensus != census {
			t.Errorf("%s: traced census %+v != untraced %+v", name, tCensus, census)
		}
		if !reflect.DeepEqual(tAssumptions, assumptions) {
			t.Errorf("%s: traced assumptions diverge from untraced", name)
		}
		if !bytes.Equal(tOut, out) {
			t.Errorf("%s: traced instrumented bytes differ (%d vs %d bytes)", name, len(tOut), len(out))
		}
		var stages []string
		for _, sp := range tr.Spans() {
			stages = append(stages, sp.Stage)
		}
		if !reflect.DeepEqual(stages, []string{"verify.phase1", "verify.phase3"}) {
			t.Errorf("%s: spans %v, want verify.phase1 then verify.phase3", name, stages)
		}
	}
}

// TestVerifyReportsFirstFailingMethod corrupts two methods of a class
// and checks the error names the lower-indexed one: methods are verified
// in table order and the first failure is the one reported.
func TestVerifyReportsFirstFailingMethod(t *testing.T) {
	classes := corpusClasses(t)
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cf, err := classfile.Parse(classes[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var withCode []*classfile.Member
		for _, m := range cf.Methods {
			if code, err := cf.CodeOf(m); err == nil && code != nil {
				withCode = append(withCode, m)
			}
		}
		if len(withCode) < 3 {
			continue
		}
		// Corrupt the last two code-bearing methods, so the failure the
		// verifier must report is neither the first method nor the last.
		first, second := withCode[len(withCode)-2], withCode[len(withCode)-1]
		for _, m := range []*classfile.Member{second, first} {
			code, _ := cf.CodeOf(m)
			code.Bytecode[0] = 0xFF // impdep2: illegal in classfiles
			if err := cf.SetCode(m, code); err != nil {
				t.Fatal(err)
			}
		}
		_, err = Verify(cf)
		var verr *Error
		if !errors.As(err, &verr) {
			t.Fatalf("%s: corrupted class: got %v, want a *verifier.Error", name, err)
		}
		want := cf.MemberName(first) + cf.MemberDescriptor(first)
		if verr.Method != want {
			t.Fatalf("%s: error names method %q, want the first corrupted method %q (%v)", name, verr.Method, want, err)
		}
		return
	}
	t.Fatal("no corpus class has three code-bearing methods")
}

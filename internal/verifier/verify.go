package verifier

import (
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/telemetry"
)

// Options configures a verification run.
type Options struct {
	// Trace/Node, when set, receive per-phase spans (verify.phase1,
	// verify.phase3) on the request's telemetry trace.
	Trace *telemetry.Trace
	Node  string
}

// Verify runs the three static verification phases over a parsed class
// and collects the phase-4 link assumptions with their scopes. It does
// not modify the class; Instrument (or the Filter) performs the
// rewriting step.
func Verify(cf *classfile.ClassFile) (*Result, error) {
	return VerifyWith(cf, Options{})
}

// VerifyWith is Verify with telemetry options. Methods are verified in
// method-table order, so the reported error is the first failing
// method's, and census counts and assumptions accumulate in that order.
func VerifyWith(cf *classfile.ClassFile, opts Options) (*Result, error) {
	res := &Result{ClassName: cf.Name()}
	sp := opts.Trace.StartSpan(opts.Node, "verify.phase1")
	err := phase1(cf, &res.Census)
	sp.End()
	if err != nil {
		return nil, err
	}
	set := newAssumptionSet()
	collectClassAssumptions(cf, set)

	sp = opts.Trace.StartSpan(opts.Node, "verify.phase3")
	defer sp.End()
	for _, m := range cf.Methods {
		if err := verifyMethod(cf, m, &res.Census, set); err != nil {
			return nil, err
		}
	}
	res.Assumptions = set.list
	return res, nil
}

// verifyMethod runs phases 2 and 3 plus assumption collection for a
// single method.
func verifyMethod(cf *classfile.ClassFile, m *classfile.Member, census *Census, set *assumptionSet) error {
	code, err := cf.CodeOf(m)
	if err != nil {
		return &Error{Phase: 2, Class: cf.Name(), Method: cf.MemberName(m), Msg: err.Error()}
	}
	if code == nil {
		return nil
	}
	insts, err := phase2(cf, m, code, census)
	if err != nil {
		return err
	}
	if err := phase3(cf, m, code, insts, census); err != nil {
		return err
	}
	collectMethodAssumptions(cf, m, insts, set)
	return nil
}

// collectClassAssumptions records the class-scoped environmental facts:
// the inheritance relationships. "Fundamental assumptions, such as
// inheritance relationships, affect the validity of the entire class."
func collectClassAssumptions(cf *classfile.ClassFile, set *assumptionSet) {
	name := cf.Name()
	if super := cf.SuperName(); super != "" && !isBootstrapClass(super) {
		set.add(Assumption{Kind: AssumeAssignable, Class: name, Name: super})
	}
	for _, i := range cf.InterfaceNames() {
		if !isBootstrapClass(i) {
			set.add(Assumption{Kind: AssumeAssignable, Class: name, Name: i})
		}
	}
}

// collectMethodAssumptions records, for one method, every fact about
// other classes its instructions rely on: imported field and method
// signatures and referenced classes. The scope is the method, so the
// injected checks run lazily, on the method's first invocation — "the
// classes that make up an application are not fetched from a remote,
// potentially slow, server unless they are required for execution."
func collectMethodAssumptions(cf *classfile.ClassFile, m *classfile.Member, insts []bytecode.Inst, set *assumptionSet) {
	self := cf.Name()
	scope := cf.MemberName(m) + " " + cf.MemberDescriptor(m)
	for _, in := range insts {
		switch {
		case in.Op.IsFieldAccess():
			ref, err := cf.Pool.Ref(in.Index)
			if err != nil || ref.Class == self || isBootstrapClass(ref.Class) {
				continue
			}
			set.add(Assumption{Kind: AssumeField, Class: ref.Class, Name: ref.Name, Desc: ref.Desc, Scope: scope})
		case in.Op.IsInvoke():
			ref, err := cf.Pool.Ref(in.Index)
			if err != nil || ref.Class == self || isBootstrapClass(ref.Class) {
				continue
			}
			set.add(Assumption{Kind: AssumeMethod, Class: ref.Class, Name: ref.Name, Desc: ref.Desc, Scope: scope})
		case in.Op == bytecode.New || in.Op == bytecode.Checkcast ||
			in.Op == bytecode.Instanceof || in.Op == bytecode.Anewarray:
			cn, err := cf.Pool.ClassName(in.Index)
			if err != nil || cn == self || isBootstrapClass(cn) || strings.HasPrefix(cn, "[") {
				continue
			}
			set.add(Assumption{Kind: AssumeExists, Class: cn, Scope: scope})
		}
	}
}

// isBootstrapClass reports whether the class belongs to the trusted
// runtime image, whose exports the verification service knows a priori
// (java/*, dvm/*). Assumptions about those need no runtime check.
func isBootstrapClass(name string) bool {
	return strings.HasPrefix(name, "java/") || strings.HasPrefix(name, "dvm/")
}

package security

import (
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// Pipeline note keys published by Filter.
const (
	// NoteChecksInserted accumulates (int) the number of access checks the
	// static service injected across classes.
	NoteChecksInserted = "security.checksInserted"
)

// Filter returns the static half of the security service as a proxy
// pipeline filter. Per the policy's operation mappings it rewrites
// incoming applications so that every matching call site (and every
// declared method boundary named in the policy) is preceded by a call to
// the client enforcement manager, dvm/Enforce.check(permission, target).
//
// Where the operation's target is its final String argument, the snippet
// duplicates it off the operand stack so the check sees the actual
// dynamic target — the capability the Sun JDK's anticipated-hook design
// lacks (Figure 9's "Read File" row).
func Filter(policy *Policy) rewrite.Filter {
	return &enforceFilter{policy: policy}
}

type enforceFilter struct{ policy *Policy }

func (f *enforceFilter) Name() string { return "security" }

// Transform implements rewrite.Filter: one pass over the methods, each
// decoded once, checked for matching sites, rewritten and committed.
// Constants are interned only for sites that actually match, so a class
// with nothing to enforce round-trips byte-identically.
func (f *enforceFilter) Transform(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	if f.policy == nil {
		return nil // no policy: nothing to enforce
	}
	ctx.AddIntNote(NoteChecksInserted, 0)
	for _, m := range cf.Methods {
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return err
		}
		if ed == nil {
			continue
		}
		n, err := f.instrument(cf, m, ed)
		if err != nil {
			return err
		}
		ctx.AddIntNote(NoteChecksInserted, n)
	}
	return nil
}

// instrument inserts the policy's checks into one decoded method and
// commits it if any were inserted, returning how many. Call-site checks
// are inserted with captured branches so no control path can reach the
// operation unchecked.
func (f *enforceFilter) instrument(cf *classfile.ClassFile, m *classfile.Member, ed *rewrite.MethodEditor) (int, error) {
	// Call-site instrumentation: find invocations matching an operation.
	type site struct {
		pos int
		op  Operation
	}
	var sites []site
	for i, in := range ed.Insts {
		if !in.Op.IsInvoke() {
			continue
		}
		ref, err := cf.Pool.Ref(in.Index)
		if err != nil {
			continue
		}
		for _, op := range f.policy.Operations {
			if !matchPattern(op.Class, ref.Class) || op.Method != ref.Name {
				continue
			}
			if op.Desc != "" && op.Desc != ref.Desc {
				continue
			}
			sites = append(sites, site{pos: i, op: op})
			break
		}
	}
	n := 0
	// Back-to-front, so earlier instruction positions stay valid.
	for k := len(sites) - 1; k >= 0; k-- {
		st := sites[k]
		sn := rewrite.NewSnippet(cf.Pool)
		if st.op.TargetArg == "arg" {
			// Stack: [..., target]; keep it and pass a copy to the check.
			sn.Dup()
			sn.LdcString(st.op.Permission)
			sn.Swap()
		} else {
			sn.LdcString(st.op.Permission)
			sn.LdcString("")
		}
		sn.InvokeStatic("dvm/Enforce", "check", "(Ljava/lang/String;Ljava/lang/String;)V")
		if err := ed.InsertAt(st.pos, sn.Insts(), true); err != nil {
			return 0, err
		}
		n++
	}

	// Method-boundary instrumentation: the class itself declares an
	// operation-mapped method.
	mname := cf.MemberName(m)
	for _, op := range f.policy.Operations {
		if !matchPattern(op.Class, cf.Name()) || op.Method != mname {
			continue
		}
		if op.Desc != "" && op.Desc != cf.MemberDescriptor(m) {
			continue
		}
		sn := rewrite.NewSnippet(cf.Pool)
		sn.LdcString(op.Permission)
		sn.LdcString("")
		sn.InvokeStatic("dvm/Enforce", "check", "(Ljava/lang/String;Ljava/lang/String;)V")
		if err := ed.InsertEntry(sn.Insts()); err != nil {
			return 0, err
		}
		n++
		break
	}
	if n == 0 {
		return 0, nil
	}
	return n, ed.Commit()
}

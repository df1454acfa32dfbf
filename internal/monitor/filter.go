package monitor

import (
	"strconv"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/jvm"
	"dvm/internal/rewrite"
)

// Config selects what the audit filter instruments.
type Config struct {
	// Methods instruments method/constructor entry and exit with
	// dvm/Audit events.
	Methods bool
	// FirstUse instruments each method with a guarded dvm/Profile
	// first-use probe (feeds the §5 repartitioning optimizer).
	FirstUse bool
	// Skip filters out methods by name (e.g. "<clinit>" to avoid auditing
	// initializers); nil audits everything.
	Skip func(class, method string) bool
}

// Pipeline note keys published by the filters.
const (
	// NoteAuditSites accumulates (int) the number of audit probes added.
	NoteAuditSites = "monitor.auditSites"
)

// Filter returns the static half of the remote monitoring service:
// a pipeline filter that rewrites applications to invoke the auditing
// (and optionally profiling) dynamic components at method and
// constructor boundaries.
func Filter(cfg Config) rewrite.Filter {
	return &auditFilter{cfg: cfg}
}

type auditFilter struct{ cfg Config }

func (f *auditFilter) Name() string { return "monitor" }

// Transform implements rewrite.Filter: one pass over the methods in
// table order, each decoded once, instrumented and committed. First-use
// guard fields are appended in the same order, so output is
// deterministic.
func (f *auditFilter) Transform(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	cfg := f.cfg
	ctx.AddIntNote(NoteAuditSites, 0)
	profIdx := 0
	for _, m := range cf.Methods {
		name := cf.MemberName(m)
		if cfg.Skip != nil && cfg.Skip(cf.Name(), name) {
			continue
		}
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return err
		}
		if ed == nil {
			continue
		}
		sites := 0
		if cfg.FirstUse {
			guard := "dvm$fu$" + strconv.Itoa(profIdx)
			profIdx++
			cf.Fields = append(cf.Fields, &classfile.Member{
				AccessFlags:     classfile.AccPrivate | classfile.AccStatic,
				NameIndex:       cf.Pool.AddUtf8(guard),
				DescriptorIndex: cf.Pool.AddUtf8("Z"),
			})
			sn := rewrite.NewSnippet(cf.Pool)
			sn.GetStatic(cf.Name(), guard, "Z")
			sn.Branch(bytecode.Ifne, rewrite.RelEnd)
			sn.IConst(1)
			sn.PutStatic(cf.Name(), guard, "Z")
			sn.LdcString(cf.Name()).LdcString(name).LdcString(cf.MemberDescriptor(m))
			sn.InvokeStatic("dvm/Profile", "firstUse",
				"(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V")
			if err := ed.InsertEntry(sn.Insts()); err != nil {
				return err
			}
			sites++
		}
		if cfg.Methods {
			enter := rewrite.NewSnippet(cf.Pool)
			enter.LdcString(cf.Name()).LdcString(name)
			enter.InvokeStatic("dvm/Audit", "enter", "(Ljava/lang/String;Ljava/lang/String;)V")
			exit := rewrite.NewSnippet(cf.Pool)
			exit.LdcString(cf.Name()).LdcString(name)
			exit.InvokeStatic("dvm/Audit", "exit", "(Ljava/lang/String;Ljava/lang/String;)V")
			if err := ed.InsertBeforeReturns(exit.Insts()); err != nil {
				return err
			}
			if err := ed.InsertEntry(enter.Insts()); err != nil {
				return err
			}
			sites += 2
		}
		if sites == 0 {
			continue
		}
		if err := ed.Commit(); err != nil {
			return err
		}
		ctx.AddIntNote(NoteAuditSites, sites)
	}
	return nil
}

// Attach wires a client VM to the collector: performs the handshake and
// routes the dvm/Audit and dvm/Profile dynamic components to the central
// console. It returns the assigned session id.
func Attach(vm *jvm.VM, c *Collector, info ClientInfo) string {
	session := c.Handshake(info)
	vm.OnAudit = func(e jvm.AuditEvent) {
		// Errors (unknown session) cannot happen for a live handshake;
		// the audit path must not disturb the application.
		_ = c.Record(session, e.Class, e.Method, e.Kind)
	}
	vm.OnFirstUse = func(class, method, desc string) {
		_ = c.Record(session, class, method+" "+desc, "note")
	}
	return session
}

// SkipInitializers is a Config.Skip helper that leaves constructors and
// class initializers uninstrumented.
func SkipInitializers(class, method string) bool {
	return strings.HasPrefix(method, "<")
}

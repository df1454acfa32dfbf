package eval

import (
	"fmt"
	"io"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/telemetry"
)

// Figure 9: security microbenchmarks. Four system-resource operations
// under (a) no checking, (b) the JDK1.2-style stack-introspection
// manager at the anticipated library hooks, (c) the DVM enforcement
// manager driven by injected checks. The DVM "download" column is the
// first check, which fetches the domain's policy rows from the server.

// Fig9Row is one line of the table (durations are per-operation).
type Fig9Row struct {
	Operation   string
	Baseline    time.Duration
	JDKCheck    time.Duration // 0 with JDKNA=true: no hook exists
	JDKNA       bool
	DVMDownload time.Duration // first check including policy download
	DVMCheck    time.Duration // steady-state checked operation
}

// chainDepth is the call depth above each measured operation. Real
// applications perform resource accesses deep in their call stacks, and
// the JDK's stack-introspection cost is proportional to that depth while
// the DVM's cached lookup is not.
const chainDepth = 12

// microOps builds app/Micro with one method per benchmarked operation,
// each at the bottom of a chainDepth-frame call chain.
func microOps() (*classgen.ClassBuilder, error) {
	b := classgen.NewClass("app/Micro", "java/lang/Object")
	// Leaf operations.
	gp := b.Method(classfile.AccPublic|classfile.AccStatic, "prop$leaf", "()V")
	gp.LdcString("user.name")
	gp.InvokeStatic("java/lang/System", "getProperty", "(Ljava/lang/String;)Ljava/lang/String;")
	gp.Pop()
	gp.Return()

	op := b.Method(classfile.AccPublic|classfile.AccStatic, "open$leaf", "()V")
	op.NewDup("java/io/FileInputStream")
	op.LdcString("/tmp/f")
	op.InvokeSpecial("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V")
	op.InvokeVirtual("java/io/FileInputStream", "close", "()V")
	op.Return()

	pr := b.Method(classfile.AccPublic|classfile.AccStatic, "prio$leaf", "()V")
	pr.InvokeStatic("java/lang/Thread", "currentThread", "()Ljava/lang/Thread;")
	pr.IConst(5)
	pr.InvokeVirtual("java/lang/Thread", "setPriority", "(I)V")
	pr.Return()

	rd := b.Method(classfile.AccPublic|classfile.AccStatic, "read$leaf", "(Ljava/io/FileInputStream;)I")
	rd.ALoad(0)
	rd.InvokeVirtual("java/io/FileInputStream", "read", "()I")
	rd.IReturn()

	// Call chains: name(d0) -> name$1 -> ... -> name$leaf.
	chain := func(name, desc string, ret func(m *classgen.MethodBuilder), passArg bool) {
		for d := chainDepth - 1; d >= 0; d-- {
			mname := name
			if d > 0 {
				mname = fmt.Sprintf("%s$%d", name, d)
			}
			next := fmt.Sprintf("%s$%d", name, d+1)
			if d == chainDepth-1 {
				next = name + "$leaf"
			}
			m := b.Method(classfile.AccPublic|classfile.AccStatic, mname, desc)
			if passArg {
				m.ALoad(0)
			}
			m.InvokeStatic("app/Micro", next, desc)
			ret(m)
		}
	}
	retV := func(m *classgen.MethodBuilder) { m.Return() }
	retI := func(m *classgen.MethodBuilder) { m.IReturn() }
	chain("prop", "()V", retV, false)
	chain("open", "()V", retV, false)
	chain("prio", "()V", retV, false)
	chain("read", "(Ljava/io/FileInputStream;)I", retI, true)
	return b, nil
}

// fig9Op describes one measured operation.
type fig9Op struct {
	name   string
	method string
	desc   string
	hasArg bool // read takes the open stream
	jdkNA  bool // no anticipated hook in the monolithic system
}

var fig9Ops = []fig9Op{
	{name: "Get Property", method: "prop", desc: "()V"},
	{name: "Open File", method: "open", desc: "()V"},
	{name: "Change Thread Priority", method: "prio", desc: "()V"},
	{name: "Read File", method: "read", desc: "(Ljava/io/FileInputStream;)I", hasArg: true, jdkNA: true},
}

// Fig9 runs the security microbenchmarks. iterations controls the
// averaging loop per measurement.
func Fig9(iterations int) ([]Fig9Row, string, error) {
	if iterations <= 0 {
		iterations = 2000
	}
	policy := StandardPolicy()
	raw, err := microOps()
	if err != nil {
		return nil, "", err
	}
	plain, err := raw.BuildBytes()
	if err != nil {
		return nil, "", err
	}
	// DVM variant: injected checks.
	instrumented, err := rewrite.NewPipeline(security.Filter(policy)).Process(plain, nil)
	if err != nil {
		return nil, "", err
	}

	newVM := func(classBytes []byte) (*jvm.VM, error) {
		vm, err := jvm.New(jvm.MapLoader{"app/Micro": classBytes}, io.Discard)
		if err != nil {
			return nil, err
		}
		vm.VFS.Write("/tmp/f", []byte("contents of the measured file"))
		return vm, nil
	}
	openStream := func(vm *jvm.VM) (jvm.Value, error) {
		c, err := vm.Class("java/io/FileInputStream")
		if err != nil {
			return jvm.Value{}, err
		}
		obj := vm.NewInstance(c)
		vm.Pin(obj)
		_, thrown, err := vm.MainThread().Invoke(
			c.LookupMethod("<init>", "(Ljava/lang/String;)V"),
			[]jvm.Value{jvm.RefV(obj), jvm.RefV(vm.InternString("/tmp/f"))})
		if err != nil || thrown != nil {
			return jvm.Value{}, runFail("open stream", thrown, err)
		}
		return jvm.RefV(obj), nil
	}

	measure := func(vm *jvm.VM, op fig9Op, iters int) (time.Duration, error) {
		var args []jvm.Value
		if op.hasArg {
			v, err := openStream(vm)
			if err != nil {
				return 0, err
			}
			args = []jvm.Value{v}
		}
		// Warm up class init and caches.
		if _, thrown, err := vm.MainThread().InvokeByName("app/Micro", op.method, op.desc, args); err != nil || thrown != nil {
			return 0, runFail(op.name, thrown, err)
		}
		start := telemetry.StartTimer()
		for i := 0; i < iters; i++ {
			_, thrown, err := vm.MainThread().InvokeByName("app/Micro", op.method, op.desc, args)
			if err != nil || thrown != nil {
				return 0, runFail(op.name, thrown, err)
			}
		}
		return start.Elapsed() / time.Duration(iters), nil
	}

	rows := make([]Fig9Row, 0, len(fig9Ops))
	for _, op := range fig9Ops {
		row := Fig9Row{Operation: op.name, JDKNA: op.jdkNA}

		// Baseline: unchecked.
		vm, err := newVM(plain)
		if err != nil {
			return nil, "", err
		}
		if row.Baseline, err = measure(vm, op, iterations); err != nil {
			return nil, "", err
		}

		// JDK: stack introspection at anticipated hooks.
		if !op.jdkNA {
			vm, err := newVM(plain)
			if err != nil {
				return nil, "", err
			}
			vm.BuiltinChecks = security.NewStackIntrospection(policy)
			if row.JDKCheck, err = measure(vm, op, iterations); err != nil {
				return nil, "", err
			}
		}

		// DVM: first check pays the policy download...
		vm, err = newVM(instrumented)
		if err != nil {
			return nil, "", err
		}
		srv := security.NewServer(policy)
		srv.FetchDelay = func() { time.Sleep(4 * time.Millisecond) } // scaled WAN fetch
		vm.CheckAccess = security.NewManager(srv, "apps")
		var args []jvm.Value
		if op.hasArg {
			v, err := openStream(vm)
			if err != nil {
				return nil, "", err
			}
			args = []jvm.Value{v}
		}
		start := telemetry.StartTimer()
		if _, thrown, err := vm.MainThread().InvokeByName("app/Micro", op.method, op.desc, args); err != nil || thrown != nil {
			return nil, "", runFail(op.name+" (download)", thrown, err)
		}
		row.DVMDownload = start.Elapsed()
		// ...subsequent checks hit the manager's cache.
		if row.DVMCheck, err = measure(vm, op, iterations); err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}

	var cells [][]string
	for _, r := range rows {
		jdkC, jdkO := "N/A", "N/A"
		if !r.JDKNA {
			jdkC = us(r.JDKCheck)
			jdkO = us(r.JDKCheck - r.Baseline)
		}
		cells = append(cells, []string{
			r.Operation,
			us(r.Baseline),
			jdkC, jdkO,
			ms(r.DVMDownload),
			us(r.DVMCheck),
			us(r.DVMCheck - r.Baseline),
		})
	}
	text := table(
		[]string{"Operation", "Baseline(us)", "JDK check(us)", "JDK ovh(us)", "DVM download(ms)", "DVM check(us)", "DVM ovh(us)"},
		cells)

	// Reproduction extension: per-filter static-service cost.
	filters, err := fig9FilterCost(policy)
	if err != nil {
		return nil, "", err
	}
	return rows, text + "\nStatic service per-filter cost:\n" + filters, nil
}

// fig9FilterCost times each pipeline filter over the benchmark workload
// class and tables its mean µs per run.
func fig9FilterCost(policy *security.Policy) (string, error) {
	_, data, err := pipelineBenchClass()
	if err != nil {
		return "", err
	}
	const reps = 20
	pipe := ServicePipeline(policy, false)
	ctx := rewrite.NewContext()
	for i := 0; i < reps; i++ {
		if _, err := pipe.Process(data, ctx); err != nil {
			return "", err
		}
	}
	var cells [][]string
	for _, f := range pipe.Filters() {
		cells = append(cells, []string{f.Name(), us(ctx.FilterTimings[f.Name()] / reps)})
	}
	return table([]string{"Filter", "us/run"}, cells), nil
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Microsecond))
}

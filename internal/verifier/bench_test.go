package verifier

import (
	"sort"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/workload"
)

// benchClass returns a representative generated class for throughput
// measurement: the first non-main class by sorted name, so every run
// measures the same bytes.
func benchClass(b *testing.B) ([]byte, *classfile.ClassFile) {
	b.Helper()
	spec := workload.Benchmarks()[0]
	spec.Classes = 3
	spec.TargetBytes = 32 * 1024
	app, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	var names []string
	for name := range app.Classes {
		if name != spec.MainClass() {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		b.Fatal("no class")
	}
	sort.Strings(names)
	data := app.Classes[names[0]]
	cf, err := classfile.Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	return data, cf
}

// BenchmarkVerify measures static verification throughput (phases 1-3 +
// assumption collection).
func BenchmarkVerify(b *testing.B) {
	data, cf := benchClass(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(cf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyAndInstrument measures the full static service: verify,
// rewrite into self-verifying form, re-encode.
func BenchmarkVerifyAndInstrument(b *testing.B) {
	data, _ := benchClass(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf, err := classfile.Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Verify(cf)
		if err != nil {
			b.Fatal(err)
		}
		if err := Instrument(cf, res); err != nil {
			b.Fatal(err)
		}
		if _, err := cf.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

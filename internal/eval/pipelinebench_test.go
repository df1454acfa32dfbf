package eval

import (
	"strings"
	"testing"
)

func TestComparePipelineBenchGates(t *testing.T) {
	base := PipelineBenchReport{
		ClassName: "jlex/C000", ParseNsPerOp: 1000, ParseAllocsPerOp: 16,
		EncodeNsPerOp: 300, EncodeAllocsPerOp: 1,
		PipelineNsPerOp: 30000, PipelineAllocsPerOp: 2666,
	}
	for _, tc := range []struct {
		name string
		edit func(b, c *PipelineBenchReport)
		want string // substring of the one expected regression; "" = none
	}{
		{"identical", func(b, c *PipelineBenchReport) {}, ""},
		{"within tolerance", func(b, c *PipelineBenchReport) { c.PipelineAllocsPerOp *= 1.15 }, ""},
		{"pipeline allocs", func(b, c *PipelineBenchReport) { c.PipelineAllocsPerOp *= 1.3 }, "pipeline: "},
		{"pipeline time", func(b, c *PipelineBenchReport) { c.PipelineNsPerOp *= 2 }, "parse cost"},
		{"other class", func(b, c *PipelineBenchReport) { c.ClassName = "jlex/C001" }, "measured class"},
		{"no pipeline leg", func(b, c *PipelineBenchReport) { b.PipelineNsPerOp = 0 }, "no pipeline_ns_per_op"},
	} {
		b, c := base, base
		tc.edit(&b, &c)
		regs := ComparePipelineBench(&b, &c, 0.2)
		switch {
		case tc.want == "" && len(regs) != 0:
			t.Errorf("%s: unexpected regressions %v", tc.name, regs)
		case tc.want != "" && (len(regs) != 1 || !strings.Contains(regs[0], tc.want)):
			t.Errorf("%s: regressions %v, want one containing %q", tc.name, regs, tc.want)
		}
	}
}

package eval

import (
	"fmt"
	"runtime"
	"sort"

	"dvm/internal/classfile"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
	"dvm/internal/workload"
)

// PipelineBenchReport is the serialized form of BENCH_PIPELINE.json: the
// codec hot-path costs plus the full static service (verifier + security
// + monitor) over one workload class, recorded per change so the perf
// trajectory is trackable.
type PipelineBenchReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Iterations int `json:"iterations"`
	// ClassName/ClassBytes identify the measured class; reports of
	// different classes are not comparable.
	ClassName         string  `json:"class_name"`
	ClassBytes        int     `json:"class_bytes"`
	ParseNsPerOp      float64 `json:"parse_ns_per_op"`
	ParseAllocsPerOp  float64 `json:"parse_allocs_per_op"`
	EncodeNsPerOp     float64 `json:"encode_ns_per_op"`
	EncodeAllocsPerOp float64 `json:"encode_allocs_per_op"`
	// The pass-through leg is the lazy codec's headline number: one
	// Parse→Encode cycle with no filter touching anything, which the
	// splice path should serve with near-zero attribute decoding.
	PassNsPerOp     float64 `json:"pass_ns_per_op"`
	PassAllocsPerOp float64 `json:"pass_allocs_per_op"`
	// PassAttrsDecodedPerOp counts attribute payloads the pass-through
	// leg materialized per op (classfile.CodecStats delta) — a property
	// of the code, 0 when laziness holds end to end.
	PassAttrsDecodedPerOp float64 `json:"pass_attrs_decoded_per_op"`
	// Pipeline*PerOp measure one Process call of the static service.
	PipelineNsPerOp     float64 `json:"pipeline_ns_per_op"`
	PipelineAllocsPerOp float64 `json:"pipeline_allocs_per_op"`
}

// benchLoop times fn over iterations and reports per-op nanoseconds and
// heap allocations (from runtime.MemStats deltas, so run it on an
// otherwise quiet process). A short warmup first (pool scratch, branch
// predictors, lazily initialized tables), then the iterations run as
// five batches and the ns/op is the median batch — one scheduler or GC
// hiccup skews a batch, not the measurement. Allocations use the full
// delta: they are deterministic per op, so more samples only help.
func benchLoop(iterations int, fn func() error) (nsPerOp, allocsPerOp float64, err error) {
	warmup := iterations / 10
	if warmup < 3 {
		warmup = 3
	}
	for i := 0; i < warmup; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	const batches = 5
	perBatch := iterations / batches
	if perBatch < 1 {
		perBatch = 1
	}
	total := perBatch * batches
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batchNs := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		start := telemetry.StartTimer()
		for i := 0; i < perBatch; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		batchNs = append(batchNs, float64(start.Elapsed().Nanoseconds())/float64(perBatch))
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(batchNs)
	return batchNs[batches/2], float64(after.Mallocs-before.Mallocs) / float64(total), nil
}

// pipelineBenchClass returns one representative workload class (the
// same shape the verifier benchmarks use): the first non-main class by
// sorted name, so every run measures the same bytes.
func pipelineBenchClass() (string, []byte, error) {
	spec := workload.Benchmarks()[0]
	spec.Classes = 3
	spec.TargetBytes = 32 * 1024
	app, err := workload.Generate(spec)
	if err != nil {
		return "", nil, err
	}
	names := make([]string, 0, len(app.Classes))
	for name := range app.Classes {
		if name != spec.MainClass() {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", nil, fmt.Errorf("eval: workload generated no non-main class")
	}
	sort.Strings(names)
	return names[0], app.Classes[names[0]], nil
}

// PipelineBench measures the parse/encode codec and the full static
// service, returning the report and a rendered table.
func PipelineBench(iterations int) (*PipelineBenchReport, string, error) {
	if iterations <= 0 {
		iterations = 200
	}
	name, data, err := pipelineBenchClass()
	if err != nil {
		return nil, "", err
	}
	rep := &PipelineBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Iterations: iterations,
		ClassName:  name,
		ClassBytes: len(data),
	}

	rep.ParseNsPerOp, rep.ParseAllocsPerOp, err = benchLoop(iterations, func() error {
		cf, err := classfile.Parse(data)
		if err != nil {
			return err
		}
		cf.Release()
		return nil
	})
	if err != nil {
		return nil, "", err
	}

	parsed, err := classfile.Parse(data)
	if err != nil {
		return nil, "", err
	}
	rep.EncodeNsPerOp, rep.EncodeAllocsPerOp, err = benchLoop(iterations, func() error {
		_, err := parsed.Encode()
		return err
	})
	if err != nil {
		return nil, "", err
	}

	// Pass-through: full Parse→Encode cycles that touch nothing, the
	// path a verification-only request for a non-native arch takes.
	statsBefore := classfile.CodecStats()
	rep.PassNsPerOp, rep.PassAllocsPerOp, err = benchLoop(iterations, func() error {
		cf, err := classfile.Parse(data)
		if err != nil {
			return err
		}
		if _, err := cf.Encode(); err != nil {
			return err
		}
		cf.Release()
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	statsAfter := classfile.CodecStats()
	rep.PassAttrsDecodedPerOp = float64(statsAfter.AttrsDecoded-statsBefore.AttrsDecoded) / float64(iterations)

	pipe := ServicePipeline(StandardPolicy(), false)
	rep.PipelineNsPerOp, rep.PipelineAllocsPerOp, err = benchLoop(iterations, func() error {
		_, err := pipe.Process(data, rewrite.NewContext())
		return err
	})
	if err != nil {
		return nil, "", err
	}

	text := fmt.Sprintf("class %s (%d bytes)\n", rep.ClassName, rep.ClassBytes) + table(
		[]string{"Stage", "ns/op", "allocs/op", "attrs-decoded/op"},
		[][]string{
			{"parse", fmt.Sprintf("%.0f", rep.ParseNsPerOp), fmt.Sprintf("%.1f", rep.ParseAllocsPerOp), "-"},
			{"encode", fmt.Sprintf("%.0f", rep.EncodeNsPerOp), fmt.Sprintf("%.1f", rep.EncodeAllocsPerOp), "-"},
			{"pass-through", fmt.Sprintf("%.0f", rep.PassNsPerOp), fmt.Sprintf("%.1f", rep.PassAllocsPerOp), fmt.Sprintf("%.2f", rep.PassAttrsDecodedPerOp)},
			{"pipeline", fmt.Sprintf("%.0f", rep.PipelineNsPerOp), fmt.Sprintf("%.1f", rep.PipelineAllocsPerOp), "-"},
		})
	return rep, text, nil
}

// ComparePipelineBench checks current against a recorded baseline and
// returns a description of every regression beyond tol (0.2 = 20%).
//
// Raw ns/op is not comparable across hosts (the baseline is recorded on
// one machine, CI runs on another), so the gate uses host-independent
// signals only: allocations per op and attributes decoded per op, which
// are properties of the code and hold at tol exactly, and each stage's
// ns/op normalized by the same run's parse ns/op. The lazy codec made
// parse cheap enough (~tens of µs) that those ratios wobble ±30% with
// scheduler and frequency noise on a shared host, so the timing ratios
// gate at 3×tol — a gross-regression tripwire, with the fine-grained
// regressions caught by the deterministic counters.
func ComparePipelineBench(baseline, current *PipelineBenchReport, tol float64) []string {
	if tol <= 0 {
		tol = 0.2
	}
	nsTol := 3 * tol
	var regressions []string
	allocGate := func(stage string, base, cur float64) {
		// Small absolute slack: alloc counts from MemStats deltas wobble
		// by a few background allocations per op at low iteration counts.
		if cur > base*(1+tol)+8 {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f allocs/op vs baseline %.1f (+%.0f%%)", stage, cur, base, (cur/base-1)*100))
		}
	}
	allocGate("parse", baseline.ParseAllocsPerOp, current.ParseAllocsPerOp)
	allocGate("encode", baseline.EncodeAllocsPerOp, current.EncodeAllocsPerOp)

	ratio := func(rep *PipelineBenchReport, ns float64) float64 {
		if rep.ParseNsPerOp <= 0 {
			return 0
		}
		return ns / rep.ParseNsPerOp
	}
	if br, cr := ratio(baseline, baseline.EncodeNsPerOp), ratio(current, current.EncodeNsPerOp); br > 0 && cr > br*(1+nsTol) {
		regressions = append(regressions,
			fmt.Sprintf("encode: %.2fx parse cost vs baseline %.2fx (+%.0f%%)", cr, br, (cr/br-1)*100))
	}
	// Lazy-codec gates: the pass-through leg must stay cheap (allocs,
	// ns relative to parse) and must stay lazy (attributes decoded per
	// op is a property of the code — a jump means someone's filter or
	// helper started materializing payloads on the no-touch path).
	// Skipped against baselines recorded before the leg existed.
	if baseline.PassNsPerOp > 0 {
		allocGate("pass-through", baseline.PassAllocsPerOp, current.PassAllocsPerOp)
		if br, cr := ratio(baseline, baseline.PassNsPerOp), ratio(current, current.PassNsPerOp); br > 0 && cr > br*(1+nsTol) {
			regressions = append(regressions,
				fmt.Sprintf("pass-through: %.2fx parse cost vs baseline %.2fx (+%.0f%%)", cr, br, (cr/br-1)*100))
		}
		if cur, base := current.PassAttrsDecodedPerOp, baseline.PassAttrsDecodedPerOp; cur > base*(1+tol)+0.5 {
			regressions = append(regressions,
				fmt.Sprintf("pass-through: %.2f attrs decoded/op vs baseline %.2f (laziness regression)", cur, base))
		}
	}
	// A baseline without a pipeline leg, or of another class, cannot
	// vouch for this run's pipeline: report it rather than pass.
	switch {
	case baseline.PipelineNsPerOp <= 0:
		regressions = append(regressions, "pipeline: baseline has no pipeline_ns_per_op; re-record it")
	case baseline.ClassName != current.ClassName:
		regressions = append(regressions,
			fmt.Sprintf("pipeline: baseline measured class %q, this run %q; re-record it", baseline.ClassName, current.ClassName))
	default:
		allocGate("pipeline", baseline.PipelineAllocsPerOp, current.PipelineAllocsPerOp)
		if br, cr := ratio(baseline, baseline.PipelineNsPerOp), ratio(current, current.PipelineNsPerOp); br > 0 && cr > br*(1+nsTol) {
			regressions = append(regressions,
				fmt.Sprintf("pipeline: %.2fx parse cost vs baseline %.2fx (+%.0f%%)", cr, br, (cr/br-1)*100))
		}
	}
	return regressions
}

package main

import (
	"fmt"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the DVM sees, reported with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"session_ms_p50", "ms"},
	{"session_ms_p90", "ms"},
	{"sessions_per_s", "1/s"},
	{"class_load_us_p50", "us"},
	{"class_load_us_p99", "us"},
	{"ok_ratio", "ratio"},
	{"wire_bytes_per_class", "B"},
	{"alloc_mb_per_session", "MB"},
	{"cpu_ms_per_session", "ms"},
}

// perLayer is what the traced run reports for single layers.
var perLayer = []metricDef{
	// Static pipeline on the proxy.
	{"verifier.us_per_run", "us"},
	{"security.filter_us_per_run", "us"},
	{"monitor.filter_us_per_run", "us"},
	{"compiler.filter_us_per_run", "us"},
	{"classfile.parse_us_per_class", "us"},
	{"classfile.encode_us_per_class", "us"},
	{"classfile.lazy_decoded_ratio", "ratio"},
	{"proxy.pipeline_us_per_run", "us"},
	{"proxy.miss_us_p50", "us"},
	{"proxy.miss_us_p99", "us"},
	{"rewrite.pipeline_runs_per_kclass", "count"},
	// Client runtime and its dynamic components.
	{"jvm.instructions_per_session", "count"},
	{"jvm.classes_loaded_per_session", "count"},
	{"jvm.link_checks_per_session", "count"},
	{"jvm.load_wait_ms_per_session", "ms"},
	{"jvm.exec_ms_per_session", "ms"},
	{"jvm.ns_per_instruction", "ns"},
	{"security.checks_per_session", "count"},
	{"security.check_ms_per_session", "ms"},
	{"monitor.audit_events_per_session", "count"},
	{"monitor.audit_ms_per_session", "ms"},
	{"proxy.hit_us_p50", "us"},
	// Fleet: cache, peers, derive, attestation, prefetch.
	{"proxy.hit_ratio", "ratio"},
	{"proxy.peer_fill_ratio", "ratio"},
	{"proxy.origin_fetches_per_kclass", "count"},
	{"compiler.derives_per_kclass", "count"},
	{"compiler.derive_us_per_call", "us"},
	{"cluster.peer_batches_per_kclass", "count"},
	{"cluster.peer_batch_us_p50", "us"},
	{"cluster.peer_batch_us_p99", "us"},
	{"cluster.peer_errors", "count"},
	{"attest.rounds_per_kclass", "count"},
	{"attest.round_us_p50", "us"},
	{"prefetch.hit_ratio", "ratio"},
	{"prefetch.waste_kb_per_kclass", "KB"},
	// Go runtime.
	{"go.gc_cycles_per_session", "count"},
	{"go.gc_pause_ms_per_session", "ms"},
	{"go.heap_inuse_mb_end", "MB"},
	// The traced run against the untraced one.
	{"trace.overhead_pct", "%"},
}

// runResult is one workload run: its set-up times and measured window,
// plus the layer counters a traced run collected.
type runResult struct {
	setups []time.Duration
	win    window
	totals *proxyTotals       // proxy counters over the window
	layer  map[string]float64 // workload-specific per-layer values
}

// sessionTimes returns the run times of the sessions that completed
// with correct output.
func (r *runResult) sessionTimes() []time.Duration {
	var d []time.Duration
	for _, s := range r.win.sessions {
		if s.err == nil && !s.mismatch {
			d = append(d, s.dur)
		}
	}
	return d
}

func (r *runResult) failed() (failed, mismatched int) {
	for _, s := range r.win.sessions {
		if s.err != nil || s.mismatch {
			failed++
		}
		if s.mismatch {
			mismatched++
		}
	}
	return failed, mismatched
}

func (r *runResult) loads() []time.Duration {
	var all []time.Duration
	for _, s := range r.win.sessions {
		all = append(all, s.loads...)
	}
	return all
}

// sessionP50 is the median run time of the correct sessions.
func (r *runResult) sessionP50() time.Duration { return quantile(r.sessionTimes(), 0.5) }

// endToEndMetrics computes every end-to-end metric of r.
func endToEndMetrics(r *runResult) map[string]float64 {
	w := &r.win
	durs := r.sessionTimes()
	loads := r.loads()
	var bytes int64
	for _, s := range w.sessions {
		bytes += s.bytes
	}
	if w.wire > 0 {
		bytes = w.wire
	}
	n := float64(len(w.sessions))
	failed, _ := r.failed()
	return map[string]float64{
		"setup_s":              quantile(r.setups, 0.5).Seconds(),
		"session_ms_p50":       ms(quantile(durs, 0.5)),
		"session_ms_p90":       ms(quantile(durs, 0.9)),
		"sessions_per_s":       ratio(n, w.elapsed.Seconds()),
		"class_load_us_p50":    us(quantile(loads, 0.5)),
		"class_load_us_p99":    us(quantile(loads, 0.99)),
		"ok_ratio":             ratio(n-float64(failed), n),
		"wire_bytes_per_class": ratio(float64(bytes), float64(len(loads))),
		"alloc_mb_per_session": ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/(1<<20), n),
		"cpu_ms_per_session":   ratio(ms(w.cpu), n),
	}
}

// perLayerMetrics computes every per-layer metric of a traced run r;
// untracedP50 is the session median of the untraced run beside it.
func perLayerMetrics(r *runResult, lt *layerTrace, untracedP50 time.Duration) map[string]float64 {
	w := &r.win
	n := float64(len(w.sessions))
	loads := r.loads()
	kclass := float64(len(loads)) / 1000
	var vm struct{ insts, classes, links, checks, audits int64 }
	var loadWait, sessionTime time.Duration
	for _, s := range w.sessions {
		vm.insts += s.vm.InstructionsExecuted
		vm.classes += s.vm.ClassesLoaded
		vm.links += s.vm.LinkChecks
		vm.checks += s.vm.SecurityChecks
		vm.audits += s.vm.AuditEvents
		sessionTime += s.dur
		for _, d := range s.loads {
			loadWait += d
		}
	}
	execTime := sessionTime - loadWait
	if vm.insts == 0 {
		execTime = 0 // fetch-only sessions run no code
	}
	perRun := func(b *busy) float64 {
		return ratio(float64(b.ns.Load())/1e3, float64(b.calls.Load()))
	}
	t := r.totals
	hits, misses := lt.hits.snapshot(), lt.misses.snapshot()
	batches, rounds := lt.peerBatch.snapshot(), lt.attest.snapshot()
	derives := float64(lt.compile.calls.Load())
	pipelineRuns := float64(lt.filter("verifier").calls.Load())
	pipelineTime := t.proxyTime - time.Duration(lt.compile.ns.Load())

	m := map[string]float64{
		"verifier.us_per_run":              perRun(lt.filter("verifier")),
		"security.filter_us_per_run":       perRun(lt.filter("security")),
		"monitor.filter_us_per_run":        perRun(lt.filter("monitor")),
		"compiler.filter_us_per_run":       perRun(lt.filter("compiler")),
		"proxy.pipeline_us_per_run":        ratio(us(pipelineTime), float64(t.originFetches)),
		"proxy.miss_us_p50":                us(quantile(misses, 0.5)),
		"proxy.miss_us_p99":                us(quantile(misses, 0.99)),
		"rewrite.pipeline_runs_per_kclass": ratio(pipelineRuns, kclass),

		"jvm.instructions_per_session":     ratio(float64(vm.insts), n),
		"jvm.classes_loaded_per_session":   ratio(float64(vm.classes), n),
		"jvm.link_checks_per_session":      ratio(float64(vm.links), n),
		"jvm.load_wait_ms_per_session":     ratio(ms(loadWait), n),
		"jvm.exec_ms_per_session":          ratio(ms(execTime), n),
		"jvm.ns_per_instruction":           ratio(float64(execTime), float64(vm.insts)),
		"security.checks_per_session":      ratio(float64(vm.checks), n),
		"security.check_ms_per_session":    ratio(float64(lt.check.ns.Load())/1e6, n),
		"monitor.audit_events_per_session": ratio(float64(vm.audits), n),
		"monitor.audit_ms_per_session":     ratio(float64(lt.audit.ns.Load())/1e6, n),
		"proxy.hit_us_p50":                 us(quantile(hits, 0.5)),

		"proxy.hit_ratio":                 ratio(float64(t.hits), float64(t.requests)),
		"proxy.peer_fill_ratio":           ratio(float64(t.peerHits), float64(len(loads))),
		"proxy.origin_fetches_per_kclass": ratio(float64(lt.origin.calls.Load()), kclass),
		"compiler.derives_per_kclass":     ratio(derives, kclass),
		"compiler.derive_us_per_call":     perRun(&lt.compile),
		"cluster.peer_batches_per_kclass": ratio(float64(len(batches)), kclass),
		"cluster.peer_batch_us_p50":       us(quantile(batches, 0.5)),
		"cluster.peer_batch_us_p99":       us(quantile(batches, 0.99)),
		"attest.rounds_per_kclass":        ratio(float64(len(rounds)), kclass),
		"attest.round_us_p50":             us(quantile(rounds, 0.5)),

		"go.gc_cycles_per_session":   ratio(float64(w.mem1.NumGC-w.mem0.NumGC), n),
		"go.gc_pause_ms_per_session": ratio(float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e6, n),
		"go.heap_inuse_mb_end":       float64(w.mem1.HeapInuse) / (1 << 20),
		"trace.overhead_pct":         (ratio(float64(r.sessionP50()), float64(untracedP50)) - 1) * 100,
	}
	for k, v := range r.layer {
		m[k] = v
	}
	return m
}

// report renders metrics in defs order, one per line.
func report(defs []metricDef, m map[string]float64) string {
	var b []byte
	for _, d := range defs {
		b = fmt.Appendf(b, "  %-36s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
	return string(b)
}

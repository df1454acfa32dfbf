// Command e2ebench is the DVM's end-to-end benchmark. It runs one seeded
// workload through the real layers — workload generator, client VM,
// proxy, cluster, attestation, prefetch and the static service pipeline
// — checks every output against a reference, and prints the metrics as
// one JSON object on the last line of standard output:
//
//	e2ebench --workload cold_app --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs half the time untraced and half traced, and reports the
// per-layer metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// A run repeats its set-up at least setupReps times and for at least
// setupTime in all; setup_s is the median. One set-up of cold_app takes
// about 50 ms and of warm_app about 0.7 s. The median of 7 cold_app
// set-ups spread 0.3 between runs; that of about 40, 0.08-0.16.
const (
	setupReps = 7
	setupTime = 2 * time.Second
)

// moreSetups reports whether a run that has made setups repeats its
// set-up again.
func moreSetups(setups []time.Duration) bool {
	var total time.Duration
	for _, d := range setups {
		total += d
	}
	return len(setups) < setupReps || total < setupTime
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds time.Duration, lt *layerTrace) (*runResult, error){
	"cold_app": func(seed int64, seconds time.Duration, lt *layerTrace) (*runResult, error) {
		return runClosed(false, seed, seconds, lt)
	},
	"warm_app": func(seed int64, seconds time.Duration, lt *layerTrace) (*runResult, error) {
		return runClosed(true, seed, seconds, lt)
	},
	"fleet_mix": runFleet,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold_app, warm_app or fleet_mix")
	seed := flag.Int64("seed", 1, "seed for every random choice of the workload")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload cold_app|warm_app|fleet_mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := measureWorkload(run, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// measureWorkload runs the workload, untraced, or untraced then traced,
// and assembles the result.
func measureWorkload(run func(int64, time.Duration, *layerTrace) (*runResult, error), name string, seed int64, d time.Duration, traced bool) (*result, error) {
	if !traced {
		r, err := run(seed, d, nil)
		if err != nil {
			return nil, err
		}
		printReport(name, seed, "untraced", r)
		m := endToEndMetrics(r)
		fmt.Print(report(endToEnd, m))
		return assemble(endToEnd, m, r), nil
	}
	base, err := run(seed, d/2, nil)
	if err != nil {
		return nil, err
	}
	printReport(name, seed, "untraced half", base)
	lt := newLayerTrace()
	r, err := run(seed, d/2, lt)
	if err != nil {
		return nil, err
	}
	printReport(name, seed, "traced half", r)
	m := perLayerMetrics(r, lt, base.sessionP50())
	fmt.Print(report(perLayer, m))
	res := assemble(perLayer, m, r)
	failed, mismatched := base.failed()
	res.Attempted += len(base.win.sessions)
	res.Failed += failed
	res.Correct = res.Correct && mismatched == 0
	return res, nil
}

// assemble builds the result line for the metrics in defs.
func assemble(defs []metricDef, m map[string]float64, r *runResult) *result {
	failed, mismatched := r.failed()
	res := &result{
		Correct:   mismatched == 0,
		Attempted: len(r.win.sessions),
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return res
}

// printReport states what a run measured: its samples and host.
func printReport(name string, seed int64, what string, r *runResult) {
	failed, mismatched := r.failed()
	fmt.Printf("e2ebench %s seed=%d (%s): window %.2fs, %d sessions (%d failed, %d wrong output, failed_ratio %.4f), %d class loads\n",
		name, seed, what, r.win.elapsed.Seconds(), len(r.win.sessions), failed, mismatched,
		ratio(float64(failed), float64(len(r.win.sessions))), len(r.loads()))
	fmt.Printf("  %d set-ups, median %v (min %v, max %v); GOMAXPROCS=%d nproc=%d %s\n",
		len(r.setups), quantile(r.setups, 0.5), quantile(r.setups, 0), quantile(r.setups, 1),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if t := r.totals; t != nil {
		fmt.Printf("  proxy requests %d: %d cache hits, %d peer fills, %d origin fetches\n",
			t.requests, t.hits, t.peerHits, t.originFetches)
	}
	for _, s := range r.win.sessions {
		if s.err != nil {
			fmt.Printf("  failed session: %v\n", s.err)
			break
		}
	}
}

// Command dvmbench regenerates the paper's evaluation: every table and
// figure of §4 and §5, plus the ablations of the design choices called
// out in DESIGN.md.
//
// Usage:
//
//	dvmbench -all                   # everything, paper-scale workloads
//	dvmbench -fig 6 -scale 4        # one figure, workloads scaled down 4x
//	dvmbench -applets               # the §4.1.2 fetch-latency measurement
//	dvmbench -ablations
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dvm/internal/eval"
	"dvm/internal/workload"
)

func main() {
	figs := flag.String("fig", "", "comma-separated figure numbers to run (5,6,7,8,9,10,11,12)")
	all := flag.Bool("all", false, "run every experiment")
	applets := flag.Bool("applets", false, "run the §4.1.2 applet-fetch measurement")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	overload := flag.Bool("overload", false, "run the open-loop overload sweep (admission control vs saturation multiples)")
	churn := flag.Bool("churn", false, "run the cluster churn scenario (kill + join under zipf load, R=1 vs R=2)")
	attestBench := flag.Bool("attest", false, "run the attestation quorum ablation (quorum 1 vs 2 vs 3 tax + Byzantine divergence detection)")
	prefetchBench := flag.Bool("prefetch", false, "run the predictive-prefetch warm-vs-cold walk (2-node cluster, piggybacked successors, waste ledger)")
	scale := flag.Int("scale", 1, "workload scale divisor (1 = paper scale)")
	benchPipeline := flag.String("bench-pipeline", "", "run the pipeline benchmark and write its JSON report to this path (e.g. BENCH_PIPELINE.json)")
	benchIters := flag.Int("bench-iters", 200, "iterations per pipeline benchmark measurement")
	benchBaseline := flag.String("bench-baseline", "", "recorded BENCH_PIPELINE.json to gate against; exits 1 on >20% regression in host-independent metrics")
	flag.Parse()

	if !*all && *figs == "" && !*applets && !*ablations && !*overload && !*churn && !*attestBench && !*prefetchBench && *benchPipeline == "" {
		fmt.Fprintln(os.Stderr, "usage: dvmbench (-all | -fig N[,N...] | -applets | -ablations | -overload | -churn | -attest | -prefetch | -bench-pipeline FILE) [-scale N]")
		os.Exit(2)
	}
	want := map[string]bool{}
	if *all {
		for _, f := range []string{"5", "6", "7", "8", "9", "10", "11", "12"} {
			want[f] = true
		}
		*applets = true
		*ablations = true
		*overload = true
		*churn = true
		*attestBench = true
		*prefetchBench = true
	}
	for _, f := range strings.Split(*figs, ",") {
		if f != "" {
			want[f] = true
		}
	}
	specs := eval.ScaleSpecs(workload.Benchmarks(), *scale)
	appletSpecs := eval.ScaleSpecs(workload.Applets(), *scale)

	run := func(name string, fn func() (string, error)) {
		start := time.Now()
		text, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, time.Since(start).Seconds(), text)
	}

	if want["5"] {
		run("Figure 5: benchmark applications", func() (string, error) {
			_, text, err := eval.Fig5(specs)
			return text, err
		})
	}
	if want["6"] {
		run("Figure 6: end-to-end performance (monolithic vs DVM)", func() (string, error) {
			_, text, err := eval.Fig6(specs)
			return text, err
		})
	}
	if want["7"] {
		run("Figure 7: client-side verification overhead", func() (string, error) {
			_, text, err := eval.Fig7(specs)
			return text, err
		})
	}
	if want["8"] {
		run("Figure 8: static vs dynamic verifier checks", func() (string, error) {
			_, text, err := eval.Fig8(specs)
			return text, err
		})
	}
	if want["9"] {
		run("Figure 9: security microbenchmarks", func() (string, error) {
			_, text, err := eval.Fig9(2000)
			return text, err
		})
	}
	if want["10"] {
		run("Figure 10: proxy throughput vs clients (worst case, cache off)", func() (string, error) {
			counts := []int{1, 10, 25, 50, 100, 150, 200, 250, 300}
			if *scale > 1 {
				counts = []int{1, 10, 25, 50}
			}
			_, text, err := eval.Fig10(counts, eval.DefaultFig10Config())
			return text, err
		})
	}
	if *benchPipeline != "" {
		run("Pipeline benchmark (parse/encode codec + static service)", func() (string, error) {
			rep, text, err := eval.PipelineBench(*benchIters)
			if err != nil {
				return "", err
			}
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return "", err
			}
			// Gate before writing, so -bench-baseline FILE -bench-pipeline FILE
			// compares against the previous recording when re-recording in place.
			if *benchBaseline != "" {
				raw, err := os.ReadFile(*benchBaseline)
				if err != nil {
					return "", err
				}
				var base eval.PipelineBenchReport
				if err := json.Unmarshal(raw, &base); err != nil {
					return "", fmt.Errorf("%s: %v", *benchBaseline, err)
				}
				if regs := eval.ComparePipelineBench(&base, rep, 0.2); len(regs) > 0 {
					return "", fmt.Errorf("benchmark regression vs %s:\n  %s", *benchBaseline, strings.Join(regs, "\n  "))
				}
				text += "\nno regression vs " + *benchBaseline
			}
			if err := os.WriteFile(*benchPipeline, append(data, '\n'), 0o644); err != nil {
				return "", err
			}
			return text + "\nreport written to " + *benchPipeline, nil
		})
	}
	if *overload {
		run("Overload: open-loop load sweep, admission control on", func() (string, error) {
			cfg := eval.DefaultOverloadConfig()
			if *scale > 1 {
				cfg.Clients /= *scale
				cfg.Duration /= time.Duration(*scale)
			}
			_, text, err := eval.Overload(cfg, 0)
			return text, err
		})
	}
	if *churn {
		run("Cluster churn: kill + join under load, replication comparison", func() (string, error) {
			cfg := eval.ChurnConfig{}
			if *scale > 1 {
				cfg.Clients = 16 / *scale
				cfg.Phase = 1200 * time.Millisecond / time.Duration(*scale)
			}
			_, text, err := eval.ClusterChurn(cfg, nil)
			return text, err
		})
	}
	if *attestBench {
		run("Attestation: quorum ablation + Byzantine divergence detection", func() (string, error) {
			cfg := eval.AttestBenchConfig{}
			if *scale > 1 {
				cfg.Rounds = 300 / *scale
				cfg.Classes = 64 / *scale
			}
			_, text, err := eval.AttestBench(cfg)
			return text, err
		})
	}
	if *prefetchBench {
		run("Prefetch: predictive piggyback, warm-vs-cold 2-node walk", func() (string, error) {
			classes, kb := 128, 8
			if *scale > 1 {
				classes = 128 / *scale
				if classes < 8 {
					classes = 8
				}
			}
			_, text, err := eval.PrefetchBench(classes, kb, 0)
			return text, err
		})
	}
	if *applets {
		run("§4.1.2: applet fetch overhead", func() (string, error) {
			n := 100
			if *scale > 1 {
				n = 100 / *scale
			}
			_, text, err := eval.AppletFetch(n)
			return text, err
		})
	}
	if want["11"] {
		run("Figure 11: startup time vs bandwidth", func() (string, error) {
			_, text, err := eval.Fig11(appletSpecs, eval.StandardBandwidthsKBps)
			return text, err
		})
	}
	if want["12"] {
		run("Figure 12: startup improvement with repartitioning", func() (string, error) {
			_, text, err := eval.Fig12(appletSpecs, eval.StandardBandwidthsKBps)
			return text, err
		})
	}
	if *ablations {
		run("Ablation: naive per-check RPC distribution", func() (string, error) {
			_, text, err := eval.AblationRPC(specs[0], 2*time.Millisecond)
			return text, err
		})
		run("Ablation: lazy vs eager link checks", func() (string, error) {
			_, text, err := eval.AblationEager()
			return text, err
		})
		run("Ablation: enforcement-manager cache", func() (string, error) {
			_, text, err := eval.AblationSecurityCache(2000, 200*time.Microsecond)
			return text, err
		})
		run("Ablation: reflective vs attribute RTVerifier (§4.3)", func() (string, error) {
			_, text, err := eval.AblationReflection(specs[0])
			return text, err
		})
		run("Ablation: replicated proxies (§2)", func() (string, error) {
			clients := 300
			reps := []int{1, 2, 4, 8}
			if *scale > 1 {
				clients = 60
				reps = []int{1, 2}
			}
			_, text, err := eval.AblationReplication(clients, reps, eval.DefaultFig10Config())
			return text, err
		})
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"dvm/internal/compiler"
	"dvm/internal/eval"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// The traced run must serve exactly what the untraced run serves: the
// wrappers time calls and forward them unchanged.

func TestFilterWrappersKeepMethodFilter(t *testing.T) {
	lt := newLayerTrace()
	for _, f := range eval.ServicePipeline(eval.StandardPolicy(), true).Filters() {
		w := wrapFilter(f, lt.filter(f.Name()))
		_, inner := f.(rewrite.MethodFilter)
		_, outer := w.(rewrite.MethodFilter)
		if inner != outer {
			t.Errorf("filter %s: MethodFilter %v, wrapped %v", f.Name(), inner, outer)
		}
		if w.Name() != f.Name() {
			t.Errorf("wrapped filter renamed %s to %s", f.Name(), w.Name())
		}
	}
}

func TestWrappedPipelineIsByteIdentical(t *testing.T) {
	s, err := generate(append(workload.Benchmarks(), workload.Applets()...))
	if err != nil {
		t.Fatal(err)
	}
	policy := eval.StandardPolicy()
	lt := newLayerTrace()
	plain := eval.ServicePipeline(policy, true)
	traced := lt.pipeline(eval.ServicePipeline(policy, true))
	names := s.classNames()
	for _, arch := range fleetArchs {
		for _, name := range names {
			want, err := plain.Process(s.origin[name], archContext(arch))
			if err != nil {
				t.Fatalf("%s (%s): %v", name, arch, err)
			}
			got, err := traced.Process(s.origin[name], archContext(arch))
			if err != nil {
				t.Fatalf("%s (%s) traced: %v", name, arch, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (%s): traced pipeline output differs", name, arch)
			}
		}
	}
	runs := int64(len(fleetArchs) * len(names))
	for _, f := range plain.Filters() {
		if got := lt.filter(f.Name()).calls.Load(); got != runs {
			t.Errorf("filter %s: %d runs recorded, want %d", f.Name(), got, runs)
		}
	}
}

func archContext(arch string) *rewrite.Context {
	ctx := rewrite.NewContext()
	ctx.ClientArch = arch
	return ctx
}

func TestOriginAndCompileWrappersPassBytesThrough(t *testing.T) {
	s, err := generate(workload.Benchmarks()[:1])
	if err != nil {
		t.Fatal(err)
	}
	lt := newLayerTrace()
	origin := timedOrigin{s.origin, &lt.origin}
	compile := lt.timedCompile(compiler.CompileArtifact)
	base := eval.ServicePipeline(eval.StandardPolicy(), true)
	for _, name := range s.classNames() {
		got, err := origin.Fetch(context.Background(), name)
		if err != nil || !bytes.Equal(got, s.origin[name]) {
			t.Fatalf("origin %s: bytes differ (err %v)", name, err)
		}
		art, err := base.Process(got, archContext(baseArch))
		if err != nil {
			t.Fatal(err)
		}
		want, err := compiler.CompileArtifact(art)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := compile(art)
		if err != nil || !bytes.Equal(derived, want) {
			t.Fatalf("compile %s: bytes differ (err %v)", name, err)
		}
	}
	if _, err := origin.Fetch(context.Background(), "no/such/Class"); err == nil {
		t.Error("origin wrapper hid a not-found error")
	}
	n := int64(len(s.origin))
	if lt.origin.calls.Load() != n+1 || lt.compile.calls.Load() != n {
		t.Errorf("recorded %d fetches and %d derives, want %d and %d",
			lt.origin.calls.Load(), lt.compile.calls.Load(), n+1, n)
	}
}

// TestCompileWrapperSplitsDerivesFromVotes checks that an owner's
// derive and a variant's vote, both calls of AOTConfig.Compile, land in
// separate counters.
func TestCompileWrapperSplitsDerivesFromVotes(t *testing.T) {
	s, err := generate(workload.Benchmarks()[:1])
	if err != nil {
		t.Fatal(err)
	}
	lt := newLayerTrace()
	p := proxy.New(s.origin, proxy.Config{
		Pipeline:     eval.ServicePipeline(eval.StandardPolicy(), true),
		CacheEnabled: true,
		AOT: &proxy.AOTConfig{
			Arch:     compiler.ArchDVM,
			BaseArch: baseArch,
			Compile:  lt.timedCompile(compiler.CompileArtifact),
		},
	})
	name := s.classNames()[0]
	ctx := context.Background()
	base, err := p.Request(ctx, proxy.Lookup{Client: "c", Arch: baseArch, Class: name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Request(ctx, proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: name}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CompileDigest(ctx, compiler.ArchDVM, name, base.Data); err != nil {
		t.Fatal(err)
	}
	if d, v := lt.compile.calls.Load(), lt.vote.calls.Load(); d != 1 || v != 1 {
		t.Errorf("recorded %d derives and %d votes, want 1 and 1", d, v)
	}
}

func TestTransportWrapperPassesBytesThrough(t *testing.T) {
	body := bytes.Repeat([]byte("dvm-peer-envelope "), 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	lt := newLayerTrace()
	client := &http.Client{Transport: timedTransport{inner: http.DefaultTransport, lt: lt}}
	for _, path := range []string{batchPath, attestPrefix + "jvm/a/B", "/peer/v1/gossip"} {
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: body differs (err %v)", path, err)
		}
	}
	if b, a := len(lt.peerBatch.snapshot()), len(lt.attest.snapshot()); b != 1 || a != 1 {
		t.Errorf("recorded %d batch and %d attest hops, want 1 and 1", b, a)
	}
}

func TestScheduleIsSeededAndStratified(t *testing.T) {
	const n = 10 * fleetBlock
	a := fleetSchedule(rand.New(rand.NewSource(7)), n, 11)
	b := fleetSchedule(rand.New(rand.NewSource(7)), n, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	c := fleetSchedule(rand.New(rand.NewSource(8)), n, 11)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	counts := make([]int, 11)
	pairs := make(map[fleetSession]int)
	for _, s := range a {
		counts[s.app]++
		if s.app == 0 {
			pairs[s]++
		}
	}
	// Zipf(0.9) over 11 ranks gives rank 1 about 30% of the sessions.
	if counts[0] < n*27/100 || counts[0] > n*33/100 {
		t.Errorf("rank 1 drew %d of %d sessions", counts[0], n)
	}
	for p, k := range pairs {
		if k < counts[0]/6-1 || k > counts[0]/6+1 {
			t.Errorf("rank 1 (arch, node) %v drew %d of %d sessions", p, k, counts[0])
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", what, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: %s (%s) here, %s (%s) in BENCHMARK.json", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}

// TestWorkloadsSmoke runs each workload briefly, traced, and checks
// that every session served the reference output and the serve paths
// each workload was chosen for.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		lt := newLayerTrace()
		r, err := run(1, time.Second, lt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if failed, _ := r.failed(); failed > 0 || len(r.win.sessions) == 0 {
			t.Fatalf("%s: %d of %d sessions failed", name, failed, len(r.win.sessions))
		}
		m := perLayerMetrics(r, lt, r.sessionP50())
		runs, hits := m["rewrite.pipeline_runs_per_kclass"], m["proxy.hit_ratio"]
		switch name {
		case "cold_app":
			if runs < 990 || runs > 1010 {
				t.Errorf("cold_app: %.1f pipeline runs per 1000 class loads, want 1000", runs)
			}
		case "warm_app":
			if runs != 0 || hits != 1 {
				t.Errorf("warm_app: %.1f pipeline runs per 1000 class loads and hit ratio %.3f, want 0 and 1", runs, hits)
			}
		case "fleet_mix":
			for _, k := range []string{"proxy.hit_ratio", "proxy.peer_fill_ratio", "compiler.derives_per_kclass", "proxy.origin_fetches_per_kclass"} {
				if m[k] <= 0 {
					t.Errorf("fleet_mix: %s = %v, want > 0", k, m[k])
				}
			}
			// Quorum 2: each derive gets one compile-mode vote.
			if d, v := lt.compile.calls.Load(), lt.vote.calls.Load(); v != d {
				t.Errorf("fleet_mix: %d derives and %d compile votes, want equal", d, v)
			}
		}
	}
}

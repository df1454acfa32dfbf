package eval

// Golden test for the invariant quorum attestation stands on: the
// static-service pipeline is byte-deterministic, so the output digest
// for a given (policy, origin bytes, client arch) is a fixed value that
// two independently constructed pipelines — two nodes that never shared
// state — both reproduce. If this ever breaks, digest votes would flag
// honest nodes as divergent; it must fail loudly here first.
//
// testdata/pipeline_digests.txt pins, per configuration, one line per
// class of Corpus(16, 4096, 7) (output digest plus the checks-inserted,
// audit-sites and census notes) and one aggregate line over every
// Benchmarks()+Applets() class in sorted-name order. A change that moves
// pipeline output on purpose replaces the file with the table this test
// prints on mismatch (minus the test log's line indentation).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/monitor"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/verifier"
	"dvm/internal/workload"
)

const goldenDigests = "testdata/pipeline_digests.txt"

// digestConfig is one pipeline configuration pinned by the golden file.
type digestConfig struct {
	name, arch string
	build      func() *rewrite.Pipeline
}

func digestConfigs() []digestConfig {
	service := func(compile bool) func() *rewrite.Pipeline {
		// Fresh policy parse per pipeline, so instances share nothing.
		return func() *rewrite.Pipeline { return ServicePipeline(StandardPolicy(), compile) }
	}
	firstUse := func() *rewrite.Pipeline {
		return rewrite.NewPipeline(
			verifier.Filter(),
			security.Filter(StandardPolicy()),
			monitor.Filter(monitor.Config{Methods: true, FirstUse: true, Skip: monitor.SkipInitializers}),
		)
	}
	return []digestConfig{
		{"service", "-", service(false)},
		{"service", "dvm", service(false)},
		{"service+compile", "-", service(true)},
		{"service+compile", "dvm", service(true)},
		{"firstuse", "-", firstUse},
	}
}

// digestOutcome is one class's pipeline output digest and notes.
type digestOutcome struct {
	digest         string
	checks, audits any
	census         verifier.Census
}

func (o digestOutcome) String() string {
	c := o.census
	return fmt.Sprintf("%s checks=%v audits=%v census=%d/%d/%d/%d",
		o.digest, o.checks, o.audits, c.Phase1, c.Phase2, c.Phase3, c.DynamicInjected)
}

// runDigests processes every class of origin through p, in reverse
// sorted order when reverse is set (so state leaking from one class into
// the next would show as a difference between the two instances).
func runDigests(p *rewrite.Pipeline, arch string, origin map[string][]byte, reverse bool) (map[string]digestOutcome, error) {
	names := sortedNames(origin)
	if reverse {
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
	}
	out := make(map[string]digestOutcome, len(names))
	for _, name := range names {
		ctx := rewrite.NewContext()
		if arch != "-" {
			ctx.ClientArch = arch
		}
		b, err := p.Process(origin[name], ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		o := digestOutcome{
			digest: attest.Digest(b),
			checks: ctx.Notes[security.NoteChecksInserted],
			audits: ctx.Notes[monitor.NoteAuditSites],
		}
		if c, ok := ctx.Notes[verifier.NoteCensus].(*verifier.Census); ok {
			o.census = *c
		}
		out[name] = o
	}
	return out, nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// aggregateDigest folds per-class outcomes, in sorted-name order, into
// one digest line with summed notes.
func aggregateDigest(outs map[string]digestOutcome) string {
	h := sha256.New()
	var checks, audits int
	var census verifier.Census
	for _, name := range sortedNames(outs) {
		o := outs[name]
		fmt.Fprintf(h, "%s %s\n", name, o)
		if n, ok := o.checks.(int); ok {
			checks += n
		}
		if n, ok := o.audits.(int); ok {
			audits += n
		}
		census.Add(o.census)
	}
	return fmt.Sprintf("aggregate(%d) %s checks=%d audits=%d census=%d/%d/%d/%d",
		len(outs), hex.EncodeToString(h.Sum(nil)), checks, audits,
		census.Phase1, census.Phase2, census.Phase3, census.DynamicInjected)
}

// digestTable renders the golden table for one pipeline instance per
// configuration, built by each config's constructor.
func digestTable(corpus, suite map[string][]byte, reverse bool) (string, error) {
	var b strings.Builder
	for _, cfg := range digestConfigs() {
		p := cfg.build()
		outs, err := runDigests(p, cfg.arch, corpus, reverse)
		if err != nil {
			return "", fmt.Errorf("%s arch=%s: %w", cfg.name, cfg.arch, err)
		}
		for _, name := range sortedNames(outs) {
			fmt.Fprintf(&b, "%s arch=%s %s %s\n", cfg.name, cfg.arch, name, outs[name])
		}
		all, err := runDigests(p, cfg.arch, suite, reverse)
		if err != nil {
			return "", fmt.Errorf("%s arch=%s: %w", cfg.name, cfg.arch, err)
		}
		fmt.Fprintf(&b, "%s arch=%s %s\n", cfg.name, cfg.arch, aggregateDigest(all))
	}
	return b.String(), nil
}

// digestSuite returns every Benchmarks()+Applets() class by name.
func digestSuite(t *testing.T) map[string][]byte {
	t.Helper()
	all := make(map[string][]byte)
	for _, spec := range append(workload.Benchmarks(), workload.Applets()...) {
		app, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range app.Classes {
			if _, dup := all[name]; dup {
				t.Fatalf("class %s is in two apps", name)
			}
			all[name] = data
		}
	}
	return all
}

func TestServicePipelineDigestInvariant(t *testing.T) {
	corpus, err := Corpus(16, 4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	suite := digestSuite(t)
	want, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	// "Node A" runs classes in sorted order, "node B" in reverse.
	for _, reverse := range []bool{false, true} {
		got, err := digestTable(corpus, suite, reverse)
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first difference at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
				break
			}
		}
		t.Fatalf("pipeline output differs from %s (reverse order %v); table got:\n%s", goldenDigests, reverse, got)
	}
}

package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"dvm/internal/proxy"
)

func parse(t *testing.T, args ...string) (options, error) {
	t.Helper()
	fs := flag.NewFlagSet("dvmproxy", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestParseFlagsMapsEveryFlag sets each flag to a non-default value and
// checks it lands in its field; a flag without a row fails the test.
func TestParseFlagsMapsEveryFlag(t *testing.T) {
	rows := []struct {
		args []string
		got  func(o options) any
		want any
	}{
		{[]string{"-addr=:9000"}, func(o options) any { return o.addr }, ":9000"},
		{[]string{"-origin=/srv/classes"}, func(o options) any { return o.originDir }, "/srv/classes"},
		{[]string{"-policy=p.xml"}, func(o options) any { return o.policyPath }, "p.xml"},
		{[]string{"-no-cache"}, func(o options) any { return o.proxy.CacheEnabled }, false},
		{[]string{"-disk-cache=/var/dvm"}, func(o options) any { return o.proxy.DiskCacheDir }, "/var/dvm"},
		{[]string{"-cache-ttl=7s"}, func(o options) any { return o.proxy.CacheTTL }, 7 * time.Second},
		{[]string{"-no-compile"}, func(o options) any { return o.noCompile }, true},
		{[]string{"-no-audit"}, func(o options) any { return o.noAuditFilter }, true},
		{[]string{"-audit-log=a.log"}, func(o options) any { return o.auditLog }, "a.log"},
		{[]string{"-stats-interval=9s"}, func(o options) any { return o.statsInterval }, 9 * time.Second},
		{[]string{"-fetch-timeout=11s"}, func(o options) any { return o.proxy.FetchTimeout }, 11 * time.Second},
		{[]string{"-retries=4"}, func(o options) any { return o.proxy.FetchRetries }, 4},
		{[]string{"-breaker-threshold=7"}, func(o options) any { return [2]int{o.proxy.BreakerThreshold, o.cluster.BreakerThreshold} }, [2]int{7, 7}},
		{[]string{"-breaker-cooldown=8s"}, func(o options) any { return [2]time.Duration{o.proxy.BreakerCooldown, o.cluster.BreakerCooldown} }, [2]time.Duration{8 * time.Second, 8 * time.Second}},
		{[]string{"-self=http://a:1"}, func(o options) any { return o.cluster.Self }, "http://a:1"},
		{[]string{"-self=http://a:1", "-peers=http://a:1, http://b:2,"}, func(o options) any { return o.cluster.Peers }, []string{"http://a:1", "http://b:2"}},
		{[]string{"-vnodes=64"}, func(o options) any { return o.cluster.VirtualNodes }, 64},
		{[]string{"-replication=3"}, func(o options) any { return o.cluster.Replication }, 3},
		{[]string{"-gossip-interval=2s"}, func(o options) any { return o.cluster.GossipInterval }, 2 * time.Second},
		{[]string{"-suspect-timeout=6s"}, func(o options) any { return o.cluster.SuspectTimeout }, 6 * time.Second},
		{[]string{"-drain=false"}, func(o options) any { return o.drain }, false},
		{[]string{"-hot-threshold=-1"}, func(o options) any { return o.cluster.HotThreshold }, -1},
		{[]string{"-attest-key=secret"}, func(o options) any { return string(o.cluster.AttestKey) }, "secret"},
		{[]string{"-attest-quorum=3"}, func(o options) any { return o.cluster.AttestQuorum }, 3},
		{[]string{"-attest-policy=hot"}, func(o options) any { return o.cluster.AttestPolicy }, "hot"},
		{[]string{"-attest-sample-rate=5"}, func(o options) any { return o.cluster.AttestSampleRate }, 5},
		{[]string{"-quarantine-after=2"}, func(o options) any { return o.cluster.QuarantineAfter }, 2},
		{[]string{"-aot-base-arch=jvm"}, func(o options) any { return o.cluster.AOTBaseArch }, "jvm"},
		{[]string{"-prefetch-k=-1"}, func(o options) any { return o.cluster.PrefetchK }, -1},
		{[]string{"-prefetch-budget=1024"}, func(o options) any { return o.cluster.PrefetchBudget }, 1024},
		{[]string{"-prefetch-confidence=0.5"}, func(o options) any { return o.cluster.PrefetchConfidence }, 0.5},
		{[]string{"-peer-timeout=4s"}, func(o options) any { return o.cluster.PeerTimeout }, 4 * time.Second},
		{[]string{"-read-header-timeout=1s"}, func(o options) any { return o.readHeaderTimeout }, time.Second},
		{[]string{"-idle-timeout=1m"}, func(o options) any { return o.idleTimeout }, time.Minute},
		{[]string{"-drain-timeout=3s"}, func(o options) any { return o.drainTimeout }, 3 * time.Second},
		{[]string{"-max-queue=128"}, func(o options) any { return o.proxy.MaxQueue }, 128},
		{[]string{"-max-concurrent=16"}, func(o options) any { return o.proxy.MaxConcurrent }, 16},
		{[]string{"-queue-deadline=250ms"}, func(o options) any { return o.proxy.QueueDeadline }, 250 * time.Millisecond},
		{[]string{"-shed-policy=fifo"}, func(o options) any { return o.proxy.ShedPolicy }, proxy.ShedFIFO},
	}
	covered := map[string]bool{}
	for _, r := range rows {
		o, err := parse(t, append([]string{"-origin=/classes"}, r.args...)...)
		if err != nil {
			t.Errorf("%v: %v", r.args, err)
			continue
		}
		if got := r.got(o); !reflect.DeepEqual(got, r.want) {
			t.Errorf("%v: got %#v, want %#v", r.args, got, r.want)
		}
		name := strings.TrimLeft(strings.SplitN(r.args[len(r.args)-1], "=", 2)[0], "-")
		covered[name] = true
	}
	fs := flag.NewFlagSet("dvmproxy", flag.ContinueOnError)
	if _, err := parseFlags(fs, []string{"-origin=/classes"}); err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("flag -%s has no row", f.Name)
		}
	})
}

func TestParseFlagsDefaultsAndErrors(t *testing.T) {
	o, err := parse(t, "-origin=/classes")
	if err != nil {
		t.Fatal(err)
	}
	if !o.proxy.CacheEnabled || o.cluster.Self != "" || len(o.cluster.AttestKey) != 0 || o.proxy.ShedPolicy != proxy.ShedPriority {
		t.Errorf("defaults: cache=%v self=%q attest-key=%q shed=%q; want a cached standalone proxy, attestation off, priority shedding",
			o.proxy.CacheEnabled, o.cluster.Self, o.cluster.AttestKey, o.proxy.ShedPolicy)
	}
	for _, args := range [][]string{
		{},                                 // -origin is required
		{"-origin=/classes", "-peers=x"},   // -peers needs -self
		{"-origin=/classes", "-retries=x"}, // malformed value
	} {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// TestAuditLineShowsShed: an operator reading the audit log must be able
// to tell a 429 (shed) from an origin error.
func TestAuditLineShowsShed(t *testing.T) {
	line := auditLine(proxy.RequestRecord{Client: "c", Class: "app/Main", Shed: true, FetchError: "proxy: overloaded"})
	if !strings.Contains(line, "shed=true") || !strings.HasSuffix(line, "\n") {
		t.Errorf("audit line %q does not report the shed", line)
	}
}

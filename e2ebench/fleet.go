package main

// fleet_mix: a 3-node attested cluster with the shared AOT code cache,
// driven over loopback HTTP. Each session is one client fetching an
// app's classes in sorted order, as a browser fetching an applet through
// the organization's proxy fleet would.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/compiler"
	"dvm/internal/eval"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

const (
	fleetNodes = 3
	// fleetBudget is each node's cache budget in bytes: below the
	// 11.5 MB both archs of the suite take once transformed, and above
	// the share a node owns or replicates, so the warm fleet does not
	// thrash. Closer to that share, LRU eviction cascades made the
	// figures spread 0.3-0.6 between runs.
	fleetBudget = 8 << 20
	// fleetBlock is the length of one stratified block of the schedule.
	// A window stops only at a block boundary.
	fleetBlock = 24
	zipfS      = 0.9
	baseArch   = "jvm"
)

var fleetArchs = []string{baseArch, compiler.ArchDVM}

// fleetAttestKey seals the fleet's attestations; any key works.
var fleetAttestKey = []byte("e2ebench-fleet-attest-key")

// fleetSession is one scheduled session.
type fleetSession struct{ app, arch, node int }

// fleetSchedule draws n sessions from rng, in blocks of fleetBlock.
// Apps are ranked by suite order and drawn by zipf(s) popularity,
// stratified per block: one draw from each of fleetBlock equal slices
// of the popularity CDF, in drawn order, so every seed gets the same app
// mix. Each app cycles through every (arch, entry node) pair in an order
// drawn per cycle.
func fleetSchedule(rng *rand.Rand, n, apps int) []fleetSession {
	cdf := make([]float64, apps)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = total
	}
	pairs := len(fleetArchs) * fleetNodes
	cycles := make([][]int, apps)
	out := make([]fleetSession, 0, n)
	for len(out) < n {
		picks := rng.Perm(fleetBlock)
		for j := 0; j < fleetBlock && len(out) < n; j++ {
			u := (float64(picks[j]) + rng.Float64()) / fleetBlock * total
			app := sort.SearchFloat64s(cdf, u)
			if app >= apps {
				app = apps - 1
			}
			if len(cycles[app]) == 0 {
				cycles[app] = rng.Perm(pairs)
			}
			pair := cycles[app][0]
			cycles[app] = cycles[app][1:]
			out = append(out, fleetSession{app: app, arch: pair % len(fleetArchs), node: pair / len(fleetArchs)})
		}
	}
	return out
}

// fleetRun is the state of one fleet_mix run.
type fleetRun struct {
	suite *suite
	refs  map[string]map[string][]byte
	lc    *cluster.LocalCluster
	tr    *http.Transport
	wire  atomic.Int64
	seq   atomic.Int64
}

// startFleet starts the cluster over s, with the layer wrappers when
// the run is traced.
func startFleet(s *suite, lt *layerTrace) (*cluster.LocalCluster, error) {
	policy := eval.StandardPolicy()
	origin := proxy.Origin(s.origin)
	if lt != nil {
		origin = timedOrigin{origin, &lt.origin}
	}
	mkProxy := func(int) proxy.Config {
		cfg := proxy.Config{
			Pipeline:     eval.ServicePipeline(policy, true),
			CacheEnabled: true,
			CacheBudget:  fleetBudget,
		}
		if lt != nil {
			cfg.Pipeline = lt.pipeline(cfg.Pipeline)
			cfg.OnAudit = lt.onProxyAudit
			cfg.AOT = &proxy.AOTConfig{
				Arch:     compiler.ArchDVM,
				BaseArch: baseArch,
				Compile:  lt.timedCompile(compiler.CompileArtifact),
			}
		}
		return cfg
	}
	mkCluster := func(int) cluster.Config {
		cfg := cluster.Config{
			GossipInterval: -1,
			AttestKey:      fleetAttestKey,
			AttestQuorum:   2,
			AOTBaseArch:    baseArch,
			// Hot-key replication off: a node's local share of an app
			// then depends on the ring alone, not on how many fills a
			// key has had so far in the run.
			HotThreshold: -1,
		}
		if lt != nil {
			cfg.Transport = timedTransport{inner: http.DefaultTransport, lt: lt}
		}
		return cfg
	}
	lc, err := cluster.StartLocal(origin, fleetNodes, mkProxy, mkCluster)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range lc.Nodes {
		n.GossipNow(ctx)
	}
	return lc, nil
}

// clientTransport is the transport every client shares; it counts the
// bytes on its connections.
func (f *fleetRun) clientTransport() *http.Transport {
	dialer := &net.Dialer{}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, &f.wire}, nil
		},
		MaxIdleConnsPerHost: closedWorkers,
	}
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// session fetches every class of the scheduled app through the entry
// node and checks each against the reference bytes.
func (f *fleetRun) session(fs fleetSession) session {
	start := time.Now()
	arch := fleetArchs[fs.arch]
	loader := proxy.HTTPLoaderWith(f.lc.Nodes[fs.node].Self(),
		fmt.Sprintf("client-%d", f.seq.Add(1)), arch,
		proxy.LoaderOptions{Timeout: 30 * time.Second, Transport: f.tr})
	var s session
	for _, name := range f.suite.names[fs.app] {
		t := time.Now()
		data, err := loader.Load(name)
		s.loads = append(s.loads, time.Since(t))
		s.bytes += int64(len(data))
		if err != nil {
			s.err = err
			break
		}
		if !bytes.Equal(data, f.refs[arch][name]) {
			s.mismatch = true
		}
	}
	s.dur = time.Since(start)
	return s
}

// warmPair reports whether the warm-up fetches app (by popularity rank)
// in arch. The least popular app stays cold, so the window fetches it
// from the origin; the next one is warmed in the base arch only, so its
// compiled form is derived inside the window. Their first loads stay
// under 1% of a window's loads: a larger cold set lands them on the
// class-load p99, which then swings with how they queue.
func warmPair(app, arch, apps int) bool {
	switch app {
	case apps - 1:
		return false
	case apps - 2:
		return fleetArchs[arch] == baseArch
	}
	return true
}

// sessions returns the closedLoop schedule of sched.
func (f *fleetRun) sessions(sched []fleetSession) func(i int) func() session {
	return func(i int) func() session {
		fs := sched[i]
		return func() session { return f.session(fs) }
	}
}

// fleetMaxRate bounds the sessions a window can take per second; the
// schedule is drawn that long. The 2-CPU host runs about 150.
const fleetMaxRate = 1000

// runFleet runs fleet_mix for seconds, traced when lt is non-nil.
func runFleet(seed int64, seconds time.Duration, lt *layerTrace) (*runResult, error) {
	specs := append(workload.Benchmarks(), workload.Applets()...)
	f := &fleetRun{}
	res := &runResult{}
	defer func() {
		if f.lc != nil {
			f.lc.Close()
		}
	}()
	for moreSetups(res.setups) {
		if f.lc != nil {
			f.lc.Close()
			f.lc = nil
		}
		start := time.Now()
		s, err := generate(specs)
		if err != nil {
			return nil, err
		}
		lc, err := startFleet(s, lt)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start))
		f.suite, f.lc = s, lc
	}
	policy := eval.StandardPolicy()
	newPipeline := func() *rewrite.Pipeline { return eval.ServicePipeline(policy, true) }
	refs, err := pipelineRefs(f.suite, fleetArchs, newPipeline, closedWorkers)
	if err != nil {
		return nil, err
	}
	f.refs = refs
	f.tr = f.clientTransport()
	defer f.tr.CloseIdleConnections()

	// Warm-up, untimed: every warm (app, arch) pair is fetched once
	// through each node. The pairs left cold are first fetched inside
	// the window, so every window has the same origin misses and derives.
	var prime []fleetSession
	for app := range f.suite.apps {
		for arch := range fleetArchs {
			for node := 0; node < fleetNodes && warmPair(app, arch, len(f.suite.apps)); node++ {
				prime = append(prime, fleetSession{app: app, arch: arch, node: node})
			}
		}
	}
	closedLoop(len(prime), fleetBlock, time.Time{}, f.sessions(prime))

	if lt != nil {
		lt.reset()
	}
	before := f.nodeCounters()
	f.wire.Store(0)
	rng := rand.New(rand.NewSource(seed))
	sched := fleetSchedule(rng, fleetMaxRate*int(seconds.Seconds()), len(f.suite.apps))
	res.win = measure(func() []session {
		return closedLoop(len(sched), fleetBlock, time.Now().Add(seconds), f.sessions(sched))
	})
	res.win.wire = f.wire.Load()
	after := f.nodeCounters()
	res.totals = &proxyTotals{}
	for i := range after.stats {
		res.totals.add(after.stats[i])
		res.totals.sub(before.stats[i])
	}
	kclass := float64(len(res.loads())) / 1000
	res.layer = map[string]float64{
		"cluster.peer_errors":          float64(after.peerErrors - before.peerErrors),
		"prefetch.hit_ratio":           ratio(float64(after.pfHits-before.pfHits), float64(after.pfInserted-before.pfInserted)),
		"prefetch.waste_kb_per_kclass": ratio(float64(after.pfWaste-before.pfWaste)/1024, kclass),
	}
	if lt != nil {
		probe, err := probeCodec(f.suite, fleetArchs, newPipeline)
		if err != nil {
			return nil, err
		}
		for k, v := range probe {
			res.layer[k] = v
		}
	}
	return res, nil
}

// fleetCounters holds each node's proxy counters and sums the other
// node counters the fleet metrics are made of.
type fleetCounters struct {
	stats                       []proxy.Stats
	peerErrors                  int64
	pfInserted, pfHits, pfWaste int64
}

func (f *fleetRun) nodeCounters() fleetCounters {
	var c fleetCounters
	for _, n := range f.lc.Nodes {
		c.stats = append(c.stats, n.Proxy().Stats())
		c.peerErrors += n.PeerErrors()
		ins, hits, _, waste, _ := n.Proxy().PrefetchStats()
		c.pfInserted += ins
		c.pfHits += hits
		c.pfWaste += waste
	}
	return c
}

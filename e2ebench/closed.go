package main

// cold_app and warm_app: the paper's Figure 6 "DVM uncached" and "DVM
// cached" runs as a closed loop. Two client workers take sessions from
// a schedule of rounds; each round runs every Figure 5 app once, in an
// order drawn from the seed, and a window stops only at a round
// boundary, so every run measures the same app mix.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dvm/internal/eval"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/workload"
)

// closedRun is the state shared by the sessions of one cold_app or
// warm_app run.
type closedRun struct {
	policy *security.Policy
	suite  *suite
	refs   [][32]byte
	sec    *security.Server
	shared *proxy.Proxy // warm_app's proxy; nil for cold_app
	lt     *layerTrace  // nil when untraced
	totals *proxyTotals
}

// newProxy builds a DVM proxy over the suite, with the layer wrappers
// when the run is traced.
func (c *closedRun) newProxy() *proxy.Proxy {
	origin := proxy.Origin(c.suite.origin)
	cfg := proxy.Config{Pipeline: eval.ServicePipeline(c.policy, true), CacheEnabled: true}
	if c.lt != nil {
		origin = timedOrigin{origin, &c.lt.origin}
		cfg.Pipeline = c.lt.pipeline(cfg.Pipeline)
		cfg.OnAudit = c.lt.onProxyAudit
	}
	return proxy.New(origin, cfg)
}

// session runs app on a fresh DVM client. cold_app also builds the
// client a fresh proxy, inside the timed session.
func (c *closedRun) session(seq, app int, coll *monitor.Collector) session {
	start := time.Now()
	p := c.shared
	if p == nil {
		p = c.newProxy()
	}
	client, err := eval.NewDVMClient(p, fmt.Sprintf("client-%d", seq), c.sec, coll)
	if err != nil {
		return session{err: err}
	}
	h := sha256.New()
	client.VM.Stdout = h
	ll := &loadLog{inner: client.VM.Loader}
	client.VM.Loader = ll
	if c.lt != nil {
		client.VM.CheckAccess = timedChecker{client.VM.CheckAccess, &c.lt.check}
		client.VM.OnAudit = timedAudit(client.VM.OnAudit, &c.lt.audit)
	}
	spec := c.suite.apps[app].Spec
	thrown, err := client.VM.RunMain(spec.MainClass(), nil)
	s := session{dur: time.Since(start), loads: ll.d, bytes: ll.bytes, vm: client.VM.Stats, err: err}
	if p != c.shared {
		c.totals.add(p.Stats())
	}
	if err == nil && thrown != nil {
		s.err = fmt.Errorf("%s: uncaught %s", spec.Name, jvm.DescribeThrowable(thrown))
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	s.mismatch = s.err == nil && sum != c.refs[app]
	return s
}

// rounds returns the closedLoop schedule of whole rounds: each round
// runs every app once, in an order drawn from rng, and gets its own
// audit collector, shared by its sessions (a run-long collector would
// keep every audit event of the run alive).
func (c *closedRun) rounds(rng *rand.Rand) func(i int) func() session {
	apps := len(c.suite.apps)
	var (
		order []int
		coll  *monitor.Collector
	)
	return func(i int) func() session {
		if i%apps == 0 {
			order = rng.Perm(apps)
			coll = monitor.NewCollector()
		}
		app, coll := order[i%apps], coll
		return func() session { return c.session(i, app, coll) }
	}
}

// runClosed runs cold_app (warm=false) or warm_app (warm=true) for
// seconds, traced when lt is non-nil.
func runClosed(warm bool, seed int64, seconds time.Duration, lt *layerTrace) (*runResult, error) {
	c := &closedRun{policy: eval.StandardPolicy(), lt: lt, totals: &proxyTotals{}}
	c.sec = security.NewServer(c.policy)
	res := &runResult{}
	// Set-up: generate the apps and, for warm_app, build the proxy and
	// warm it with one client run of every app. Repeated; the median is
	// reported and the last set-up is the one measured.
	for moreSetups(res.setups) {
		start := time.Now()
		s, err := generate(workload.Benchmarks())
		if err != nil {
			return nil, err
		}
		c.suite, c.shared = s, nil
		if warm {
			p := c.newProxy()
			for _, app := range s.apps {
				if err := warmRun(p, app, c.sec); err != nil {
					return nil, err
				}
			}
			c.shared = p
		}
		res.setups = append(res.setups, time.Since(start))
	}
	refs, err := stdoutRefs(c.suite)
	if err != nil {
		return nil, err
	}
	c.refs = refs
	rng := rand.New(rand.NewSource(seed))

	// One untimed warm-up round.
	apps := len(c.suite.apps)
	closedLoop(apps, apps, time.Time{}, c.rounds(rng))
	if lt != nil {
		lt.reset()
	}
	var before proxy.Stats
	if c.shared != nil {
		before = c.shared.Stats()
	}
	c.totals = &proxyTotals{}
	sched := c.rounds(rng)
	res.win = measure(func() []session {
		return closedLoop(math.MaxInt, apps, time.Now().Add(seconds), sched)
	})
	if c.shared != nil {
		c.totals.add(c.shared.Stats())
		c.totals.sub(before)
	}
	res.totals = c.totals
	if lt != nil {
		res.layer, err = probeCodec(c.suite, []string{"dvm"}, func() *rewrite.Pipeline { return eval.ServicePipeline(c.policy, true) })
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// warmRun runs app once through p, outside any measurement.
func warmRun(p *proxy.Proxy, app *workload.App, sec *security.Server) error {
	client, err := eval.NewDVMClient(p, "warm-"+app.Spec.Package, sec, nil)
	if err != nil {
		return err
	}
	thrown, err := client.VM.RunMain(app.Spec.MainClass(), nil)
	if err != nil {
		return fmt.Errorf("warming %s: %w", app.Spec.Name, err)
	}
	if thrown != nil {
		return fmt.Errorf("warming %s: uncaught %s", app.Spec.Name, jvm.DescribeThrowable(thrown))
	}
	return nil
}

// Command dvmproxy runs the DVM service proxy: it intercepts class
// requests, applies the static service pipeline (verification, security
// rewriting, auditing, compilation), caches results, and serves clients
// over HTTP — the organization's single logical point of control.
//
// Usage:
//
//	dvmproxy -addr :8642 -origin ./classes [-policy policy.xml]
//	         [-no-cache] [-no-compile] [-audit-log proxy-audit.log]
//	         [-fetch-timeout 10s] [-retries 2] [-breaker-threshold 5]
//	         [-cache-ttl 0]
//	         [-max-queue 256 -queue-deadline 100ms -shed-policy priority]
//	         [-self http://10.0.0.1:8642 -peers http://10.0.0.1:8642,http://10.0.0.2:8642]
//
// The origin directory maps internal class names to files:
// jlex/Main -> ./classes/jlex/Main.class. Origin fetches carry a
// per-attempt deadline, bounded retries, and a circuit breaker; with a
// cache TTL set, an unreachable origin degrades to serving stale cache
// entries (stale-if-error) instead of failing requests.
//
// Cluster mode (-self/-peers) joins this proxy to a sharded fleet: a
// consistent-hash ring assigns every (arch, class) key an owner node,
// and misses for keys owned elsewhere are filled from the owner over
// the versioned batch peer protocol (POST /peer/v1/batch) instead of
// refetched from the origin — one origin fetch and one pipeline run per
// key across the whole fleet. Owners also piggyback each served class's
// top -prefetch-k predicted first-use successors onto fill responses
// (byte-budgeted by -prefetch-budget, thresholded by
// -prefetch-confidence), pre-warming the requester's cache before the
// client asks; -prefetch-k -1 disables the predictor. Membership is
// live: -peers is only a seed list, gossip (every -gossip-interval)
// discovers the rest of the fleet, detects failures (suspect, then dead
// after -suspect-timeout), and rebalances the ring on joins and leaves.
// Each key is replicated to -replication owners, so a node death
// degrades to a warm replica hit. A peer that stops answering trips a
// per-link breaker (feeding failure suspicion) and this node degrades
// to local fetches. /healthz shows the live membership with per-member
// state and the view epoch.
//
// With -attest-key the fleet cross-checks its rewrites: an owner-side
// miss dispatches the origin bytes to -attest-quorum minus one ring
// successors, each votes with its own pipeline's output digest, and on
// agreement the artifact is sealed under the shared key. Every peer hop
// (fill, replica push, handoff) re-verifies the seal before trusting
// the bytes; a peer whose bytes or votes diverge is quarantined after
// -quarantine-after strikes and surfaced in /healthz.
//
// The server drains gracefully on SIGINT/SIGTERM: with -drain (the
// default) a cluster node first announces its departure and hands its
// cache off to each key's new owners, then the listener closes and
// in-flight requests get -drain-timeout to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/compiler"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/verifier"
)

// dirOrigin serves classfiles from a directory tree.
type dirOrigin struct{ root string }

func (d dirOrigin) Fetch(_ context.Context, name string) ([]byte, error) {
	if strings.Contains(name, "..") {
		return nil, fmt.Errorf("origin: bad class name %q", name)
	}
	b, err := os.ReadFile(filepath.Join(d.root, filepath.FromSlash(name)+".class"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("origin: %s: %w", name, proxy.ErrNotFound)
	}
	return b, err
}

// options is what the command line configures: the proxy and cluster
// configs plus the command's own serving knobs.
type options struct {
	addr, originDir, policyPath, auditLog string
	noCompile, noAuditFilter, drain       bool
	statsInterval, readHeaderTimeout      time.Duration
	idleTimeout, drainTimeout             time.Duration
	// proxy is complete except for Pipeline and OnAudit, which main
	// builds from the filter and audit-log flags.
	proxy proxy.Config
	// cluster.Self is empty for a standalone proxy.
	cluster cluster.Config
}

// parseFlags registers every flag on fs, parses args, and maps them
// onto options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	var noCache bool
	var peers, attestKey string
	p, c := &o.proxy, &o.cluster
	fs.StringVar(&o.addr, "addr", ":8642", "HTTP listen address")
	fs.StringVar(&o.originDir, "origin", "", "directory serving original .class files (required)")
	fs.StringVar(&o.policyPath, "policy", "", "security policy XML (omit to disable the security filter)")
	fs.BoolVar(&noCache, "no-cache", false, "disable the proxy result cache")
	fs.StringVar(&p.DiskCacheDir, "disk-cache", "", "directory backing the cache on disk (survives restarts)")
	fs.DurationVar(&p.CacheTTL, "cache-ttl", 0, "cache entry freshness window; expired entries are revalidated, and served stale when the origin is down (0 = never expire)")
	fs.BoolVar(&o.noCompile, "no-compile", false, "disable the AOT compilation filter")
	fs.BoolVar(&o.noAuditFilter, "no-audit", false, "disable the audit rewriting filter")
	fs.StringVar(&o.auditLog, "audit-log", "", "append the request audit trail to this file")
	fs.DurationVar(&o.statsInterval, "stats-interval", time.Minute, "periodic stats summary interval (0 disables)")
	fs.DurationVar(&p.FetchTimeout, "fetch-timeout", 10*time.Second, "per-attempt origin fetch deadline (0 = none)")
	fs.IntVar(&p.FetchRetries, "retries", 2, "origin fetch retries after the first failed attempt")
	fs.IntVar(&p.BreakerThreshold, "breaker-threshold", 5, "consecutive origin failures that trip the circuit breaker (-1 disables)")
	fs.DurationVar(&p.BreakerCooldown, "breaker-cooldown", 5*time.Second, "how long a tripped breaker stays open before probing")
	fs.StringVar(&c.Self, "self", "", "this node's peer URL in a sharded proxy cluster (e.g. http://10.0.0.1:8642); empty = standalone")
	fs.StringVar(&peers, "peers", "", "comma-separated seed peer URLs; gossip discovers the rest of the fleet from any live subset")
	fs.IntVar(&c.VirtualNodes, "vnodes", 0, "virtual nodes per member on the consistent-hash ring (0 = default)")
	fs.IntVar(&c.Replication, "replication", 0, "ring owners per key: primary plus warm replicas (0 = default 2, 1 = no replication)")
	fs.DurationVar(&c.GossipInterval, "gossip-interval", 500*time.Millisecond, "membership gossip period")
	fs.DurationVar(&c.SuspectTimeout, "suspect-timeout", 3*time.Second, "how long an unrefuted suspect survives before being declared dead")
	fs.BoolVar(&o.drain, "drain", true, "on SIGINT/SIGTERM, announce departure and hand the cache off to the new owners before shutting down")
	fs.IntVar(&c.HotThreshold, "hot-threshold", 0, "peer fills of one key before it is replicated into the local cache (0 = default 8, -1 = never)")
	fs.StringVar(&attestKey, "attest-key", "", "shared service key enabling quorum attestation: artifacts are sealed under it and re-verified on every peer hop (all members must agree; empty = attestation off)")
	fs.IntVar(&c.AttestQuorum, "attest-quorum", 2, "variants per attested key, owner included (1 = seal locally without cross-checking)")
	fs.StringVar(&c.AttestPolicy, "attest-policy", "always", "which keys run at the full quorum: always, sampled (1-in-attest-sample-rate by key hash), or hot (keys past -hot-threshold)")
	fs.IntVar(&c.AttestSampleRate, "attest-sample-rate", 0, "1-in-N rate for -attest-policy sampled (0 = default 16)")
	fs.IntVar(&c.QuarantineAfter, "quarantine-after", 0, "attestation divergences before a peer is quarantined: excluded from fills and variant votes (0 = default 3)")
	fs.StringVar(&c.AOTBaseArch, "aot-base-arch", "", "enable the fleet-shared AOT code cache: misses for the compiled arch derive from this base architecture's cached artifact (e.g. jvm; empty = off)")
	fs.IntVar(&c.PrefetchK, "prefetch-k", 0, "predictive prefetch: top-k first-use successors piggybacked onto each peer fill (0 = default 3, -1 disables the predictor)")
	fs.IntVar(&c.PrefetchBudget, "prefetch-budget", 0, "predictive prefetch: byte budget per piggyback batch (0 = default 256KiB)")
	fs.Float64Var(&c.PrefetchConfidence, "prefetch-confidence", 0, "predictive prefetch: minimum successor confidence (edge weight / out-weight) to piggyback (0 = default 0.25)")
	fs.DurationVar(&c.PeerTimeout, "peer-timeout", 3*time.Second, "deadline for one peer class fetch")
	fs.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second, "bound on reading a request's headers (slowloris guard)")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "how long in-flight requests get to finish on shutdown")
	fs.IntVar(&p.MaxQueue, "max-queue", 0, "admission control: max miss requests queued for a service slot (0 disables admission)")
	fs.IntVar(&p.MaxConcurrent, "max-concurrent", 0, "admission control: max concurrent origin-fetch+pipeline flights (0 = 8 x GOMAXPROCS)")
	fs.DurationVar(&p.QueueDeadline, "queue-deadline", 0, "admission control: max wait for a service slot before shedding (0 = 1s)")
	fs.StringVar(&p.ShedPolicy, "shed-policy", proxy.ShedPriority, "what to shed under overload: priority (stale-serve first, peers before clients), fifo (tail-drop only), none")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.originDir == "" {
		return o, errors.New("usage: dvmproxy -origin dir [-addr :8642] [-policy policy.xml] [-self URL -peers URL,...]")
	}
	if c.Self == "" && peers != "" {
		return o, errors.New("dvmproxy: -peers requires -self")
	}
	p.CacheEnabled = !noCache
	c.Peers = splitList(peers)
	c.AttestKey = []byte(attestKey)
	// The peer links reuse the origin breaker's settings.
	c.BreakerThreshold, c.BreakerCooldown = p.BreakerThreshold, p.BreakerCooldown
	return o, nil
}

// auditLine renders one audit-trail record for -audit-log.
func auditLine(r proxy.RequestRecord) string {
	return fmt.Sprintf("client=%s arch=%s class=%s bytes=%d cached=%v coalesced=%v rejected=%v stale=%v shed=%v peer=%q peerErr=%q fetchErr=%q dur=%s\n",
		r.Client, r.Arch, r.Class, r.Bytes, r.CacheHit, r.Coalesced, r.Rejected, r.Stale, r.Shed, r.Peer, r.PeerError, r.FetchError, r.Duration)
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	pipe := rewrite.NewPipeline(verifier.Filter())
	if o.policyPath != "" {
		data, err := os.ReadFile(o.policyPath)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		pol, err := security.ParsePolicy(data)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		pipe.Append(security.Filter(pol))
	}
	if !o.noAuditFilter {
		pipe.Append(monitor.Filter(monitor.Config{Methods: true, Skip: monitor.SkipInitializers}))
	}
	if !o.noCompile {
		pipe.Append(compiler.Filter())
	}

	cfg, ccfg := o.proxy, o.cluster
	cfg.Pipeline = pipe
	if o.auditLog != "" {
		f, err := os.OpenFile(o.auditLog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		defer f.Close()
		cfg.OnAudit = func(r proxy.RequestRecord) { fmt.Fprint(f, auditLine(r)) }
	}

	origin := dirOrigin{root: o.originDir}
	var handler http.Handler
	var stats func() proxy.Stats
	var node *cluster.Node
	if ccfg.Self != "" {
		var err error
		node, err = cluster.NewNode(origin, cfg, ccfg)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		handler = node.Handler()
		stats = node.Proxy().Stats
		log.Printf("dvmproxy: cluster node %s with %d members (ring seed 0, vnodes %d, replication %d, gossip %s, suspect timeout %s)",
			ccfg.Self, node.Ring().Size(), ccfg.VirtualNodes, ccfg.Replication, ccfg.GossipInterval, ccfg.SuspectTimeout)
		if len(ccfg.AttestKey) > 0 {
			log.Printf("dvmproxy: quorum attestation on (quorum %d, policy %s): artifacts are sealed and re-verified on every peer hop",
				ccfg.AttestQuorum, ccfg.AttestPolicy)
		}
		if ccfg.PrefetchK >= 0 {
			log.Printf("dvmproxy: predictive prefetch on (top-k %d, budget %dB, confidence %.2f; 0 = package default)",
				ccfg.PrefetchK, ccfg.PrefetchBudget, ccfg.PrefetchConfidence)
		}
		if ccfg.AOTBaseArch != "" {
			log.Printf("dvmproxy: AOT code cache on: misses for the compiled arch derive from cached %q artifacts (one compilation per key fleet-wide)",
				ccfg.AOTBaseArch)
		}
	} else {
		p := proxy.New(origin, cfg)
		handler = p.Handler()
		stats = p.Stats
	}

	summarize := func(prefix string) {
		s := stats()
		log.Printf("dvmproxy: %s requests=%d cacheHits=%d coalesced=%d originFetches=%d fetchRetries=%d fetchErrors=%d staleServed=%d shed=%d shedStale=%d coalescedFailures=%d flightsAbandoned=%d peerFetches=%d peerHits=%d ownerFetches=%d rejections=%d bytesIn=%d bytesOut=%d proxyTime=%s breaker=%s breakerTrips=%d",
			prefix, s.Requests, s.CacheHits, s.Coalesced, s.OriginFetches, s.FetchRetries, s.FetchErrors, s.StaleServed,
			s.Shed, s.ShedStale, s.CoalescedFailures, s.FlightsAbandoned,
			s.PeerFetches, s.PeerHits, s.OwnerFetches, s.Rejections, s.BytesIn, s.BytesOut, s.ProxyTime, s.Breaker.State, s.Breaker.Trips)
	}

	// The stats ticker is owned by the shutdown path: unlike time.Tick,
	// a Ticker plus a done channel actually terminates the goroutine.
	tickerDone := make(chan struct{})
	tickerStopped := make(chan struct{})
	if o.statsInterval > 0 {
		ticker := time.NewTicker(o.statsInterval)
		go func() {
			defer close(tickerStopped)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					summarize("summary")
				case <-tickerDone:
					return
				}
			}
		}()
	} else {
		close(tickerStopped)
	}

	srv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: o.readHeaderTimeout,
		IdleTimeout:       o.idleTimeout,
	}
	log.Printf("dvmproxy: serving %s on %s (cache=%v, filters=%d, fetch-timeout=%s, retries=%d, breaker-threshold=%d)",
		o.originDir, o.addr, cfg.CacheEnabled, len(pipe.Filters()), cfg.FetchTimeout, cfg.FetchRetries, cfg.BreakerThreshold)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("dvmproxy: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("dvmproxy: signal received, draining connections (up to %s)", o.drainTimeout)
	close(tickerDone)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if node != nil && o.drain {
		// Cluster goodbye before the HTTP server goes away: announce the
		// departure (peers re-route new fills immediately, 429 +
		// X-DVM-Draining covers the gossip gap) and push the cache to
		// each key's new owners. Within the same drain budget as the
		// connection drain — a slow handoff must not stall shutdown.
		log.Printf("dvmproxy: announcing departure and handing off cache")
		if err := node.Drain(shutdownCtx); err != nil {
			log.Printf("dvmproxy: cluster drain incomplete: %v", err)
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dvmproxy: drain incomplete: %v", err)
	}
	if node != nil {
		node.Close()
	}
	<-tickerStopped
	summarize("final")
	log.Print("dvmproxy: shut down")
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

package security

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dvm/internal/resilience"
	"dvm/internal/telemetry"
)

// HTTP transport for the security service: enforcement managers on
// clients download their domain's rules from the central server and
// learn about policy changes through a version-based invalidation
// channel (the paper's "cache-invalidation protocol between the security
// server and the enforcement manager").
//
// Wire format (JSON over HTTP):
//
//	GET /domain?sid=apps          -> {version, grants: [{permission, target}]}
//	GET /decide?sid=&perm=&target= -> {allowed}
//	GET /poll?since=N              -> {version}   (blocks until version > N or timeout)
//
// Failure semantics: the security service is trust-critical, so it
// fails CLOSED — when the server is unreachable (timeout, refused,
// breaker open) the enforcement manager denies the check, counts it in
// DegradedDenies, and reports it through OnDegraded. An outage can
// revoke access, never grant it.

type wireDomain struct {
	Version int64   `json:"version"`
	Grants  []Grant `json:"grants"`
}

// VersionedServer wraps Server with a policy version counter and a
// notification channel for long-polling managers.
type VersionedServer struct {
	*Server
	mu      sync.Mutex
	version int64
	waiters map[chan struct{}]struct{}

	reg      *telemetry.Registry
	cDomains *telemetry.Counter
	cDecides *telemetry.Counter
	cPolls   *telemetry.Counter
	hDecide  *telemetry.Histogram
	hDomain  *telemetry.Histogram
}

// NewVersionedServer wraps a security server for network use.
func NewVersionedServer(s *Server) *VersionedServer {
	v := &VersionedServer{Server: s, version: 1, waiters: make(map[chan struct{}]struct{})}
	v.reg = telemetry.NewRegistry("secd")
	v.cDomains = v.reg.Counter("domain_fetches_total")
	v.cDecides = v.reg.Counter("decides_total")
	v.cPolls = v.reg.Counter("polls_total")
	v.hDecide = v.reg.Histogram("decide_seconds", nil)
	v.hDomain = v.reg.Histogram("domain_seconds", nil)
	v.reg.Gauge("policy_version", func() float64 { return float64(v.Version()) })
	v.reg.Gauge("poll_waiters", func() float64 { return float64(v.Waiters()) })
	return v
}

// Telemetry exposes the server's metric registry.
func (v *VersionedServer) Telemetry() *telemetry.Registry { return v.reg }

// Health reports the shared versioned health schema.
func (v *VersionedServer) Health() telemetry.Health {
	return v.reg.Health(telemetry.StatusOK)
}

// UpdatePolicy swaps the policy, bumps the version, and wakes pollers.
func (v *VersionedServer) UpdatePolicy(p *Policy) {
	v.Server.UpdatePolicy(p)
	v.mu.Lock()
	v.version++
	ws := v.waiters
	v.waiters = make(map[chan struct{}]struct{})
	v.mu.Unlock()
	for w := range ws {
		close(w)
	}
}

// Version returns the current policy version.
func (v *VersionedServer) Version() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.version
}

// Waiters returns the number of registered long-poll waiters
// (diagnostics; a disconnected client must not leave one behind).
func (v *VersionedServer) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// waitBeyond blocks until the version exceeds since, the timeout
// expires, or ctx is cancelled (client hung up), returning the current
// version. The waiter is deregistered on every exit path: a client that
// disconnects mid-poll must not leak its channel until the next policy
// update.
func (v *VersionedServer) waitBeyond(ctx context.Context, since int64, timeout time.Duration) int64 {
	v.mu.Lock()
	if v.version > since {
		cur := v.version
		v.mu.Unlock()
		return cur
	}
	w := make(chan struct{})
	v.waiters[w] = struct{}{}
	v.mu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w:
	case <-timer.C:
	case <-ctx.Done():
	}
	v.mu.Lock()
	delete(v.waiters, w)
	v.mu.Unlock()
	return v.Version()
}

// Handler exposes the server over HTTP.
func (v *VersionedServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/domain", func(w http.ResponseWriter, r *http.Request) {
		sid := r.URL.Query().Get("sid")
		if sid == "" {
			http.Error(w, "missing sid", http.StatusBadRequest)
			return
		}
		// A traced client (X-DVM-Trace) gets this hop's span back in the
		// response so domain-fetch time shows up in its timeline.
		tr := telemetry.JoinTrace(r.Header.Get(telemetry.TraceHeader))
		span := tr.StartSpan("secd", "secd.domain")
		v.cDomains.Inc()
		grants := v.FetchDomain(sid)
		v.hDomain.Observe(span.End())
		w.Header().Set(telemetry.TraceSpansHeader, telemetry.EncodeSpans(tr.Spans()))
		writeJSONSec(w, wireDomain{Version: v.Version(), Grants: grants})
	})
	mux.HandleFunc("/decide", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		tr := telemetry.JoinTrace(r.Header.Get(telemetry.TraceHeader))
		span := tr.StartSpan("secd", "secd.decide")
		v.cDecides.Inc()
		allowed := v.Decide(q.Get("sid"), q.Get("perm"), q.Get("target"))
		v.hDecide.Observe(span.End())
		w.Header().Set(telemetry.TraceSpansHeader, telemetry.EncodeSpans(tr.Spans()))
		writeJSONSec(w, map[string]bool{"allowed": allowed})
	})
	mux.HandleFunc("/poll", func(w http.ResponseWriter, r *http.Request) {
		since, _ := strconv.ParseInt(r.URL.Query().Get("since"), 10, 64)
		v.cPolls.Inc()
		ver := v.waitBeyond(r.Context(), since, 25*time.Second)
		writeJSONSec(w, map[string]int64{"version": ver})
	})
	mux.Handle("/healthz", telemetry.HealthHandler(v.Health))
	mux.Handle("/metrics", v.reg.Handler())
	return mux
}

func writeJSONSec(w http.ResponseWriter, val any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(val)
}

// RemoteOptions parameterizes a RemoteManager's hop to the security
// server.
type RemoteOptions struct {
	// Timeout bounds each /domain fetch attempt (default 5s).
	Timeout time.Duration
	// Retries after a failed /domain attempt (default 1).
	Retries int
	// BreakerThreshold trips the server breaker after that many
	// consecutive failures (0 = default 5, <0 = disabled).
	BreakerThreshold int
	// BreakerCooldown is the open-state cooldown (default 5s).
	BreakerCooldown time.Duration
	// OnDegraded receives fail-closed denials (audited Degraded record).
	OnDegraded func(sid, permission, target string, err error)
}

// RemoteManager is an enforcement manager whose server lives across the
// network. It downloads the domain rules on first touch, caches
// decisions, and invalidates when the long-poll observes a new policy
// version. When the server is unreachable it fails closed: checks are
// denied (never allowed) until the server comes back.
type RemoteManager struct {
	*Manager
	base    string
	client  *http.Client // domain fetches: bounded by opts.Timeout
	poller  *http.Client // long polls: must outlive the 25s server hold
	hop     resilience.Hop
	sid     string
	ctx     context.Context
	cancel  context.CancelFunc
	stopped sync.Once

	mu      sync.Mutex
	version int64
}

// NewRemoteManager builds a manager against a security server at
// baseURL with default resilience settings and starts the invalidation
// poller.
func NewRemoteManager(baseURL, sid string) *RemoteManager {
	return NewRemoteManagerWith(baseURL, sid, RemoteOptions{})
}

// NewRemoteManagerWith is NewRemoteManager with explicit per-hop
// deadline, retry, and breaker settings.
func NewRemoteManagerWith(baseURL, sid string, opts RemoteOptions) *RemoteManager {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 1
	}
	base := strings.TrimRight(baseURL, "/")
	ctx, cancel := context.WithCancel(context.Background())
	rm := &RemoteManager{
		base:   base,
		client: &http.Client{Timeout: opts.Timeout},
		poller: &http.Client{Timeout: 40 * time.Second},
		hop: resilience.Hop{
			Timeout: opts.Timeout,
			Retry:   resilience.RetryPolicy{Attempts: 1 + opts.Retries},
			Breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: opts.BreakerThreshold,
				Cooldown:  opts.BreakerCooldown,
			}),
		},
		sid:    sid,
		ctx:    ctx,
		cancel: cancel,
	}
	// The embedded Manager handles caching; its "server" is this remote
	// transport.
	srv := NewServer(&Policy{domainByID: map[string]*Domain{}})
	srv.FetchDelay = nil
	rm.Manager = NewManager(srv, sid)
	rm.Manager.fetchOverride = rm.fetchDomain
	rm.Manager.OnDegraded = opts.OnDegraded
	go rm.pollLoop()
	return rm
}

// Breaker exposes the server-hop circuit breaker (diagnostics).
func (rm *RemoteManager) Breaker() *resilience.Breaker { return rm.hop.Breaker }

// fetchDomain downloads the domain rules and records the policy
// version. An error (timeout, refused, breaker open, bad payload) means
// the caller's check fails closed.
func (rm *RemoteManager) fetchDomain(sid string) ([]Grant, error) {
	var wd wireDomain
	err := rm.hop.Do(rm.ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rm.base+"/domain?sid="+sid, nil)
		if err != nil {
			return resilience.Permanent(err)
		}
		resp, err := rm.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("security: domain fetch: %s", resp.Status)
		}
		return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wd)
	})
	if err != nil {
		return nil, err
	}
	rm.mu.Lock()
	rm.version = wd.Version
	rm.mu.Unlock()
	return wd.Grants, nil
}

// pollLoop watches for policy-version changes and invalidates the local
// cache when one lands.
func (rm *RemoteManager) pollLoop() {
	for rm.ctx.Err() == nil {
		rm.mu.Lock()
		since := rm.version
		rm.mu.Unlock()
		req, err := http.NewRequestWithContext(rm.ctx, http.MethodGet,
			fmt.Sprintf("%s/poll?since=%d", rm.base, since), nil)
		if err != nil {
			return
		}
		resp, err := rm.poller.Do(req)
		if err != nil {
			select {
			case <-rm.ctx.Done():
				return
			case <-time.After(time.Second):
				continue
			}
		}
		var out struct {
			Version int64 `json:"version"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<10)).Decode(&out)
		resp.Body.Close()
		if err != nil {
			continue
		}
		// Compare with the version held now, not with since: a domain
		// fetch that finished while this poll was in flight records the
		// version its grants came from, and an update that landed after
		// it must still invalidate them. Zero means nothing was fetched
		// yet, so there is nothing to invalidate.
		rm.mu.Lock()
		cached := rm.version
		if out.Version > cached {
			rm.version = out.Version
		}
		rm.mu.Unlock()
		if out.Version > cached && cached != 0 {
			rm.Manager.invalidate()
		}
	}
}

// Close stops the invalidation poller (cancelling any in-flight poll).
func (rm *RemoteManager) Close() {
	rm.stopped.Do(rm.cancel)
}

// Package proxy implements the DVM's service proxy (paper §3): a
// transparent interceptor on the path between clients and code origins.
// It fetches requested classes, parses them once, runs the static
// service pipeline (verifier, security, auditor, optimizer, compiler)
// over the in-memory form, re-serializes, caches the result, and serves
// it — generating an audit trail for the remote administration console.
//
// "The proxy uses a cache to avoid rewriting code shared between
// clients"; rejected classes are replaced with a VerifyError-raising
// stand-in so failures surface through the normal Java exception
// mechanism on the client (§3.1).
//
// Concurrency: simultaneous misses for the same (arch, class) are
// coalesced — one leader performs the origin fetch and the pipeline run
// while followers wait and share the result. Followers still count as
// requests and receive their own audit records, marked as coalesced
// cache hits, so the administration console sees every client. The
// result cache is a byte-budgeted LRU: hits refresh recency, replacing
// a key updates the byte accounting, and an entry larger than the whole
// budget is skipped (logged) rather than allowed to wipe the cache and
// then fail to stay resident.
//
// Failure semantics: the origin hop carries a per-attempt deadline, a
// retry policy with backoff+jitter, and a circuit breaker
// (internal/resilience). When the origin is down the proxy *fails
// open with stale data*: a cached entry past its TTL is normally
// revalidated, but if the revalidating fetch fails the stale bytes are
// served (stale-if-error, counted in Stats.StaleServed) — an
// unreachable origin degrades freshness, never availability, matching
// the paper's split between trust-critical and auxiliary services.
//
// Clustering: when Config.PeerFill is set (internal/cluster), a cache
// miss is routed through it before the origin hop. The hook implements
// the sharded-fleet protocol: if another node owns the key on the
// consistent-hash ring, the transformed bytes are filled from that peer
// (one origin fetch and one pipeline run cluster-wide); if this node is
// the owner, or the peer hop fails, the miss falls through to the local
// origin path, so a peer outage degrades sharing, never availability.
//
// Telemetry: every request runs under a telemetry.Trace — created here
// if the caller did not attach one to the ctx — and records spans for
// each stage (proxy.request, queue.wait, peer.fill, origin.fetch,
// pipeline), so the caller gets a per-stage latency breakdown even
// across peer hops. All counters and latency histograms live in a
// telemetry.Registry served on /metrics and /healthz; Stats is a
// snapshot view derived from it.
package proxy

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"dvm/internal/attest"
	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/resilience"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
	"dvm/internal/verifier"
)

// ErrNotFound marks an origin's definitive "no such class" answer.
// Unlike a timeout or connection error it is not evidence the origin is
// down: it is never retried, never trips the breaker, and never falls
// back to stale cache. The HTTP front end maps it to 404.
var ErrNotFound = errors.New("class not found")

// Origin supplies original (untransformed) class bytes, e.g. a web
// server on the open Internet. Fetch must honor ctx cancellation: a
// hung origin is abandoned when the per-hop deadline expires.
type Origin interface {
	Fetch(ctx context.Context, name string) ([]byte, error)
}

// MapOrigin serves classes from memory.
type MapOrigin map[string][]byte

// Fetch implements Origin.
func (m MapOrigin) Fetch(_ context.Context, name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("origin: %s: %w", name, ErrNotFound)
	}
	return b, nil
}

// DelayedOrigin wraps an origin with a per-fetch delay callback (the
// synthetic Internet).
type DelayedOrigin struct {
	Origin
	// Delay is invoked before each fetch with the class name; it may
	// sleep (scaled) or advance a simulated clock.
	Delay func(name string)
}

// Fetch implements Origin.
func (d DelayedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	if d.Delay != nil {
		d.Delay(name)
	}
	return d.Origin.Fetch(ctx, name)
}

// RequestRecord is one entry of the proxy's audit trail.
type RequestRecord struct {
	Client    string
	Arch      string
	Class     string
	Bytes     int
	CacheHit  bool
	Coalesced bool // joined an in-flight fetch for the same class
	Rejected  bool // verification failure, replacement served
	// Stale marks a degraded response: the origin was unreachable and an
	// expired cache entry was served instead (stale-if-error).
	Stale bool
	// Peer is the cluster node that supplied the bytes when the miss was
	// filled over the peer protocol instead of from the origin.
	Peer string
	// PeerError records a failed peer-fill attempt that fell back to a
	// local origin fetch (the owner was down or unreachable).
	PeerError string
	// Shed marks an admission-control decision (see RequestInfo.Shed).
	Shed bool
	// FetchError is set when the origin fetch (or replacement
	// construction) failed; the administration console must see failed
	// and degraded fetches too. With Stale set, bytes were still served.
	FetchError string
	Duration   time.Duration
	ProxyTime  time.Duration // time spent parsing/transforming (excludes origin fetch)
}

// Config parameterizes a proxy.
type Config struct {
	// Node names this proxy in trace spans and health reports — a peer
	// URL in a cluster, "proxy" by default.
	Node string
	// Pipeline is the static service pipeline applied to every class.
	Pipeline *rewrite.Pipeline
	// CacheEnabled turns on the shared result cache.
	CacheEnabled bool
	// CacheBudget bounds cached bytes (0 = unlimited).
	CacheBudget int
	// CacheTTL is how long a cached entry is considered fresh
	// (0 = forever). An expired entry is revalidated by refetching; if
	// the origin is unreachable the stale bytes are served instead
	// (stale-if-error).
	CacheTTL time.Duration
	// DiskCacheDir, when set, backs the memory cache with files so a
	// restarted proxy recovers its transformed classes ("served from an
	// on-disk cache on the proxy", §4.1.2). Requires CacheEnabled.
	DiskCacheDir string

	// FetchTimeout bounds each origin fetch attempt (0 = no per-attempt
	// deadline; the caller's ctx still applies).
	FetchTimeout time.Duration
	// FetchRetries is the number of retries after the first failed fetch
	// attempt (0 = no retries). Not-found answers are never retried.
	FetchRetries int
	// RetryBase is the first backoff delay between retries (default 50ms).
	RetryBase time.Duration
	// RetrySeed makes the retry jitter deterministic (tests).
	RetrySeed uint64
	// BreakerThreshold is the number of consecutive origin failures that
	// trips the origin circuit breaker (0 = default 5, <0 = disabled).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// half-open probe (default 5s).
	BreakerCooldown time.Duration

	// PeerFill, when set, is consulted on every cache miss before the
	// origin hop. A sharded cluster (internal/cluster) uses it to route
	// the miss to the ring node that owns the key and fill the cache from
	// that peer's already-transformed copy. The full Lookup is passed so
	// the hook can forward the client identity — the owner's prefetch
	// predictor learns per-client request sequences from it. See
	// PeerResult for the three possible outcomes; a nil hook (standalone
	// proxy) always behaves as PeerSelf.
	PeerFill func(ctx context.Context, l Lookup) PeerResult

	// MaxQueue bounds how many miss requests may wait for a service
	// slot before new ones are shed (429). 0 disables admission control
	// entirely: today's unbounded behavior. See admission.go for the
	// shed ordering.
	MaxQueue int
	// MaxConcurrent bounds the flights doing origin-fetch + pipeline
	// work at once when admission control is enabled (default
	// 8×GOMAXPROCS). Cache hits and coalesced followers do not count
	// against it.
	MaxConcurrent int
	// QueueDeadline bounds how long a flight may wait for a service
	// slot before it is shed (default 1s when admission is enabled).
	QueueDeadline time.Duration
	// ShedPolicy selects what to shed under overload: ShedPriority
	// (default — stale-serve before rejecting, peer fills before local
	// misses, per-client fair shares), ShedFIFO (bounded queue, tail
	// drop only), or ShedNone (admission disabled even with MaxQueue
	// set).
	ShedPolicy string

	// OnTransformed, when set, observes every class this node transformed
	// itself (origin fetch + pipeline run; peer-served and stale responses
	// are not reported). The cluster layer uses it to push freshly-owned
	// results to the key's replicas, attestation included. Called on the
	// flight goroutine, so it must not block — enqueue and return.
	OnTransformed func(arch, class string, data []byte, att *attest.Attestation)

	// Attest, when set, turns each class this node built into a
	// quorum-attested artifact before it is cached or served: the
	// cluster layer dispatches in to ring successors, compares output
	// digests, and returns the sealed attestation on agreement. in is the
	// origin bytes the pipeline ran over, or — when fromBase is set — the
	// cached base-architecture artifact an AOT derive compiled (variants
	// then re-derive instead of re-transforming). An error fails the
	// flight — a node must never serve bytes its own fleet outvoted. Runs
	// on the flight goroutine under the admission slot, so the quorum
	// round-trip is part of the request's service time (that is the
	// measured tax of -attest-quorum > 1).
	Attest func(ctx context.Context, arch, class string, in, out []byte, fromBase bool) (*attest.Attestation, error)

	// AOT, when set, turns the compiler's output into a fleet-shared
	// derived artifact: a request for AOT.Arch whose base-architecture
	// artifact is already cached locally is answered by compiling those
	// bytes directly — no origin fetch, no full pipeline run. The fleet
	// pays one origin fetch and one pipeline run per class under the
	// base key, and each compiled variant is one cheap derivation on
	// top of it. See AOTConfig.
	AOT *AOTConfig

	// OnAudit receives the audit trail (central administration console).
	OnAudit func(RequestRecord)
}

// AOTConfig parameterizes the shared ahead-of-time code cache. The
// compiled (Arch) artifact for a class is derived from the cached
// base-architecture artifact instead of re-running the whole pipeline
// over origin bytes. Every filter ahead of the compiler is
// architecture-independent, so Compile(pipeline_base(raw)) is
// byte-identical to pipeline_arch(raw): the derived artifact is exactly
// what the full pipeline would have produced, and it caches, replicates
// and attests like any other artifact.
type AOTConfig struct {
	// Arch is the derived architecture (the compiler's native format,
	// e.g. compiler.ArchDVM).
	Arch string
	// BaseArch is the architecture whose cached artifact Compile
	// consumes (the pipeline output without the compile step).
	BaseArch string
	// Compile derives the Arch artifact from a BaseArch artifact
	// (parse, quicken, re-encode). It must be deterministic: attestation
	// variants re-run it over the same base bytes and compare digests.
	Compile func(base []byte) ([]byte, error)
}

// PeerOutcome says how a PeerFill attempt resolved.
type PeerOutcome int

const (
	// PeerSelf: this node owns the key on the ring (or no routing
	// applies); fetch from the origin and run the pipeline locally.
	PeerSelf PeerOutcome = iota
	// PeerServed: the owning peer returned the transformed class; serve
	// it without touching the origin or the pipeline.
	PeerServed
	// PeerFailed: the owning peer was down or unreachable; degrade to a
	// local origin fetch so a peer outage never fails a request.
	PeerFailed
)

// PeerResult is the outcome of routing a cache miss through the cluster
// ring (Config.PeerFill).
type PeerResult struct {
	Outcome PeerOutcome
	// Data is the transformed class (Outcome == PeerServed).
	Data []byte
	// Att is the artifact's attestation, already verified against Data
	// by the fill hook before the result is handed back.
	Att *attest.Attestation
	// CacheLocal stores the peer's bytes in this node's own cache too:
	// the cluster replicates hot keys toward their readers so the ring
	// owner does not become a hotspot.
	CacheLocal bool
	// Rejected and Stale mirror the owner's response flags so audit
	// records and client semantics survive the peer hop.
	Rejected bool
	Stale    bool
	// Peer identifies the node that served (or failed to serve) the key.
	Peer string
	// Err is the peer hop failure (Outcome == PeerFailed).
	Err error
}

// Lookup names what a request wants and for whom. It is the single
// argument of Request; the cluster, the HTTP front end, the bench
// drivers, and the examples all build one.
type Lookup struct {
	// Client identifies the requesting client (audit trail).
	Client string
	// Arch is the client's architecture (cache partitioning: the
	// compiler service specializes output per arch).
	Arch string
	// Class is the fully qualified class name.
	Class string
}

// Result is everything a request produced: the transformed bytes, the
// serving flags, and the request's cross-hop trace.
type Result struct {
	// Data is the transformed class.
	Data []byte
	// Info describes how the response was served (cache/peer/stale...).
	Info RequestInfo
	// Trace is the request's timeline — the ctx trace if the caller
	// attached one, else one created at entry. Present on errors too, so
	// a caller can see where a failed request spent its time.
	Trace *telemetry.Trace
}

// RequestInfo describes how a request was served; the peer protocol
// forwards it as response headers so flags survive the extra hop.
type RequestInfo struct {
	CacheHit  bool
	Coalesced bool
	Rejected  bool
	Stale     bool
	// Shed marks an overload decision: with Stale set the request was
	// answered from expired cache instead of queueing a refetch;
	// otherwise it was rejected (ErrOverloaded).
	Shed bool
	// Prefetched marks a cache hit whose entry was pushed speculatively
	// (prefetch piggyback) and used here for the first time — the round
	// trip this response did NOT pay is the prefetcher's win.
	Prefetched bool
	Peer       string // cluster node that supplied the bytes, if any
	// Attestation is the artifact's trust metadata when attestation is
	// enabled: the sealed digest + quorum record stored with the cache
	// entry. The peer protocol forwards it as a response header so every
	// hop can re-verify the bytes it received.
	Attestation *attest.Attestation
}

// Stats is a snapshot of proxy counters, derived from the telemetry
// registry (the registry is the source of truth; this struct is the
// ergonomic Go view of it).
type Stats struct {
	Requests      int64
	CacheHits     int64
	Coalesced     int64 // requests served by joining an in-flight fetch (subset of CacheHits)
	OriginFetches int64
	FetchRetries  int64 // retry attempts scheduled against the origin
	FetchErrors   int64
	StaleServed   int64 // degraded responses served from expired cache (stale-if-error)
	PeerFetches   int64 // misses routed to the owning cluster peer
	PeerHits      int64 // peer fetches that returned the transformed class
	OwnerFetches  int64 // origin fetches performed as the key's ring owner
	Rejections    int64
	// Shed counts requests rejected by admission control (ErrOverloaded);
	// ShedStale counts overload decisions that were instead answered from
	// expired cache (those requests still succeeded).
	Shed      int64
	ShedStale int64
	// CoalescedFailures counts followers whose shared flight failed; the
	// underlying fetch error appears once in FetchErrors.
	CoalescedFailures int64
	// FlightsAbandoned counts flights canceled because every waiting
	// client disconnected first.
	FlightsAbandoned int64
	// Attested counts artifacts sealed after a quorum round;
	// AttestFailures counts flights failed by the attest hook.
	Attested       int64
	AttestFailures int64
	// CompileHits counts AOT-arch artifacts served without a local
	// compilation (cache hit or peer fill); CompileMisses counts local
	// compilations — a cheap derivation from the cached base artifact,
	// or a full pipeline run when no base was resident.
	CompileHits   int64
	CompileMisses int64
	BytesIn       int64
	BytesOut      int64
	ProxyTime     time.Duration
	// Breaker is the origin circuit-breaker snapshot.
	Breaker resilience.BreakerCounts
}

// cacheEntry is one LRU cache element. prefetched marks a speculative
// entry that has not been hit yet: the flag clears on first use, and an
// entry evicted or overwritten with the flag still set is counted as
// prefetch waste.
type cacheEntry struct {
	key        string
	data       []byte
	att        *attest.Attestation // trust metadata, nil when attestation is off
	storedAt   time.Time
	prefetched bool
	// rejected marks a verification-failure replacement class. The flag
	// survives caching so later hits report Rejected faithfully and the
	// AOT derive path never compiles a replacement (replacements are
	// architecture-independent; the regular path serves them as-is).
	rejected bool
}

// flight is one in-progress miss that concurrent requests for the same
// key share. The work runs on its own detached context (a worker
// goroutine), so the client that happened to arrive first can
// disconnect without failing everyone else on the flight: the work is
// canceled only when the last waiter leaves.
type flight struct {
	done   chan struct{}      // closed when the worker finishes
	cancel context.CancelFunc // stops the worker; called on last leave

	// waiters counts the requests awaiting this flight (guarded by
	// Proxy.flightMu). When it reaches zero before done, nobody wants
	// the result anymore and the worker is canceled.
	waiters int

	// resolution is the flight's result, published before done is closed.
	resolution
}

// resolution is what one step of the miss path produced: the bytes to
// serve, what they were built from, and how they were obtained.
type resolution struct {
	data []byte
	att  *attest.Attestation
	// built marks bytes this node produced (pipeline run or AOT derive)
	// from in: origin bytes, or the base artifact when fromBase. commit
	// attests, caches and reports them.
	built     bool
	in        []byte
	fromBase  bool
	cache     bool // commit caches bytes obtained elsewhere (a hot key's peer copy)
	rejected  bool
	stale     bool
	shed      bool          // admission control shed this flight (stale or rejected)
	peer      string        // cluster node that filled the miss, if any
	peerErr   string        // failed peer-fill attempt that fell back to origin
	fetchErr  string        // origin failure behind a stale-if-error response
	proxyTime time.Duration // pipeline or derive time
	err       error
}

// Proxy is the static-service host.
type Proxy struct {
	origin  Origin
	cfg     Config
	breaker *resilience.Breaker
	hop     resilience.Hop
	now     func() time.Time // clock hook for TTL tests

	mu         sync.Mutex
	cache      map[string]*list.Element // key: arch + "\x00" + class
	lru        *list.List               // front = most recently used
	cacheBytes int
	// prefetchResident tracks bytes of prefetched-but-not-yet-used
	// entries (guarded by mu; exported as a gauge).
	prefetchResident int

	flightMu sync.Mutex
	flights  map[string]*flight

	// adm is the overload controller (nil = admission disabled).
	adm *admission

	reg *telemetry.Registry

	cRequests      *telemetry.Counter
	cCacheHits     *telemetry.Counter
	cCoalesced     *telemetry.Counter
	cOriginFetches *telemetry.Counter
	cFetchErrors   *telemetry.Counter
	cStaleServed   *telemetry.Counter
	cPeerFetches   *telemetry.Counter
	cPeerHits      *telemetry.Counter
	cOwnerFetches  *telemetry.Counter
	cRejections    *telemetry.Counter
	cBytesIn       *telemetry.Counter
	cBytesOut      *telemetry.Counter
	cFetchRetries  *telemetry.Counter
	// cCoalescedFailures counts followers whose shared flight failed;
	// the underlying fetch error is counted once, on the flight.
	cCoalescedFailures *telemetry.Counter
	// cFlightsAbandoned counts flights canceled because every waiter
	// disconnected before the result arrived (not an origin failure).
	cFlightsAbandoned *telemetry.Counter
	// cAttested counts artifacts that finished a quorum round and were
	// sealed; cAttestFailures counts flights failed by the attest hook
	// (local divergence, no quorum).
	cAttested       *telemetry.Counter
	cAttestFailures *telemetry.Counter
	// cCompileHits / cCompileMisses implement the AOT code cache's
	// "fleet pays one compilation per class" accounting (see Stats).
	cCompileHits   *telemetry.Counter
	cCompileMisses *telemetry.Counter

	// Batch-warm ingestion (replica push, handoff, prefetch — one path,
	// one set of counters) and the prefetch ledger. Waste is explicit:
	// prefetched bytes evicted or overwritten before first use are
	// reported, not hidden.
	cWarmed             *telemetry.Counter
	cWarmedBytes        *telemetry.Counter
	cPrefetchInserted   *telemetry.Counter
	cPrefetchHits       *telemetry.Counter
	cPrefetchSkipped    *telemetry.Counter
	cPrefetchWasteBytes *telemetry.Counter
	cPrefetchEvicted    *telemetry.Counter

	hRequest     *telemetry.Histogram // whole-request latency; count == Requests
	hOriginFetch *telemetry.Histogram
	hPipeline    *telemetry.Histogram // parse+transform time; Sum backs Stats.ProxyTime
	hAttest      *telemetry.Histogram // quorum round latency per attested artifact
}

// New creates a proxy in front of origin.
func New(origin Origin, cfg Config) *Proxy {
	if cfg.Node == "" {
		cfg.Node = "proxy"
	}
	if cfg.Pipeline == nil {
		cfg.Pipeline = rewrite.NewPipeline()
	}
	if cfg.MaxQueue > 0 {
		if cfg.MaxConcurrent <= 0 {
			cfg.MaxConcurrent = 8 * runtime.GOMAXPROCS(0)
		}
		if cfg.QueueDeadline <= 0 {
			cfg.QueueDeadline = time.Second
		}
		if cfg.ShedPolicy == "" {
			cfg.ShedPolicy = ShedPriority
		}
	}
	p := &Proxy{
		origin:  origin,
		cfg:     cfg,
		now:     time.Now,
		cache:   make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
		reg:     telemetry.NewRegistry("proxy"),
	}
	p.cRequests = p.reg.Counter("requests_total")
	p.cCacheHits = p.reg.Counter("cache_hits_total")
	p.cCoalesced = p.reg.Counter("coalesced_total")
	p.cOriginFetches = p.reg.Counter("origin_fetches_total")
	p.cFetchErrors = p.reg.Counter("fetch_errors_total")
	p.cStaleServed = p.reg.Counter("stale_served_total")
	p.cPeerFetches = p.reg.Counter("peer_fetches_total")
	p.cPeerHits = p.reg.Counter("peer_hits_total")
	p.cOwnerFetches = p.reg.Counter("owner_fetches_total")
	p.cRejections = p.reg.Counter("rejections_total")
	p.cBytesIn = p.reg.Counter("bytes_in_total")
	p.cBytesOut = p.reg.Counter("bytes_out_total")
	p.cFetchRetries = p.reg.Counter("fetch_retries_total")
	p.cCoalescedFailures = p.reg.Counter("coalesced_failures_total")
	p.cFlightsAbandoned = p.reg.Counter("flights_abandoned_total")
	p.cAttested = p.reg.Counter("attested_keys_total")
	p.cAttestFailures = p.reg.Counter("attest_failures_total")
	p.cCompileHits = p.reg.Counter("compile_hits_total")
	p.cCompileMisses = p.reg.Counter("compile_misses_total")
	p.cWarmed = p.reg.Counter("warm_entries_total")
	p.cWarmedBytes = p.reg.Counter("warm_bytes_total")
	p.cPrefetchInserted = p.reg.Counter("prefetch_inserted_total")
	p.cPrefetchHits = p.reg.Counter("prefetch_hits_total")
	p.cPrefetchSkipped = p.reg.Counter("prefetch_skipped_total")
	p.cPrefetchWasteBytes = p.reg.Counter("prefetch_waste_bytes_total")
	p.cPrefetchEvicted = p.reg.Counter("prefetch_evicted_unused_total")
	p.reg.Gauge("prefetch_resident_unused_bytes", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.prefetchResident)
	})
	p.hRequest = p.reg.Histogram("request_seconds", nil)
	p.hOriginFetch = p.reg.Histogram("origin_fetch_seconds", nil)
	p.hPipeline = p.reg.Histogram("pipeline_seconds", nil)
	p.hAttest = p.reg.Histogram("attest_quorum_seconds", nil)
	if cfg.MaxQueue > 0 && cfg.ShedPolicy != ShedNone {
		// Expected service time for the deadline-aware drop: the live
		// mean origin fetch plus the live mean pipeline run.
		svc := func() time.Duration {
			return p.hOriginFetch.Snapshot().Mean() + p.hPipeline.Snapshot().Mean()
		}
		p.adm = newAdmission(cfg, p.reg, svc, p.cRequests)
	}
	p.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Threshold:     cfg.BreakerThreshold,
		Cooldown:      cfg.BreakerCooldown,
		OpenDurations: p.reg.Histogram("breaker_open_seconds", nil),
	})
	p.hop = resilience.Hop{
		Timeout: cfg.FetchTimeout,
		Retry: resilience.RetryPolicy{
			Attempts: 1 + cfg.FetchRetries,
			Base:     cfg.RetryBase,
			Seed:     cfg.RetrySeed,
		},
		Breaker: p.breaker,
		Retries: p.cFetchRetries,
	}
	p.reg.Gauge("cache_bytes", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.cacheBytes)
	})
	// The share of parsed Utf8 constants the lazy codec actually had to
	// decode (process-wide): near 0 on pass-through traffic, rising only
	// when filters touch names, descriptors, and attribute payloads.
	p.reg.Gauge("lazy_decoded_ratio", func() float64 {
		s := classfile.CodecStats()
		if s.Utf8Seen == 0 {
			return 0
		}
		return float64(s.Utf8Decoded) / float64(s.Utf8Seen)
	})
	p.reg.Gauge("descriptor_cache_hits", func() float64 {
		hits, _ := bytecode.DescriptorCacheStats()
		return float64(hits)
	})
	p.reg.Gauge("descriptor_cache_misses", func() float64 {
		_, misses := bytecode.DescriptorCacheStats()
		return float64(misses)
	})
	return p
}

// Breaker exposes the origin circuit breaker (diagnostics, shared
// upstream wiring).
func (p *Proxy) Breaker() *resilience.Breaker { return p.breaker }

// Telemetry exposes the proxy's metric registry (mounted on /metrics by
// the HTTP front end; the cluster node adds its peer counters here).
func (p *Proxy) Telemetry() *telemetry.Registry { return p.reg }

// Health reports the shared versioned health schema: degraded while the
// origin breaker is open (requests are being answered from stale cache
// or failing), ok otherwise.
func (p *Proxy) Health() telemetry.Health {
	bc := p.breaker.Counts()
	status := telemetry.StatusOK
	if bc.State == resilience.Open.String() {
		status = telemetry.StatusDegraded
	}
	h := p.reg.Health(status)
	h.Breakers = map[string]telemetry.BreakerHealth{
		"origin": {State: bc.State, Trips: bc.Trips, Successes: bc.Successes, Failures: bc.Failures},
	}
	return h
}

// Stats returns a snapshot of the counters, read from the registry.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:      p.cRequests.Load(),
		CacheHits:     p.cCacheHits.Load(),
		Coalesced:     p.cCoalesced.Load(),
		OriginFetches: p.cOriginFetches.Load(),
		FetchRetries:  p.cFetchRetries.Load(),
		FetchErrors:   p.cFetchErrors.Load(),
		StaleServed:   p.cStaleServed.Load(),
		PeerFetches:   p.cPeerFetches.Load(),
		PeerHits:      p.cPeerHits.Load(),
		OwnerFetches:  p.cOwnerFetches.Load(),
		Rejections:    p.cRejections.Load(),
		Shed:          p.shedTotal(),
		ShedStale:     p.shedStale(),

		CoalescedFailures: p.cCoalescedFailures.Load(),
		FlightsAbandoned:  p.cFlightsAbandoned.Load(),
		Attested:          p.cAttested.Load(),
		AttestFailures:    p.cAttestFailures.Load(),
		CompileHits:       p.cCompileHits.Load(),
		CompileMisses:     p.cCompileMisses.Load(),
		BytesIn:           p.cBytesIn.Load(),
		BytesOut:          p.cBytesOut.Load(),
		ProxyTime:         p.hPipeline.Snapshot().Sum,
		Breaker:           p.breaker.Counts(),
	}
}

// Add accumulates o's counters into s, for fleet and replica-group
// totals. Breaker is one proxy's breaker state and is left as is.
func (s *Stats) Add(o Stats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
}

// shedTotal reports requests rejected by admission control.
func (p *Proxy) shedTotal() int64 {
	if p.adm == nil {
		return 0
	}
	return p.adm.shedTotal()
}

// shedStale reports overload decisions answered from expired cache.
func (p *Proxy) shedStale() int64 {
	if p.adm == nil {
		return 0
	}
	return p.adm.cShedStale.Load()
}

// RequestLatency snapshots the whole-request latency histogram; cluster
// aggregation merges these across nodes.
func (p *Proxy) RequestLatency() telemetry.HistSnapshot {
	return p.hRequest.Snapshot()
}

// Warm reasons: why a batch entry is being pushed into a node's cache.
// Replica pushes, membership handoff, and predictive prefetch all share
// the same ingestion path (Warm) and the same counters; the reason only
// changes placement policy (prefetch inserts cold and never evicts).
const (
	ReasonFill     = "fill"
	ReasonReplica  = "replica"
	ReasonHandoff  = "handoff"
	ReasonPrefetch = "prefetch"
)

// CacheEntry is one cache element on the wire or in a snapshot: batch
// Warm ingestion, membership handoff, diagnostics. Att rides along so a
// transferred artifact stays verifiable on the receiving node; Reason
// says why it is being pushed (see the Reason* constants).
type CacheEntry struct {
	Arch   string
	Class  string
	Data   []byte
	Att    *attest.Attestation `json:",omitempty"`
	Reason string              `json:",omitempty"`
	// Rejected marks a verification-failure replacement so the flag
	// survives warm pushes and handoffs (see cacheEntry.rejected).
	Rejected bool `json:",omitempty"`
}

// CacheSnapshot returns cached entries most-recently-used first —
// recency is the proxy's hotness signal — stopping once the entries'
// data exceeds maxBytes (0 = unbounded). keep filters entries (nil =
// all). The cluster handoff path uses it to offer a new owner its
// hottest inherited keys first.
func (p *Proxy) CacheSnapshot(maxBytes int, keep func(arch, class string) bool) []CacheEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []CacheEntry
	bytes := 0
	for el := p.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		arch, class := splitKey(ent.key)
		if keep != nil && !keep(arch, class) {
			continue
		}
		if maxBytes > 0 && bytes+len(ent.data) > maxBytes && len(out) > 0 {
			break
		}
		out = append(out, CacheEntry{Arch: arch, Class: class, Data: ent.data, Att: ent.att, Rejected: ent.rejected})
		bytes += len(ent.data)
		if maxBytes > 0 && bytes >= maxBytes {
			break
		}
	}
	return out
}

// Warm inserts already-transformed classes into the cache without a
// request: replication pushes, membership handoffs, and predictive
// prefetch all seed a node's cache with results another node paid for,
// through this one ingestion path with one set of counters. The caller
// (the cluster layer) verifies each entry's attestation against its
// bytes before warming; the proxy just stores them together.
//
// Entries with Reason == ReasonPrefetch are speculative: they enter at
// the cold end of the LRU and never evict resident entries — a guess
// must not displace bytes a client actually asked for. Entries that do
// not fit the remaining budget (or are already cached) are skipped and
// counted, not forced.
//
// Returns the number of entries stored. No-op when caching is disabled.
func (p *Proxy) Warm(entries []CacheEntry) int {
	if !p.cfg.CacheEnabled {
		return 0
	}
	stored := 0
	for _, e := range entries {
		key := e.Arch + "\x00" + e.Class
		if e.Reason == ReasonPrefetch {
			if p.storePrefetch(key, e.Data, e.Att, e.Rejected) {
				p.cWarmed.Inc()
				p.cWarmedBytes.Add(int64(len(e.Data)))
				stored++
			}
			continue
		}
		p.storeMem(key, e.Data, e.Att, e.Rejected)
		p.diskCachePut(key, e.Data, e.Att)
		p.cWarmed.Inc()
		p.cWarmedBytes.Add(int64(len(e.Data)))
		stored++
	}
	return stored
}

// storePrefetch inserts a speculative entry at the cold end of the LRU.
// It refuses rather than evicts when the budget is full: recency is the
// proxy's hotness signal, so anything resident is by definition hotter
// than a guess — this is the LRU pressure guard ("prefetch never evicts
// a hotter key than it inserts"). The disk cache is not touched; a
// guess does not deserve durable bytes.
func (p *Proxy) storePrefetch(key string, data []byte, att *attest.Attestation, rejected bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.cache[key]; ok {
		p.cPrefetchSkipped.Inc()
		return false
	}
	if p.cfg.CacheBudget > 0 && p.cacheBytes+len(data) > p.cfg.CacheBudget {
		p.cPrefetchSkipped.Inc()
		return false
	}
	p.cache[key] = p.lru.PushBack(&cacheEntry{key: key, data: data, att: att, storedAt: p.now(), prefetched: true, rejected: rejected})
	p.cacheBytes += len(data)
	p.prefetchResident += len(data)
	p.cPrefetchInserted.Inc()
	return true
}

// PrefetchStats reports the prefetch ledger: entries inserted, hits on
// prefetched entries, entries skipped (already cached or no budget
// headroom), bytes evicted or overwritten before first use (waste), and
// bytes currently resident but not yet used.
func (p *Proxy) PrefetchStats() (inserted, hits, skipped, wasteBytes, residentBytes int64) {
	p.mu.Lock()
	resident := int64(p.prefetchResident)
	p.mu.Unlock()
	return p.cPrefetchInserted.Load(), p.cPrefetchHits.Load(), p.cPrefetchSkipped.Load(),
		p.cPrefetchWasteBytes.Load(), resident
}

// UnderPressure reports whether the admission queue is at least half
// full — the same threshold at which stale entries are served instead
// of queued. Auxiliary work (handoff serving, replication intake) is
// shed at this point so overload never competes with client traffic.
func (p *Proxy) UnderPressure() bool { return p.adm.pressured() }

// CacheEntries returns the cached keys, sorted (diagnostics).
func (p *Proxy) CacheEntries() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.cache))
	for k := range p.cache {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Request serves one class to one client: the full intercept path. The
// ctx bounds the whole request (client disconnect, caller deadline);
// per-attempt origin deadlines come from Config.FetchTimeout. If the
// ctx carries a telemetry trace the request joins it; otherwise a fresh
// trace is created. Either way Result.Trace holds the timeline,
// populated with a span per stage.
func (p *Proxy) Request(ctx context.Context, l Lookup) (Result, error) {
	tr := telemetry.FromContext(ctx)
	if tr == nil {
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr)
	}
	span := tr.StartSpan(p.cfg.Node, "proxy.request")
	p.cRequests.Inc()
	data, info, err := p.serve(ctx, tr, span, l)
	p.hRequest.Observe(span.End())
	return Result{Data: data, Info: info, Trace: tr}, err
}

// serve is the request body under the root span: cache probe, miss
// coalescing, and the leader path.
func (p *Proxy) serve(ctx context.Context, tr *telemetry.Trace, span *telemetry.SpanTimer, l Lookup) ([]byte, RequestInfo, error) {
	key := l.Arch + "\x00" + l.Class

	var stale *resolution // expired cache entry kept for stale-if-error
	if p.cfg.CacheEnabled {
		data, att, fresh, prefetched, rejected, ok := p.cached(key)
		if ok && fresh {
			p.cCacheHits.Inc()
			if p.aotArch(l.Arch) {
				// A resident compiled artifact: nobody compiles anything.
				p.cCompileHits.Inc()
			}
			p.cBytesOut.Add(int64(len(data)))
			p.audit(RequestRecord{
				Client: l.Client, Arch: l.Arch, Class: l.Class, Bytes: len(data),
				CacheHit: true, Rejected: rejected, Duration: span.Elapsed(),
			})
			return data, RequestInfo{CacheHit: true, Prefetched: prefetched, Rejected: rejected, Attestation: att}, nil
		}
		if ok {
			stale = &resolution{data: data, att: att, stale: true}
		}
	}

	// Coalesce concurrent misses: if another request is already fetching
	// and transforming this key, join it instead of duplicating the
	// origin fetch and the pipeline run.
	p.flightMu.Lock()
	if f, ok := p.flights[key]; ok {
		f.waiters++
		p.flightMu.Unlock()
		return p.awaitFlight(ctx, tr, span, key, f, l, false)
	}
	// First request for this key: start the flight on a context detached
	// from this client. The client's disconnect must not fail the other
	// clients that coalesce onto the flight; the work is canceled only
	// when the last waiter leaves (leaveFlight).
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	p.flights[key] = f
	p.flightMu.Unlock()

	// The detached context drops the client's deadline, so capture the
	// remaining budget here for the admission controller's deadline-aware
	// drop (<0 = no deadline).
	budget := time.Duration(-1)
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
	}
	go p.runFlight(fctx, tr, f, key, l, stale, budget)
	return p.awaitFlight(ctx, tr, span, key, f, l, true)
}

// leaveFlight drops one waiter from a flight. The last waiter to leave
// cancels the detached work — nobody wants the result anymore — and
// unpublishes the flight so the next request for the key starts fresh
// instead of joining a canceled fetch.
func (p *Proxy) leaveFlight(key string, f *flight) {
	p.flightMu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && p.flights[key] == f {
		delete(p.flights, key)
	}
	p.flightMu.Unlock()
	if last {
		f.cancel()
	}
}

// awaitFlight is the waiter path every request takes once a flight
// exists for its key: share the flight's result and emit this client's
// own audit record. The request that started the flight
// (leader) waits without a span — the flight's own spans are already on
// its trace; a follower's wait is a "queue.wait" span, because
// coalescing trades duplicated work for queueing delay and the trace
// shows exactly how much.
func (p *Proxy) awaitFlight(ctx context.Context, tr *telemetry.Trace, span *telemetry.SpanTimer, key string, f *flight, l Lookup, leader bool) ([]byte, RequestInfo, error) {
	var wait *telemetry.SpanTimer // nil-safe: the leader waits unspanned
	if !leader {
		wait = tr.StartSpan(p.cfg.Node, "queue.wait")
	}
	select {
	case <-f.done:
		wait.End()
	case <-ctx.Done():
		wait.End()
		// This client gave up (disconnect or deadline); the flight
		// continues for the others — unless this was the last waiter,
		// in which case leaveFlight cancels the work.
		p.leaveFlight(key, f)
		err := ctx.Err()
		p.audit(RequestRecord{
			Client: l.Client, Arch: l.Arch, Class: l.Class,
			Coalesced: !leader, FetchError: err.Error(), Duration: span.Elapsed(),
		})
		return nil, RequestInfo{Coalesced: !leader}, err
	}
	rec := RequestRecord{
		Client: l.Client, Arch: l.Arch, Class: l.Class, Coalesced: !leader,
		Shed: f.shed, Duration: span.Elapsed(),
	}
	if f.err != nil {
		if !leader {
			// The fetch error itself was counted once, on the flight;
			// followers count separately so one bad origin fetch with N
			// waiters does not inflate fetch_errors_total by N+1.
			p.cCoalescedFailures.Inc()
		}
		rec.FetchError, rec.PeerError = f.err.Error(), f.peerErr
		p.audit(rec)
		return nil, RequestInfo{Coalesced: !leader, Shed: f.shed}, f.err
	}
	// A follower shares bytes another request paid for — a cache hit in
	// all but storage; so does any waiter served a stale entry from this
	// node's own cache (stale-if-error or a shed onto the stale copy).
	cacheHit := !leader || (f.stale && f.peer == "")
	if !leader {
		p.cCacheHits.Inc()
		p.cCoalesced.Inc()
	}
	if f.stale {
		p.cStaleServed.Inc()
	}
	p.cBytesOut.Add(int64(len(f.data)))
	rec.Bytes, rec.CacheHit, rec.Rejected, rec.Stale, rec.Peer = len(f.data), cacheHit, f.rejected, f.stale, f.peer
	if leader {
		// Flight-level detail rides the leader's record, as it did when
		// the leader ran the fetch inline.
		rec.PeerError, rec.FetchError, rec.ProxyTime = f.peerErr, f.fetchErr, f.proxyTime
	}
	p.audit(rec)
	return f.data, RequestInfo{
		CacheHit: cacheHit, Coalesced: !leader, Rejected: f.rejected, Stale: f.stale,
		Shed: f.shed, Peer: f.peer, Attestation: f.att,
	}, nil
}

// runFlight is the miss path, run by one worker goroutine per flight on
// a context detached from the clients. Its steps run in a fixed order —
// admission, peer fill (sharded cluster), AOT derive, origin fetch plus
// pipeline — and the first that resolves the miss ends the chain; commit
// then attests, caches and reports what this node built. The result is
// published into f for the waiters, who emit their own per-request
// counters and audit records. ctx is canceled only when every waiter
// has left (leaveFlight).
func (p *Proxy) runFlight(ctx context.Context, tr *telemetry.Trace, f *flight, key string, l Lookup, stale *resolution, budget time.Duration) {
	defer func() {
		// Unpublish before waking the waiters so a new request finds
		// either the cached entry or no flight at all; leaveFlight may
		// already have removed an abandoned flight.
		p.flightMu.Lock()
		if p.flights[key] == f {
			delete(p.flights, key)
		}
		p.flightMu.Unlock()
		close(f.done)
		f.cancel()
	}()

	r, done := p.admit(ctx, tr, key, l, stale, budget)
	var peerErr string
	if !done {
		defer p.adm.release() // nil-safe when admission is off
		r, done = p.peerFill(ctx, tr, l)
		peerErr = r.peerErr
	}
	if !done {
		r, done = p.derive(tr, l)
	}
	if !done {
		r = p.fromOrigin(ctx, tr, key, l, stale)
	}
	r.peerErr = peerErr
	r = p.commit(ctx, tr, key, l, r)
	if r.err != nil && !r.shed {
		p.countFailure(f, r.err)
	}
	f.resolution = r
}

// admit asks the admission controller for a service slot: a flight is
// one unit of miss work (cache hits and followers never reach this
// point). The controller may grant the slot (the chain continues), shed
// the flight onto its stale copy, or reject it.
func (p *Proxy) admit(ctx context.Context, tr *telemetry.Trace, key string, l Lookup, stale *resolution, budget time.Duration) (resolution, bool) {
	if p.adm == nil {
		return resolution{}, false
	}
	span := tr.StartSpan(p.cfg.Node, "admission.wait")
	outcome, err := p.adm.acquire(ctx, l.Client, stale != nil, budget)
	span.End()
	switch outcome {
	case admitStale:
		r := *stale
		r.shed = true
		p.touchStale(key)
		return r, true
	case admitShed:
		// Anything but ErrOverloaded means ctx expired while queued:
		// every waiter left, which is a failure, not a shed.
		return resolution{err: err, shed: errors.Is(err, ErrOverloaded)}, true
	}
	return resolution{}, false
}

// peerFill asks the key's ring owner before the origin. A peer-served
// miss skips both the origin fetch and the pipeline run — the owner
// already paid for them once on behalf of the whole fleet. A failed hop
// degrades to the local steps: sharing is lost for this key,
// availability is not.
func (p *Proxy) peerFill(ctx context.Context, tr *telemetry.Trace, l Lookup) (resolution, bool) {
	if p.cfg.PeerFill == nil {
		return resolution{}, false
	}
	span := tr.StartSpan(p.cfg.Node, "peer.fill")
	res := p.cfg.PeerFill(ctx, l)
	span.End()
	switch res.Outcome {
	case PeerServed:
		p.cPeerFetches.Inc()
		p.cPeerHits.Inc()
		if p.aotArch(l.Arch) {
			// The owner paid the compilation; this node serves it free.
			p.cCompileHits.Inc()
		}
		// A hot key (CacheLocal) is kept in the local cache too, so this
		// node stops round-tripping for it; the fill hook already
		// verified res.Att against res.Data.
		return resolution{
			data: res.Data, att: res.Att, cache: res.CacheLocal,
			rejected: res.Rejected, stale: res.Stale, peer: res.Peer,
		}, true
	case PeerFailed:
		p.cPeerFetches.Inc()
		var r resolution
		if res.Err != nil {
			r.peerErr = res.Err.Error()
		}
		return r, false
	default: // PeerSelf: this node owns the key
		p.cOwnerFetches.Inc()
		return resolution{}, false
	}
}

// derive is the shared AOT code cache: a miss for the compiled
// architecture whose base-architecture artifact is already resident is
// answered by compiling those bytes directly — the origin fetch and the
// full pipeline run were paid once, under the base key; this request
// adds only the (cheap, deterministic) derivation. Rejected bases are
// skipped: a rejection replacement is architecture-independent and the
// origin step reproduces it exactly.
func (p *Proxy) derive(tr *telemetry.Trace, l Lookup) (resolution, bool) {
	a := p.cfg.AOT
	if a == nil || a.Compile == nil || l.Arch != a.Arch {
		return resolution{}, false
	}
	base, _, rejected, ok := p.peek(a.BaseArch, l.Class)
	if !ok || rejected {
		return resolution{}, false
	}
	span := tr.StartSpan(p.cfg.Node, "aot.derive")
	out, err := a.Compile(base)
	r := resolution{data: out, built: true, in: base, fromBase: true, proxyTime: span.End()}
	p.hPipeline.Observe(r.proxyTime)
	if err != nil {
		// A base artifact the compiler cannot consume degrades to the
		// origin step, which re-derives from scratch.
		log.Printf("proxy: aot: deriving %s from cached %s artifact: %v", l.Class, a.BaseArch, err)
		return resolution{}, false
	}
	p.cCompileMisses.Inc()
	return r, true
}

// fromOrigin is the last step: fetch the class from the origin
// (deadline + retry + breaker) and run the pipeline over it. When the
// origin is unreachable and a stale cache entry exists, it is served
// instead (stale-if-error): freshness degrades, availability does not.
func (p *Proxy) fromOrigin(ctx context.Context, tr *telemetry.Trace, key string, l Lookup, stale *resolution) resolution {
	p.cOriginFetches.Inc()
	span := tr.StartSpan(p.cfg.Node, "origin.fetch")
	var raw []byte
	err := p.hop.Do(ctx, func(actx context.Context) error {
		b, ferr := p.origin.Fetch(actx, l.Class)
		if errors.Is(ferr, ErrNotFound) {
			// A definitive answer, not an outage: no retry, no breaker
			// penalty, no stale fallback.
			return resilience.Permanent(ferr)
		}
		raw = b
		return ferr
	})
	p.hOriginFetch.Observe(span.End())
	if err != nil {
		if stale != nil && !errors.Is(err, ErrNotFound) {
			r := *stale
			r.fetchErr = err.Error()
			p.touchStale(key)
			return r
		}
		return resolution{err: err}
	}
	p.cBytesIn.Add(int64(len(raw)))

	span = tr.StartSpan(p.cfg.Node, "pipeline")
	rctx := rewrite.NewContext()
	rctx.ClientID = l.Client
	rctx.ClientArch = l.Arch
	rctx.Trace = tr
	rctx.Node = p.cfg.Node
	out, rejected, err := p.process(raw, rctx, l.Class)
	r := resolution{data: out, built: true, in: raw, rejected: rejected, proxyTime: span.End(), err: err}
	p.hPipeline.Observe(r.proxyTime)
	if rejected {
		p.cRejections.Inc()
	}
	if err == nil && !rejected && p.aotArch(l.Arch) {
		// Full pipeline run for the compiled architecture: the compile
		// step ran inside it (no resident base artifact to derive from).
		p.cCompileMisses.Inc()
	}
	return r
}

// commit finishes a resolved flight. Bytes this node built are first
// attested: the Attest hook cross-checks the output digest against ring
// successors and seals the agreement, and a hook error fails the flight
// — divergence means these bytes cannot be trusted, and no client may
// see them. Built bytes (and a hot key's peer copy) are then cached in
// memory and on disk, and built bytes are reported to OnTransformed for
// replication. Stale, shed and failed resolutions pass through.
func (p *Proxy) commit(ctx context.Context, tr *telemetry.Trace, key string, l Lookup, r resolution) resolution {
	if r.err != nil || !(r.built || r.cache) {
		return r
	}
	if r.built && p.cfg.Attest != nil {
		name := "attest.quorum"
		if r.fromBase {
			name = "attest.compile"
		}
		span := tr.StartSpan(p.cfg.Node, name)
		att, err := p.cfg.Attest(ctx, l.Arch, l.Class, r.in, r.data, r.fromBase)
		p.hAttest.Observe(span.End())
		if err != nil {
			p.cAttestFailures.Inc()
			return resolution{err: fmt.Errorf("proxy: attesting %s: %w", l.Class, err), peerErr: r.peerErr}
		}
		r.att = att
		p.cAttested.Inc()
	}
	if p.cfg.CacheEnabled {
		p.storeMem(key, r.data, r.att, r.rejected)
		p.diskCachePut(key, r.data, r.att)
	}
	if r.built && p.cfg.OnTransformed != nil {
		p.cfg.OnTransformed(l.Arch, l.Class, r.data, r.att)
	}
	return r
}

// countFailure counts a failed flight. A flight canceled because every
// waiter already disconnected is an abandonment, not an origin failure:
// nobody was refused service, so it gets its own counter instead of
// inflating fetch_errors_total.
func (p *Proxy) countFailure(f *flight, err error) {
	p.flightMu.Lock()
	abandoned := f.waiters == 0
	p.flightMu.Unlock()
	if abandoned && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		p.cFlightsAbandoned.Inc()
		return
	}
	p.cFetchErrors.Inc()
}

// aotArch reports whether arch is the AOT code cache's compiled
// architecture.
func (p *Proxy) aotArch(arch string) bool {
	return p.cfg.AOT != nil && arch == p.cfg.AOT.Arch
}

// cached probes the memory cache, then the on-disk cache (which
// survives proxy restarts). Only a fresh disk entry is promoted to
// memory; a stale one is kept solely as the stale-if-error fallback so
// it still gets revalidated on the next request.
func (p *Proxy) cached(key string) (data []byte, att *attest.Attestation, fresh, prefetched, rejected, ok bool) {
	if data, att, fresh, prefetched, rejected, ok = p.memGet(key); ok {
		return data, att, fresh, prefetched, rejected, ok
	}
	if data, att, fresh, ok = p.diskCacheGet(key); ok && fresh {
		p.storeMem(key, data, att, false)
	}
	return data, att, fresh, false, false, ok
}

// memGet looks up the in-memory cache; a hit refreshes LRU recency.
// fresh reports whether the entry is within CacheTTL (always true when
// no TTL is configured). prefetched reports that this hit was the first
// use of a speculatively pushed entry — the prefetch paid off; the flag
// clears so the entry's later eviction is not miscounted as waste.
func (p *Proxy) memGet(key string) (data []byte, att *attest.Attestation, fresh, prefetched, rejected, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.cache[key]
	if !ok {
		return nil, nil, false, false, false, false
	}
	p.lru.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	if ent.prefetched {
		ent.prefetched = false
		prefetched = true
		p.prefetchResident -= len(ent.data)
		p.cPrefetchHits.Inc()
	}
	fresh = p.cfg.CacheTTL <= 0 || p.now().Sub(ent.storedAt) <= p.cfg.CacheTTL
	return ent.data, ent.att, fresh, prefetched, ent.rejected, true
}

// Peek returns the fresh cached bytes for (arch, class) without touching
// LRU recency, the prefetch ledger, or any counter — the owner-side read
// used to assemble a prefetch piggyback without distorting its own
// hotness signal. Stale entries are not returned: pushing bytes due for
// revalidation would spread staleness to peers.
func (p *Proxy) Peek(arch, class string) (data []byte, att *attest.Attestation, ok bool) {
	data, att, _, ok = p.peek(arch, class)
	return data, att, ok
}

// peek is the read behind Peek; it also reports whether the resident
// bytes are a rejection replacement, which the AOT derive step must not
// feed to the compiler.
func (p *Proxy) peek(arch, class string) (data []byte, att *attest.Attestation, rejected, ok bool) {
	if !p.cfg.CacheEnabled {
		return nil, nil, false, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.cache[arch+"\x00"+class]
	if !ok {
		return nil, nil, false, false
	}
	ent := el.Value.(*cacheEntry)
	if p.cfg.CacheTTL > 0 && p.now().Sub(ent.storedAt) > p.cfg.CacheTTL {
		return nil, nil, false, false
	}
	return ent.data, ent.att, ent.rejected, true
}

// touchStale refreshes the timestamp on a stale entry that was just
// served via stale-if-error, so a down origin is re-probed once per TTL
// window per key instead of on every request (the breaker bounds the
// damage regardless; this bounds audit noise).
func (p *Proxy) touchStale(key string) {
	if p.cfg.CacheTTL <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.cache[key]; ok {
		el.Value.(*cacheEntry).storedAt = p.now()
	}
}

// storeMem inserts or replaces an entry in the in-memory cache with LRU
// eviction. A replacement (e.g. a fresher transform after a pipeline
// config change, or a disk/memory disagreement) overwrites the stale
// bytes and fixes the byte accounting.
func (p *Proxy) storeMem(key string, data []byte, att *attest.Attestation, rejected bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.CacheBudget > 0 && len(data) > p.cfg.CacheBudget {
		// Caching this would evict everything and the entry still could
		// not stay resident; serve it uncached instead.
		_, class := splitKey(key)
		log.Printf("proxy: cache: entry %q (%d bytes) exceeds cache budget (%d); not cached",
			class, len(data), p.cfg.CacheBudget)
		return
	}
	if el, ok := p.cache[key]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.prefetched {
			// Overwritten before first use (e.g. a TTL refetch landed on a
			// speculative entry): the pushed bytes were waste.
			p.notePrefetchWaste(ent)
		}
		p.cacheBytes += len(data) - len(ent.data)
		ent.data = data
		ent.att = att
		ent.storedAt = p.now()
		ent.rejected = rejected
		p.lru.MoveToFront(el)
	} else {
		p.cache[key] = p.lru.PushFront(&cacheEntry{key: key, data: data, att: att, storedAt: p.now(), rejected: rejected})
		p.cacheBytes += len(data)
	}
	for p.cfg.CacheBudget > 0 && p.cacheBytes > p.cfg.CacheBudget {
		back := p.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		if ent.prefetched {
			p.notePrefetchWaste(ent)
		}
		p.lru.Remove(back)
		delete(p.cache, ent.key)
		p.cacheBytes -= len(ent.data)
	}
}

// notePrefetchWaste records a speculative entry leaving the cache (or
// being overwritten) before its first use. Caller holds p.mu.
func (p *Proxy) notePrefetchWaste(ent *cacheEntry) {
	ent.prefetched = false
	p.prefetchResident -= len(ent.data)
	p.cPrefetchWasteBytes.Add(int64(len(ent.data)))
	p.cPrefetchEvicted.Inc()
}

// splitKey splits an arch\x00class cache key into its parts.
func splitKey(key string) (arch, class string) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:]
		}
	}
	return "", key
}

func (p *Proxy) audit(r RequestRecord) {
	if p.cfg.OnAudit != nil {
		p.cfg.OnAudit(r)
	}
}

// TransformDigest runs the pipeline over raw origin bytes and returns
// the canonical digest of what this node would serve for (arch, class) —
// the variant half of quorum attestation (/peer/attest). It shares the
// serving path's rejection-replacement semantics (a deterministic
// pipeline produces a deterministic rejection, so replacements attest
// like any other artifact) but touches neither the cache nor the
// origin: the dispatching owner supplies the raw bytes, and only the
// digest goes back on the wire.
func (p *Proxy) TransformDigest(ctx context.Context, arch, class string, raw []byte) (string, error) {
	rctx := rewrite.NewContext()
	rctx.ClientArch = arch
	rctx.Node = p.cfg.Node
	rctx.Trace = telemetry.FromContext(ctx)
	out, _, err := p.process(raw, rctx, class)
	if err != nil {
		return "", err
	}
	return attest.Digest(out), nil
}

// process runs the pipeline over raw origin bytes. A verification (or
// other service) rejection becomes a replacement class that raises
// VerifyError on the client (§3.1); err is set only when even the
// replacement cannot be built.
func (p *Proxy) process(raw []byte, rctx *rewrite.Context, class string) (out []byte, rejected bool, err error) {
	out, perr := p.cfg.Pipeline.Process(raw, rctx)
	if perr == nil {
		return out, false, nil
	}
	repl, rerr := verifier.MakeErrorClass(class, perr.Error())
	if rerr != nil {
		return nil, true, fmt.Errorf("proxy: building replacement for %s: %v (original error: %w)", class, rerr, perr)
	}
	return repl, true, nil
}

// CompileDigest derives the compiled artifact from already-transformed
// base-architecture bytes and returns its digest — the compile-mode
// variant vote of quorum attestation. The dispatching owner supplies
// the base artifact it derived from; this node answers with the digest
// of what its own compiler produces from the same input, so a corrupt
// compiler (or memory) on either side shows up as divergence exactly
// like a corrupt pipeline does on the transform route.
func (p *Proxy) CompileDigest(ctx context.Context, arch, class string, base []byte) (string, error) {
	a := p.cfg.AOT
	if a == nil || a.Compile == nil {
		return "", fmt.Errorf("proxy: no AOT compiler configured")
	}
	if arch != a.Arch {
		return "", fmt.Errorf("proxy: AOT arch %q cannot vote for %q", a.Arch, arch)
	}
	_ = ctx
	out, err := a.Compile(base)
	if err != nil {
		return "", fmt.Errorf("proxy: deriving %s: %w", class, err)
	}
	return attest.Digest(out), nil
}

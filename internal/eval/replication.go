package eval

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// ReplicaGroup addresses the centralization concern of §2: "Centralization
// can lead to a bottleneck in performance or result in a single point of
// failure within the network. These problems can be addressed by
// replicated or recoverable server implementations."
//
// The group fronts several independent proxies over the same origin.
// Static service components need no shared mutable state ("they do not
// inherently need to synchronize with clients or require exclusive
// access to shared state"), so replicas are plain copies; requests are
// spread round-robin and a replica failure falls over to the next.
type ReplicaGroup struct {
	replicas []*proxy.Proxy
	requests []requestFunc // each replica's Request under its memory model
	next     atomic.Uint64
}

// NewReplicaGroup builds n replicas over the origin, each with its own
// cache and pipeline built by mkConfig (called once per replica).
func NewReplicaGroup(origin proxy.Origin, n int, mkConfig func(i int) proxy.Config) (*ReplicaGroup, error) {
	origins := make([]proxy.Origin, max(n, 0))
	for i := range origins {
		origins[i] = origin
	}
	return NewReplicaGroupMixed(origins, mkConfig)
}

// NewReplicaGroupMixed builds one replica per origin (used when replicas
// sit on different hosts with different upstream connectivity).
func NewReplicaGroupMixed(origins []proxy.Origin, mkConfig func(i int) proxy.Config) (*ReplicaGroup, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("eval: replica group needs at least 1 replica")
	}
	g := &ReplicaGroup{}
	for i, o := range origins {
		p := proxy.New(pagingOrigin{o}, mkConfig(i))
		g.replicas = append(g.replicas, p)
		g.requests = append(g.requests, p.Request)
	}
	return g, nil
}

// withMemory makes each replica a host with budget bytes under the
// Figure 10 memory model (0 = unmodeled).
func (g *ReplicaGroup) withMemory(budget int64) *ReplicaGroup {
	for i, p := range g.replicas {
		g.requests[i] = hostMemory(budget, p.Request)
	}
	return g
}

// Size returns the number of replicas.
func (g *ReplicaGroup) Size() int { return len(g.replicas) }

// Replica returns the i-th replica (diagnostics, per-replica stats).
func (g *ReplicaGroup) Replica(i int) *proxy.Proxy { return g.replicas[i] }

// Request serves a class from the next replica in round-robin order,
// failing over to the remaining replicas on error. The caller's ctx
// bounds the whole failover sweep; once it expires no further replicas
// are tried.
func (g *ReplicaGroup) Request(ctx context.Context, l proxy.Lookup) (proxy.Result, error) {
	start := int(g.next.Add(1)-1) % len(g.replicas)
	var firstErr error
	var firstRes proxy.Result
	for i := 0; i < len(g.replicas); i++ {
		if cerr := ctx.Err(); cerr != nil {
			if firstErr == nil {
				firstErr = cerr
			}
			break
		}
		res, err := g.requests[(start+i)%len(g.replicas)](ctx, l)
		if err == nil {
			return res, nil
		}
		if firstErr == nil {
			firstErr, firstRes = err, res
		}
	}
	return firstRes, firstErr
}

// RequestLatency merges the replicas' request-latency histograms into
// one group-wide snapshot.
func (g *ReplicaGroup) RequestLatency() telemetry.HistSnapshot {
	var s telemetry.HistSnapshot
	for _, p := range g.replicas {
		_ = s.Merge(p.RequestLatency())
	}
	return s
}

// Stats aggregates the replica counters.
func (g *ReplicaGroup) Stats() proxy.Stats {
	var out proxy.Stats
	for _, p := range g.replicas {
		out.Add(p.Stats())
	}
	return out
}

// AblationReplicationRow is one point of the replication experiment.
type AblationReplicationRow struct {
	Replicas      int
	Clients       int
	ThroughputBps float64
	LatencyPerKB  time.Duration
	// OriginFetches/DupRewrites/HitRate expose the duplicate work a
	// round-robin fleet does: with caching off (the paper's worst case)
	// every request is a fresh origin fetch plus a fresh pipeline run.
	OriginFetches int64
	DupRewrites   int64
	HitRate       float64
}

// AblationReplication demonstrates §2's answer to the Figure 10
// collapse: "in larger installations, an administrator can ... use
// replicated proxies." It drives a client population big enough to
// exhaust one proxy's memory budget and shows throughput restored as
// replicas are added (each replica brings its own 64 MB). The rendered
// output then appends the ClusterScaling comparison — the same fleet
// sizes run with caching on, round-robin replicas vs. the sharded
// cluster — so the duplicate-work numbers sit next to the throughput
// restoration they motivate.
func AblationReplication(clients int, replicaCounts []int, cfg Fig10Config) ([]AblationReplicationRow, string, error) {
	delayed, err := appletInternet(cfg)
	if err != nil {
		return nil, "", err
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	rows := make([]AblationReplicationRow, 0, len(replicaCounts))
	for _, nr := range replicaCounts {
		group, err := NewReplicaGroup(delayed, nr, func(int) proxy.Config {
			return proxy.Config{
				Pipeline:     ServicePipeline(StandardPolicy(), false),
				CacheEnabled: false,
			}
		})
		if err != nil {
			return nil, "", err
		}
		totalBytes, _, totalLatency, elapsed, err := appletLoad(clients, cfg, group.withMemory(cfg.MemoryBudget).Request)
		if err != nil {
			return nil, "", err
		}
		row := AblationReplicationRow{
			Replicas:      nr,
			Clients:       clients,
			ThroughputBps: float64(totalBytes) / elapsed.Seconds(),
			LatencyPerKB:  perKB(totalLatency, totalBytes),
		}
		gs := group.Stats()
		row.OriginFetches = gs.OriginFetches
		if d := gs.OriginFetches - int64(cfg.Applets); d > 0 {
			row.DupRewrites = d
		}
		if gs.Requests > 0 {
			row.HitRate = float64(gs.CacheHits) / float64(gs.Requests)
		}
		rows = append(rows, row)
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.Replicas),
			fmt.Sprintf("%.0f", r.ThroughputBps/1024),
			ms(r.LatencyPerKB),
			fmt.Sprint(r.OriginFetches),
			fmt.Sprint(r.DupRewrites),
			fmt.Sprintf("%.1f%%", r.HitRate*100),
		})
	}
	text := fmt.Sprintf("replication at %d clients (one proxy's memory saturates)\n", clients) +
		table([]string{"Replicas", "Throughput (KB/s)", "Latency/KB (ms)", "Origin fetches", "Dup rewrites", "Hit rate"}, cells)

	// The same fleet sizes as one sharded cache: round-robin vs. the
	// consistent-hash cluster, caching on.
	if _, ctext, err := ClusterScaling(clients, replicaCounts, cfg); err == nil {
		text += "\n" + ctext
	} else {
		return nil, "", err
	}
	return rows, text, nil
}

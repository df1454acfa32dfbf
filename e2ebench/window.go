package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"dvm/internal/jvm"
	"dvm/internal/proxy"
)

// session is the outcome of one client session.
type session struct {
	dur      time.Duration   // run time
	loads    []time.Duration // each class load as the client saw it
	bytes    int64           // class bytes delivered to the client
	vm       jvm.Stats       // the client VM's counters (zero for fetch-only sessions)
	err      error           // load error, refusal or crash
	mismatch bool            // output differs from the reference
}

// window is one measured stretch of a workload.
type window struct {
	sessions []session
	elapsed  time.Duration // first dispatch to last completion
	cpu      time.Duration // process user+system time
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	wire     int64 // bytes on the client connections (fleet_mix), 0 in process
}

// sessionLog collects sessions from the client workers.
type sessionLog struct {
	mu sync.Mutex
	s  []session
}

func (l *sessionLog) add(s session) {
	l.mu.Lock()
	l.s = append(l.s, s)
	l.mu.Unlock()
}

// closedWorkers is the number of client workers: one per CPU of the
// 2-CPU host the benchmark was sized on.
const closedWorkers = 2

// closedLoop runs a schedule of sessions on closedWorkers workers, each
// taking the next session as soon as its last one ends. next(i) is
// called in schedule order, under the loop's lock, and returns the i-th
// session. The loop ends after n sessions or, past deadline, at the
// first multiple of block after the start; a zero deadline runs all n.
func closedLoop(n, block int, deadline time.Time, next func(i int) func() session) []session {
	var (
		log sessionLog
		wg  sync.WaitGroup
		mu  sync.Mutex
		i   int
	)
	take := func() (func() session, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i == n || (i > 0 && i%block == 0 && !deadline.IsZero() && !time.Now().Before(deadline)) {
			i = n
			return nil, false
		}
		i++
		return next(i - 1), true
	}
	for w := 0; w < closedWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run, ok := take(); ok; run, ok = take() {
				log.add(run())
			}
		}()
	}
	wg.Wait()
	return log.s
}

// measure runs drive between two snapshots of the process's clock, CPU
// time and memory statistics. drive returns the sessions it ran.
func measure(drive func() []session) window {
	runtime.GC()
	var w window
	runtime.ReadMemStats(&w.mem0)
	cpu0 := cpuTime()
	start := time.Now()
	w.sessions = drive()
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&w.mem1)
	return w
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// proxyTotals sums proxy counters over the proxies of a window.
type proxyTotals struct {
	mu                                      sync.Mutex
	requests, hits, peerHits, originFetches int64
	proxyTime                               time.Duration
}

func (t *proxyTotals) add(s proxy.Stats) {
	t.mu.Lock()
	t.requests += s.Requests
	t.hits += s.CacheHits
	t.peerHits += s.PeerHits
	t.originFetches += s.OriginFetches
	t.proxyTime += s.ProxyTime
	t.mu.Unlock()
}

func (t *proxyTotals) sub(s proxy.Stats) {
	t.add(proxy.Stats{
		Requests: -s.Requests, CacheHits: -s.CacheHits, PeerHits: -s.PeerHits,
		OriginFetches: -s.OriginFetches, ProxyTime: -s.ProxyTime,
	})
}

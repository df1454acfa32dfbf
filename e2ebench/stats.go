package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// samples collects durations from several goroutines.
type samples struct {
	mu sync.Mutex
	v  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, d)
	s.mu.Unlock()
}

func (s *samples) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.v...)
}

// busy accumulates a layer's work count and busy time.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) add(d time.Duration) { b.ns.Add(int64(d)) }

func (b *busy) run(d time.Duration) {
	b.calls.Add(1)
	b.ns.Add(int64(d))
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package eval

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/proxy"
)

// The Figure 10 memory model: the paper's 64 MB proxy host collapsed
// past ~250 simultaneous clients once open connections and classes in
// flight spilled into paging. It wraps one proxy instance from outside:
// each in-progress request holds connectionMemory, each fetched class
// holds 4× its wire size (its parsed form) until the request that
// fetched it finishes, and an origin fetch that lands while the host is
// over budget sleeps pagingPenaltyPerMB per MiB of overshoot.

const (
	// connectionMemory is the modeled per-connection server memory
	// (socket buffers, HTTP state, worker stack).
	connectionMemory = 256 << 10
	// pagingPenaltyPerMB is the delay per MiB of overshoot. Thrashing is
	// brutal once physical memory is oversubscribed: the penalty makes
	// each paged request ~an order of magnitude slower, as the paper's
	// 64 MB server exhibited past ~250 clients.
	pagingPenaltyPerMB = 150 * time.Millisecond
)

// memoryModel is one proxy host's memory.
type memoryModel struct {
	budget int64
	held   atomic.Int64
}

// hostMemory runs each request of next on a host with budget bytes of
// memory (0 = unmodeled).
func hostMemory(budget int64, next requestFunc) requestFunc {
	if budget <= 0 {
		return next
	}
	return (&memoryModel{budget: budget}).wrap(next)
}

// wrap runs each request of next as one in-progress connection on m.
// The request's charge rides its context, where pagingOrigin finds it:
// the proxy hands the request's context values on to the origin fetch.
func (m *memoryModel) wrap(next requestFunc) requestFunc {
	return func(ctx context.Context, l proxy.Lookup) (proxy.Result, error) {
		c := &charge{m: m}
		m.held.Add(connectionMemory)
		defer c.release()
		return next(context.WithValue(ctx, chargeKey{}, c), l)
	}
}

// charge is the memory one request holds on its host.
type charge struct {
	m       *memoryModel
	mu      sync.Mutex
	fetched int64
	done    bool
}

type chargeKey struct{}

// add charges n fetched bytes to the request and returns the host's
// total. A request that already finished (its client left while the
// fetch ran on) frees the bytes with it.
func (c *charge) add(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.m.held.Load() + n
	}
	c.fetched += n
	return c.m.held.Add(n)
}

func (c *charge) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	c.m.held.Add(-connectionMemory - c.fetched)
}

// pagingOrigin charges each fetched class to the request that fetched
// it and sleeps the paging penalty while its host is over budget.
// Fetches outside a modeled request pass straight through.
type pagingOrigin struct{ proxy.Origin }

func (o pagingOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	b, err := o.Origin.Fetch(ctx, name)
	c, _ := ctx.Value(chargeKey{}).(*charge)
	if err != nil || c == nil {
		return b, err
	}
	if over := c.add(4*int64(len(b))) - c.m.budget; over > 0 {
		time.Sleep(time.Duration(float64(over) / (1 << 20) * float64(pagingPenaltyPerMB)))
	}
	return b, nil
}

package rewrite

import (
	"fmt"
	"sync"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/telemetry"
)

// Context carries per-class information through a pipeline run: which
// client requested the class, accumulated service notes, and per-filter
// timing for the audit trail.
type Context struct {
	// ClientID identifies the requesting client (from the handshake
	// protocol of §3.3); empty for client-independent processing.
	ClientID string
	// ClientArch is the client's native format descriptor, used by the
	// compilation service (§3.4).
	ClientArch string
	// Notes lets filters publish results to later filters and to the
	// proxy (e.g. the verifier's check census, the optimizer's split map).
	// Filters go through SetNote/Note/AddIntNote, which take the context
	// lock, so a caller may read notes while a run is in flight; reading
	// the map directly is fine once the pipeline has returned.
	Notes map[string]any
	// FilterTimings records wall-clock time spent per filter. Like Notes,
	// it is written under the context lock and safe to read directly
	// after the run.
	FilterTimings map[string]time.Duration

	// Trace/Node, when set, receive one span per filter stage
	// (filter.<name>) plus the verifier's per-phase spans.
	Trace *telemetry.Trace
	Node  string

	mu sync.Mutex
}

// NewContext returns an empty context.
func NewContext() *Context {
	return &Context{
		Notes:         make(map[string]any),
		FilterTimings: make(map[string]time.Duration),
	}
}

// SetNote publishes a note under the context lock.
func (c *Context) SetNote(key string, v any) {
	c.mu.Lock()
	c.Notes[key] = v
	c.mu.Unlock()
}

// Note reads a note under the context lock.
func (c *Context) Note(key string) (any, bool) {
	c.mu.Lock()
	v, ok := c.Notes[key]
	c.mu.Unlock()
	return v, ok
}

// AddIntNote adds delta to an integer note, creating it at delta if
// absent. Filters use it to accumulate counters (audit sites, checks
// inserted) across methods and classes.
func (c *Context) AddIntNote(key string, delta int) {
	c.mu.Lock()
	if prev, ok := c.Notes[key].(int); ok {
		c.Notes[key] = prev + delta
	} else {
		c.Notes[key] = delta
	}
	c.mu.Unlock()
}

func (c *Context) addTiming(name string, d time.Duration) {
	c.mu.Lock()
	c.FilterTimings[name] += d
	c.mu.Unlock()
}

// Filter is one static service component: a code transformation applied
// to a parsed class (paper Figure 2's pipeline stages — verifier,
// security, compiler, optimizer, profiler — all implement this).
type Filter interface {
	// Name identifies the filter in audit trails and timings.
	Name() string
	// Transform inspects and/or rewrites the class in place.
	Transform(cf *classfile.ClassFile, ctx *Context) error
}

// MethodFilter was the per-method split of a Filter (Prepare once, then
// TransformMethod per method on a worker pool).
//
// Deprecated: the pipeline runs every filter as one sequential Transform
// call and never calls Prepare or TransformMethod. The declaration stays
// only because the e2ebench module's filter wrappers still name it; it
// goes with them.
type MethodFilter interface {
	Filter
	Prepare(cf *classfile.ClassFile, ctx *Context) error
	TransformMethod(cf *classfile.ClassFile, m *classfile.Member, ctx *Context) error
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc struct {
	FilterName string
	Fn         func(cf *classfile.ClassFile, ctx *Context) error
}

// Name implements Filter.
func (f FilterFunc) Name() string { return f.FilterName }

// Transform implements Filter.
func (f FilterFunc) Transform(cf *classfile.ClassFile, ctx *Context) error {
	return f.Fn(cf, ctx)
}

// Pipeline composes filters. Process parses the class once, runs every
// filter over the shared in-memory form, and serializes once — the
// paper's single-parse proxy structure.
type Pipeline struct {
	filters []Filter
}

// NewPipeline builds a pipeline from filters in application order.
func NewPipeline(filters ...Filter) *Pipeline {
	return &Pipeline{filters: filters}
}

// Append adds a filter at the end of the pipeline.
func (p *Pipeline) Append(f Filter) { p.filters = append(p.filters, f) }

// Filters returns the filter list in application order.
func (p *Pipeline) Filters() []Filter { return p.filters }

// Process runs the pipeline over one serialized class.
func (p *Pipeline) Process(data []byte, ctx *Context) ([]byte, error) {
	if ctx == nil {
		ctx = NewContext()
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("rewrite: pipeline parse: %w", err)
	}
	if err := p.ProcessClass(cf, ctx); err != nil {
		return nil, err
	}
	out, err := cf.Encode()
	if err != nil {
		return nil, fmt.Errorf("rewrite: pipeline encode: %w", err)
	}
	// The class graph is dead now that it is re-serialized; recycle the
	// pool scratch for the next parse. Filters publish only value types
	// and strings through Notes, never the ClassFile itself.
	cf.Release()
	return out, nil
}

// ProcessClass runs the filters over an already-parsed class, in order,
// each as one Transform call. Output is byte-deterministic by
// construction: nothing runs concurrently with a filter.
func (p *Pipeline) ProcessClass(cf *classfile.ClassFile, ctx *Context) error {
	for _, f := range p.filters {
		span := ctx.Trace.StartSpan(ctx.Node, "filter."+f.Name())
		start := telemetry.StartTimer()
		err := transformSafe(f, cf, ctx)
		ctx.addTiming(f.Name(), start.Elapsed())
		span.End()
		if err != nil {
			return fmt.Errorf("rewrite: filter %s on %s: %w", f.Name(), cf.Name(), err)
		}
	}
	return nil
}

// transformSafe converts a panic inside a filter into an error, so one
// hostile or mis-rewritten class fails its own request rather than the
// proxy process.
func transformSafe(f Filter, cf *classfile.ClassFile, ctx *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f.Transform(cf, ctx)
}

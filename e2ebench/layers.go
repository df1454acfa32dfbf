package main

// Layer wrappers for the traced run. Each one times calls into a layer's
// public interface from outside the program and forwards them
// unchanged, so a traced run serves the same bytes as an untraced one
// (wrap_test.go checks this).

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/jvm"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
)

// layerTrace is what one traced run records at the layer boundaries.
type layerTrace struct {
	mu      sync.Mutex
	filters map[string]*busy // rewrite.Filter by name

	origin  busy // proxy.Origin.Fetch
	compile busy // proxy.AOTConfig.Compile from a serving flight (AOT derive)
	vote    busy // proxy.AOTConfig.Compile from a compile-mode attestation vote
	check   busy // jvm.VM.CheckAccess
	audit   busy // jvm.VM.OnAudit

	peerBatch samples // cluster peer hops on the batch envelope
	attest    samples // attestation variant votes

	hits   samples // proxy requests answered from cache
	misses samples // proxy requests that ran the origin or derive path
}

func newLayerTrace() *layerTrace {
	return &layerTrace{filters: make(map[string]*busy)}
}

// filter returns the counters of the named filter.
func (lt *layerTrace) filter(name string) *busy {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	b := lt.filters[name]
	if b == nil {
		b = &busy{}
		lt.filters[name] = b
	}
	return b
}

// pipeline returns a pipeline running p's filters, each wrapped.
func (lt *layerTrace) pipeline(p *rewrite.Pipeline) *rewrite.Pipeline {
	fs := p.Filters()
	out := make([]rewrite.Filter, len(fs))
	for i, f := range fs {
		out[i] = wrapFilter(f, lt.filter(f.Name()))
	}
	return rewrite.NewPipeline(out...)
}

// wrapFilter times f. A rewrite.MethodFilter stays one, so the
// pipeline keeps its per-method fan-out; its busy time is Prepare plus
// every TransformMethod, summed over workers.
func wrapFilter(f rewrite.Filter, b *busy) rewrite.Filter {
	if mf, ok := f.(rewrite.MethodFilter); ok {
		return timedMethodFilter{mf, b}
	}
	return timedFilter{f, b}
}

type timedFilter struct {
	rewrite.Filter
	b *busy
}

func (f timedFilter) Transform(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	start := time.Now()
	err := f.Filter.Transform(cf, ctx)
	f.b.run(time.Since(start))
	return err
}

type timedMethodFilter struct {
	rewrite.MethodFilter
	b *busy
}

func (f timedMethodFilter) Transform(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	start := time.Now()
	err := f.MethodFilter.Transform(cf, ctx)
	f.b.run(time.Since(start))
	return err
}

func (f timedMethodFilter) Prepare(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	start := time.Now()
	err := f.MethodFilter.Prepare(cf, ctx)
	f.b.run(time.Since(start))
	return err
}

func (f timedMethodFilter) TransformMethod(cf *classfile.ClassFile, m *classfile.Member, ctx *rewrite.Context) error {
	start := time.Now()
	err := f.MethodFilter.TransformMethod(cf, m, ctx)
	f.b.add(time.Since(start))
	return err
}

// timedOrigin counts and times origin fetches.
type timedOrigin struct {
	proxy.Origin
	b *busy
}

func (o timedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	start := time.Now()
	data, err := o.Origin.Fetch(ctx, name)
	o.b.run(time.Since(start))
	return data, err
}

// timedCompile times AOTConfig.Compile. The proxy calls it for two
// jobs: an owner's derive, on its serving flight, and a variant's vote
// on another node's derive (Proxy.CompileDigest). They are told apart
// by the caller and counted apart.
func (lt *layerTrace) timedCompile(compile func([]byte) ([]byte, error)) func([]byte) ([]byte, error) {
	return func(base []byte) ([]byte, error) {
		b := &lt.compile
		if calledFrom(compileVoteFunc) {
			b = &lt.vote
		}
		start := time.Now()
		out, err := compile(base)
		b.run(time.Since(start))
		return out, err
	}
}

// compileVoteFunc is the proxy method that runs Compile for a vote.
const compileVoteFunc = "dvm/internal/proxy.(*Proxy).CompileDigest"

// calledFrom reports whether fn is on the caller's stack, within the
// few frames between it and the wrapper.
func calledFrom(fn string) bool {
	var pcs [8]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if f.Function == fn {
			return true
		}
		if !more {
			return false
		}
	}
}

// timedChecker times the client's security checks.
type timedChecker struct {
	inner jvm.AccessChecker
	b     *busy
}

func (c timedChecker) Check(t *jvm.Thread, permission, target string) *jvm.Object {
	start := time.Now()
	thrown := c.inner.Check(t, permission, target)
	c.b.run(time.Since(start))
	return thrown
}

// timedAudit times the client's audit hook.
func timedAudit(fn func(jvm.AuditEvent), b *busy) func(jvm.AuditEvent) {
	return func(e jvm.AuditEvent) {
		start := time.Now()
		fn(e)
		b.run(time.Since(start))
	}
}

// onProxyAudit sorts each proxy request record by serve path.
func (lt *layerTrace) onProxyAudit(r proxy.RequestRecord) {
	switch {
	case r.FetchError != "" || r.Shed:
	case r.CacheHit:
		lt.hits.add(r.Duration)
	case r.Peer == "" && !r.Stale:
		lt.misses.add(r.Duration)
	}
}

// Peer protocol routes, as cluster nodes call them.
const (
	batchPath    = "/peer/v1/batch"
	attestPrefix = "/peer/v1/attest/"
)

// timedTransport times cluster peer hops from request to response body
// close.
type timedTransport struct {
	inner http.RoundTripper
	lt    *layerTrace
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var s *samples
	switch {
	case r.URL.Path == batchPath:
		s = &t.lt.peerBatch
	case strings.HasPrefix(r.URL.Path, attestPrefix):
		s = &t.lt.attest
	}
	start := time.Now()
	resp, err := t.inner.RoundTrip(r)
	if s == nil {
		return resp, err
	}
	if err != nil {
		s.add(time.Since(start))
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, start: start, s: s}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	start time.Time
	s     *samples
	once  sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.s.add(time.Since(b.start)) })
	return err
}

// loadLog is the client's class loader as the benchmark sees it: it
// times every load and counts the bytes delivered. One VM loads on one
// goroutine, so it needs no lock.
type loadLog struct {
	inner jvm.ClassLoader
	d     []time.Duration
	bytes int64
}

func (l *loadLog) Load(name string) ([]byte, error) {
	start := time.Now()
	data, err := l.inner.Load(name)
	l.d = append(l.d, time.Since(start))
	l.bytes += int64(len(data))
	return data, err
}

// reset zeroes every counter; called between warm-up and the window,
// when no session is running.
func (lt *layerTrace) reset() {
	lt.mu.Lock()
	for _, b := range lt.filters {
		b.calls.Store(0)
		b.ns.Store(0)
	}
	lt.mu.Unlock()
	for _, b := range []*busy{&lt.origin, &lt.compile, &lt.vote, &lt.check, &lt.audit} {
		b.calls.Store(0)
		b.ns.Store(0)
	}
	for _, s := range []*samples{&lt.peerBatch, &lt.attest, &lt.hits, &lt.misses} {
		s.mu.Lock()
		s.v = nil
		s.mu.Unlock()
	}
}

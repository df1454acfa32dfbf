package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"dvm/internal/jvm"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// suite is one workload's generated applications.
type suite struct {
	apps   []*workload.App
	names  [][]string      // each app's class names, sorted
	origin proxy.MapOrigin // every class of every app
}

func generate(specs []workload.Spec) (*suite, error) {
	s := &suite{origin: make(proxy.MapOrigin)}
	for _, spec := range specs {
		app, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(app.Classes))
		for name, data := range app.Classes {
			if _, dup := s.origin[name]; dup {
				return nil, fmt.Errorf("class %s is in two apps", name)
			}
			s.origin[name] = data
			names = append(names, name)
		}
		sort.Strings(names)
		s.apps = append(s.apps, app)
		s.names = append(s.names, names)
	}
	return s, nil
}

// classNames returns every class of the suite, sorted.
func (s *suite) classNames() []string {
	var all []string
	for _, names := range s.names {
		all = append(all, names...)
	}
	sort.Strings(all)
	return all
}

// stdoutRefs runs each app once on a plain VM over its raw classes and
// returns the digest of what it printed: the output every DVM session
// of that app must reproduce.
func stdoutRefs(s *suite) ([][32]byte, error) {
	refs := make([][32]byte, len(s.apps))
	for i, app := range s.apps {
		h := sha256.New()
		vm, err := jvm.New(jvm.MapLoader(app.Classes), h)
		if err != nil {
			return nil, err
		}
		thrown, err := vm.RunMain(app.Spec.MainClass(), nil)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", app.Spec.Name, err)
		}
		if thrown != nil {
			return nil, fmt.Errorf("reference run of %s: uncaught %s", app.Spec.Name, jvm.DescribeThrowable(thrown))
		}
		copy(refs[i][:], h.Sum(nil))
	}
	return refs, nil
}

// pipelineRefs runs newPipeline() directly over every class for each
// arch: the bytes every fleet node must serve for (arch, class).
func pipelineRefs(s *suite, archs []string, newPipeline func() *rewrite.Pipeline, workers int) (map[string]map[string][]byte, error) {
	type job struct{ arch, name string }
	jobs := make(chan job)
	refs := make(map[string]map[string][]byte, len(archs))
	for _, arch := range archs {
		refs[arch] = make(map[string][]byte, len(s.origin))
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPipeline()
			for j := range jobs {
				ctx := rewrite.NewContext()
				ctx.ClientArch = j.arch
				out, err := p.Process(s.origin[j.name], ctx)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference pipeline for %s (%s): %w", j.name, j.arch, err)
				}
				refs[j.arch][j.name] = out
				mu.Unlock()
			}
		}()
	}
	for _, arch := range archs {
		for _, name := range s.classNames() {
			jobs <- job{arch, name}
		}
	}
	close(jobs)
	wg.Wait()
	return refs, firstErr
}

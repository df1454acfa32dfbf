package eval

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dvm/internal/proxy"
)

// gatedOrigin holds every fetch until open is closed.
type gatedOrigin struct {
	proxy.Origin
	entered chan struct{}
	open    chan struct{}
}

func (g gatedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.open
	return g.Origin.Fetch(ctx, name)
}

// TestMemoryModelReleasesEveryCharge: each in-progress request holds
// connection memory while it waits, a client that gives up frees its
// share at once, and once every request is done the host holds nothing —
// even though the fetch finished after the request that started it had
// already left.
func TestMemoryModelReleasesEveryCharge(t *testing.T) {
	corpus, err := Corpus(1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := gatedOrigin{Origin: corpus, entered: make(chan struct{}, 1), open: make(chan struct{})}
	p := proxy.New(pagingOrigin{g}, proxy.Config{Pipeline: ServicePipeline(StandardPolicy(), false)})
	m := &memoryModel{budget: 1 << 40}
	request := m.wrap(p.Request)
	l := proxy.Lookup{Client: "c", Arch: "dvm", Class: "net/Applet000"}
	waitHeld := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); m.held.Load() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("host holds %d bytes, want %d", m.held.Load(), want)
			}
		}
	}

	leaderCtx, leave := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := request(leaderCtx, l)
		leaderErr <- err
	}()
	<-g.entered
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := request(context.Background(), l); err != nil {
				t.Error(err)
			}
		}()
	}
	waitHeld(3 * connectionMemory)

	leave()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	waitHeld(2 * connectionMemory)
	close(g.open)
	wg.Wait()
	if got := m.held.Load(); got != 0 {
		t.Errorf("host still holds %d bytes after every request finished", got)
	}
}

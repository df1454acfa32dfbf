package eval_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/eval"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

// origin serves a two-class app: app/Main calls app/Dep.val.
func origin(t *testing.T) proxy.MapOrigin {
	t.Helper()
	mn := classgen.NewClass("app/Main", "java/lang/Object")
	run := mn.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I")
	run.InvokeStatic("app/Dep", "val", "()I")
	run.IConst(2).IMul()
	run.IReturn()
	dep := classgen.NewClass("app/Dep", "java/lang/Object")
	val := dep.Method(classfile.AccPublic|classfile.AccStatic, "val", "()I")
	val.IConst(21).IReturn()

	mb, err := mn.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	db, err := dep.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	return proxy.MapOrigin{"app/Main": mb, "app/Dep": db}
}

func TestReplicaGroupRoundRobin(t *testing.T) {
	org := origin(t)
	g, err := eval.NewReplicaGroup(org, 3, func(i int) proxy.Config {
		return proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("Size = %d", g.Size())
	}
	for i := 0; i < 9; i++ {
		if _, err := g.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin: every replica saw 3 requests.
	for i := 0; i < 3; i++ {
		if got := g.Replica(i).Stats().Requests; got != 3 {
			t.Errorf("replica %d requests = %d, want 3", i, got)
		}
	}
	if g.Stats().Requests != 9 {
		t.Errorf("aggregate requests = %d", g.Stats().Requests)
	}
	// The fleet latency view is the replicas' histograms merged
	// bucket-wise: its count must equal the aggregate request count.
	if lat := g.RequestLatency(); lat.Count() != 9 {
		t.Errorf("merged latency histogram count = %d, want 9", lat.Count())
	}
}

func TestReplicaGroupFailover(t *testing.T) {
	org := origin(t)
	// Replica 0 fronts a broken origin; every request must fail over to
	// the healthy replica regardless of which one round-robin picks.
	broken := proxy.MapOrigin{}
	group, err := eval.NewReplicaGroupMixed(
		[]proxy.Origin{broken, org},
		func(i int) proxy.Config { return proxy.Config{Pipeline: rewrite.NewPipeline()} })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := group.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
			t.Fatalf("request %d failed despite healthy replica: %v", i, err)
		}
	}
	// A class no replica can supply still errors.
	if _, err := group.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Nope"}); err == nil {
		t.Fatal("nonexistent class served")
	}
}

func TestReplicaGroupConcurrent(t *testing.T) {
	org := origin(t)
	g, err := eval.NewReplicaGroup(org, 4, func(i int) proxy.Config {
		return proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "app/Main"
			if i%2 == 0 {
				name = "app/Dep"
			}
			if _, err := g.Request(context.Background(), proxy.Lookup{Client: fmt.Sprintf("c%d", i), Arch: "dvm", Class: name}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g.Stats().Requests != 64 {
		t.Errorf("requests = %d", g.Stats().Requests)
	}
}

func TestReplicaGroupRejectsEmpty(t *testing.T) {
	if _, err := eval.NewReplicaGroup(origin(t), 0, func(int) proxy.Config { return proxy.Config{} }); err == nil {
		t.Fatal("accepted zero replicas")
	}
}

package proxy_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/compiler"
	"dvm/internal/proxy"
)

// attestCall is one invocation of Config.Attest.
type attestCall struct {
	arch, class string
	in, out     []byte
	fromBase    bool
}

// TestCommitAttestsStoresAndReports drives every kind of bytes a node
// builds — pipeline output, an AOT derive, a rejection replacement —
// through the commit step, with the attest hook agreeing and refusing.
// An agreed artifact is cached in memory and on disk with its seal and
// reported to OnTransformed once; a refused one is never cached or
// reported, and the request fails with the hook's error.
func TestCommitAttestsStoresAndReports(t *testing.T) {
	good := origin(t)
	bad := badClassOrigin(t)
	both := proxy.MapOrigin{"app/Main": good["app/Main"], "app/Bad": bad["app/Bad"]}
	authority := attest.New(attest.Config{Key: []byte("commit-test-key")})
	hookErr := errors.New("fleet outvoted this node")

	rows := []struct {
		name     string
		arch     string
		class    string
		base     bool // request the base artifact first, so arch derives from it
		fromBase bool
		rejected bool
	}{
		{name: "pipeline", arch: "jvm", class: "app/Main"},
		{name: "derive", arch: compiler.ArchDVM, class: "app/Main", base: true, fromBase: true},
		{name: "rejection", arch: "jvm", class: "app/Bad", rejected: true},
	}
	for _, row := range rows {
		for _, refuse := range []bool{false, true} {
			name := row.name + "/attest-ok"
			if refuse {
				name = row.name + "/attest-error"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var mu sync.Mutex
				var calls []attestCall
				sealed := map[string]*attest.Attestation{}
				reported := map[string][]*attest.Attestation{}
				p := proxy.New(both, proxy.Config{
					Pipeline:     fullPipeline(t),
					CacheEnabled: true,
					DiskCacheDir: dir,
					AOT: &proxy.AOTConfig{
						Arch:     compiler.ArchDVM,
						BaseArch: "jvm",
						Compile:  compiler.CompileArtifact,
					},
					Attest: func(ctx context.Context, arch, class string, in, out []byte, fromBase bool) (*attest.Attestation, error) {
						mu.Lock()
						defer mu.Unlock()
						calls = append(calls, attestCall{arch, class, in, out, fromBase})
						if refuse && arch == row.arch {
							return nil, hookErr
						}
						att := authority.Attest(arch, class, out, 1, []string{"self"})
						sealed[arch] = att
						return att, nil
					},
					OnTransformed: func(arch, class string, data []byte, att *attest.Attestation) {
						mu.Lock()
						defer mu.Unlock()
						reported[arch] = append(reported[arch], att)
					},
				})
				ctx := context.Background()
				wantIn := both[row.class]
				if row.base {
					res, err := p.Request(ctx, proxy.Lookup{Client: "c", Arch: "jvm", Class: row.class})
					if err != nil {
						t.Fatalf("base request: %v", err)
					}
					wantIn = res.Data
				}
				failuresBefore := p.Stats().AttestFailures

				res, err := p.Request(ctx, proxy.Lookup{Client: "c", Arch: row.arch, Class: row.class})

				mu.Lock()
				defer mu.Unlock()
				last := calls[len(calls)-1]
				if last.arch != row.arch || last.class != row.class || last.fromBase != row.fromBase || !bytes.Equal(last.in, wantIn) {
					t.Errorf("Attest got (%s, %s, %d input bytes, fromBase=%v), want (%s, %s, %d input bytes, fromBase=%v)",
						last.arch, last.class, len(last.in), last.fromBase, row.arch, row.class, len(wantIn), row.fromBase)
				}
				restarted := proxy.New(proxy.MapOrigin{}, proxy.Config{CacheEnabled: true, DiskCacheDir: dir})
				disk, diskErr := restarted.Request(ctx, proxy.Lookup{Client: "c", Arch: row.arch, Class: row.class})
				memData, memAtt, inMem := p.Peek(row.arch, row.class)

				if refuse {
					if !errors.Is(err, hookErr) {
						t.Errorf("request error = %v, want it to wrap %v", err, hookErr)
					}
					if d := p.Stats().AttestFailures - failuresBefore; d != 1 {
						t.Errorf("attest failures rose by %d, want 1", d)
					}
					if inMem {
						t.Error("refused artifact cached in memory")
					}
					if diskErr == nil {
						t.Error("refused artifact cached on disk")
					}
					if n := len(reported[row.arch]); n != 0 {
						t.Errorf("OnTransformed fired %d times for a refused artifact", n)
					}
					return
				}

				if err != nil {
					t.Fatalf("request: %v", err)
				}
				want := sealed[row.arch]
				if !bytes.Equal(last.out, res.Data) || res.Info.Attestation != want || res.Info.Rejected != row.rejected {
					t.Errorf("served %d bytes, att %v, rejected=%v; want the attested %d bytes, %v, rejected=%v",
						len(res.Data), res.Info.Attestation, res.Info.Rejected, len(last.out), want, row.rejected)
				}
				if !inMem || !bytes.Equal(memData, res.Data) || memAtt != want {
					t.Errorf("memory cache: ok=%v, %d bytes, att %v; want the served bytes with the seal", inMem, len(memData), memAtt)
				}
				if diskErr != nil || !bytes.Equal(disk.Data, res.Data) || disk.Info.Attestation == nil || disk.Info.Attestation.Encode() != want.Encode() {
					t.Errorf("disk cache: err=%v, %d bytes, att %v; want the served bytes with the seal", diskErr, len(disk.Data), disk.Info.Attestation)
				}
				if got := reported[row.arch]; len(got) != 1 || got[0] != want {
					t.Errorf("OnTransformed fired with %v, want exactly once with the seal", got)
				}
			})
		}
	}
}

// TestStatsAddCarriesEveryCounter sets every numeric Stats field and
// checks Add carries each one into the total, so a counter added later
// cannot be silently dropped from fleet and replica-group sums.
func TestStatsAddCarriesEveryCounter(t *testing.T) {
	var one proxy.Stats
	v := reflect.ValueOf(&one).Elem()
	numeric := 0
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case f.CanInt():
			f.SetInt(int64(i + 1))
		case f.CanUint():
			f.SetUint(uint64(i + 1))
		case f.CanFloat():
			f.SetFloat(float64(i + 1))
		default:
			continue
		}
		numeric++
	}
	if numeric < 20 {
		t.Fatalf("only %d numeric Stats fields found", numeric)
	}
	var total proxy.Stats
	total.Add(one)
	total.Add(one)
	got := reflect.ValueOf(total)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.CanInt() && got.Field(i).Int() != 2*f.Int(),
			f.CanUint() && got.Field(i).Uint() != 2*f.Uint(),
			f.CanFloat() && got.Field(i).Float() != 2*f.Float():
			t.Errorf("Add dropped %s: got %v, want twice %v", name, got.Field(i), f)
		}
	}
}

package uarch_test

import (
	"sync"
	"testing"

	"perspector/internal/benchset"
	"perspector/internal/uarch"
)

// TestPoolReuseIsDeterministic checks the pooling contract: a machine
// dirtied by one workload and recycled through the pool measures exactly
// like a freshly built one.
func TestPoolReuseIsDeterministic(t *testing.T) {
	cfg := uarch.DefaultMachineConfig()
	cfg.SampleInterval = 500

	fresh, err := uarch.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(benchset.NewStrideProg(5000), 5000)
	if err != nil {
		t.Fatal(err)
	}

	var pool uarch.MachinePool
	dirty, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dirty.Run(benchset.NewStrideProg(3000), 3000); err != nil {
		t.Fatal(err)
	}
	pool.Put(dirty)

	recycled, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recycled != dirty {
		t.Fatal("pool did not hand back the recycled machine")
	}
	got, err := recycled.Run(benchset.NewStrideProg(5000), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Totals != want.Totals {
		t.Fatalf("recycled machine diverges from fresh:\nfresh:    %v\nrecycled: %v", want.Totals, got.Totals)
	}
}

// TestPoolConcurrentGetPut hammers the pool from many goroutines; run
// under -race this doubles as the pool's synchronization test.
func TestPoolConcurrentGetPut(t *testing.T) {
	cfg := uarch.DefaultMachineConfig()
	cfg.L3.SizeB = 64 << 10 // keep per-machine state small for the test
	var pool uarch.MachinePool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m, err := pool.Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Run(benchset.NewStrideProg(200), 200); err != nil {
					t.Error(err)
					return
				}
				pool.Put(m)
			}
		}()
	}
	wg.Wait()
}

// The component benchmarks share their bodies with cmd/benchjson through
// internal/benchset; together they localize a suite-level regression to
// the machine loop, the cache probe or the TLB.

func BenchmarkMachineStep(b *testing.B) { benchset.MachineStep(b) }

func BenchmarkCacheAccess(b *testing.B) { benchset.CacheAccess(b) }

func BenchmarkTLBTranslate(b *testing.B) { benchset.TLBTranslate(b) }

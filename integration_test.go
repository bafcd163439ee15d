package robustconf_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"robustconf"
	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/workload"
)

// TestIntegrationStress exercises the whole stack at once: four structures
// in four domains, concurrent client sessions running mixed YCSB streams,
// occasional panicking tasks, live migrations bouncing a structure between
// domains, and a final offline reconfiguration — all while verifying no
// operation result is lost and final structure contents are consistent.
func TestIntegrationStress(t *testing.T) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine: machine,
		Domains: []robustconf.Domain{
			{Name: "q0", CPUs: robustconf.CPURange(0, 12)},
			{Name: "q1", CPUs: robustconf.CPURange(12, 24)},
			{Name: "q2", CPUs: robustconf.CPURange(24, 36)},
			{Name: "q3", CPUs: robustconf.CPURange(36, 48)},
		},
		Assignment: map[string]int{
			"btree": 0, "fptree": 1, "bwtree": 2, "hashmap": 3,
		},
	}
	structures := map[string]any{
		"btree":   btree.New(),
		"fptree":  fptree.New(),
		"bwtree":  bwtree.New(),
		"hashmap": hashmap.New(),
	}
	rt, err := robustconf.Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	const records = 5000
	names := []string{"btree", "fptree", "bwtree", "hashmap"}
	// Load every structure through the runtime itself.
	boot, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		keys := workload.LoadKeys(records)
		_, err := boot.Invoke(robustconf.Task{Structure: name, Op: func(ds any) any {
			idx := ds.(index.Index)
			for _, k := range keys {
				idx.Insert(k, k, nil)
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	boot.Close()

	const clients, opsPer = 6, 2000
	var completed atomic.Uint64
	var panicsSeen atomic.Uint64
	var wg, migrWG sync.WaitGroup
	stopMigrate := make(chan struct{})

	// Live migration in the background: bounce the hash map across domains.
	migrWG.Add(1)
	go func() {
		defer migrWG.Done()
		d := 0
		for {
			select {
			case <-stopMigrate:
				return
			default:
			}
			if err := rt.Migrate("hashmap", d%4); err != nil {
				t.Error(err)
				return
			}
			d++
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			gen, err := workload.NewGenerator(workload.A, records, uint64(c), int64(c))
			if err != nil {
				t.Error(err)
				return
			}
			session, err := rt.NewSession(c*8%48, 8)
			if err != nil {
				t.Error(err)
				return
			}
			defer session.Close()
			for i := 0; i < opsPer; i++ {
				name := names[rng.Intn(len(names))]
				if rng.Intn(500) == 0 {
					// Inject a faulty task; the domain must survive and the
					// panic must come back through the error channel.
					_, err := session.Invoke(robustconf.Task{Structure: name, Op: func(any) any {
						panic("injected failure")
					}})
					var pe robustconf.PanicError
					if !errors.As(err, &pe) {
						t.Errorf("injected panic returned %v, want PanicError", err)
						return
					}
					panicsSeen.Add(1)
					continue
				}
				op := gen.Next()
				res, err := session.Invoke(robustconf.Task{Structure: name, Op: func(ds any) any {
					idx := ds.(index.Index)
					switch op.Type {
					case workload.OpRead:
						v, ok := idx.Get(op.Key, nil)
						if !ok {
							return "missing"
						}
						return v
					default:
						return idx.Update(op.Key, op.Val, nil)
					}
				}})
				if err != nil {
					t.Error(err)
					return
				}
				if res == "missing" || res == false {
					t.Errorf("client %d op %d: loaded key %d vanished", c, i, op.Key)
					return
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stopMigrate)
	migrWG.Wait()

	if panicsSeen.Load() == 0 {
		t.Error("stress never exercised the panic path")
	}
	wantOps := uint64(clients*opsPer) - panicsSeen.Load()
	if completed.Load() != wantOps {
		t.Errorf("completed %d ops, want %d", completed.Load(), wantOps)
	}

	// Offline reconfiguration at the end: merge everything, verify reads.
	rt2, err := rt.Reconfigure(robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "all", CPUs: robustconf.CPURange(0, 48)}},
		Assignment: map[string]int{"btree": 0, "fptree": 0, "bwtree": 0, "hashmap": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Stop()
	s, _ := rt2.NewSession(0, 4)
	defer s.Close()
	for _, name := range names {
		res, err := s.Invoke(robustconf.Task{Structure: name, Op: func(ds any) any {
			return ds.(index.Index).Len()
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != records {
			t.Errorf("%s holds %v keys after stress, want %d", name, res, records)
		}
	}
}

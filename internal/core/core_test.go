package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"robustconf/internal/index/btree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/topology"
)

// twoDomainConfig partitions a 1-socket machine into two 24-CPU domains with
// one structure each.
func twoDomainConfig(t *testing.T) (Config, map[string]any) {
	t.Helper()
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Machine: m,
		Domains: []DomainSpec{
			{Name: "d0", CPUs: topology.Range(0, 24)},
			{Name: "d1", CPUs: topology.Range(24, 48)},
		},
		Assignment: map[string]int{"tree": 0, "map": 1},
	}
	return cfg, map[string]any{"tree": btree.New(), "map": hashmap.New()}
}

func TestConfigValidate(t *testing.T) {
	m, _ := topology.Restricted(1)
	good := Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "a", CPUs: topology.Range(0, 4)}},
		Assignment: map[string]int{"x": 0},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no machine", func(c *Config) { c.Machine = nil }},
		{"no domains", func(c *Config) { c.Domains = nil }},
		{"unnamed domain", func(c *Config) { c.Domains[0].Name = "" }},
		{"empty cpus", func(c *Config) { c.Domains[0].CPUs = topology.CPUSet{} }},
		{"cpu out of range", func(c *Config) { c.Domains[0].CPUs = topology.Range(40, 50) }},
		{"bad assignment", func(c *Config) { c.Assignment = map[string]int{"x": 5} }},
		{"duplicate names", func(c *Config) {
			c.Domains = append(c.Domains, DomainSpec{Name: "a", CPUs: topology.Range(10, 12)})
		}},
		{"overlapping domains", func(c *Config) {
			c.Domains = append(c.Domains, DomainSpec{Name: "b", CPUs: topology.Range(2, 6)})
		}},
	}
	for _, c := range cases {
		cfg := Config{
			Machine:    m,
			Domains:    []DomainSpec{{Name: "a", CPUs: topology.Range(0, 4)}},
			Assignment: map[string]int{"x": 0},
		}
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

func TestStartRejectsMismatchedStructures(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	delete(structures, "map")
	if _, err := Start(cfg, structures); err == nil {
		t.Error("missing structure accepted")
	}
	cfg2, structures2 := twoDomainConfig(t)
	structures2["extra"] = btree.New()
	if _, err := Start(cfg2, structures2); err == nil {
		t.Error("unassigned structure accepted")
	}
	_ = cfg
}

func TestRuntimeBasicInvoke(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	s, err := rt.NewSession(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := s.Invoke(Task{Structure: "tree", Op: func(ds any) any {
		tr := ds.(*btree.Tree)
		tr.Insert(1, 100, nil)
		v, _ := tr.Get(1, nil)
		return v
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res != uint64(100) {
		t.Errorf("Invoke = %v, want 100", res)
	}
	if _, err := s.Invoke(Task{Structure: "nope", Op: func(any) any { return nil }}); err == nil {
		t.Error("unknown structure accepted")
	}
}

func TestTasksRouteToOwningDomain(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	s, _ := rt.NewSession(0, 2)
	defer s.Close()
	s.Invoke(Task{Structure: "tree", Op: func(any) any { return nil }})
	s.Invoke(Task{Structure: "map", Op: func(any) any { return nil }})

	d0, _ := rt.DomainOf("tree")
	d1, _ := rt.DomainOf("map")
	if d0 == d1 {
		t.Fatal("structures share a domain")
	}
	rt.Stop() // worker exit publishes the final stat flush
	exec0, exec1 := uint64(0), uint64(0)
	for _, b := range d0.Inbox().Buffers() {
		exec0 += b.Executed.Load()
	}
	for _, b := range d1.Inbox().Buffers() {
		exec1 += b.Executed.Load()
	}
	if exec0 != 1 || exec1 != 1 {
		t.Errorf("executions per domain = %d/%d, want 1/1", exec0, exec1)
	}
}

func TestDomainAccessors(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if len(rt.Domains()) != 2 {
		t.Fatalf("Domains = %d", len(rt.Domains()))
	}
	d := rt.Domains()[0]
	if d.Workers() != 24 {
		t.Errorf("Workers = %d, want 24", d.Workers())
	}
	if d.Spec().Name != "d0" {
		t.Errorf("Spec.Name = %q", d.Spec().Name)
	}
	if rt.Config().Machine == nil {
		t.Error("Config lost machine")
	}
}

func TestAsyncSubmitBurst(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, _ := Start(cfg, structures)
	defer rt.Stop()
	s, _ := rt.NewSession(0, 14)
	defer s.Close()

	tr := structures["tree"].(*btree.Tree)
	var futs []*futWrap
	for i := uint64(0); i < 500; i++ {
		i := i
		f, err := s.Submit(Task{Structure: "tree", Op: func(ds any) any {
			ds.(*btree.Tree).Insert(i, i, nil)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, &futWrap{f.Wait})
	}
	for _, f := range futs {
		f.wait()
	}
	if tr.Len() != 500 {
		t.Errorf("tree has %d keys, want 500", tr.Len())
	}
}

type futWrap struct{ wait func() any }

func TestBulkBurst(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, _ := Start(cfg, structures)
	defer rt.Stop()
	s, _ := rt.NewSession(0, 8)
	defer s.Close()

	var ops []func(ds any) any
	for i := uint64(0); i < 100; i++ {
		i := i
		ops = append(ops, func(ds any) any {
			ds.(*hashmap.Map).Insert(i, i*3, nil)
			return i
		})
	}
	out, err := submitBulk(s, "map", ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != uint64(i) {
			t.Fatalf("bulk[%d] = %v", i, v)
		}
	}
	if structures["map"].(*hashmap.Map).Len() != 100 {
		t.Error("bulk inserts lost")
	}
	if _, err := submitBulk(s, "nope", ops); err == nil {
		t.Error("bulk to unknown structure accepted")
	}
}

func TestManyConcurrentSessions(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, _ := Start(cfg, structures)
	defer rt.Stop()

	tr := structures["tree"].(*btree.Tree)
	var wg sync.WaitGroup
	const sessions, perS = 8, 300
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := rt.NewSession(g%48, 4)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for i := 0; i < perS; i++ {
				k := uint64(g*perS + i)
				_, err := s.Invoke(Task{Structure: "tree", Op: func(ds any) any {
					return ds.(*btree.Tree).Insert(k, k, nil)
				}})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != sessions*perS {
		t.Errorf("tree has %d keys, want %d", tr.Len(), sessions*perS)
	}
}

func TestSessionValidation(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, _ := Start(cfg, structures)
	defer rt.Stop()
	if _, err := rt.NewSession(-1, 4); err == nil {
		t.Error("negative cpu accepted")
	}
	if _, err := rt.NewSession(999, 4); err == nil {
		t.Error("out-of-range cpu accepted")
	}
	if _, err := rt.NewSession(0, 0); err == nil {
		t.Error("zero burst accepted")
	}
}

func TestOfflineReconfigure(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := rt.NewSession(0, 4)
	s.Invoke(Task{Structure: "tree", Op: func(ds any) any {
		return ds.(*btree.Tree).Insert(7, 7, nil)
	}})
	s.Close()

	// Reconfigure: merge everything into one big domain.
	m := cfg.Machine
	cfg2 := Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "all", CPUs: topology.Range(0, 48)}},
		Assignment: map[string]int{"tree": 0, "map": 0},
	}
	rt2, err := rt.Reconfigure(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Stop()

	// Data inserted under the old configuration must survive.
	s2, _ := rt2.NewSession(0, 4)
	defer s2.Close()
	v, err := s2.Invoke(Task{Structure: "tree", Op: func(ds any) any {
		v, _ := ds.(*btree.Tree).Get(7, nil)
		return v
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v != uint64(7) {
		t.Errorf("value after reconfiguration = %v", v)
	}
	if len(rt2.Domains()) != 1 {
		t.Errorf("new runtime has %d domains", len(rt2.Domains()))
	}
}

func TestStopIdempotent(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, _ := Start(cfg, structures)
	rt.Stop()
	rt.Stop() // second stop must not panic or deadlock
}

func TestNUMANearestSlotAssignment(t *testing.T) {
	// Domain spanning sockets 0 and 1 of a 2-socket machine; a client on
	// socket 1 must get slots from socket-1 workers.
	// On Restricted(2) the primary SMT threads are ids 0-47: 0-23 on
	// socket 0 and 24-47 on socket 1.
	m, _ := topology.Restricted(2)
	cpus := topology.Range(0, 4).Union(topology.Range(24, 28))
	cfg := Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "span", CPUs: cpus, Placement: PlacePinned}},
		Assignment: map[string]int{"tree": 0},
	}
	rt, err := Start(cfg, map[string]any{"tree": btree.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	s, _ := rt.NewSession(26, 2) // client on socket 1
	defer s.Close()
	s.Invoke(Task{Structure: "tree", Op: func(any) any { return nil }})

	d := rt.Domains()[0]
	rt.Stop() // worker exit publishes the final stat flush
	// Workers 4..7 are the socket-1 CPUs (24..27); the executed task must
	// have landed there.
	var socket1Exec uint64
	for wi, b := range d.Inbox().Buffers() {
		if m.SocketOfCPU(d.workerCPUs[wi]) == 1 {
			socket1Exec += b.Executed.Load()
		}
	}
	if socket1Exec != 1 {
		t.Errorf("task executed on socket-1 workers %d times, want 1", socket1Exec)
	}
}

func TestPinWorkersOnDetectedHost(t *testing.T) {
	host, err := topology.DetectHost()
	if err != nil {
		t.Skipf("host detection unavailable: %v", err)
	}
	n := host.LogicalCPUs()
	cfg := Config{
		Machine:    host,
		Domains:    []DomainSpec{{Name: "host", CPUs: topology.Range(0, n), Placement: PlacePinned}},
		Assignment: map[string]int{"x": 0},
		PinWorkers: true,
	}
	// The domain CPU set must use the host's real ids; Range(0,n) works when
	// they are dense (common case), otherwise fall back to the explicit ids.
	ids := make([]int, 0, n)
	for _, c := range host.CPUs() {
		ids = append(ids, c.ID)
	}
	cfg.Domains[0].CPUs = topology.NewCPUSet(ids...)

	rt, err := Start(cfg, map[string]any{"x": btree.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(ids[0], 2)
	defer s.Close()
	v, err := s.Invoke(Task{Structure: "x", Op: func(ds any) any {
		return ds.(*btree.Tree).Insert(1, 1, nil)
	}})
	if err != nil || v != true {
		t.Fatalf("pinned runtime failed: %v %v", v, err)
	}
}

func TestPinWorkersDegradesOnSimulatedTopology(t *testing.T) {
	// PinWorkers with the simulated 48-CPU machine: most ids don't exist on
	// this host, so pinning fails and workers degrade to migratable — the
	// runtime must still serve correctly.
	m, _ := topology.Restricted(1)
	cfg := Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "a", CPUs: topology.Range(0, 48), Placement: PlacePinned}},
		Assignment: map[string]int{"x": 0},
		PinWorkers: true,
	}
	rt, err := Start(cfg, map[string]any{"x": btree.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 2)
	defer s.Close()
	if v, err := s.Invoke(Task{Structure: "x", Op: func(any) any { return 7 }}); err != nil || v != 7 {
		t.Fatalf("degraded runtime failed: %v %v", v, err)
	}
}

func TestDomainStats(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, _ := Start(cfg, structures)
	defer rt.Stop()
	s, _ := rt.NewSession(0, 4)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if _, err := s.Invoke(Task{Structure: "tree", Op: func(any) any { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	// Counters publish on the worker's flush cadence (or when it parks
	// idle), so poll briefly instead of stopping the runtime — the test
	// migrates on it below.
	var stats []DomainStats
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats = rt.Stats()
		if len(stats) == 2 && stats[0].Executed == 50 {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	if len(stats) != 2 {
		t.Fatalf("stats for %d domains", len(stats))
	}
	if stats[0].Executed != 50 {
		t.Errorf("domain 0 executed %d, want 50", stats[0].Executed)
	}
	if stats[0].Structures != 1 || stats[1].Structures != 1 {
		t.Errorf("structure counts: %d/%d", stats[0].Structures, stats[1].Structures)
	}
	if stats[0].Occupancy() < 0 || stats[0].Occupancy() > 1 {
		t.Errorf("occupancy out of range: %v", stats[0].Occupancy())
	}
	if stats[0].Pending != 0 {
		t.Errorf("pending after sync invokes: %d", stats[0].Pending)
	}
	if stats[0].String() == "" {
		t.Error("empty stats string")
	}
	// Migration moves the structure count.
	if err := rt.Migrate("tree", 1); err != nil {
		t.Fatal(err)
	}
	stats = rt.Stats()
	if stats[0].Structures != 0 || stats[1].Structures != 2 {
		t.Errorf("post-migration structure counts: %d/%d", stats[0].Structures, stats[1].Structures)
	}
}

func TestDomainStatsZeroDivision(t *testing.T) {
	s := DomainStats{}
	if s.Occupancy() != 0 || s.BatchingRate() != 0 {
		t.Error("zero stats should not divide by zero")
	}
}

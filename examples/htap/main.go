// HTAP example: let the configuration process itself lay out the machine.
// A mixed workload — write-heavy OLTP indexes, a fresh-data index, read-only
// analytical indexes, and a crucial lock table — is composed via calibration
// and the GAP-MQ ILP into heterogeneous virtual domains (the paper's
// Figure 4 scenario), then materialised and executed for real.
//
//	go run ./examples/htap
package main

import (
	"fmt"
	"log"
	"strings"

	"robustconf"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/sim"
	"robustconf/internal/workload"
)

func main() {
	// Describe the application's structure instances and their workloads.
	instances := []robustconf.PlanInstance{
		{Name: "lock-table", Kind: sim.KindHashMap, Mix: workload.A, Load: 0.4, Crucial: true},
		{Name: "orders-idx", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		{Name: "orders-2nd", Kind: sim.KindFPTree, Mix: workload.A, Load: 0.6, CoLocateWith: "orders-idx"},
		{Name: "olap-idx-1", Kind: sim.KindBTree, Mix: workload.C, Load: 1},
		{Name: "olap-idx-2", Kind: sim.KindBTree, Mix: workload.C, Load: 1},
	}

	// Compose for a one-socket deployment (48 workers): calibration picks
	// each instance's optimal domain size, isolation carves out the lock
	// table, and the ILP assigns the rest.
	plan, err := robustconf.Compose(instances, 48)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composition: %s, %d domains, %d workers used\n",
		plan.Kind, len(plan.Domains), plan.WorkersUsed())
	for i, d := range plan.Domains {
		tag := ""
		if d.Isolated {
			tag = " [isolated]"
		}
		fmt.Printf("  domain %d: %2d workers%s ← %s\n", i, d.Size, tag, strings.Join(d.Instances, ", "))
	}

	// Materialise onto the machine and boot the runtime with the real
	// structures.
	machine := robustconf.Machine(1)
	cfg, err := robustconf.Materialise(plan, machine)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := robustconf.Start(cfg, map[string]any{
		"lock-table": hashmap.New(),
		"orders-idx": fptree.New(),
		"orders-2nd": fptree.New(),
		"olap-idx-1": btree.New(),
		"olap-idx-2": btree.New(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Stop()

	session, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	// Transactional path: lock, write the primary and the co-located
	// secondary index, unlock — each step a data-aware task.
	for i := uint64(1); i <= 200; i++ {
		i := i
		if _, err := session.Invoke(robustconf.Task{Structure: "lock-table", Op: func(ds any) any {
			return ds.(*hashmap.Map).Insert(i, 1, nil)
		}}); err != nil {
			log.Fatal(err)
		}
		if _, err := session.Invoke(robustconf.Task{Structure: "orders-idx", Op: func(ds any) any {
			return ds.(*fptree.Tree).Insert(i, i*10, nil)
		}}); err != nil {
			log.Fatal(err)
		}
		if _, err := session.Invoke(robustconf.Task{Structure: "orders-2nd", Op: func(ds any) any {
			return ds.(*fptree.Tree).Insert(i*10, i, nil)
		}}); err != nil {
			log.Fatal(err)
		}
	}

	// Analytical path: bulk-load then scan the OLAP indexes. The load is
	// bulk bursting: submit every insert, then synchronise once on all of
	// the futures.
	futs := make([]*robustconf.Future, 0, 5000)
	for i := uint64(0); i < 5000; i++ {
		i := i
		f, err := session.Submit(robustconf.Task{Structure: "olap-idx-1", Op: func(ds any) any {
			return ds.(*btree.Tree).Insert(i, i, nil)
		}})
		if err != nil {
			log.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Result(); err != nil {
			log.Fatal(err)
		}
	}
	count, err := session.Invoke(robustconf.Task{Structure: "olap-idx-1", Op: func(ds any) any {
		n := 0
		ds.(*btree.Tree).Scan(1000, 1999, func(k, v uint64) bool { n++; return true }, nil)
		return n
	}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("transactional path wrote 200 orders + secondary entries\n")
	fmt.Printf("analytical scan over olap-idx-1 visited %v keys inside its own domain\n", count)
	od, _ := rt.DomainOf("orders-idx")
	sd, _ := rt.DomainOf("orders-2nd")
	fmt.Printf("co-location honoured: orders-idx and orders-2nd share domain %q\n", od.Spec().Name)
	if od != sd {
		log.Fatal("co-location violated")
	}
}

package harness

import (
	"fmt"
	"strings"
	"time"

	"robustconf/internal/index"
	"robustconf/internal/index/fptree"
	"robustconf/internal/oltp"
	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
)

// TxnModes is the real-execution ablation of the statement→task mapping
// (DESIGN.md §11): the same full TPC-C mix runs on the direct baseline and
// on the delegated engine in each execution mode — per-statement pipelining
// and whole-transaction delegation — and each row reports
// measured per-transaction latency on this host.
func TxnModes() (string, error) {
	cfg := tpcc.Config{Warehouses: 2, Customers: 100, Items: 300}
	const txns = 4000
	const remote, seed = 0.05, int64(1)
	newIndex := func() index.Index { return fptree.New() }

	runTrace := func(store tpcc.Store) (time.Duration, error) {
		term, err := tpcc.NewTerminal(cfg, store, 1, remote, seed)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < txns; i++ {
			if err := term.NextFullMix(); err != nil {
				return 0, fmt.Errorf("txn %d: %w", i, err)
			}
		}
		return time.Since(start), nil
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Txn-mode ablation: full TPC-C mix, %d warehouses, %d txns, one terminal\n", cfg.Warehouses, txns)
	fmt.Fprintf(&b, "%-24s %12s %12s %10s\n", "engine / mode", "us/txn", "txn/s", "vs direct")

	direct, err := oltp.NewDirectEngine(cfg, newIndex)
	if err != nil {
		return "", err
	}
	loader, err := tpcc.NewLoader(cfg, seed)
	if err != nil {
		return "", err
	}
	if err := loader.Load(direct); err != nil {
		return "", err
	}
	dDur, err := runTrace(direct)
	if err != nil {
		return "", fmt.Errorf("direct: %w", err)
	}
	dUs := float64(dDur.Microseconds()) / txns
	fmt.Fprintf(&b, "%-24s %12.1f %12.0f %9.2fx\n", "direct (baseline)", dUs, float64(txns)/dDur.Seconds(), 1.0)

	m, err := topology.Restricted(1)
	if err != nil {
		return "", err
	}
	for _, mode := range []oltp.ExecMode{oltp.ModePerStatement, oltp.ModeWholeTxn} {
		engine, err := oltp.NewEngine(cfg, newIndex, m)
		if err != nil {
			return "", err
		}
		store, err := engine.NewStoreMode(0, 14, mode)
		if err != nil {
			engine.Stop()
			return "", err
		}
		ld, _ := tpcc.NewLoader(cfg, seed)
		if err := ld.Load(store); err != nil {
			engine.Stop()
			return "", err
		}
		dur, err := runTrace(store)
		if err != nil {
			engine.Stop()
			return "", fmt.Errorf("%s: %w", mode, err)
		}
		if err := store.Close(); err != nil {
			engine.Stop()
			return "", err
		}
		engine.Stop()
		us := float64(dur.Microseconds()) / txns
		fmt.Fprintf(&b, "%-24s %12.1f %12.0f %9.2fx\n",
			"delegated "+mode.String(), us, float64(txns)/dur.Seconds(), dUs/us)
	}
	return b.String(), nil
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/htm"
	"robustconf/internal/index"
	"robustconf/internal/index/fptree"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/oltp"
	"robustconf/internal/tpcc"
	"robustconf/internal/wal"
)

// txn-durable: the TPC-C full mix in whole-transaction mode on the WAL with
// the default checkpoint cadence. The scale is the one robusttpcc defaults
// to (300 customers per district, 1000 items).
//
// Two properties of the system shape how it is measured:
//
//   - Its cost grows with the data it writes: Order-Status scans a
//     district's whole order history, and every 200 ms checkpoint snapshots
//     the whole, growing warehouse. Throughput on one instance falls from
//     ~26k to under 1k txn/s within 20 s, so each measurement runs on a
//     freshly loaded instance (an episode, as for every workload).
//   - With fsync=batch a transaction waits for the disk, whose flush latency
//     on a shared host wanders by 2x within seconds. The measured runs log
//     without fsync: records are still staged, group committed and written
//     at sweep-batch boundaries, and checkpoints still run. The traced
//     run's ladder measures what fsync=batch adds (wal.fsync_cost_us) and
//     what the WAL costs at all (wal.durability_cost_us).
const (
	txnWarehouses = 2
	txnTerminals  = 2
	txnCustomers  = 300
	txnItems      = 1000
	txnRemote     = 0.01
	txnFsync      = wal.FsyncNone
)

// Transaction types in the order of the mix weights.
const (
	txNewOrder = iota
	txPayment
	txOrderStatus
	txDelivery
	txStockLevel
	txTypes
)

var txNames = [txTypes]string{"new_order", "payment", "order_status", "delivery", "stock_level"}

// pickTxn maps a slot in [0,100) onto the 45/43/4/4/4 full mix.
func pickTxn(p int) int {
	switch {
	case p < 45:
		return txNewOrder
	case p < 88:
		return txPayment
	case p < 92:
		return txOrderStatus
	case p < 96:
		return txDelivery
	}
	return txStockLevel
}

var walSeq atomic.Int64

func runTxnDurable(e *env) (*outcome, error) {
	o, err := runWorkload(e, workloadDef{
		clients:  txnTerminals,
		episodes: 10,
		// TPC-C's cost depends on its draws (which districts' order
		// histories grow, how the mix falls in an episode): over 8 runs
		// interleaved in time, throughput spread 0.04 with one seed and
		// 0.15 with a seed per run. Every episode loads and drives its own.
		setup: func(e *env, traced bool, episode int) (instance, error) {
			return setupTxn(e, traced, true, txnFsync, episodeSeed(e.seed, episode))
		},
	})
	if o != nil {
		o.describe("TPC-C full mix 45/43/4/4/4, whole-txn mode, %d terminals on %d warehouses (fptree, one domain each), %d customers/district, %d items, remote %.2f; WAL fsync=%s, checkpoint every %s",
			txnTerminals, txnWarehouses, txnCustomers, txnItems, txnRemote, txnFsync, core.DefaultCheckpointEvery)
		o.meta["wal_fsync"] = txnFsync.String()
		o.meta["wal_checkpoint_every"] = core.DefaultCheckpointEvery.String()
	}
	return o, err
}

type txnInst struct {
	e       *env
	seed    int64
	cfg     tpcc.Config
	engine  *oltp.Engine
	obs     *obs.Observer
	walDir  string
	stopped bool

	dom0             domCounters
	io0              procCounters
	aborts0, commit0 uint64
}

// setupTxn starts the engine (one domain per warehouse over an even split
// of the host's CPUs) and loads the database through it, so with the WAL on
// the load is logged like any other write.
func setupTxn(e *env, traced, durable bool, fsync wal.FsyncMode, seed int64) (*txnInst, error) {
	m, err := hostMachine()
	if err != nil {
		return nil, err
	}
	in := &txnInst{e: e, seed: seed, cfg: tpcc.Config{Warehouses: txnWarehouses, Customers: txnCustomers, Items: txnItems}}
	rc, err := oltp.EvenConfig(in.cfg, m)
	if err != nil {
		return nil, err
	}
	faults := &metrics.FaultCounters{}
	opts := obs.Options{Faults: faults}
	if traced {
		opts.TraceEvery = 1
	}
	in.obs = obs.New(opts)
	rc.Faults, rc.Obs = faults, in.obs
	if durable {
		in.walDir = filepath.Join(e.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), walSeq.Add(1)))
		if err := os.RemoveAll(in.walDir); err != nil {
			return nil, err
		}
		rc.WAL = core.WALConfig{Dir: in.walDir, Fsync: fsync}
	}
	in.engine, err = oltp.NewEngineWithConfig(in.cfg, func() index.Index { return fptree.New() }, rc)
	if err != nil {
		return nil, err
	}
	loader, err := tpcc.NewLoader(in.cfg, seed)
	if err == nil {
		var boot *oltp.SessionStore
		if boot, err = in.engine.NewStore(0, burst); err == nil {
			err = errors.Join(loader.Load(boot), boot.Close())
		}
	}
	if err != nil {
		in.stop(newOutcome())
		return nil, fmt.Errorf("tpcc load: %w", err)
	}
	return in, nil
}

func (in *txnInst) observer() *obs.Observer { return in.obs }

// open gives every terminal an equal share of a warehouse domain's slots:
// remote transactions reach both warehouses, so each terminal's session
// reserves its burst in every domain (7 with one worker per domain).
func (in *txnInst) open(n int) ([]loadClient, error) {
	var cs []loadClient
	termBurst := min(burst, runtime.NumCPU()/txnWarehouses*delegation.SlotsPerBuffer/n)
	for g := 0; g < n; g++ {
		store, err := in.engine.NewStoreMode(g%runtime.NumCPU(), termBurst, oltp.ModeWholeTxn)
		if err == nil {
			var term *tpcc.Terminal
			term, err = tpcc.NewTerminal(in.cfg, store, 1+g%txnWarehouses, txnRemote, in.seed*7919+int64(g))
			if err == nil {
				c := &txnClient{store: store, term: term, rng: rand.New(rand.NewSource(in.seed*104729 + int64(g)))}
				for i := range c.deck {
					c.deck[i] = i
				}
				c.dealt = len(c.deck)
				cs = append(cs, c)
				continue
			}
			store.Close()
		}
		for _, c := range cs {
			c.close()
		}
		return nil, err
	}
	return cs, nil
}

// htm sums the software-HTM counters of every table of every warehouse.
func (in *txnInst) htm() (aborts, commits uint64) {
	for w := 1; w <= txnWarehouses; w++ {
		for t := tpcc.Table(0); t <= tpcc.History; t++ {
			if h, ok := in.engine.Warehouse(w).Table(t).(interface{ HTMStats() *htm.Stats }); ok {
				aborts += h.HTMStats().Aborts.Load()
				commits += h.HTMStats().Commits.Load()
			}
		}
	}
	return aborts, commits
}

func (in *txnInst) begin() {
	in.dom0 = readDomains(in.engine.Runtime(), in.obs)
	in.io0 = readProc()
	in.aborts0, in.commit0 = in.htm()
}

func (in *txnInst) end(o *outcome, s *summary, cs []loadClient) {
	txns := float64(s.ops)
	d := readDomains(in.engine.Runtime(), in.obs)
	delegationMetrics(o, in.dom0, d)
	o.values["oltp.tasks_per_txn"] = ratio(float64(d.executed-in.dom0.executed), txns)
	o.values["wal.records_per_txn"] = ratio(float64(d.walCommitted-in.dom0.walCommitted), txns)
	if io := readProc(); io.ioOK && in.io0.ioOK {
		o.values["wal.write_bytes_per_txn"] = ratio(float64(io.writeBytes-in.io0.writeBytes), txns)
	}
	a, c := in.htm()
	o.values["index.htm_abort_frac"] = ratio(float64(a-in.aborts0), float64(a-in.aborts0+c-in.commit0))
	for k := 0; k < txTypes; k++ {
		var v []int64
		for _, c := range cs {
			v = append(v, c.(*txnClient).byType[k]...)
		}
		if len(v) > 0 {
			name := "tpcc." + txNames[k] + "_p50_us"
			o.values[name] = medianInt64(v) / 1e3
			o.samples[name] = len(v)
		}
	}
}

// ladder replays the same terminals (same seeds) on an engine without the
// WAL and on one whose WAL fsyncs every group commit. Their gaps to the
// untraced phase are what the WAL and what fsync cost a transaction.
func (in *txnInst) ladder(o *outcome, seconds float64, base *summary) error {
	rung := func(durable bool, fsync wal.FsyncMode) (float64, error) {
		inst, err := setupTxn(in.e, false, durable, fsync, in.seed)
		if err != nil {
			return 0, err
		}
		s, err := measure(o, inst, txnTerminals, float64(base.p.end-base.p.start)/1e9, warmupSeconds, nil)
		if err = errors.Join(err, inst.stop(o)); err != nil {
			return 0, err
		}
		return txnP50(s), nil
	}
	off, err := rung(false, txnFsync)
	if err != nil {
		return err
	}
	synced, err := rung(true, wal.FsyncBatch)
	if err != nil {
		return err
	}
	on := txnP50(base)
	o.values["wal.durability_cost_us"] = (on - off) / 1e3
	o.values["wal.fsync_cost_us"] = (synced - on) / 1e3
	o.note("ladder: txn p50 %.1f µs without the WAL, %.1f µs with it (fsync=%s), %.1f µs with fsync=%s",
		off/1e3, on/1e3, txnFsync, synced/1e3, wal.FsyncBatch)
	return nil
}

// txnP50 is the median latency over every transaction of a phase, in ns.
func txnP50(s *summary) float64 {
	return quantileSorted(s.all(classRead, classWrite), 0.5)
}

// stop stops the engine (draining every domain), then checks TPC-C
// consistency conditions 1 and 2 on the quiesced tables.
func (in *txnInst) stop(o *outcome) error {
	if in.stopped {
		return nil
	}
	in.stopped = true
	in.engine.Stop()
	for w := 1; w <= txnWarehouses; w++ {
		wh := in.engine.Warehouse(w)
		wytd, ok := wh.Table(tpcc.WarehouseYTD).Get(uint64(w), nil)
		if !ok {
			o.check("warehouse %d has no W_YTD", w)
			continue
		}
		var sum uint64
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			v, _ := wh.Table(tpcc.DistrictYTD).Get(tpcc.DistrictKey(d), nil)
			sum += v
			next, _ := wh.Table(tpcc.DistrictNextOID).Get(tpcc.DistrictKey(d), nil)
			const oidMask = 1<<40 - 1
			maxO, orders := uint64(0), 0
			wh.Table(tpcc.Orders).(index.Ranger).Scan(tpcc.OrderKey(d, 0), tpcc.OrderKey(d, oidMask), func(k, _ uint64) bool {
				maxO = max(maxO, k&oidMask)
				orders++
				return true
			}, nil)
			if orders > 0 && next-1 != maxO {
				o.check("consistency 2: warehouse %d district %d D_NEXT_O_ID-1 = %d, max order id %d", w, d, next-1, maxO)
			}
		}
		if wytd != sum {
			o.check("consistency 1: warehouse %d W_YTD %d != sum of D_YTD %d", w, wytd, sum)
		}
	}
	if in.walDir != "" {
		return os.RemoveAll(in.walDir)
	}
	return nil
}

// txnClient is one terminal: it draws the transaction type from its own
// seeded stream and calls the typed Terminal method, waiting for each
// transaction (a write only returns after its group commit).
type txnClient struct {
	store *oltp.SessionStore
	term  *tpcc.Terminal
	rng   *rand.Rand
	// deck holds the 100 slots of the mix, dealt in a seeded shuffle and
	// reshuffled when used up, TPC-C's card-deck method: every 100
	// transactions of a terminal hold the mix exactly. Read and write
	// latency each pool two transaction types whose latencies barely
	// overlap (Order-Status ~50 µs, Stock-Level ~75 µs; Payment ~8 µs,
	// New-Order ~32 µs), so their p50 moves with the share each type has.
	deck   [100]int
	dealt  int
	t      tally
	byType [txTypes][]int64 // latencies of the last run
}

func (c *txnClient) tally() *tally { return &c.t }
func (c *txnClient) close() error  { return c.store.Close() }

func (c *txnClient) run(p phase, m *meter, r *recorder) error {
	for k := range c.byType {
		c.byType[k] = c.byType[k][:0]
	}
	for {
		if c.dealt == len(c.deck) {
			c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
			c.dealt = 0
		}
		k := pickTxn(c.deck[c.dealt])
		c.dealt++
		t0 := now()
		var err error
		switch k {
		case txNewOrder:
			err = c.term.NewOrder()
		case txPayment:
			err = c.term.Payment()
		case txOrderStatus:
			err = c.term.OrderStatus()
		case txDelivery:
			err = c.term.Delivery()
		default:
			err = c.term.StockLevel()
		}
		t := now()
		c.t.attempted++
		read := k == txOrderStatus || k == txStockLevel
		if err != nil {
			c.t.failed++
			c.t.check(fmt.Sprintf("%s: %v", txNames[k], err))
		} else {
			class := classWrite
			if read {
				class = classRead
			}
			m.record(class, t, t-t0)
			c.byType[k] = append(c.byType[k], t-t0)
		}
		if r != nil {
			id := r.newID()
			r.add(span{id: id, req: id, start: t0, end: t, name: spTxn, read: read})
		}
		if t >= p.end {
			return nil
		}
	}
}

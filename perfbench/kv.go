package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"robustconf/client"
	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/index"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/server"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// Workload shapes. The two network workloads share one server setup and
// differ in data size, mix and pipeline depth: kv-pipelined feeds the batch
// kernels whole network batches over a working set far beyond L2, while
// kv-roundtrip sends one op at a time over a cache-resident set, where only
// the fixed per-request costs remain.
var (
	ycsbA = workload.A
	ycsbB = workload.Mix{Name: "Read-Update 95/5", Read: 0.95, Update: 0.05}
)

// burst is every session's per-domain window: the paper's 14.
const burst = 14

const (
	netShards = 2
	streamLen = 1 << 20 // ops pre-generated per client, replayed cyclically
)

// kv-pipelined keeps 128 ops in flight on one connection rather than 64 on
// each of two: with one client and one server connection goroutine next to
// the two workers, the process runs no more busy goroutines than it needs
// on a 2-vCPU host. Under a bursty CPU neighbour, its throughput spread
// 0.05 across 5 seeds against 0.16 with two connections.
func runKVPipelined(e *env) (*outcome, error) {
	return runNet(e, 2_000_000, ycsbA, 128, 1)
}

// kv-roundtrip is run on demand, not gated by BENCHMARK.json: with one
// depth-1 connection the process idles between requests, and its
// throughput spread 0.2-0.4 across seeds on a shared 2-vCPU host. Its
// traced run is the exact per-request ledger, one request in flight.
func runKVRoundtrip(e *env) (*outcome, error) {
	return runNet(e, 64<<10, ycsbB, 1, 1)
}

// opStream is one client's seeded YCSB op sequence. Updates write the key
// itself as the value, so every read can be checked: value == key.
type opStream struct {
	keys  []uint64
	reads []bool
	i     int
}

func newStream(mix workload.Mix, records uint64, client int, seed int64) (*opStream, error) {
	g, err := workload.NewGenerator(mix, records, uint64(client), seed*1_000_003+int64(client))
	if err != nil {
		return nil, err
	}
	s := &opStream{keys: make([]uint64, streamLen), reads: make([]bool, streamLen)}
	for i := range s.keys {
		op := g.Next()
		if op.Type != workload.OpRead && op.Type != workload.OpUpdate {
			return nil, fmt.Errorf("stream: unexpected op %v", op.Type)
		}
		s.keys[i], s.reads[i] = op.Key, op.Type == workload.OpRead
	}
	return s, nil
}

func (s *opStream) next() (uint64, bool) {
	k, r := s.keys[s.i], s.reads[s.i]
	s.i++
	if s.i == len(s.keys) {
		s.i = 0
	}
	return k, r
}

func streams(mix workload.Mix, records uint64, n int, seed int64) ([]*opStream, error) {
	out := make([]*opStream, n)
	for i := range out {
		s, err := newStream(mix, records, i, seed)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// streamsMB is the heap the op streams hold.
func streamsMB(ss []*opStream) float64 {
	var b int
	for _, s := range ss {
		b += cap(s.keys)*8 + cap(s.reads)
	}
	return float64(b) / 1e6
}

// hostMachine describes this host to the runtime as one socket of nproc
// CPUs, so domains spanning it spawn exactly nproc workers.
func hostMachine() (*topology.Machine, error) {
	return topology.NewMachine("host", 1, runtime.NumCPU(), 1)
}

// timedKernel is registered in place of a shard in the traced run: it times
// every ExecBatch call the delegation workers make into the index.
type timedKernel struct {
	index.Index
	kern           index.BatchKernel
	calls, ops, ns atomic.Int64
}

func (t *timedKernel) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	t0 := now()
	t.kern.ExecBatch(kinds, keys, vals, outVals, outOKs)
	t.ns.Add(now() - t0)
	t.calls.Add(1)
	t.ops.Add(int64(len(keys)))
}

// domCounters sums the runtime's domain counters and the Observer's
// per-domain views.
type domCounters struct {
	executed, sweeps, empty     uint64
	batchSweeps, kernelOps      uint64
	walCommitted                uint64
	bypassHits, bypassFallbacks uint64
}

func readDomains(rt *core.Runtime, o *obs.Observer) domCounters {
	var c domCounters
	for _, s := range rt.Stats() {
		c.executed += s.Executed
		c.sweeps += s.Sweeps
		c.empty += s.EmptySweep
	}
	for _, d := range o.Snapshot().Domains {
		c.batchSweeps += d.BatchSweeps
		c.kernelOps += d.BatchKernelOps
		c.walCommitted += d.WALCommitted
		c.bypassHits += d.BypassHits
		c.bypassFallbacks += d.BypassFallbacks
	}
	return c
}

// delegationMetrics fills the delegation.* counter ratios from two readings.
func delegationMetrics(o *outcome, a, b domCounters) {
	sweeps := float64(b.sweeps - a.sweeps)
	empty := float64(b.empty - a.empty)
	o.values["delegation.tasks_per_busy_sweep"] = ratio(float64(b.executed-a.executed), sweeps-empty)
	o.values["delegation.empty_sweep_frac"] = ratio(empty, sweeps)
	if b.batchSweeps > a.batchSweeps {
		o.values["delegation.kernel_ops_per_batch_sweep"] = ratio(float64(b.kernelOps-a.kernelOps), float64(b.batchSweeps-a.batchSweeps))
	}
}

// ---- network workloads ---------------------------------------------------

type netInst struct {
	depth   int
	streams []*opStream
	obs     *obs.Observer
	rt      *core.Runtime
	srv     *server.Server
	router  *server.Router
	shards  []string
	idx     map[string]index.Index
	timed   []*timedKernel
	stopped bool

	srv0   obs.ServerStats
	dom0   domCounters
	kernel [3]int64 // calls, ops, ns at begin
}

func runNet(e *env, records uint64, mix workload.Mix, depth, clients int) (*outcome, error) {
	ss, err := streams(mix, records, clients, e.seed)
	if err != nil {
		return nil, err
	}
	o, err := runWorkload(e, workloadDef{
		clients:  clients,
		episodes: 5,
		inputMB:  streamsMB(ss),
		setup: func(e *env, traced bool, _ int) (instance, error) {
			return setupNet(records, ss, depth, traced)
		},
	})
	if o != nil {
		o.describe("%d records in %d hashmap shards, %d-worker domain, BatchExec width %d; %d connection(s) × depth %d, %s",
			records, netShards, runtime.NumCPU(), delegation.SlotsPerBuffer, clients, depth, mix.Name)
	}
	return o, err
}

// setupNet loads the records into the shards (each key on the shard the
// server's router sends it to), starts the runtime and listens on loopback.
func setupNet(records uint64, ss []*opStream, depth int, traced bool) (*netInst, error) {
	m, err := hostMachine()
	if err != nil {
		return nil, err
	}
	in := &netInst{depth: depth, streams: ss, idx: map[string]index.Index{}}
	structures := map[string]any{}
	assignment := map[string]int{}
	for i := 0; i < netShards; i++ {
		name := fmt.Sprintf("shard%d", i)
		h := hashmap.New()
		in.shards = append(in.shards, name)
		in.idx[name] = h
		structures[name] = h
		if traced {
			t := &timedKernel{Index: h, kern: h}
			in.timed = append(in.timed, t)
			structures[name] = t
		}
		assignment[name] = 0
	}
	if in.router, err = server.NewRouter(in.shards); err != nil {
		return nil, err
	}
	for i := uint64(0); i < records; i++ {
		k := workload.ScatterKey(i)
		if !in.idx[in.router.Lookup(k)].Insert(k, k, nil) {
			return nil, fmt.Errorf("load: duplicate key %d", k)
		}
	}
	faults := &metrics.FaultCounters{}
	opts := obs.Options{Faults: faults}
	if traced {
		opts.TraceEvery = 1
	}
	in.obs = obs.New(opts)
	in.rt, err = core.Start(core.Config{
		Machine:    m,
		Domains:    []core.DomainSpec{{Name: "kv", CPUs: topology.Range(0, runtime.NumCPU())}},
		Assignment: assignment,
		Faults:     faults,
		Obs:        in.obs,
		BatchExec:  core.BatchExecConfig{Enabled: true, Width: delegation.SlotsPerBuffer},
	}, structures)
	if err != nil {
		return nil, err
	}
	// Pool sizing as robustserved derives it: every session reserves a
	// burst of the domain's slots.
	sessions := runtime.NumCPU() * delegation.SlotsPerBuffer / burst
	in.srv, err = server.Listen("127.0.0.1:0", server.Config{
		Runtime:  in.rt,
		Shards:   in.shards,
		Sessions: sessions,
		Burst:    burst,
		Obs:      in.obs,
	})
	if err != nil {
		in.rt.Stop()
		return nil, err
	}
	return in, nil
}

func (in *netInst) observer() *obs.Observer { return in.obs }

func (in *netInst) open(n int) ([]loadClient, error) {
	var cs []loadClient
	for i := 0; i < n; i++ {
		conn, err := client.Dial(in.srv.Addr())
		if err != nil {
			for _, c := range cs {
				c.close()
			}
			return nil, err
		}
		in.streams[i].i = 0
		cs = append(cs, &netClient{conn: conn, ops: in.streams[i], depth: in.depth,
			keys: make([]uint64, in.depth), reads: make([]bool, in.depth)})
	}
	return cs, nil
}

func (in *netInst) kernelTotals() (k [3]int64) {
	for _, t := range in.timed {
		k[0] += t.calls.Load()
		k[1] += t.ops.Load()
		k[2] += t.ns.Load()
	}
	return k
}

func (in *netInst) begin() {
	in.srv0 = in.srv.Stats()
	in.dom0 = readDomains(in.rt, in.obs)
	in.kernel = in.kernelTotals()
}

func (in *netInst) end(o *outcome, s *summary, cs []loadClient) {
	wall := float64(s.p.end - s.p.start)
	st := in.srv.Stats()
	batches := float64(st.Batches - in.srv0.Batches)
	ops := float64(st.Ops - in.srv0.Ops)
	o.values["server.ops_per_batch"] = ratio(ops, batches)
	o.values["server.pool_waits_per_batch"] = ratio(float64(st.PoolWaits-in.srv0.PoolWaits), batches)
	o.values["server.bytes_per_op"] = ratio(float64(st.BytesRead-in.srv0.BytesRead+st.BytesWritten-in.srv0.BytesWritten), ops)
	o.values["server.busy_frac"] = ratio(float64(st.BusyRejects-in.srv0.BusyRejects+st.QuotaRejects-in.srv0.QuotaRejects), batches)
	delegationMetrics(o, in.dom0, readDomains(in.rt, in.obs))

	k := in.kernelTotals()
	calls, kops, kns := float64(k[0]-in.kernel[0]), float64(k[1]-in.kernel[1]), float64(k[2]-in.kernel[2])
	o.values["index.kernel_ns_per_op"] = ratio(kns, kops)
	o.values["index.kernel_ops_per_call"] = ratio(kops, calls)
	o.values["index.kernel_busy_frac"] = ratio(kns, wall*float64(runtime.NumCPU()))
	o.samples["index.kernel_ns_per_op"] = int(calls)

	var encNs, encOps, decNs, decOps int64
	var flush, first []int64
	for _, c := range cs {
		nc := c.(*netClient)
		encNs += nc.encodeNs
		encOps += nc.encodeOps
		decNs += nc.decodeNs
		decOps += nc.decodeOps
		flush = append(flush, nc.flushNs...)
		first = append(first, nc.firstNs...)
	}
	o.values["client.encode_ns_per_op"] = ratio(float64(encNs), float64(encOps))
	o.values["client.flush_us"] = medianInt64(flush) / 1e3
	o.values["client.first_reply_us"] = medianInt64(first) / 1e3
	o.samples["client.flush_us"] = len(flush)
	o.samples["client.first_reply_us"] = len(first)
	if decOps > 0 {
		o.values["client.decode_ns_per_op"] = ratio(float64(decNs), float64(decOps))
	}
}

// ladder closes the server (returning its pooled sessions' slots) and
// replays client 0's op stream against the layers below it.
func (in *netInst) ladder(o *outcome, seconds float64, _ *summary) error {
	if err := in.srv.Close(5 * time.Second); err != nil {
		return err
	}
	shard := in.shards[0]
	var keys []uint64
	var reads []bool
	s := in.streams[0]
	for i := range s.keys {
		if in.router.Lookup(s.keys[i]) == shard {
			keys = append(keys, s.keys[i])
			reads = append(reads, s.reads[i])
		}
	}
	return kvLadder(o, in.rt, shard, in.idx[shard], keys, reads, seconds)
}

func (in *netInst) stop(o *outcome) error {
	if in.stopped {
		return nil
	}
	in.stopped = true
	err := in.srv.Close(5 * time.Second)
	in.rt.Stop()
	return err
}

// netClient is one connection driving closed-loop windows of depth ops:
// queue the window, flush it as one write, then receive every reply before
// queueing the next.
type netClient struct {
	conn  *client.Conn
	ops   *opStream
	depth int
	keys  []uint64
	reads []bool
	t     tally

	// Client-layer timings of the last run.
	encodeNs, encodeOps, decodeNs, decodeOps int64
	flushNs, firstNs                         []int64
}

func (c *netClient) tally() *tally { return &c.t }
func (c *netClient) close() error  { return c.conn.Close() }

func (c *netClient) run(p phase, m *meter, r *recorder) error {
	c.encodeNs, c.encodeOps, c.decodeNs, c.decodeOps = 0, 0, 0, 0
	c.flushNs, c.firstNs = c.flushNs[:0], c.firstNs[:0]
	for {
		t0 := now()
		if t0 >= p.end {
			return nil
		}
		for i := 0; i < c.depth; i++ {
			k, read := c.ops.next()
			c.keys[i], c.reads[i] = k, read
			if read {
				c.conn.QueueGet(k)
			} else {
				c.conn.QueuePut(k, k)
			}
		}
		t1 := now()
		if err := c.conn.Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		t2 := now()
		var tFirst, t int64
		for i := 0; i < c.depth; i++ {
			v, found, err := c.conn.Recv()
			t = now()
			if i == 0 {
				tFirst = t
			}
			c.t.attempted++
			var se *client.ServerError
			switch {
			case errors.Is(err, client.ErrBusy), errors.As(err, &se):
				c.t.failed++
				continue
			case err != nil:
				return fmt.Errorf("recv: %w", err)
			case c.reads[i] && (!found || v != c.keys[i]):
				c.t.check(fmt.Sprintf("GET %d returned (%d, found=%v), want its own key", c.keys[i], v, found))
			case !c.reads[i] && !found:
				c.t.check(fmt.Sprintf("PUT %d was not acknowledged", c.keys[i]))
			}
			class := classWrite
			if c.reads[i] {
				class = classRead
			}
			m.record(class, t, t-t0)
		}
		if c.conn.Pending() != 0 || c.conn.Queued() != 0 {
			c.t.check(fmt.Sprintf("%d replies missing after a window of %d", c.conn.Pending(), c.depth))
		}
		c.encodeNs += t1 - t0
		c.encodeOps += int64(c.depth)
		c.flushNs = append(c.flushNs, t2-t1)
		c.firstNs = append(c.firstNs, tFirst-t2)
		c.decodeNs += t - tFirst
		c.decodeOps += int64(c.depth - 1)
		if r != nil {
			id := r.newID()
			r.add(span{id: id, req: id, start: t0, end: t, name: spKVWindow, read: c.depth == 1 && c.reads[0]})
			r.add(span{id: r.newID(), parent: id, req: id, start: t0, end: t1, name: spEncode})
			r.add(span{id: r.newID(), parent: id, req: id, start: t1, end: t2, name: spFlush})
			r.add(span{id: r.newID(), parent: id, req: id, start: t2, end: tFirst, name: spFirstReply})
			if c.depth > 1 {
				r.add(span{id: r.newID(), parent: id, req: id, start: tFirst, end: t, name: spDecode})
			}
		}
	}
}

// ---- in-process workload -------------------------------------------------

const (
	inprocRecords = 1_000_000
	inprocClients = 2
	treeName      = "tree"
)

func runKVInproc(e *env) (*outcome, error) {
	ss, err := streams(ycsbA, inprocRecords, inprocClients, e.seed)
	if err != nil {
		return nil, err
	}
	o, err := runWorkload(e, workloadDef{
		clients:  inprocClients,
		episodes: 10,
		inputMB:  streamsMB(ss),
		setup: func(e *env, traced bool, _ int) (instance, error) {
			return setupInproc(ss, traced)
		},
	})
	if o != nil {
		o.describe("%d records in one fptree, %d-worker domain, ReadAdaptive, BatchExec and WAL off; %d sessions of synchronous closure tasks, %s",
			inprocRecords, runtime.NumCPU(), inprocClients, ycsbA.Name)
	}
	return o, err
}

type inprocInst struct {
	streams []*opStream
	tree    *fptree.Tree
	obs     *obs.Observer
	rt      *core.Runtime
	stopped bool

	dom0           domCounters
	aborts0, txns0 uint64
}

func setupInproc(ss []*opStream, traced bool) (*inprocInst, error) {
	m, err := hostMachine()
	if err != nil {
		return nil, err
	}
	in := &inprocInst{streams: ss, tree: fptree.New()}
	for i := uint64(0); i < inprocRecords; i++ {
		k := workload.ScatterKey(i)
		if !in.tree.Insert(k, k, nil) {
			return nil, fmt.Errorf("load: duplicate key %d", k)
		}
	}
	faults := &metrics.FaultCounters{}
	opts := obs.Options{Faults: faults}
	if traced {
		opts.TraceEvery = 1
	}
	in.obs = obs.New(opts)
	in.rt, err = core.Start(core.Config{
		Machine:      m,
		Domains:      []core.DomainSpec{{Name: "tree", CPUs: topology.Range(0, runtime.NumCPU())}},
		Assignment:   map[string]int{treeName: 0},
		Faults:       faults,
		Obs:          in.obs,
		ReadPolicies: map[string]core.ReadPolicy{treeName: core.ReadAdaptive},
	}, map[string]any{treeName: in.tree})
	if err != nil {
		return nil, err
	}
	return in, nil
}

func (in *inprocInst) observer() *obs.Observer { return in.obs }

func (in *inprocInst) open(n int) ([]loadClient, error) {
	var cs []loadClient
	for i := 0; i < n; i++ {
		sess, err := in.rt.NewSession(i%runtime.NumCPU(), burst)
		if err != nil {
			for _, c := range cs {
				c.close()
			}
			return nil, err
		}
		in.streams[i].i = 0
		c := &inprocClient{sess: sess, ops: in.streams[i]}
		c.readTask = core.Task{Structure: treeName, Op: func(ds any) any {
			c.val, c.ok = ds.(*fptree.Tree).Get(c.key, nil)
			return nil
		}}
		c.updateTask = core.Task{Structure: treeName, Op: func(ds any) any {
			c.ok = ds.(*fptree.Tree).Update(c.key, c.key, nil)
			return nil
		}}
		cs = append(cs, c)
	}
	return cs, nil
}

func (in *inprocInst) htm() (aborts, commits uint64) {
	st := in.tree.HTMStats()
	return st.Aborts.Load(), st.Commits.Load()
}

func (in *inprocInst) begin() {
	in.dom0 = readDomains(in.rt, in.obs)
	in.aborts0, in.txns0 = in.htm()
}

func (in *inprocInst) end(o *outcome, s *summary, cs []loadClient) {
	d := readDomains(in.rt, in.obs)
	delegationMetrics(o, in.dom0, d)
	hits := float64(d.bypassHits - in.dom0.bypassHits)
	o.values["core.bypass_hit_frac"] = ratio(hits, hits+float64(d.bypassFallbacks-in.dom0.bypassFallbacks))
	a, c := in.htm()
	o.values["index.htm_abort_frac"] = ratio(float64(a-in.aborts0), float64(a-in.aborts0+c-in.txns0))
}

func (in *inprocInst) ladder(o *outcome, seconds float64, _ *summary) error {
	s := in.streams[0]
	return kvLadder(o, in.rt, treeName, in.tree, s.keys, s.reads, seconds)
}

func (in *inprocInst) stop(o *outcome) error {
	if !in.stopped {
		in.stopped = true
		in.rt.Stop()
	}
	return nil
}

// inprocClient is one session issuing synchronous closure tasks: reads
// through SubmitRead (the read-policy dispatch: validated bypass or
// delegation), updates through Invoke. The task closures are built once
// and read their key from the client, so the loop allocates nothing.
type inprocClient struct {
	sess                 *core.Session
	ops                  *opStream
	key, val             uint64
	ok                   bool
	readTask, updateTask core.Task
	t                    tally
}

func (c *inprocClient) tally() *tally { return &c.t }
func (c *inprocClient) close() error  { return c.sess.Close() }

func (c *inprocClient) run(p phase, m *meter, r *recorder) error {
	for {
		k, read := c.ops.next()
		c.key = k
		t0 := now()
		var err error
		if read {
			_, err = c.sess.SubmitRead(c.readTask)
		} else {
			_, err = c.sess.Invoke(c.updateTask)
		}
		t := now()
		c.t.attempted++
		class, name := classWrite, spInvoke
		switch {
		case err != nil:
			c.t.failed++
		case read && (!c.ok || c.val != k):
			c.t.check(fmt.Sprintf("read %d returned (%d, found=%v), want its own key", k, c.val, c.ok))
		case !read && !c.ok:
			c.t.check(fmt.Sprintf("update %d found no record", k))
		}
		if read {
			class, name = classRead, spSubmitRead
		}
		if err == nil {
			m.record(class, t, t-t0)
		}
		if r != nil {
			id := r.newID()
			r.add(span{id: id, req: id, start: t0, end: t, name: name, read: read})
		}
		if t >= p.end {
			return nil
		}
	}
}

// ---- the layer ladder ----------------------------------------------------

// kvLadder replays an op stream against one layer entry point at a time,
// from the index itself up to a pipelined session window, each rung for an
// equal share of the time. Adjacent rungs differ by one layer, so their gaps
// are that layer's cost. Every reply is checked like the workload's own.
func kvLadder(o *outcome, rt *core.Runtime, structure string, idx index.Index, keys []uint64, reads []bool, seconds float64) error {
	if len(keys) == 0 {
		return fmt.Errorf("ladder: empty op stream")
	}
	budget := int64(seconds * 1e9 / 5)
	var bad int
	verify := func(k, v uint64, ok, read bool) {
		if !ok || (read && v != k) {
			bad++
		}
	}
	// rung runs f over consecutive stream positions, width ops per call,
	// until its budget is spent, and returns ns per op.
	rung := func(width int, f func(i int) error) (float64, error) {
		var ops int64
		t0 := now()
		for i := 0; now()-t0 < budget; i = (i + width) % (len(keys) - width) {
			if err := f(i); err != nil {
				return 0, err
			}
			ops += int64(width)
		}
		return float64(now()-t0) / float64(ops), nil
	}
	kind := func(i int) uint8 {
		if reads[i] {
			return index.BatchGet
		}
		return index.BatchUpdate
	}

	direct, err := rung(1, func(i int) error {
		k := keys[i]
		if reads[i] {
			v, ok := idx.Get(k, nil)
			verify(k, v, ok, true)
		} else {
			verify(k, 0, idx.Update(k, k, nil), false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	kern, ok := idx.(index.BatchKernel)
	if !ok {
		return fmt.Errorf("ladder: %s has no batch kernel", structure)
	}
	const wide = delegation.SlotsPerBuffer
	kinds, vals, outVals, outOKs := make([]uint8, wide), make([]uint64, wide), make([]uint64, wide), make([]bool, wide)
	batch := func(width int) func(i int) error {
		return func(i int) error {
			for j := 0; j < width; j++ {
				kinds[j], vals[j] = kind(i+j), keys[i+j]
			}
			kern.ExecBatch(kinds[:width], keys[i:i+width], vals[:width], outVals[:width], outOKs[:width])
			for j := 0; j < width; j++ {
				verify(keys[i+j], outVals[j], outOKs[j], reads[i+j])
			}
			return nil
		}
	}
	w1, err := rung(1, batch(1))
	if err != nil {
		return err
	}
	w15, err := rung(wide, batch(wide))
	if err != nil {
		return err
	}

	sess, err := rt.NewSession(0, burst)
	if err != nil {
		return err
	}
	defer sess.Close()
	invoke, err := rung(1, func(i int) error {
		v, ok, err := sess.InvokeKV(structure, kind(i), keys[i], keys[i])
		verify(keys[i], v, ok, reads[i])
		return err
	})
	if err != nil {
		return err
	}
	futs := make([]*core.AsyncFuture, burst)
	submit, err := rung(burst, func(i int) error {
		for j := range futs {
			f, err := sess.SubmitKV(structure, kind(i+j), keys[i+j], keys[i+j])
			if err != nil {
				return err
			}
			futs[j] = f
		}
		for j, f := range futs {
			v, ok, err := f.WaitKV()
			if err != nil {
				return err
			}
			verify(keys[i+j], v, ok, reads[i+j])
		}
		return nil
	})
	if err != nil {
		return err
	}
	if bad > 0 {
		o.check("ladder: %d replayed ops returned a wrong result", bad)
	}
	o.values["index.direct_ns_per_op"] = direct
	o.values["index.exec_batch_w1_ns_per_op"] = w1
	o.values["index.exec_batch_w15_ns_per_op"] = w15
	o.values["core.invoke_kv_us"] = invoke / 1e3
	o.values["core.submit_kv_ns_per_op"] = submit
	o.note("ladder (ns/op): index %.0f | ExecBatch w1 %.0f, w%d %.0f | InvokeKV %.0f | SubmitKV window %d %.0f",
		direct, w1, wide, w15, invoke, burst, submit)
	return nil
}

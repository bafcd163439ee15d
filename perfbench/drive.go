package main

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"robustconf/internal/obs"
)

// An untraced run measures each episode on a freshly set-up instance, so
// each starts from a freshly loaded, seeded state: per-instance effects such as
// memory layout are sampled once per episode instead of once per run, and a
// workload whose cost grows with the data it writes measures the same
// stretch of its life every time.
//
// Every episode's set-up is timed; a fast set-up is repeated (set up and
// torn down again) while the set-ups together took under setupBudget
// seconds, up to maxSetups, so its median is steady too.
const (
	maxSetups   = 25
	setupBudget = 2.0
)

// warmupSeconds runs the clients before every measured phase, so caches,
// the zipf hot set and the runtime's adaptive state settle.
const warmupSeconds = 0.5

// ladderShare is the share of --seconds the traced run's ladder rungs get.
const ladderShare = 0.2

// workloadDef is one workload: how to set its system up and what it needs.
type workloadDef struct {
	clients int
	// episodes is how many freshly set-up instances an untraced run
	// measures, each for an equal share of --seconds: as many as the
	// set-up time allows, since instances of one system differ (memory
	// layout, thread placement) by more than windows of one instance do.
	episodes int
	// inputMB is the benchmark's own pre-generated input held on the heap
	// (op streams); heap_mb leaves it out.
	inputMB float64
	// setup loads the data and starts the system (timed as setup_s) for the
	// given episode of the run.
	setup func(e *env, traced bool, episode int) (instance, error)
}

// instance is one set-up system under test.
type instance interface {
	// open creates the workload's clients (connections, sessions,
	// terminals); it is not part of setup_s.
	open(n int) ([]loadClient, error)
	observer() *obs.Observer
	// begin snapshots the layer counters before the traced phase; end
	// turns their deltas into per-layer metrics once its clients closed.
	begin()
	end(o *outcome, s *summary, cs []loadClient)
	// ladder replays the workload's op stream against one layer entry
	// point at a time; base is the untraced phase of the same run.
	ladder(o *outcome, seconds float64, base *summary) error
	// stop drains the system, runs the post-drain output checks and tears
	// it down.
	stop(o *outcome) error
}

// loadClient is one closed-loop load generator goroutine.
type loadClient interface {
	// run issues operations until the phase ends, waiting for each reply
	// (or window of replies) before sending more.
	run(p phase, m *meter, r *recorder) error
	close() error
	tally() *tally
}

// tally is a client's operation accounting and output-check record.
type tally struct {
	attempted, failed int64
	checks            []string
}

func (t *tally) check(msg string) {
	if len(t.checks) < 8 {
		t.checks = append(t.checks, msg)
	}
}

// drive runs every client for one phase and merges their meters.
func drive(cs []loadClient, seconds float64, recs []*recorder) (*summary, error) {
	p := newPhase(seconds)
	steal := make([]int64, p.windows())
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		prev := stealTicks()
		for w := range steal {
			time.Sleep(time.Duration(p.start + int64(w+1)*p.window - now()))
			cur := stealTicks()
			steal[w], prev = cur-prev, cur
		}
	}()
	ms := make([]*meter, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		ms[i] = newMeter(p)
		var r *recorder
		if recs != nil {
			r = recs[i]
		}
		wg.Add(1)
		go func(i int, c loadClient) {
			defer wg.Done()
			errs[i] = c.run(p, ms[i], r)
		}(i, c)
	}
	wg.Wait()
	<-sampled
	return merge(ms, steal), errors.Join(errs...)
}

// closeClients closes the clients and folds their tallies into o.
func closeClients(o *outcome, cs []loadClient) error {
	var errs []error
	for _, c := range cs {
		errs = append(errs, c.close())
		t := c.tally()
		o.attempted += t.attempted
		o.failed += t.failed
		for _, msg := range t.checks {
			o.check("%s", msg)
		}
	}
	return errors.Join(errs...)
}

// episodeSeed derives the seed of one episode's inputs from the run's seed.
// Where a workload draws its inputs per episode, a run then averages over
// as many draws as it has episodes instead of replaying one draw in each.
func episodeSeed(seed int64, episode int) int64 { return seed*7_368_787 + int64(episode) }

// stealLimit is the most steal time a sample (a window, or a set-up) may
// carry and still be kept: the first quartile over the run's samples. Steal
// is time the hypervisor ran other guests on this machine's CPUs; a sample
// that carries more measures them, not the system. On a shared 2-vCPU VM,
// kv-pipelined windows with steal ran at 70% of the others' throughput
// while the host stole 8% of CPU time, and 5 runs that kept every window
// spread 0.16 against 0.08. On a quiet host every sample is kept.
func stealLimit(steal []float64) float64 {
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	return quantileSorted(s, 0.25)
}

// runWorkload is the common shape of every workload's run.
func runWorkload(e *env, w workloadDef) (*outcome, error) {
	o := newOutcome()
	if e.trace {
		return o, runTraced(e, w, o)
	}
	var setups, setupSteal, heaps []float64
	var spent float64
	setUp := func() (instance, error) {
		t0, s0 := now(), stealTicks()
		inst, err := w.setup(e, false, len(setups))
		if err == nil {
			d := float64(now()-t0) / 1e9
			setups = append(setups, d)
			setupSteal = append(setupSteal, float64(stealTicks()-s0)/d)
			spent += d
		}
		return inst, err
	}
	var eps [][]window
	for i := 0; i < w.episodes; i++ {
		inst, err := setUp()
		if err != nil {
			return nil, err
		}
		heaps = append(heaps, liveHeapMB()-w.inputMB)
		s, err := measure(o, inst, w.clients, e.seconds/float64(w.episodes), warmupSeconds, nil)
		if err = errors.Join(err, inst.stop(o)); err != nil {
			return nil, err
		}
		eps = append(eps, s.reduce())
	}
	for spent < setupBudget && len(setups) < maxSetups {
		inst, err := setUp()
		if err != nil {
			return nil, err
		}
		if err := inst.stop(o); err != nil {
			return nil, err
		}
	}
	var keptSetups []float64
	limit := stealLimit(setupSteal)
	for i, d := range setups {
		if setupSteal[i] <= limit {
			keptSetups = append(keptSetups, d)
		}
	}
	o.values["setup_s"] = median(keptSetups)
	o.samples["setup_s"] = len(keptSetups)
	o.values["heap_mb"] = median(heaps)
	o.samples["heap_mb"] = len(heaps)

	// Every figure is the median over the kept windows of all episodes: the
	// windows with no more steal time than the first quartile (see
	// stealLimit). On a quiet host that is every window.
	var all []window
	for _, ep := range eps {
		all = append(all, ep...)
	}
	var steals []float64
	for _, w := range all {
		steals = append(steals, float64(w.steal))
	}
	limit = stealLimit(steals)
	var kept []window
	for _, w := range all {
		if float64(w.steal) <= limit {
			kept = append(kept, w)
		}
	}
	var stolen float64
	for _, t := range steals {
		stolen += t
	}
	// Steal is counted in clock ticks, 100 per second per CPU.
	o.note("windows kept: %d of %d (steal <= %.0f ticks each; steal %.1f%% of CPU time over all windows)",
		len(kept), len(all), limit, 100*stolen/(float64(len(all))*windowSeconds*100*float64(runtime.NumCPU())))
	o.meta["windows_kept"], o.meta["windows"] = len(kept), len(all)
	var rates []float64
	for _, w := range kept {
		rates = append(rates, w.rate)
	}
	perEpisode := make([]float64, len(eps))
	for i, ep := range eps {
		var r []float64
		for _, w := range ep {
			r = append(r, w.rate)
		}
		perEpisode[i] = median(r)
	}
	o.note("ops/s per episode (median window): %.0f", perEpisode)
	o.values["throughput_ops_s"] = median(rates)
	o.samples["throughput_ops_s"] = len(rates)
	// p99 is reported but not gated: on a shared host it measures the
	// host's scheduling stalls more than the system (see WORKLOADS.md).
	p99 := map[string]float64{}
	for c, class := range []string{"read", "write"} {
		for i, q := range quantiles {
			var per []float64
			n := 0
			for _, w := range kept {
				if w.n[c] > 0 {
					per = append(per, w.us[c][i])
					n += w.n[c]
				}
			}
			if n == 0 {
				continue
			}
			name := class + "_" + q.tag + "_us"
			if q.tag == "p99" {
				p99[name] = median(per)
				o.note("%-36s %14.4f us  (n=%d, not gated)", name, p99[name], n)
				continue
			}
			o.values[name] = median(per)
			o.samples[name] = n
		}
	}
	o.meta["p99"] = p99
	o.values["ok_frac"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
	o.samples["ok_frac"] = int(o.attempted)
	return o, nil
}

// measure opens clients, warms up, runs one measured phase and closes them.
func measure(o *outcome, inst instance, n int, seconds, warmup float64, recs []*recorder) (*summary, error) {
	cs, err := inst.open(n)
	if err != nil {
		return nil, err
	}
	if _, err := drive(cs, warmup, nil); err != nil {
		closeClients(o, cs)
		return nil, err
	}
	s, err := drive(cs, seconds, recs)
	return s, errors.Join(err, closeClients(o, cs))
}

// runTraced measures an untraced phase on one set-up system, then a traced
// phase and the ladder rungs on a second one set up with span tracing on.
// Both phases are one episode long.
func runTraced(e *env, w workloadDef, o *outcome) error {
	phaseLen := e.seconds / float64(w.episodes)
	plain, err := w.setup(e, false, 0)
	if err != nil {
		return err
	}
	base, err := measure(o, plain, w.clients, phaseLen, warmupSeconds, nil)
	if err != nil {
		plain.stop(o)
		return err
	}
	if err := plain.stop(o); err != nil {
		return err
	}

	inst, err := w.setup(e, true, 0)
	if err != nil {
		return err
	}
	defer inst.stop(o)
	cs, err := inst.open(w.clients)
	if err != nil {
		return err
	}
	if _, err := drive(cs, warmupSeconds, nil); err != nil {
		closeClients(o, cs)
		return err
	}
	recs := make([]*recorder, len(cs))
	for i := range recs {
		recs[i] = newRecorder(i)
	}
	inst.begin()
	a := readProc()
	s, err := drive(cs, phaseLen, recs)
	b := readProc()
	if err := errors.Join(err, closeClients(o, cs)); err != nil {
		return err
	}
	procMetrics(o, a, b, s.ops)
	inst.end(o, s, cs)
	o.values["trace.overhead_frac"] = 1 - ratio(s.rate(), base.rate())
	o.note("traced phase %.0f ops/s vs untraced %.0f ops/s", s.rate(), base.rate())

	ts := mergeTrace(recs, inst.observer(), clockOffset(inst.observer()))
	ts.report(o)
	if err := inst.ladder(o, e.seconds*ladderShare, base); err != nil {
		return err
	}
	meta, err := hostMeta(e)
	if err != nil {
		return err
	}
	path, err := ts.dump(e, meta)
	if err != nil {
		return err
	}
	o.note("spans written to %s", path)
	return inst.stop(o)
}

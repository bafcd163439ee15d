package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"robustconf/internal/obs"
)

// Span names. The benchmark records spans around its own calls into each
// layer; the delegation.* spans come from the program's Observer records.
const (
	spKVWindow   uint8 = iota // one pipelined window: queue → last reply
	spEncode                  // client Queue* calls
	spFlush                   // client Flush (write syscall)
	spFirstReply              // Flush return → first Recv return
	spDecode                  // the remaining Recv calls
	spSubmitRead              // core Session.SubmitRead
	spInvoke                  // core Session.Invoke
	spTxn                     // one TPC-C transaction (typed Terminal call)
	spDelegation              // obs: posted → resolved
	spPickup                  // obs: posted → swept
	spExec                    // obs: exec start → exec end
	spRespond                 // obs: exec end → responded
	spWake                    // obs: responded → resolved
	spanKinds
)

var spanNames = [spanKinds]string{
	"kv.window", "client.encode", "client.flush", "client.first_reply", "client.decode",
	"core.submit_read", "core.invoke", "tpcc.txn",
	"delegation.task", "delegation.pickup", "delegation.exec", "delegation.respond", "delegation.wake",
}

// layerWork marks the spans that are a layer's own work on the blocking
// path. client.first_reply and delegation.task are waits that merely
// contain other spans; whatever of a request no work span covers is the
// unexplained remainder (network, server decode/lease/encode, wake-ups the
// benchmark cannot see from outside).
var layerWork = [spanKinds]bool{
	spEncode: true, spFlush: true, spDecode: true,
	spPickup: true, spExec: true, spRespond: true, spWake: true,
}

type span struct {
	id, parent, req uint64 // req: the root span's id, shared by a request
	start, end      int64
	name            uint8
	read            bool // root spans: the request is a read
}

// recorder keeps one client goroutine's most recent spans in a fixed ring,
// so a traced phase of any length costs bounded memory and no allocation.
type recorder struct {
	ring []span
	n    uint64
	seq  uint64
	base uint64
}

const recorderCap = 1 << 18

func newRecorder(client int) *recorder {
	return &recorder{ring: make([]span, recorderCap), base: uint64(client+1) << 48}
}

func (r *recorder) newID() uint64 {
	r.seq++
	return r.base | r.seq
}

func (r *recorder) add(s span) {
	r.ring[r.n%recorderCap] = s
	r.n++
}

func (r *recorder) spans() []span {
	if r.n <= recorderCap {
		return append([]span(nil), r.ring[:r.n]...)
	}
	i := r.n % recorderCap
	return append(append([]span(nil), r.ring[i:]...), r.ring[:i]...)
}

// clockOffset measures the obs layer's span clock against now(): it stamps
// a lifecycle event through the Observer's public API between two local
// clock reads and returns obs time minus benchmark time.
func clockOffset(o *obs.Observer) int64 {
	a := now()
	o.Lifecycle("perfbench", -1, "clock-sync")
	b := now()
	events, _ := o.Events()
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind == "clock-sync" {
			return events[i].AtNs - (a+b)/2
		}
	}
	return 0
}

// traceSet is the merged span set of one traced phase.
type traceSet struct {
	spans []span
}

// mergeTrace joins the benchmark's spans with the Observer's committed task
// spans (shifted onto the benchmark clock). Each task span is parented to
// the benchmark root span that contains it; with several clients in flight
// the containing root that started last wins, so attribution is exact only
// where one request is outstanding at a time, and approximate otherwise.
func mergeTrace(recs []*recorder, o *obs.Observer, offset int64) *traceSet {
	ts := &traceSet{}
	var roots []span
	for _, r := range recs {
		for _, s := range r.spans() {
			ts.spans = append(ts.spans, s)
			if s.parent == 0 {
				roots = append(roots, s)
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].start < roots[j].start })
	var seq uint64
	for _, rec := range o.Tracer().Spans() {
		if rec.Failed || rec.SweptNs == 0 || rec.ExecStartNs == 0 || rec.ExecEndNs == 0 || rec.RespondedNs == 0 {
			continue
		}
		posted, resolved := rec.PostedNs-offset, rec.ResolvedNs-offset
		// Last root starting at or before the post; scan back over the few
		// concurrently open ones for a container.
		i := sort.Search(len(roots), func(i int) bool { return roots[i].start > posted }) - 1
		var parent span
		for j := i; j >= 0 && j > i-8; j-- {
			if roots[j].start <= posted && roots[j].end >= resolved {
				parent = roots[j]
				break
			}
		}
		if parent.id == 0 {
			continue
		}
		seq++
		id := uint64(1)<<63 | seq<<3
		ts.spans = append(ts.spans,
			span{id: id, parent: parent.id, req: parent.req, start: posted, end: resolved, name: spDelegation},
			span{id: id | 1, parent: id, req: parent.req, start: posted, end: rec.SweptNs - offset, name: spPickup},
			span{id: id | 2, parent: id, req: parent.req, start: rec.ExecStartNs - offset, end: rec.ExecEndNs - offset, name: spExec},
			span{id: id | 3, parent: id, req: parent.req, start: rec.ExecEndNs - offset, end: rec.RespondedNs - offset, name: spRespond},
			span{id: id | 4, parent: id, req: parent.req, start: rec.RespondedNs - offset, end: resolved, name: spWake},
		)
	}
	return ts
}

// durations returns every span's duration in ns, by name.
func (ts *traceSet) durations() map[uint8][]int64 {
	out := map[uint8][]int64{}
	for _, s := range ts.spans {
		out[s.name] = append(out[s.name], s.end-s.start)
	}
	return out
}

// selfTimes computes each span's self time (its duration minus the part its
// children cover) and returns the medians by name.
func (ts *traceSet) selfTimes() map[uint8]float64 {
	children := map[uint64][]span{}
	for _, s := range ts.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := map[uint8][]int64{}
	for _, s := range ts.spans {
		self[s.name] = append(self[s.name], (s.end-s.start)-covered(s, children[s.id]))
	}
	out := map[uint8]float64{}
	for n, v := range self {
		out[n] = medianInt64(v)
	}
	return out
}

// covered is the length of the union of the intervals clipped to parent.
func covered(parent span, iv []span) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total int64
	cs, ce := int64(-1), int64(-1)
	for _, s := range iv {
		a, b := max(s.start, parent.start), min(s.end, parent.end)
		if b <= a {
			continue
		}
		if a > ce {
			total += ce - cs
			cs, ce = a, b
		} else if b > ce {
			ce = b
		}
	}
	return total + ce - cs
}

// ledger splits the read requests that carry a delegation span into their
// layers. It returns the mean ns per layer (by span name, with -1 for the
// unexplained remainder), the mean root duration, and the number of
// requests it covers. Means are used so the layers sum to the total.
func (ts *traceSet) ledger() (map[int]float64, float64, int) {
	byReq := map[uint64][]span{}
	roots := map[uint64]span{}
	for _, s := range ts.spans {
		if s.parent == 0 {
			if s.read {
				roots[s.id] = s
			}
			continue
		}
		byReq[s.req] = append(byReq[s.req], s)
	}
	sum := map[int]float64{}
	var total float64
	n := 0
	for id, root := range roots {
		parts := byReq[id]
		hasTask := false
		var work []span
		for _, s := range parts {
			if s.name == spDelegation {
				hasTask = true
			}
			if layerWork[s.name] {
				work = append(work, s)
			}
		}
		if !hasTask {
			continue
		}
		n++
		total += float64(root.end - root.start)
		for _, s := range work {
			sum[int(s.name)] += float64(min(s.end, root.end) - max(s.start, root.start))
		}
		sum[-1] += float64((root.end - root.start) - covered(root, work))
	}
	if n == 0 {
		return nil, 0, 0
	}
	for k := range sum {
		sum[k] /= float64(n)
	}
	return sum, total / float64(n), n
}

// report fills the trace-derived per-layer metrics and the ledger notes.
func (ts *traceSet) report(o *outcome) {
	d := ts.durations()
	us := func(name uint8, q float64) (float64, bool) {
		v := d[name]
		if len(v) == 0 {
			return 0, false
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		pos := int(q * float64(len(v)-1))
		return float64(v[pos]) / 1e3, true
	}
	put := func(metric string, name uint8, q float64) {
		if v, ok := us(name, q); ok {
			o.values[metric] = v
			o.samples[metric] = len(d[name])
		}
	}
	put("delegation.pickup_p50_us", spPickup, 0.5)
	put("delegation.pickup_p99_us", spPickup, 0.99)
	put("delegation.exec_p50_us", spExec, 0.5)
	put("delegation.respond_p50_us", spRespond, 0.5)
	put("delegation.wake_p50_us", spWake, 0.5)
	put("delegation.wake_p99_us", spWake, 0.99)

	self := ts.selfTimes()
	var names []int
	for n := range self {
		names = append(names, int(n))
	}
	sort.Ints(names)
	for _, n := range names {
		o.note("span %-20s n=%-7d median self %.2f µs", spanNames[n], len(d[uint8(n)]), self[uint8(n)]/1e3)
	}
	layers, mean, n := ts.ledger()
	if n == 0 {
		o.note("ledger: no read request carried a sampled delegation span")
		return
	}
	o.values["trace.unexplained_frac"] = layers[-1] / mean
	o.samples["trace.unexplained_frac"] = n
	o.note("ledger: mean traced read %.2f µs over %d requests with a delegation span:", mean/1e3, n)
	for _, name := range []uint8{spEncode, spFlush, spPickup, spExec, spRespond, spWake, spDecode} {
		if v, ok := layers[int(name)]; ok {
			o.note("  %-20s %8.2f µs", spanNames[name], v/1e3)
		}
	}
	o.note("  %-20s %8.2f µs (%.1f%%, covered by no layer span)", "unexplained", layers[-1]/1e3, 100*layers[-1]/mean)
}

type spanJSON struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxDumped caps the span dump; the newest spans are kept.
const maxDumped = 50000

// dump writes the newest merged spans and the run metadata as JSON.
func (ts *traceSet) dump(e *env, meta map[string]any) (string, error) {
	spans := append([]span(nil), ts.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if len(spans) > maxDumped {
		spans = spans[len(spans)-maxDumped:]
	}
	out := struct {
		Meta  map[string]any `json:"meta"`
		Spans []spanJSON     `json:"spans"`
	}{Meta: meta}
	for _, s := range spans {
		out.Spans = append(out.Spans, spanJSON{Name: spanNames[s.name], ID: s.id, Parent: s.parent, Req: s.req, Start: s.start, End: s.end})
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.json", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

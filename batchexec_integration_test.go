package robustconf_test

import (
	"errors"
	"fmt"
	"testing"

	"robustconf"
	"robustconf/internal/index"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
)

// kvResult is one typed op's observable outcome, flattened for comparison
// across schedules (errors compare by message).
type kvResult struct {
	v   uint64
	ok  bool
	err string
}

// kvOp is one typed op of the seeded equivalence stream.
type kvOp struct {
	structure string
	kind      uint8
	key, val  uint64
}

const streamKeys = 512

// kvStream returns the seeded mixed stream of typed ops over the hashmap
// "h" and the FP-Tree "f": 50 bursts of 14.
func kvStream() []kvOp {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	ops := make([]kvOp, 50*robustconf.PaperBurstSize)
	for i := range ops {
		op := &ops[i]
		op.structure = "h"
		if next()%2 == 0 {
			op.structure = "f"
		}
		op.kind = robustconf.KVGet
		switch next() % 4 {
		case 1:
			op.kind = robustconf.KVInsert
		case 2:
			op.kind = robustconf.KVUpdate
		case 3:
			op.kind = robustconf.KVDelete
		}
		op.key, op.val = next()%streamKeys+1, next()
	}
	return ops
}

// finalState flattens an index's length and every stream key's lookup.
func finalState(idx index.Index) []kvResult {
	state := []kvResult{{v: uint64(idx.Len())}}
	for k := uint64(1); k <= streamKeys; k++ {
		v, ok := idx.Get(k, nil)
		state = append(state, kvResult{v: v, ok: ok})
	}
	return state
}

// referenceStream applies the stream directly, in order, to fresh index
// instances through the Index methods: the serial semantics every batch
// kernel must reproduce (mutations report value 0, like ExecBatch).
func referenceStream() ([]kvResult, map[string][]kvResult) {
	idx := map[string]index.Index{"h": hashmap.New(), "f": fptree.New()}
	var results []kvResult
	for _, op := range kvStream() {
		x := idx[op.structure]
		var r kvResult
		switch op.kind {
		case robustconf.KVGet:
			r.v, r.ok = x.Get(op.key, nil)
		case robustconf.KVInsert:
			r.ok = x.Insert(op.key, op.val, nil)
		case robustconf.KVUpdate:
			r.ok = x.Update(op.key, op.val, nil)
		case robustconf.KVDelete:
			r.ok = x.Delete(op.key, nil)
		}
		results = append(results, r)
	}
	return results, map[string][]kvResult{"h": finalState(idx["h"]), "f": finalState(idx["f"])}
}

// runTypedStream executes the stream — and, when panicEvery > 0, a panicking
// closure task interleaved into the bursts — through a fresh hashmap +
// FP-Tree runtime, pipelined in bursts of 14 SubmitKV ops so the worker's
// passes run them as kernel runs. It returns every typed op's result plus
// the final state of both structures.
func runTypedStream(t *testing.T, panicEvery int) ([]kvResult, map[string][]kvResult) {
	t.Helper()
	cfg := robustconf.Config{
		Machine: robustconf.Machine(1),
		Domains: []robustconf.Domain{
			// A single-worker domain concentrates every burst in one buffer,
			// so passes claim full runs.
			{Name: "d0", CPUs: robustconf.CPURange(0, 1)},
		},
		Assignment: map[string]int{"h": 0, "f": 0},
	}
	hm, ft := hashmap.New(), fptree.New()
	rt, err := robustconf.Start(cfg, map[string]any{"h": hm, "f": ft})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	session, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	var results []kvResult
	var futs []*robustconf.AsyncFuture
	flush := func() {
		for _, f := range futs {
			v, ok, err := f.WaitKV()
			r := kvResult{v: v, ok: ok}
			if err != nil {
				r.err = err.Error()
			}
			results = append(results, r)
		}
		futs = futs[:0]
	}
	for i, op := range kvStream() {
		if panicEvery > 0 && i%panicEvery == panicEvery/2 {
			// A closure task in the middle of the burst: it splits the
			// typed runs; its panic must fail only itself.
			f, err := session.SubmitAsync("h", func(ds, arg any) any {
				panic("equivalence boom")
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, werr := f.Wait()
			var pe robustconf.PanicError
			if !errors.As(werr, &pe) {
				t.Fatalf("closure panic came back as %v, want PanicError", werr)
			}
		}
		f, err := session.SubmitKV(op.structure, op.kind, op.key, op.val)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
		if len(futs) == robustconf.PaperBurstSize {
			flush()
		}
	}
	flush()
	return results, map[string][]kvResult{"h": finalState(hm), "f": finalState(ft)}
}

func diffStreams(t *testing.T, label string, want, got []kvResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results in the reference vs %d through the runtime", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: op %d diverged: reference %+v, runtime %+v", label, i, want[i], got[i])
		}
	}
}

// TestBatchExecEquivalence is the cross-path equivalence pin: the seeded op
// stream pipelined through the runtime's sweeps (kernel runs over both
// structures) must produce the per-op results and final index states of
// the same stream applied directly, in order, to fresh instances.
func TestBatchExecEquivalence(t *testing.T) {
	refRes, refState := referenceStream()
	res, state := runTypedStream(t, 0)
	diffStreams(t, "results", refRes, res)
	for name := range refState {
		diffStreams(t, fmt.Sprintf("final state %q", name), refState[name], state[name])
	}
}

// TestBatchExecEquivalenceWithPanics re-runs the equivalence pin with a
// panicking closure task injected into every burst: the panic must fail
// only its own future, so the typed results and final states still match
// the direct reference, to which the closure contributes nothing.
func TestBatchExecEquivalenceWithPanics(t *testing.T) {
	refRes, refState := referenceStream()
	res, state := runTypedStream(t, 14)
	diffStreams(t, "panic-stream results", refRes, res)
	for name := range refState {
		diffStreams(t, fmt.Sprintf("panic-stream final state %q", name), refState[name], state[name])
	}
}

// TestBatchExecStopWithOutstandingBurst stops the runtime while a full
// typed burst is outstanding: every future must still resolve — with its
// value if the final sweep executed it, or with ErrWorkerStopped if the
// seal rescued it — and never hang.
func TestBatchExecStopWithOutstandingBurst(t *testing.T) {
	cfg := robustconf.Config{
		Machine:    robustconf.Machine(1),
		Domains:    []robustconf.Domain{{Name: "d0", CPUs: robustconf.CPURange(0, 1)}},
		Assignment: map[string]int{"h": 0},
	}
	rt, err := robustconf.Start(cfg, map[string]any{"h": hashmap.New()})
	if err != nil {
		t.Fatal(err)
	}
	session, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		t.Fatal(err)
	}
	var futs [robustconf.PaperBurstSize]*robustconf.AsyncFuture
	for i := range futs {
		if futs[i], err = session.SubmitKV("h", robustconf.KVInsert, uint64(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	rt.Stop()
	for i, f := range futs {
		if _, _, err := f.WaitKV(); err != nil && !errors.Is(err, robustconf.ErrWorkerStopped) {
			t.Fatalf("op %d: err = %v, want nil or ErrWorkerStopped", i, err)
		}
	}
	session.Close()
}

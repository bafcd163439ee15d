package delegation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"robustconf/internal/index"
)

// TestKVKindsMatchIndexBatchKinds pins the structural-typing contract
// between the two packages: delegation's KV op kinds must equal index's
// batch-kernel kinds value for value, because a Slot's kind byte is handed
// to index kernels verbatim (through the structurally-identical BatchKernel
// interfaces). A drift here would silently execute the wrong operations.
func TestKVKindsMatchIndexBatchKinds(t *testing.T) {
	if KVGet != index.BatchGet || KVInsert != index.BatchInsert ||
		KVUpdate != index.BatchUpdate || KVDelete != index.BatchDelete {
		t.Fatalf("delegation KV kinds (%d,%d,%d,%d) != index batch kinds (%d,%d,%d,%d)",
			KVGet, KVInsert, KVUpdate, KVDelete,
			index.BatchGet, index.BatchInsert, index.BatchUpdate, index.BatchDelete)
	}
}

// mapKernel is the protocol fake: a BatchKernel over a map that records the
// group size of every ExecBatch call and can be armed to panic on a specific
// key. Like a real kernel it is safe for concurrent ExecBatch calls (the
// index.BatchKernel contract): a live sweep and Seal's final sweep may run
// kernel runs on different claimed slots at the same time.
type mapKernel struct {
	mu       sync.Mutex
	m        map[uint64]uint64
	groups   []int
	panicKey uint64 // ExecBatch panics on reaching this key (0 = never)
}

func newMapKernel() *mapKernel { return &mapKernel{m: map[uint64]uint64{}} }

func (k *mapKernel) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.groups = append(k.groups, len(kinds))
	for i := range kinds {
		if k.panicKey != 0 && keys[i] == k.panicKey {
			panic("kernel boom")
		}
		_, present := k.m[keys[i]]
		switch kinds[i] {
		case KVGet:
			outVals[i], outOKs[i] = k.m[keys[i]], present
		case KVInsert:
			if !present {
				k.m[keys[i]] = vals[i]
			}
			outOKs[i] = !present
		case KVUpdate:
			if present {
				k.m[keys[i]] = vals[i]
			}
			outOKs[i] = present
		case KVDelete:
			if present {
				delete(k.m, keys[i])
			}
			outOKs[i] = present
		}
	}
}

// newBatchedClient builds a single 15-slot buffer and a client owning 14 of
// its slots.
func newBatchedClient(t *testing.T) (*Buffer, *Client) {
	t.Helper()
	b, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInbox([]*Buffer{b})
	if err != nil {
		t.Fatal(err)
	}
	slots, err := in.AcquireSlots(14, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(slots)
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

func postKVt(t *testing.T, c *Client, kern BatchKernel, kind uint8, key, val uint64) InvokeHandle {
	t.Helper()
	i, ok := c.Reserve()
	if !ok {
		t.Fatal("no free slot")
	}
	return c.Post(i, Op{Kern: kern, Kind: kind, Key: key, Val: val})
}

// postTaskt posts a closure op into a reserved slot.
func postTaskt(t *testing.T, c *Client, op Op) InvokeHandle {
	t.Helper()
	i, ok := c.Reserve()
	if !ok {
		t.Fatal("no free slot")
	}
	return c.Post(i, op)
}

// postLoggedt posts a logged closure op that applies one typed mutation to
// k: its value is the kernel's ok flag and its record testKVEnc's encoding.
func postLoggedt(t *testing.T, c *Client, k *mapKernel, kind uint8, key, val uint64) InvokeHandle {
	t.Helper()
	return postTaskt(t, c, Op{
		Task: func() any {
			var outV [1]uint64
			var outOK [1]bool
			k.ExecBatch([]uint8{kind}, []uint64{key}, []uint64{val}, outV[:], outOK[:])
			return outOK[0]
		},
		Log: func(dst []byte) []byte { return testKVEnc(dst, kind, key, val) },
	})
}

// TestBatchedSweepGroupsAndAnswers drives one batched pass over a mixed
// burst: typed ops on two kernels with an opaque closure task in between.
// The pass must execute everything in slot order, group only adjacent
// same-kernel typed ops, and answer every future with the serially-correct
// result.
func TestBatchedSweepGroupsAndAnswers(t *testing.T) {
	buf, c := newBatchedClient(t)
	ka, kb := newMapKernel(), newMapKernel()
	ka.m[7] = 70
	kb.m[9] = 90

	h1 := postKVt(t, c, ka, KVGet, 7, 0) // group A: [get, insert]
	h2 := postKVt(t, c, ka, KVInsert, 8, 80)
	h3 := postTaskt(t, c, Op{Task: func() any { return "opaque" }}) // splits the runs
	h4 := postKVt(t, c, ka, KVUpdate, 7, 71)                        // group B: same kernel, split by the closure
	h5 := postKVt(t, c, kb, KVDelete, 9, 0)                         // group C: different kernel ⇒ own group
	h6 := postKVt(t, c, kb, KVGet, 9, 0)                            // group C continued: delete then get ⇒ miss

	if n := buf.Sweep(); n != 6 {
		t.Fatalf("sweep answered %d, want 6", n)
	}
	if v, ok, err := c.AwaitKV(h1); err != nil || !ok || v != 70 {
		t.Fatalf("get(7) = %d,%v,%v want 70,true,nil", v, ok, err)
	}
	if _, ok, err := c.AwaitKV(h2); err != nil || !ok {
		t.Fatalf("insert(8) ok=%v err=%v, want true,nil", ok, err)
	}
	if v, err := c.Await(h3); err != nil || v != "opaque" {
		t.Fatalf("opaque = %v,%v", v, err)
	}
	if _, ok, err := c.AwaitKV(h4); err != nil || !ok {
		t.Fatalf("update(7) ok=%v err=%v, want true,nil", ok, err)
	}
	if _, ok, err := c.AwaitKV(h5); err != nil || !ok {
		t.Fatalf("delete(9) ok=%v err=%v, want true,nil", ok, err)
	}
	if _, ok, err := c.AwaitKV(h6); err != nil || ok {
		t.Fatalf("get(9) after delete ok=%v err=%v, want false,nil", ok, err)
	}
	if ka.m[7] != 71 || ka.m[8] != 80 {
		t.Fatalf("kernel A state = %v", ka.m)
	}
	if len(ka.groups) != 2 || ka.groups[0] != 2 || ka.groups[1] != 1 {
		t.Fatalf("kernel A groups = %v, want [2 1]", ka.groups)
	}
	if len(kb.groups) != 1 || kb.groups[0] != 2 {
		t.Fatalf("kernel B groups = %v, want [2]", kb.groups)
	}
	buf.SyncStats()
	if got := buf.BatchSweeps.Load(); got != 1 {
		t.Errorf("BatchSweeps = %d, want 1", got)
	}
	if got := buf.BatchKernelOps.Load(); got != 5 {
		t.Errorf("BatchKernelOps = %d, want 5", got)
	}
}

// TestSweepRunCoversBurst pins the run rule: with no width cap, a burst of
// 14 same-kernel typed ops executes as one ExecBatch call of 14.
func TestSweepRunCoversBurst(t *testing.T) {
	buf, c := newBatchedClient(t)
	k := newMapKernel()
	var hs [14]InvokeHandle
	for i := range hs {
		hs[i] = postKVt(t, c, k, KVInsert, uint64(i+1), uint64(i))
	}
	if n := buf.Sweep(); n != 14 {
		t.Fatalf("sweep answered %d, want 14", n)
	}
	for i := range hs {
		if _, ok, err := c.AwaitKV(hs[i]); err != nil || !ok {
			t.Fatalf("insert %d: ok=%v err=%v", i, ok, err)
		}
	}
	if len(k.groups) != 1 || k.groups[0] != 14 {
		t.Fatalf("groups = %v, want [14]", k.groups)
	}
}

// windowKernel wraps mapKernel and records, per ExecBatch call, whether
// the buffer's mutating window was open while the run executed.
type windowKernel struct {
	*mapKernel
	buf  *Buffer
	open []bool
}

func (k *windowKernel) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	k.open = append(k.open, k.buf.MutEnter() != k.buf.MutExit())
	k.mapKernel.ExecBatch(kinds, keys, vals, outVals, outOKs)
}

// TestSweepMutatingWindowLazy pins the window rule: a pass of reads only
// never opens the mutating window; in a mixed pass the window opens just
// before the first run holding a non-read op, so a read run ahead of it
// executes with the window closed, and the pass closes it by its end.
func TestSweepMutatingWindowLazy(t *testing.T) {
	buf, c := newBatchedClient(t)
	k := &windowKernel{mapKernel: newMapKernel(), buf: buf}
	k.m[1] = 10
	enter := buf.MutEnter()

	h1 := postKVt(t, c, k, KVGet, 1, 0)
	h2 := postKVt(t, c, k, KVGet, 1, 0)
	buf.Sweep()
	for _, h := range []InvokeHandle{h1, h2} {
		if _, ok, err := c.AwaitKV(h); err != nil || !ok {
			t.Fatalf("get ok=%v err=%v", ok, err)
		}
	}
	if got := buf.MutEnter(); got != enter {
		t.Fatalf("read-only pass moved MutEnter %d → %d", enter, got)
	}

	h3 := postKVt(t, c, k, KVGet, 1, 0)
	h4 := postKVt(t, c, k, KVGet, 1, 0)
	h5 := postTaskt(t, c, Op{Task: func() any { return nil }}) // unflagged: mutating
	h6 := postKVt(t, c, k, KVGet, 1, 0)
	buf.Sweep()
	for _, h := range []InvokeHandle{h3, h4, h6} {
		if _, _, err := c.AwaitKV(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Await(h5); err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, false, true}; fmt.Sprint(k.open) != fmt.Sprint(want) {
		t.Fatalf("window open per kernel run = %v, want %v", k.open, want)
	}
	if got := buf.MutEnter(); got != enter+1 {
		t.Fatalf("mixed pass: MutEnter %d → %d, want one window", enter, got)
	}
	if buf.MutExit() != buf.MutEnter() {
		t.Fatalf("window left open: exit %d enter %d", buf.MutExit(), buf.MutEnter())
	}
}

// TestBatchedSweepKernelPanicFailsRun arms the kernel to panic mid-group.
// The whole run fails with a PanicError (its ops may have half-executed
// inside the kernel — exactly a task panic's contract), while the opaque
// task and the second kernel's run in the same pass still succeed, and the
// buffer keeps serving afterwards.
func TestBatchedSweepKernelPanicFailsRun(t *testing.T) {
	buf, c := newBatchedClient(t)
	ka, kb := newMapKernel(), newMapKernel()
	ka.panicKey = 2

	h1 := postKVt(t, c, ka, KVInsert, 1, 10)
	h2 := postKVt(t, c, ka, KVInsert, 2, 20) // boom
	h3 := postKVt(t, c, ka, KVInsert, 3, 30) // same run: fails wholesale
	h4 := postTaskt(t, c, Op{Task: func() any { return 44 }})
	h5 := postKVt(t, c, kb, KVInsert, 5, 50)

	buf.Sweep()
	for i, h := range []InvokeHandle{h1, h2, h3} {
		var pe PanicError
		if _, _, err := c.AwaitKV(h); !errors.As(err, &pe) {
			t.Fatalf("typed op %d err = %v, want PanicError", i+1, err)
		}
	}
	if v, err := c.Await(h4); err != nil || v != 44 {
		t.Fatalf("opaque = %v,%v", v, err)
	}
	if _, ok, err := c.AwaitKV(h5); err != nil || !ok {
		t.Fatalf("kernel B insert ok=%v err=%v", ok, err)
	}
	if buf.Failed.Load() != 3 {
		t.Errorf("Failed = %d, want 3", buf.Failed.Load())
	}
	// The worker survives a kernel panic like any task panic.
	h6 := postKVt(t, c, kb, KVGet, 5, 0)
	buf.Sweep()
	if v, ok, err := c.AwaitKV(h6); err != nil || !ok || v != 50 {
		t.Fatalf("post-panic get = %d,%v,%v", v, ok, err)
	}
}

// TestBatchedSweepOpaquePanicMidBatch interleaves a panicking closure task
// between typed runs: only it fails, and in slot order the typed ops before
// and after still execute.
func TestBatchedSweepOpaquePanicMidBatch(t *testing.T) {
	buf, c := newBatchedClient(t)
	k := newMapKernel()
	h1 := postKVt(t, c, k, KVInsert, 1, 10)
	h2 := postTaskt(t, c, Op{Task: func() any { panic("task boom") }})
	h3 := postKVt(t, c, k, KVGet, 1, 0)

	if n := buf.Sweep(); n != 3 {
		t.Fatalf("sweep answered %d, want 3", n)
	}
	if _, ok, err := c.AwaitKV(h1); err != nil || !ok {
		t.Fatalf("insert ok=%v err=%v", ok, err)
	}
	var pe PanicError
	if _, err := c.Await(h2); !errors.As(err, &pe) || pe.Value != "task boom" {
		t.Fatalf("opaque err = %v, want PanicError(task boom)", err)
	}
	if v, ok, err := c.AwaitKV(h3); err != nil || !ok || v != 10 {
		t.Fatalf("get = %d,%v,%v want 10,true,nil", v, ok, err)
	}
}

// recordingWAL is a WALSink fake: it applies encoders eagerly (like the
// real sink), remembers every staged record, and can fail the commit or
// panic on a chosen StageRecord call.
type recordingWAL struct {
	begins, commits, aborts int
	records                 [][]byte
	commitErr               error
	panicOnStage            int // 1-based staged-record ordinal; 0 = never
}

func (w *recordingWAL) Begin() { w.begins++ }

func (w *recordingWAL) StageRecord(enc func(dst []byte) []byte) {
	if w.panicOnStage != 0 && len(w.records)+1 == w.panicOnStage {
		panic("stage boom")
	}
	w.records = append(w.records, enc(nil))
}

func (w *recordingWAL) Commit(allowFaults bool) error {
	w.commits++
	return w.commitErr
}

func (w *recordingWAL) Abort() { w.aborts++ }

func testKVEnc(dst []byte, kind uint8, key, val uint64) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, key)
	return binary.LittleEndian.AppendUint64(dst, val)
}

// TestBatchedSweepWALStagesAndCommits runs a logged pass: logged closure
// mutations stage records in execution order and complete only after the
// group commit; the typed read beside them completes inline and stages
// nothing.
func TestBatchedSweepWALStagesAndCommits(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{}
	buf.SetWAL(w)
	k := newMapKernel()

	h1 := postLoggedt(t, c, k, KVInsert, 1, 11)
	h2 := postKVt(t, c, k, KVGet, 1, 0) // read-only: never staged
	h3 := postLoggedt(t, c, k, KVUpdate, 1, 12)

	if n := buf.Sweep(); n != 3 {
		t.Fatalf("sweep answered %d, want 3", n)
	}
	if ok, err := c.Await(h1); err != nil || ok != true {
		t.Fatalf("insert ok=%v err=%v", ok, err)
	}
	if v, ok, err := c.AwaitKV(h2); err != nil || !ok || v != 11 {
		t.Fatalf("get = %d,%v,%v want 11,true,nil", v, ok, err)
	}
	if ok, err := c.Await(h3); err != nil || ok != true {
		t.Fatalf("update ok=%v err=%v", ok, err)
	}
	if w.begins != 1 || w.commits != 1 || w.aborts != 0 {
		t.Fatalf("wal begins/commits/aborts = %d/%d/%d, want 1/1/0", w.begins, w.commits, w.aborts)
	}
	if len(w.records) != 2 {
		t.Fatalf("staged %d records, want 2 (mutations only)", len(w.records))
	}
	want1 := testKVEnc(nil, KVInsert, 1, 11)
	want2 := testKVEnc(nil, KVUpdate, 1, 12)
	if string(w.records[0]) != string(want1) || string(w.records[1]) != string(want2) {
		t.Fatalf("records = %x / %x, want %x / %x", w.records[0], w.records[1], want1, want2)
	}
}

// TestBatchedSweepWALCommitErrorFailsStashed pins the group-commit rule:
// when Commit fails, every stashed (logged-mutation) future fails with a
// PanicError carrying the commit error, while inline completions (the typed
// read) keep their results.
func TestBatchedSweepWALCommitErrorFailsStashed(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{commitErr: errors.New("disk gone")}
	buf.SetWAL(w)
	k := newMapKernel()
	k.m[5] = 55

	h1 := postLoggedt(t, c, k, KVInsert, 1, 11)
	h2 := postKVt(t, c, k, KVGet, 5, 0)

	buf.Sweep()
	var pe PanicError
	if _, err := c.Await(h1); !errors.As(err, &pe) {
		t.Fatalf("logged insert err = %v, want PanicError", err)
	}
	if v, ok, err := c.AwaitKV(h2); err != nil || !ok || v != 55 {
		t.Fatalf("inline get = %d,%v,%v want 55,true,nil", v, ok, err)
	}
}

// TestBatchedSweepWALPanicAborts panics the pass itself (StageRecord blows
// up, as an injected worker kill would): the defer must Abort the log
// batch, fail the already-stashed and the claimed-but-unanswered futures
// with PanicError, and re-raise to the sweep's caller.
func TestBatchedSweepWALPanicAborts(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{panicOnStage: 2}
	buf.SetWAL(w)
	k := newMapKernel()

	h1 := postLoggedt(t, c, k, KVInsert, 1, 11) // stages fine
	h2 := postLoggedt(t, c, k, KVInsert, 2, 22) // stage boom
	h3 := postLoggedt(t, c, k, KVInsert, 3, 33) // never staged

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("sweep did not re-panic")
			}
		}()
		buf.Sweep()
	}()
	if w.aborts != 1 || w.commits != 0 {
		t.Fatalf("wal aborts/commits = %d/%d, want 1/0", w.aborts, w.commits)
	}
	var pe PanicError
	for i, h := range []InvokeHandle{h1, h2, h3} {
		if _, err := c.Await(h); !errors.As(err, &pe) {
			t.Fatalf("op %d err = %v, want PanicError", i+1, err)
		}
	}
}

// TestBatchedSweepSealRace races a batched local sweep against a foreign
// Seal over a full burst of typed posts. Whoever wins each slot's claim
// CAS, every future must resolve exactly once — a value from the kernel or
// ErrWorkerStopped from the seal — with no hang and no double completion.
// Run under -race this also exercises the sealMu/claim interplay of the
// batched body.
func TestBatchedSweepSealRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		buf, c := newBatchedClient(t)
		k := newMapKernel()
		var hs [14]InvokeHandle
		for i := range hs {
			hs[i] = postKVt(t, c, k, KVInsert, uint64(i+1), uint64(i))
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); buf.Sweep() }()
		go func() { defer wg.Done(); buf.Seal() }()
		wg.Wait()
		executed, stopped := 0, 0
		for i := range hs {
			_, ok, err := c.AwaitKV(hs[i])
			switch {
			case err == nil && ok:
				executed++
			case errors.Is(err, ErrWorkerStopped):
				stopped++
			default:
				t.Fatalf("round %d op %d: ok=%v err=%v", round, i, ok, err)
			}
		}
		if executed+stopped != 14 {
			t.Fatalf("round %d: %d executed + %d stopped != 14", round, executed, stopped)
		}
		if len(k.m) != executed {
			t.Fatalf("round %d: kernel holds %d keys, %d ops executed", round, len(k.m), executed)
		}
	}
}

// lockedWAL is a WALSink fake safe for the concurrent passes of a seal
// race: it applies each encoder eagerly and counts the staged records.
type lockedWAL struct {
	mu     sync.Mutex
	staged int
}

func (w *lockedWAL) Begin() {}

func (w *lockedWAL) StageRecord(enc func(dst []byte) []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	enc(nil)
	w.staged++
}

func (w *lockedWAL) Commit(allowFaults bool) error { return nil }

func (w *lockedWAL) Abort() {}

// TestSweepSealRaceMixed races live sweeps against Seal while a mixed
// burst is still being posted: typed inserts, plain closures and logged
// closures. The live passes claim into the worker's scratch and the seal's
// final pass into the sealed-path scratch, so under -race the two never
// share staging arrays, stash entries or unclaimed slot fields. Every op
// completes exactly once — executed by one of the passes, or rescued with
// ErrWorkerStopped when its post lands after the seal — and the kernel,
// closure counters and staged records all match the executed counts.
func TestSweepSealRaceMixed(t *testing.T) {
	enc := func(dst []byte) []byte { return append(dst, 'L') }
	for round := 0; round < 50; round++ {
		buf, c := newBatchedClient(t)
		w := &lockedWAL{}
		buf.SetWAL(w)
		k := newMapKernel()
		var plain, logged atomic.Int64
		var hs [14]InvokeHandle
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := range hs {
				slot, ok := c.Reserve()
				if !ok {
					panic("no free slot")
				}
				switch i % 3 {
				case 0:
					hs[i] = c.Post(slot, Op{Kern: k, Kind: KVInsert, Key: uint64(i + 1), Val: uint64(i)})
				case 1:
					hs[i] = c.Post(slot, Op{Task: func() any { plain.Add(1); return nil }})
				default:
					hs[i] = c.Post(slot, Op{Task: func() any { logged.Add(1); return nil }, Log: enc})
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				buf.Sweep()
			}
		}()
		go func() { defer wg.Done(); buf.Seal() }()
		wg.Wait()
		var executed [3]int
		stopped := 0
		for i := range hs {
			var err error
			if i%3 == 0 {
				var ok bool
				if _, ok, err = c.AwaitKV(hs[i]); err == nil && !ok {
					t.Fatalf("round %d op %d: insert of a fresh key reported !ok", round, i)
				}
			} else {
				_, err = c.Await(hs[i])
			}
			switch {
			case err == nil:
				executed[i%3]++
			case errors.Is(err, ErrWorkerStopped):
				stopped++
			default:
				t.Fatalf("round %d op %d: err=%v", round, i, err)
			}
		}
		if got := executed[0] + executed[1] + executed[2] + stopped; got != len(hs) {
			t.Fatalf("round %d: %v executed + %d stopped != %d posted", round, executed, stopped, len(hs))
		}
		if len(k.m) != executed[0] {
			t.Fatalf("round %d: kernel holds %d keys, %d typed ops executed", round, len(k.m), executed[0])
		}
		if int(plain.Load()) != executed[1] || int(logged.Load()) != executed[2] {
			t.Fatalf("round %d: closures ran %d/%d, executed %d/%d",
				round, plain.Load(), logged.Load(), executed[1], executed[2])
		}
		if w.staged != executed[2] {
			t.Fatalf("round %d: %d records staged, %d logged closures executed", round, w.staged, executed[2])
		}
	}
}

// TestBatchedSweepPostAfterSealRescued: a typed post into a sealed buffer
// must be rescued with ErrWorkerStopped (the stop/post race contract,
// extended to typed ops).
func TestBatchedSweepPostAfterSealRescued(t *testing.T) {
	buf, c := newBatchedClient(t)
	buf.Seal()
	k := newMapKernel()
	h := postKVt(t, c, k, KVInsert, 1, 10)
	if _, _, err := c.AwaitKV(h); !errors.Is(err, ErrWorkerStopped) {
		t.Fatalf("err = %v, want ErrWorkerStopped", err)
	}
	if len(k.m) != 0 {
		t.Fatal("sealed post executed")
	}
}
